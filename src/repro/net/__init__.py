"""The storage network protocol layer (paper §6.2).

``protocol`` is the wire format and the transport-free request dispatch;
``aserver`` is the asyncio server and pipelined client on top of it;
``router`` scatter-gathers one endpoint across N shard backends.
"""

from .aserver import AsyncProtocolClient, AsyncProtocolServer, ServerMetrics
from .router import ShardRouter
from .protocol import (
    Frame,
    FrameDecoder,
    Op,
    ProtocolError,
    ProtocolServer,
    encode_frame,
    encode_reply,
)

__all__ = [
    "AsyncProtocolClient",
    "AsyncProtocolServer",
    "Frame",
    "FrameDecoder",
    "Op",
    "ProtocolError",
    "ProtocolServer",
    "ServerMetrics",
    "ShardRouter",
    "encode_frame",
    "encode_reply",
]
