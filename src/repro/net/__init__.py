"""The storage network protocol layer (paper §6.2).

``protocol`` is the wire format and the transport-free request dispatch;
``aserver`` is the asyncio server and pipelined client on top of it.
Each served process is one engine; there is no routing tier.
"""

from .aserver import AsyncProtocolClient, AsyncProtocolServer, ServerMetrics
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
    "encode_frame",
    "encode_reply",
]
