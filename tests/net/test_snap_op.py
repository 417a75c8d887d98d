"""Tests for the SNAP/SNAP_ACK wire op: CoW snapshot management.

Covers the JSON action dispatch (create/delete/list/read) and typed
snapshot errors on ``handle_frame``, and the async client's coroutine
variants over a real socket.
"""

import asyncio
import json

from repro.errors import ErrorCode, decode_error_payload
from repro.net.aserver import AsyncProtocolClient, AsyncProtocolServer
from repro.net.protocol import Op, ProtocolServer

from .test_aserver import CHUNK, build_storage
from .wire import roundtrip


def make_endpoint():
    return ProtocolServer(build_storage())


def snap(endpoint, action, name=None, lba=0, count=0):
    """One SNAP request; returns the reply frame."""
    body = {"action": action} if name is None else {"action": action, "name": name}
    return roundtrip(
        endpoint, Op.SNAP, lba, json.dumps(body).encode("utf-8"), count=count
    )


def ack_json(reply):
    assert reply.op == Op.SNAP_ACK
    return json.loads(reply.payload.decode("utf-8"))


class TestSnapActions:
    def test_create_list_delete_roundtrip(self, rng):
        endpoint = make_endpoint()
        roundtrip(endpoint, Op.WRITE, 0, rng.randbytes(CHUNK))
        roundtrip(endpoint, Op.WRITE, 1, rng.randbytes(CHUNK))
        assert ack_json(snap(endpoint, "create", "alpha")) == {"pinned": 2}
        assert ack_json(snap(endpoint, "list")) == {"snapshots": ["alpha"]}
        assert ack_json(snap(endpoint, "delete", "alpha"))["reclaimed"] >= 0
        assert ack_json(snap(endpoint, "list")) == {"snapshots": []}

    def test_snapshot_read_is_pinned_against_overwrites(self, rng):
        endpoint = make_endpoint()
        old = rng.randbytes(CHUNK)
        roundtrip(endpoint, Op.WRITE, 0, old)
        snap(endpoint, "create", "pin")
        roundtrip(endpoint, Op.WRITE, 0, rng.randbytes(CHUNK))
        pinned = snap(endpoint, "read", "pin", lba=0, count=1)
        assert (pinned.op, pinned.payload) == (Op.SNAP_ACK, old)
        assert roundtrip(endpoint, Op.READ, 0, count=1).payload != old

    def test_duplicate_create_is_typed_bad_request(self, rng):
        endpoint = make_endpoint()
        roundtrip(endpoint, Op.WRITE, 0, rng.randbytes(CHUNK))
        snap(endpoint, "create", "once")
        reply = snap(endpoint, "create", "once")
        assert reply.op == Op.ERROR
        code, message = decode_error_payload(reply.payload)
        assert code == ErrorCode.BAD_REQUEST
        assert "once" in message

    def test_delete_unknown_is_error(self):
        reply = snap(make_endpoint(), "delete", "ghost")
        assert reply.op == Op.ERROR
        code, message = decode_error_payload(reply.payload)
        assert code == ErrorCode.BAD_REQUEST
        assert "ghost" in message

    def test_malformed_payload_is_protocol_error(self):
        frame = roundtrip(make_endpoint(), Op.SNAP, 0, b"\xff\xfe not json")
        assert frame.op == Op.ERROR
        code, _message = decode_error_payload(frame.payload)
        assert code == ErrorCode.BAD_REQUEST

    def test_unknown_action_is_protocol_error(self):
        frame = snap(make_endpoint(), "clone", "x")
        assert frame.op == Op.ERROR
        code, message = decode_error_payload(frame.payload)
        assert code == ErrorCode.BAD_REQUEST
        assert "clone" in message


class TestAsyncSnap:
    def test_async_snapshot_lifecycle(self, rng):
        storage = build_storage()
        old = rng.randbytes(CHUNK)

        async def body():
            async with AsyncProtocolServer(storage) as server:
                async with await AsyncProtocolClient.connect(
                    server.host, server.port
                ) as client:
                    await client.write(0, old)
                    pinned = await client.create_snapshot("wire")
                    assert pinned == 1
                    await client.write(0, rng.randbytes(CHUNK))
                    assert await client.read_snapshot("wire", 0) == old
                    assert await client.snapshots() == ["wire"]
                    assert await client.delete_snapshot("wire") >= 0

        asyncio.run(body())
