"""One request through the transport-free dispatch, as wire bytes."""

import struct

from repro.net.protocol import Frame, FrameDecoder, encode_frame

#: A READ in the retired 16-byte ``0xF1`` header: garbage to the decoder.
RETIRED_READ = struct.pack(">BBBBQII", 0xF1, 2, 1, 0, 8, 0, 0)


def roundtrip(endpoint, op, lba, payload=b"", **fields) -> Frame:
    """Encode a request, decode it, ``handle_frame`` it, decode the reply."""
    (request,) = FrameDecoder().feed(encode_frame(op, lba, payload, **fields))
    (reply,) = FrameDecoder().feed(endpoint.handle_frame(request))
    return reply
