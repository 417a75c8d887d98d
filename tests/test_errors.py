"""Tests for the repro.errors hierarchy and wire error payloads."""

import pytest

from repro.errors import (
    AlignmentError,
    CapacityError,
    ChunkDecodeError,
    ErrorCode,
    ProtocolError,
    ReproError,
    decode_error_payload,
    encode_error_payload,
    error_code_for,
    exception_for_code,
)


class TestHierarchy:
    def test_all_errors_are_repro_errors(self):
        for klass in (ProtocolError, AlignmentError, CapacityError):
            assert issubclass(klass, ReproError)

    def test_backward_compatible_with_valueerror(self):
        """Pre-v2 callers catch ValueError; the typed classes still land."""
        for klass in (ProtocolError, AlignmentError, CapacityError):
            assert issubclass(klass, ValueError)

    def test_catching_the_base_catches_everything(self):
        with pytest.raises(ReproError):
            raise AlignmentError("LBA 3 is not chunk-aligned")


class TestCodeMapping:
    @pytest.mark.parametrize("exc,code", [
        (AlignmentError("x"), ErrorCode.ALIGNMENT),
        (CapacityError("x"), ErrorCode.CAPACITY),
        (ProtocolError("x"), ErrorCode.BAD_REQUEST),
        (ReproError("x"), ErrorCode.INTERNAL),
        (ValueError("x"), ErrorCode.BAD_REQUEST),
        (RuntimeError("x"), ErrorCode.UNKNOWN),
        (ChunkDecodeError("x"), ErrorCode.INTERNAL),
    ])
    def test_error_code_for(self, exc, code):
        assert error_code_for(exc) is code

    def test_roundtrip_through_wire(self):
        """exception -> code -> payload -> code -> exception class."""
        original = AlignmentError("LBA 5 is not chunk-aligned")
        payload = encode_error_payload(error_code_for(original), str(original))
        code, message = decode_error_payload(payload)
        assert code is ErrorCode.ALIGNMENT
        assert message == str(original)
        assert exception_for_code(code) is AlignmentError

    def test_unknown_code_degrades_to_protocol_error(self):
        assert exception_for_code(999) is ProtocolError


class TestPayloadFormat:
    def test_structured_payload(self):
        payload = encode_error_payload(ErrorCode.CAPACITY, "full")
        assert decode_error_payload(payload) == (ErrorCode.CAPACITY, "full")

    @pytest.mark.parametrize("payload, expected", [
        (b"", (ErrorCode.UNKNOWN, "")),
        (b"x", (ErrorCode.UNKNOWN, "")),  # shorter than the code field
        # The code is always unpacked: a first byte != 0 is no free text.
        (b"empty write", (ErrorCode.UNKNOWN, "pty write")),
        (b"\x00\x04\xff\xfefull", (ErrorCode.CAPACITY, "\ufffd\ufffdfull")),
    ], ids=["empty", "one-byte", "unknown-code", "not-utf8"])
    def test_any_payload_decodes_without_raising(self, payload, expected):
        assert decode_error_payload(payload) == expected

    def test_empty_payload(self):
        code, message = decode_error_payload(b"")
        assert code is ErrorCode.UNKNOWN
        assert message == ""

    def test_unrecognized_numeric_code(self):
        payload = b"\x00\xff" + b"odd"
        code, message = decode_error_payload(payload)
        assert code is ErrorCode.UNKNOWN
        assert message == "odd"
