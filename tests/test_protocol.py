import pytest
from hypothesis import given, strategies as st

from plantchart.protocol import (
    SYNC,
    ChecksumError,
    Frame,
    FramingError,
    Opcode,
    TruncatedFrameError,
    UnknownOpcodeError,
    checksum,
    decode_frame,
    encode_frame,
)

frames = st.builds(
    Frame,
    board_id=st.integers(0, 255),
    opcode=st.sampled_from(list(Opcode)),
    payload=st.binary(min_size=0, max_size=255),
)


@given(frames)
def test_roundtrip_identity(frame):
    assert decode_frame(encode_frame(frame)) == frame


@pytest.mark.parametrize("size", [0, 1, 254, 255])
def test_boundary_payload_sizes(size):
    frame = Frame(5, Opcode.EVENT, bytes(range(256))[:size])
    wire = encode_frame(frame)
    assert len(wire) == size + 5
    assert decode_frame(wire) == frame


@given(frames, st.integers(0, 7))
def test_flipped_checksum_bit_always_rejected(frame, bit):
    wire = bytearray(encode_frame(frame))
    wire[-1] ^= 1 << bit
    with pytest.raises(ChecksumError):
        decode_frame(bytes(wire))


@given(frames, st.data())
def test_single_bit_flip_never_decodes_to_the_original(frame, data):
    wire = bytearray(encode_frame(frame))
    index = data.draw(st.integers(0, len(wire) - 1))
    bit = data.draw(st.integers(0, 7))
    wire[index] ^= 1 << bit
    try:
        decoded = decode_frame(bytes(wire))
    except (FramingError, TruncatedFrameError, ChecksumError, UnknownOpcodeError):
        return
    assert decoded != frame


@given(frames, st.integers(min_value=1))
def test_truncated_frames_rejected(frame, cut):
    wire = encode_frame(frame)
    cut = cut % len(wire)
    if cut == 0:
        cut = 1
    with pytest.raises(TruncatedFrameError):
        decode_frame(wire[:-cut])


def test_unknown_opcode_rejected():
    body = bytes((SYNC, 0, 0x7F, 0))
    wire = body + bytes((checksum(body),))
    with pytest.raises(UnknownOpcodeError):
        decode_frame(wire)


def test_missing_sync_rejected():
    wire = bytearray(encode_frame(Frame(1, Opcode.ACK)))
    wire[0] = 0x00
    with pytest.raises(FramingError):
        decode_frame(bytes(wire))


def test_trailing_bytes_are_ignored():
    frame = Frame(2, Opcode.QUERY, b"\x01")
    assert decode_frame(encode_frame(frame) + b"garbage") == frame


def test_oversized_payload_rejected_at_construction():
    with pytest.raises(ValueError):
        Frame(0, Opcode.ACK, bytes(256))


def test_a_board_id_past_one_byte_is_rejected_at_construction():
    with pytest.raises(ValueError, match="^board_id 256 does not fit one byte$"):
        Frame(256, Opcode.ACK)


def test_an_empty_buffer_is_truncated():
    with pytest.raises(TruncatedFrameError, match="^empty buffer$"):
        decode_frame(b"")


def test_checksum_is_xor_of_preceding_bytes():
    frame = Frame(3, Opcode.SET_TARGET, b"\x10\x20")
    wire = encode_frame(frame)
    acc = 0
    for byte in wire[:-1]:
        acc ^= byte
    assert wire[-1] == acc
