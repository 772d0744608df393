"""Framed serial protocol linking the coordinator to the board ring.

Frame layout (all single bytes except the payload):

    sync 0x7E | board_id | opcode | payload_len | payload... | checksum

The checksum is the XOR of every preceding byte, so the XOR of a whole
valid frame is the checksum itself twice, i.e. zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

SYNC = 0x7E
HEADER_LEN = 4  # sync, board_id, opcode, payload_len
MAX_PAYLOAD = 255


class Opcode(enum.IntEnum):
    SET_TARGET = 0x01
    QUERY = 0x02
    EVENT = 0x03
    ACK = 0x04


class ProtocolError(ValueError):
    pass


class FramingError(ProtocolError):
    """The stream does not begin at a sync byte."""


class TruncatedFrameError(ProtocolError):
    """The buffer ends before the frame does."""


class ChecksumError(ProtocolError):
    """The transported checksum does not match the frame contents."""


class UnknownOpcodeError(ProtocolError):
    pass


@dataclass(frozen=True)
class Frame:
    board_id: int
    opcode: Opcode
    payload: bytes = b""

    def __post_init__(self):
        if not 0 <= self.board_id <= 255:
            raise ValueError(f"board_id {self.board_id} does not fit one byte")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError(f"payload too long: {len(self.payload)} > {MAX_PAYLOAD}")
        object.__setattr__(self, "payload", bytes(self.payload))
        object.__setattr__(self, "opcode", Opcode(self.opcode))


def checksum(data: bytes) -> int:
    value = 0
    for byte in data:
        value ^= byte
    return value


def encode_frame(frame: Frame) -> bytes:
    body = bytes((SYNC, frame.board_id, frame.opcode, len(frame.payload))) + frame.payload
    return body + bytes((checksum(body),))


def decode_frame(data: bytes) -> Frame:
    """Decode one frame from the start of ``data``; trailing bytes beyond the
    frame are ignored."""
    if len(data) < 1:
        raise TruncatedFrameError("empty buffer")
    if data[0] != SYNC:
        raise FramingError(f"expected sync byte 0x{SYNC:02x}, got 0x{data[0]:02x}")
    if len(data) < HEADER_LEN:
        raise TruncatedFrameError(f"header needs {HEADER_LEN} bytes, got {len(data)}")
    payload_len = data[3]
    total = HEADER_LEN + payload_len + 1
    if len(data) < total:
        raise TruncatedFrameError(f"frame needs {total} bytes, got {len(data)}")
    body = data[: total - 1]
    if checksum(body) != data[total - 1]:
        raise ChecksumError(
            f"checksum mismatch: computed 0x{checksum(body):02x}, "
            f"transported 0x{data[total - 1]:02x}"
        )
    try:
        opcode = Opcode(data[2])
    except ValueError:
        raise UnknownOpcodeError(f"unknown opcode 0x{data[2]:02x}") from None
    return Frame(board_id=data[1], opcode=opcode, payload=bytes(data[4 : 4 + payload_len]))
