"""Fixed-size record container used by the command line for binary data.

Layout, little-endian throughout:

    offset  size  field
    0       4     magic "IVSH"
    4       1     format version (1)
    5       8     record count N
    13      4     arity k
    17      4     record size R in bytes
    21      N*R   record bodies, nothing after

The body length must match the header exactly, and the arity k must be
at least 2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"IVSH"
VERSION = 1
_HEADER = struct.Struct("<4sBQII")
HEADER_SIZE = _HEADER.size


class RecordFormatError(ValueError):
    """Raised for malformed record containers."""


def record_dtype(record_size: int) -> np.dtype:
    # Power-of-two word sizes get native integer dtypes; anything else is raw bytes.
    plain = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}.get(record_size)
    return np.dtype(plain) if plain else np.dtype((np.void, record_size))


@dataclass
class RecordFile:
    n_records: int
    k: int
    record_size: int
    records: np.ndarray  # one-dimensional, n_records long

    def header_bytes(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, self.n_records, self.k, self.record_size)

    def to_bytes(self) -> bytes:
        # join copies the body once; header + tobytes() would copy it twice
        return b"".join([self.header_bytes(), self.records.view(np.uint8)])


def _check_header(head: bytes, body_len: int) -> tuple[int, int, int]:
    """Validate a container header against its body length; return (n, k, size)."""
    if len(head) < HEADER_SIZE:
        raise RecordFormatError("truncated header: %d bytes" % len(head))
    magic, version, n, k, size = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise RecordFormatError("bad magic %r" % magic)
    if version != VERSION:
        raise RecordFormatError("unsupported version %d" % version)
    if size < 1:
        raise RecordFormatError("record size must be positive")
    if k < 2:
        raise RecordFormatError("arity k must be at least 2, header has %d" % k)
    if body_len != n * size:
        raise RecordFormatError("body is %d bytes, header promises %d" % (body_len, n * size))
    return n, k, size


def parse_record_file(data: bytes) -> RecordFile:
    n, k, size = _check_header(data, len(data) - HEADER_SIZE)
    records = np.frombuffer(data, dtype=record_dtype(size), count=n, offset=HEADER_SIZE).copy()
    return RecordFile(n, k, size, records)


def make_record_file(k: int, record_size: int, payload: bytes) -> RecordFile:
    if record_size < 1 or len(payload) % record_size:
        raise RecordFormatError("payload does not divide into %d-byte records" % record_size)
    records = np.frombuffer(payload, dtype=record_dtype(record_size)).copy()
    return RecordFile(len(records), k, record_size, records)


def open_records_inplace(path: str) -> tuple[RecordFile, np.memmap]:
    """Memory-map the record body of an existing file for in-place editing."""
    with open(path, "rb") as fh:
        head = fh.read(HEADER_SIZE)
        fh.seek(0, 2)
        total = fh.tell()
    n, k, size = _check_header(head, total - HEADER_SIZE)
    mm = np.memmap(path, dtype=record_dtype(size), mode="r+", offset=HEADER_SIZE, shape=(n,))
    return RecordFile(n, k, size, mm), mm
