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

Files are edited through a memory map of their body, prefaulted in one
call where the kernel can.  `open_records_inplace` maps an existing
container as it stands.  `copy_records` zeroes the header of a file that
is either the source container itself or another one, new or overwritten
where it stands, whose body the kernel copies from it, and maps that
body; both readers refuse the file until `write_header` gives it the
real header.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

MAGIC = b"IVSH"
VERSION = 1
_HEADER = struct.Struct("<4sBQII")
HEADER_SIZE = _HEADER.size
_MADV_POPULATE_WRITE = 23  # Linux 5.14 and later; Python's mmap module has no name for it


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


def check_header(head: bytes, body_len: int | None = None) -> tuple[int, int, int]:
    """Validate a container header, and against its body length unless that is None; return (n, k, size)."""
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
    if body_len is not None and body_len != n * size:
        raise RecordFormatError("body is %d bytes, header promises %d" % (body_len, n * size))
    return n, k, size


def parse_record_file(data: bytes | bytearray | np.ndarray) -> RecordFile:
    """Parse a container held in memory.

    The records of writable data (a bytearray or uint8 ndarray) are a view
    of it, so shuffling them rewrites data itself; read-only data is copied once.
    """
    n, k, size = check_header(data, len(data) - HEADER_SIZE)
    records = np.frombuffer(data, dtype=record_dtype(size), count=n, offset=HEADER_SIZE)
    return RecordFile(n, k, size, records if records.flags.writeable else records.copy())


def make_record_file(k: int, record_size: int, payload: bytes) -> RecordFile:
    if record_size < 1 or len(payload) % record_size:
        raise RecordFormatError("payload does not divide into %d-byte records" % record_size)
    if k < 2:
        raise RecordFormatError("arity k must be at least 2, got %d" % k)
    records = np.frombuffer(payload, dtype=record_dtype(record_size)).copy()
    return RecordFile(len(records), k, record_size, records)


def read_header(fh) -> tuple[int, int, int]:
    """Validate the header of a container file opened at its start against its size; return (n, k, size)."""
    return check_header(fh.read(HEADER_SIZE), os.fstat(fh.fileno()).st_size - HEADER_SIZE)


def _madvise(mm, advice: int) -> None:
    mm.madvise(advice)


def _map_body(path: str, n: int, size: int) -> np.memmap:
    """Map the n records of path writable, on Linux with every page faulted in by one call.

    A body over half of physical memory is left to fault page by page:
    populating it would dirty and evict pages before the rounds read them.
    Kernels before 5.14 refuse the advice, and their pages fault the same way.
    """
    body = np.memmap(path, dtype=record_dtype(size), mode="r+", offset=HEADER_SIZE, shape=(n,))
    if sys.platform.startswith("linux") and 2 * n * size <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        with contextlib.suppress(OSError):
            _madvise(body._mmap, _MADV_POPULATE_WRITE)
    return body


def open_records_inplace(path: str) -> tuple[RecordFile, np.memmap]:
    """Memory-map the record body of an existing file for in-place editing."""
    with open(path, "rb") as fh:
        n, k, size = read_header(fh)
    mm = _map_body(path, n, size)
    return RecordFile(n, k, size, mm), mm


def copy_records(src, path: str, n: int, size: int, onto_src: bool) -> np.memmap:
    """Make path the n records of the open container src behind a zeroed header; map them.

    Onto src itself only the header is zeroed.  Otherwise the kernel copies
    the body, so no buffer of its size is made.  An existing path is
    overwritten where it stands, keeping its inode and page cache, and only
    bytes past the new end are cut.
    """
    end = HEADER_SIZE + n * size
    with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b", buffering=0) as out:
        out.write(bytes(HEADER_SIZE))
        offset = end if onto_src else HEADER_SIZE
        while offset < end:
            sent = os.sendfile(out.fileno(), src.fileno(), offset, end - offset)
            if not sent:
                raise RecordFormatError("%s: short read" % src.name)
            offset += sent
        if os.fstat(out.fileno()).st_size > end:  # on ext4 a cut to the same size still runs its truncate
            out.truncate(end)
    return _map_body(path, n, size)


def write_header(path: str, n: int, k: int, size: int) -> None:
    with open(path, "r+b", buffering=0) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, k, size))
