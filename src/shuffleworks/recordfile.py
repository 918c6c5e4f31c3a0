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

`shuffle --records` takes every container the same way.  `read_header`
reads the header from the source's current position; a regular file's
size is checked against it there, and a stream's body as it is read.
`copy_records` then puts the body in one array to shuffle: the body of
the output file, mapped behind a zeroed header and prefaulted in one
call where the kernel can, or a buffer where there is no such file.
Unless that file is the source itself, one read loop fills the array,
and refuses a short body or a byte past it.  Both readers refuse a file
with a zeroed header until `write_header` gives it the real one; a file
whose body is refused is cut back to that header.  `open_records_inplace`
maps an existing container as it stands.
"""

from __future__ import annotations

import contextlib
import os
import stat
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


def read_header(src) -> tuple[int, int, int]:
    """Read and validate the header at src's position; return (n, k, size).

    The body length of a regular file is checked against its size; that of
    a stream, which states none, is checked as copy_records reads it.
    """
    head = bytearray(HEADER_SIZE)
    return check_header(head[:_fill(src, head)], _bytes_left(src))


def _bytes_left(src) -> int | None:
    """The bytes of the regular file src past its position, or None for a stream."""
    try:
        info = os.fstat(src.fileno())
    except OSError:  # an in-memory stream has no file descriptor
        return None
    return info.st_size - src.tell() if stat.S_ISREG(info.st_mode) else None


def _fill(src, buffer) -> int:
    """Read from src into buffer until it is full or src ends; return the bytes read."""
    got = 0
    with memoryview(buffer) as view:  # an unbuffered read stops short of 2 GiB on Linux
        while got < len(view) and (n := src.readinto(view[got:])):
            got += n
    return got


def _madvise(mm, advice: int) -> None:
    mm.madvise(advice)


def _map_body(path: str, n: int, size: int, prefault: bool = True) -> np.memmap:
    """Map the n records of path writable, on Linux with every page faulted in by one call if prefault.

    A body over half of physical memory is left to fault page by page:
    populating it would dirty and evict pages before the rounds read them.
    Kernels before 5.14 refuse the advice, and their pages fault the same way.
    """
    body = np.memmap(path, dtype=record_dtype(size), mode="r+", offset=HEADER_SIZE, shape=(n,))
    if (prefault and sys.platform.startswith("linux")
            and 2 * n * size <= os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")):
        with contextlib.suppress(OSError):
            _madvise(body._mmap, _MADV_POPULATE_WRITE)
    return body


def open_records_inplace(path: str) -> tuple[RecordFile, np.memmap]:
    """Memory-map the record body of an existing file for in-place editing."""
    with open(path, "rb") as fh:
        n, k, size = read_header(fh)
    mm = _map_body(path, n, size)
    return RecordFile(n, k, size, mm), mm


def copy_records(src, path: str | None, n: int, size: int, onto_src: bool) -> np.ndarray:
    """The n records of size bytes after src's position, in one array: path's mapped body, or a buffer for None.

    path gets a zeroed header and the container's length; an existing path
    is overwritten where it stands, keeping its inode and page cache, and
    only bytes past the new end are cut.  When path is src itself
    (onto_src), its body is already in place.  Otherwise the body is read
    from src, and a short body or a byte past its end is refused.  A body
    refused, or one that cannot be mapped or read, leaves path cut back to
    its zeroed header.
    """
    if HEADER_SIZE + n * size > sys.maxsize:  # past any file offset and array size
        raise RecordFormatError("header promises %d records of %d bytes, more than can be addressed" % (n, size))
    if path is None:
        try:
            body = np.empty(n, record_dtype(size))
        except MemoryError as exc:
            raise RecordFormatError(
                "header promises %d records of %d bytes, more than memory holds" % (n, size)) from exc
        _read_body(src, body)
        return body
    try:
        with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b", buffering=0) as out:
            out.write(bytes(HEADER_SIZE))
            if os.fstat(out.fileno()).st_size != HEADER_SIZE + n * size:  # on ext4 a same-size cut still costs
                out.truncate(HEADER_SIZE + n * size)
        # a stream's body is only promised, so its pages fault as they are read
        body = _map_body(path, n, size, prefault=_bytes_left(src) == n * size)
        if not onto_src:
            _read_body(src, body)
    except (OSError, ValueError):
        if not onto_src:
            with contextlib.suppress(OSError):
                os.truncate(path, HEADER_SIZE)
        raise
    return body


def _read_body(src, body: np.ndarray) -> None:
    """Fill body from src; refuse a short body or a byte past its end."""
    got = _fill(src, body.view(np.uint8))
    if got < body.nbytes:
        raise RecordFormatError("body is %d bytes, header promises %d" % (got, body.nbytes))
    if src.read(1):
        raise RecordFormatError("body is more than %d bytes, header promises %d" % (got, got))


def write_header(path: str, n: int, k: int, size: int) -> None:
    with open(path, "r+b", buffering=0) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, n, k, size))
