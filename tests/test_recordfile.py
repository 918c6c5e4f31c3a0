"""Binary record container: layout, validation, in-place editing."""

import struct

import numpy as np
import pytest

from shuffleworks.oracle import oracle_shuffle
from shuffleworks.recordfile import (
    HEADER_SIZE,
    MAGIC,
    RecordFormatError,
    VERSION,
    make_record_file,
    open_records_inplace,
    parse_record_file,
    record_dtype,
)
from shuffleworks.shuffle_modinv import shuffle_modinv


def test_header_layout():
    assert HEADER_SIZE == 21
    rf = make_record_file(2, 4, b"aaaabbbbccccdddd")
    head = rf.header_bytes()
    assert len(head) == HEADER_SIZE
    assert struct.unpack("<4sBQII", head) == (MAGIC, VERSION, 4, 2, 4)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 16])
def test_round_trip_preserves_bytes(size):
    payload = bytes(i % 251 for i in range(size * 6))
    rf = make_record_file(3, size, payload)
    assert rf.n_records == 6
    blob = rf.to_bytes()
    back = parse_record_file(blob)
    assert back.n_records == 6
    assert back.k == 3
    assert back.record_size == size
    assert back.to_bytes() == blob


def test_record_dtype_choices():
    assert record_dtype(4) == np.dtype(np.uint32)
    assert record_dtype(8) == np.dtype(np.uint64)
    assert record_dtype(5) == np.dtype((np.void, 5))


def test_records_view_is_writable():
    rf = make_record_file(2, 1, bytes(range(8)))
    shuffle_modinv(rf.records, 2)
    want = bytes(oracle_shuffle(list(range(8)), 2))
    assert rf.to_bytes()[HEADER_SIZE:] == want


def test_make_record_file_rejects_ragged_payload():
    with pytest.raises(RecordFormatError):
        make_record_file(2, 3, b"1234")
    with pytest.raises(RecordFormatError):
        make_record_file(2, 0, b"")


def test_parse_rejects_malformed_containers():
    good = make_record_file(2, 2, b"aabbccdd").to_bytes()
    with pytest.raises(RecordFormatError):
        parse_record_file(good[:10])
    with pytest.raises(RecordFormatError):
        parse_record_file(b"JUNK" + good[4:])
    with pytest.raises(RecordFormatError):
        parse_record_file(good[:4] + b"\x09" + good[5:])
    with pytest.raises(RecordFormatError):
        parse_record_file(good + b"extra")
    with pytest.raises(RecordFormatError):
        parse_record_file(good[:-1])


def test_parse_rejects_zero_record_size():
    head = struct.pack("<4sBQII", MAGIC, VERSION, 0, 2, 0)
    with pytest.raises(RecordFormatError):
        parse_record_file(head)


@pytest.mark.parametrize("k", [0, 1])
def test_both_readers_reject_arity_below_two(tmp_path, k):
    blob = make_record_file(k, 4, bytes(16)).to_bytes()
    with pytest.raises(RecordFormatError, match="arity"):
        parse_record_file(blob)
    path = tmp_path / "records.bin"
    path.write_bytes(blob)
    with pytest.raises(RecordFormatError, match="arity"):
        open_records_inplace(str(path))


@pytest.mark.parametrize("size", [1, 3, 8, 12])
def test_to_bytes_is_header_then_raw_records(size):
    payload = bytes(i % 253 for i in range(size * 10))
    rf = make_record_file(2, size, payload)
    assert rf.to_bytes() == rf.header_bytes() + payload
    assert make_record_file(2, size, b"").to_bytes() == make_record_file(2, size, b"").header_bytes()


def test_parsed_records_are_a_writable_copy():
    blob = make_record_file(2, 8, bytes(range(64))).to_bytes()
    rf = parse_record_file(blob)
    assert rf.records.flags.writeable and rf.records.flags.owndata
    rf.records[0] = 0xFFFF
    assert blob[HEADER_SIZE:HEADER_SIZE + 8] == bytes(range(8))


def test_open_records_inplace(tmp_path):
    path = tmp_path / "records.bin"
    payload = bytes(i % 256 for i in range(16 * 4))
    path.write_bytes(make_record_file(2, 4, payload).to_bytes())

    rf, mm = open_records_inplace(str(path))
    assert rf.n_records == 16
    shuffle_modinv(mm, 2)
    mm.flush()
    del mm

    back = parse_record_file(path.read_bytes())
    original = np.frombuffer(payload, dtype=np.uint32)
    assert back.records.tolist() == oracle_shuffle(original, 2).tolist()
    assert (back.k, back.record_size) == (2, 4)


def test_open_records_inplace_validates(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"IVSH")
    with pytest.raises(RecordFormatError):
        open_records_inplace(str(path))
    path2 = tmp_path / "liar.bin"
    blob = make_record_file(2, 4, bytes(16)).to_bytes()
    path2.write_bytes(blob + b"!")
    with pytest.raises(RecordFormatError):
        open_records_inplace(str(path2))
