"""Digit-reversal rounds on every container, checked against the oracle.

numpy arrays and memmaps take the tiled route of revswap_round, lists the
scalar loop; all must realise the same permutation and report the same
swap counts.  The tile-edge cases pin the shapes where the tile side, the
middle digits or the chunking change.
"""

import tracemalloc

import numpy as np
import pytest

from shuffleworks.oracle import oracle_shuffle
from shuffleworks.recordfile import HEADER_SIZE, make_record_file, open_records_inplace, record_dtype
from shuffleworks.shuffle_bitrev import (
    _CHUNK_BYTES,
    _TILE_ELEMS,
    ShuffleSpec,
    revswap_round,
    shuffle_general_k2,
    shuffle_power,
    swap_counts,
)

# One power of each k whose two rounds split into tiles with and without
# middle digits.
POWERS = {2: 13, 3: 8, 4: 6, 5: 5}
CONTAINERS = ["list", "ndarray", "void", "memmap"]
SIZES = [1, 3, 8, 16]


def payload(N, size):
    """N records of size bytes; each carries its index, little-endian."""
    out = bytearray()
    for i in range(N):
        out += (i * 131 % (1 << 8 * size)).to_bytes(size, "little")
    return bytes(out)


def container(kind, N, k, size, tmp_path):
    data = payload(N, size)
    if kind == "list":
        return [data[i * size:(i + 1) * size] for i in range(N)]
    if kind == "ndarray":
        return np.frombuffer(data, dtype=record_dtype(size)).copy()
    if kind == "void":
        return np.frombuffer(data, dtype=np.dtype((np.void, size))).copy()
    path = tmp_path / "records.bin"
    path.write_bytes(make_record_file(k, size, data).to_bytes())
    _, mm = open_records_inplace(str(path))
    assert mm.offset == HEADER_SIZE == 21  # records start unaligned
    return mm


def as_list(array):
    return list(array) if isinstance(array, list) else array.tolist()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("k", sorted(POWERS))
@pytest.mark.parametrize("kind", CONTAINERS)
def test_shuffle_power_matches_oracle(kind, k, size, tmp_path):
    spec = ShuffleSpec.for_power(k, POWERS[k])
    array = container(kind, spec.N, k, size, tmp_path)
    want = oracle_shuffle(as_list(array), k)
    assert shuffle_power(array, spec) == swap_counts(spec)
    assert as_list(array) == want


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", CONTAINERS)
def test_general_k2_blocks_match_oracle(kind, size, tmp_path):
    N = 2 * (2 ** 12 + 2 ** 9 + 3)
    array = container(kind, N, 2, size, tmp_path)
    want = oracle_shuffle(as_list(array), 2)
    shuffle_general_k2(array)
    assert as_list(array) == want


def reversal_reference(N, k, t):
    """Partner of every position under reversal of its low t digits."""
    i = np.arange(N, dtype=np.int64)
    low = i % k ** t
    rev = np.zeros_like(i)
    for _ in range(t):
        low, digit = np.divmod(low, k)
        rev = rev * k + digit
    return i - i % k ** t + rev


def largest_tile_side(k):
    b = 1
    while k ** (2 * b + 2) <= _TILE_ELEMS:
        b += 1
    return b


@pytest.mark.parametrize("k", [2, 3])
def test_every_digit_count_past_the_largest_tile(k):
    b = largest_tile_side(k)
    n = 2 * b + 3
    spec = ShuffleSpec.for_power(k, n)
    for t in range(n + 1):
        array = np.arange(spec.N, dtype=np.uint32)
        partner = reversal_reference(spec.N, k, t)
        count = revswap_round(array, t, spec)
        assert np.array_equal(array, partner), (k, t)
        assert count == int(np.count_nonzero(partner > np.arange(spec.N))), (k, t)


@pytest.mark.parametrize("k, n", [(2, 15), (3, 9)])
def test_round_counts_match_the_scalar_loop(k, n):
    spec = ShuffleSpec.for_power(k, n)
    for t in range(n + 1):
        lst = list(range(spec.N))
        arr = np.arange(spec.N, dtype=np.int64)
        assert revswap_round(arr, t, spec) == revswap_round(lst, t, spec), (k, t)
        assert arr.tolist() == lst, (k, t)
    first = revswap_round(np.arange(spec.N), n - 1, spec)
    second = revswap_round(np.arange(spec.N), n, spec)
    assert (first, second) == swap_counts(spec)


def test_mids_span_several_chunks():
    # 2**17 eight-byte records: the full-width round has 2**5 middle
    # values of 2**12-element tiles, more than one chunk holds.
    spec = ShuffleSpec.for_power(2, 17)
    tile_bytes = _TILE_ELEMS * 8
    mids = (2 ** 5 + 2 ** 3) // 2  # middle values up to their reversal
    assert mids * tile_bytes > 2 * _CHUNK_BYTES
    array = np.arange(spec.N, dtype=np.uint64)
    assert shuffle_power(array, spec) == swap_counts(spec)
    assert np.array_equal(array, oracle_shuffle(np.arange(spec.N, dtype=np.uint64), 2))


def test_small_digit_counts_on_many_blocks_stay_chunked():
    # t=2 on 2**20 positions: one 2x2 tile per block, 2**18 blocks
    spec = ShuffleSpec.for_power(2, 20)
    array = np.arange(spec.N, dtype=np.uint64)
    tracemalloc.start()
    try:
        count = revswap_round(array, 2, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == spec.N // 4
    assert np.array_equal(array, reversal_reference(spec.N, 2, 2))
    assert peak < array.nbytes // 4


@pytest.mark.parametrize("n, size", [(20, 8), (13, 1024)])
def test_shuffle_power_scratch_is_bounded(n, size):
    # both arrays are 8 MiB; a full 2**12-record tile of the 1 KiB records
    # alone would be half of it
    spec = ShuffleSpec.for_power(2, n)
    array = np.frombuffer(np.arange(spec.N * size // 8, dtype=np.uint64), dtype=record_dtype(size)).copy()
    want = oracle_shuffle(array.copy(), 2)
    tracemalloc.start()
    try:
        shuffle_power(array, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < array.nbytes // 4, peak
    assert np.array_equal(array, want)
