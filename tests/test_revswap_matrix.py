"""Both constructions on every container, checked against the oracle.

For digit reversal, numpy arrays (object arrays of tokens, as the CLI
holds them, included) and memmaps take the tiled route of revswap_round,
lists the scalar pair loop; all must realise the same permutation and
report the same swap counts.  The tile-edge cases pin the shapes where the
tile side, the middle digits or the chunking change.  The modular-inverse
rounds swap by fancy indexing with the Euclid-lane partners on every
ndarray, and through the scalar executor on lists.
"""

import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

from shuffleworks.oracle import oracle_shuffle
from shuffleworks.recordfile import HEADER_SIZE, make_record_file, open_records_inplace, record_dtype
from shuffleworks.shuffle_bitrev import (
    _CHUNK_BYTES,
    ShuffleSpec,
    _round_swaps,
    revswap_round,
    rotate_left,
    shuffle_general_k2,
    shuffle_power,
    swap_counts,
)
from shuffleworks.shuffle_modinv import OpCounter, shuffle_modinv, swap_count_modinv

shuffle_bitrev = importlib.import_module("shuffleworks.shuffle_bitrev")

# One power of each k whose two rounds split into tiles with and without
# middle digits.
POWERS = {2: 13, 3: 8, 4: 6, 5: 5}
CONTAINERS = ["list", "ndarray", "void", "object", "memmap"]
SIZES = [1, 3, 8, 16]


def payload(N, size):
    """N records of size bytes; each carries its index, little-endian."""
    out = bytearray()
    for i in range(N):
        out += (i * 131 % (1 << 8 * size)).to_bytes(size, "little")
    return bytes(out)


def container(kind, N, k, size, tmp_path):
    data = payload(N, size)
    if kind in ("list", "object"):
        items = [data[i * size:(i + 1) * size] for i in range(N)]
        return items if kind == "list" else np.array(items, dtype=object)
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
    spec = ShuffleSpec.for_length(k ** POWERS[k], k)
    array = container(kind, spec.N, k, size, tmp_path)
    want = oracle_shuffle(as_list(array), k)
    assert shuffle_power(array, spec) == OpCounter(swaps=sum(swap_counts(spec)), rounds=2)
    assert as_list(array) == want
    # the shuffle again, a round at a time
    assert tuple(revswap_round(array, t, spec) for t in (spec.n - 1, spec.n)) == swap_counts(spec)
    assert as_list(array) == oracle_shuffle(want, k)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", CONTAINERS)
def test_general_k2_blocks_match_oracle(kind, size, tmp_path):
    N = 2 * (2 ** 12 + 2 ** 9 + 3)
    array = container(kind, N, 2, size, tmp_path)
    want = oracle_shuffle(as_list(array), 2)
    shuffle_general_k2(array)
    assert as_list(array) == want


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("k", sorted(POWERS))
@pytest.mark.parametrize("kind", CONTAINERS)
def test_shuffle_modinv_matches_oracle(kind, k, size, tmp_path):
    N = k * 61  # not a power of k, and m = N - 1 is composite for every k here
    array = container(kind, N, k, size, tmp_path)
    want = oracle_shuffle(as_list(array), k)
    counter = OpCounter()
    assert shuffle_modinv(array, k, counter) is counter
    assert as_list(array) == want
    assert counter == swap_count_modinv(N, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("size", ["0", "k**3", "11*k"])
def test_every_shuffle_and_count_returns_the_report_it_filled(size, k):
    # the sizes of the CLI's golden --stats matrix; whole reports are compared, not single fields
    N = {"0": 0, "k**3": k ** 3, "11*k": 11 * k}[size]
    report = swap_count_modinv(N, k)
    assert shuffle_modinv(list(range(N)), k) == report
    counter = OpCounter()
    assert swap_count_modinv(N, k, counter) is counter
    assert shuffle_modinv(list(range(N)), k, counter) is counter
    assert counter == OpCounter(**{name: 2 * value for name, value in dataclasses.asdict(report).items()})
    spec = ShuffleSpec.for_length(N, k)
    if spec.n is not None:
        for array in (list(range(N)), np.arange(N, dtype=np.uint64)):
            assert shuffle_power(array, spec) == OpCounter(swaps=sum(swap_counts(spec)), rounds=2)
            assert tuple(revswap_round(array, t, spec) for t in (spec.n - 1, spec.n)) == swap_counts(spec)
    if k == 2 and N:
        plan = shuffle_bitrev.rotation_plan(N // 2)
        swaps = sum(sum(swap_counts(ShuffleSpec.for_length(2 * m, 2))) for m in plan.segment_sizes)
        assert shuffle_general_k2(list(range(N))) == OpCounter(
            swaps=swaps, moved=shuffle_bitrev.rotation_cost(N // 2), rounds=2 + len(plan.rotations))


@pytest.mark.parametrize("kind", ["list", "ndarray", "void"])
def test_rotation_scratch_does_not_grow_with_the_window(kind):
    # an ndarray chunk is _CHUNK_BYTES of elements; a list step holds three
    # lists of a chunk's 8-byte pointers, so its chunk is a third of that
    chunk = _CHUNK_BYTES // {"list": 24, "ndarray": 8, "void": 12}[kind]
    for N in (2 ** 18, 2 ** 19 + 6):
        data = payload(N, 12) if kind == "void" else None
        if kind == "list":
            array = list(range(N))
        elif kind == "ndarray":
            array = np.arange(N, dtype=np.uint64)
        else:
            array = np.frombuffer(data, dtype=np.dtype((np.void, 12))).copy()
        start, length = 3, N - 5
        want = as_list(array)
        for shift in (N // 3, 3, length - 3, chunk - 1, chunk + 1):
            want[start:start + length] = want[start + shift:start + length] + want[start:start + shift]
            tracemalloc.start()
            try:
                assert rotate_left(array, start, length, shift) == length
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert as_list(array) == want, (kind, N, shift)
            # one chunk's budget in flight, whatever the window
            assert peak < 1.25 * _CHUNK_BYTES, (kind, N, shift, peak)


@pytest.mark.parametrize("chunk_bytes", [64, 8])
@pytest.mark.parametrize("kind", ["list", "ndarray", "void", "memmap"])
def test_rotation_equals_slicing_for_every_shift(kind, chunk_bytes, monkeypatch, tmp_path):
    # A chunk of 64 bytes holds 8 uint64 or 5 twelve-byte records (2 list
    # items), and one of 8 bytes a single element: wider sides trade places
    # a chunk at a time before the narrower one is copied out and the other
    # slides.  A one-element chunk swaps element by element, so its windows
    # stop at 100.
    monkeypatch.setattr(shuffle_bitrev, "_CHUNK_BYTES", chunk_bytes)
    top = 200 if chunk_bytes == 64 else 100
    array = container(kind, top + 2, 2, 8 if kind == "ndarray" else 12, tmp_path)
    want = as_list(array)
    for length in range(top + 1):
        for shift in range(length + 1):
            start = shift % 3  # the window starts at 0, 1 or 2 and may end at the array's end
            assert rotate_left(array, start, length, shift) == (length if 0 < shift < length else 0)
            want[start:start + length] = want[start + shift:start + length] + want[start:start + shift]
        assert as_list(array) == want, (kind, chunk_bytes, length)


class _CountedWrites(np.ndarray):
    writes = 0

    def __setitem__(self, key, value):
        type(self).writes += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("shift", [3, -3, _CHUNK_BYTES // 8 + 1, -(_CHUNK_BYTES // 8 + 1)])
def test_rotation_writes_scale_with_the_window_over_the_chunk(shift):
    # One side a few elements long slides the other over it in whole chunks;
    # swapping sides on down to the last one would take length/3 steps.
    length, chunk = 1 << 20, _CHUNK_BYTES // 8
    shift %= length
    array = np.arange(length + 2, dtype=np.uint64).view(_CountedWrites)
    _CountedWrites.writes = 0
    assert rotate_left(array, 1, length, shift) == length
    assert _CountedWrites.writes <= 4 * -(-length // chunk) + 4, _CountedWrites.writes
    window = np.arange(1, length + 1, dtype=np.uint64)
    assert np.array_equal(array.view(np.ndarray), np.concatenate([[0], np.roll(window, -shift), [length + 1]]))


def reversal_reference(N, k, t):
    """Partner of every position under reversal of its low t digits.

    It holds three int64 arrays of N at a time, which matters at 3**14.
    """
    low = np.arange(N, dtype=np.int64)
    partner = low // k ** t * k ** t
    low %= k ** t
    digit = np.empty_like(low)
    for p in range(t):
        np.divmod(low, k, out=(low, digit))
        digit *= k ** (t - 1 - p)
        partner += digit
    return partner


def largest_tile_side(k, size):
    """Digits b of the tile side of a long round on size-byte records: k**(2b) <= half a step."""
    b = 1
    while k ** (2 * b + 2) <= _CHUNK_BYTES // size // 2:
        b += 1
    return b


@pytest.mark.parametrize("dtype", ["uint32", "uint8", "uint64", "V3", "V12"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_every_digit_count_past_the_largest_tile(k, dtype):
    size = np.dtype(dtype).itemsize
    b = largest_tile_side(k, size)
    n = 2 * b + 3
    spec = ShuffleSpec.for_length(k ** n, k)
    start = np.random.default_rng(n).integers(0, 256, spec.N * size, dtype=np.uint8).view(dtype)
    for t in range(n + 1):
        array = start.copy()
        partner = reversal_reference(spec.N, k, t)
        count = revswap_round(array, t, spec)
        assert np.array_equal(array, start[partner]), (k, t)
        assert count == int(np.count_nonzero(partner > np.arange(spec.N))), (k, t)


@pytest.mark.parametrize("k, n", [(2, 15), (3, 9)])
def test_round_counts_match_the_scalar_loop(k, n):
    spec = ShuffleSpec.for_length(k ** n, k)
    for t in range(n + 1):
        lst = list(range(spec.N))
        arr = np.arange(spec.N, dtype=np.int64)
        assert revswap_round(arr, t, spec) == revswap_round(lst, t, spec), (k, t)
        assert arr.tolist() == lst, (k, t)
    first = revswap_round(np.arange(spec.N), n - 1, spec)
    second = revswap_round(np.arange(spec.N), n, spec)
    assert (first, second) == swap_counts(spec)


def test_mids_span_several_chunks():
    # 2**17 eight-byte records: the full-width round has 2**3 middle
    # values of 2**14-element tiles, more than one chunk holds.
    spec = ShuffleSpec.for_length(2 ** 17, 2)
    assert largest_tile_side(2, 8) == 7
    tile_bytes = 2 ** 14 * 8
    mids = (2 ** 3 + 2 ** 2) // 2  # middle values up to their reversal
    assert mids * tile_bytes > 2 * _CHUNK_BYTES
    array = np.arange(spec.N, dtype=np.uint64)
    assert shuffle_power(array, spec) == OpCounter(swaps=sum(swap_counts(spec)), rounds=2)
    assert np.array_equal(array, oracle_shuffle(np.arange(spec.N, dtype=np.uint64), 2))
    assert tuple(revswap_round(array, t, spec) for t in (spec.n - 1, spec.n)) == swap_counts(spec)
    assert np.array_equal(array, oracle_shuffle(oracle_shuffle(np.arange(spec.N, dtype=np.uint64), 2), 2))


@pytest.mark.parametrize("dtype", ["uint8", "V3"])
def test_mids_span_several_reversal_chunks(dtype, monkeypatch):
    # 3**14 positions: tiles of 3**5 one-byte or 3**4 three-byte records leave
    # the full-width round 3**4 = 81 or 3**6 = 729 middle values, which
    # _reversals yields in three chunks once a chunk is a third of them
    spec = ShuffleSpec.for_length(3 ** 14, 3)
    size = np.dtype(dtype).itemsize
    mid_digits = 14 - 2 * largest_tile_side(3, size)
    assert mid_digits == {"uint8": 4, "V3": 6}[dtype]
    monkeypatch.setattr(shuffle_bitrev, "_REV_CHUNK", 3 ** (mid_digits - 1))
    start = np.random.default_rng(14).integers(0, 256, spec.N * size, dtype=np.uint8).view(dtype)
    reversals, seen = shuffle_bitrev._reversals, []

    def spy(*args):
        for chunk in reversals(*args):
            seen.append((args, chunk[0].size))
            yield chunk

    monkeypatch.setattr(shuffle_bitrev, "_reversals", spy)
    for t in (13, 14):
        array = start.copy()
        count = revswap_round(array, t, spec)
        partner = reversal_reference(spec.N, 3, t)
        assert np.array_equal(array, start[partner]), t
        assert count == _round_swaps(spec, t) == int(np.count_nonzero(partner > np.arange(spec.N))), t
    assert [size for args, size in seen if args == (3, mid_digits, 3 ** mid_digits)] == [3 ** (mid_digits - 1)] * 3


@pytest.mark.parametrize("tile_elems", [1, 2, 4])
def test_tiled_round_with_chunks_shorter_than_a_tile_side(tile_elems, monkeypatch):
    # chunks of _reversals shorter than k, so the tile axis table and the
    # mids both come in several chunks, as they do for real once k > 4096
    monkeypatch.setattr(shuffle_bitrev, "_REV_CHUNK", tile_elems)
    for k, n in ((3, 5), (5, 4), (6, 3)):
        spec = ShuffleSpec.for_length(k ** n, k)
        for t in range(n + 1):
            array = np.arange(spec.N)
            assert revswap_round(array, t, spec) == _round_swaps(spec, t), (k, t)
            assert np.array_equal(array, reversal_reference(spec.N, k, t)), (k, t)


@pytest.mark.parametrize("kind", ["uint64", "V3", "V12", "memmap"])
@pytest.mark.parametrize("pairs_per_step", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("k, n", [(2, 10), (3, 7), (5, 5)])
def test_tiled_round_is_exact_at_step_boundaries(k, n, b, pairs_per_step, kind, monkeypatch, tmp_path):
    # Tiles of k**b x k**b elements, and a step of exactly pairs_per_step
    # tile pairs.  Where a chunk of mid pairs is shorter than a step, a step
    # spans several blocks, and at t <= 2b + 1 every mid is a palindrome that
    # sits on both sides of its own pair.
    size = 12 if kind == "memmap" else np.dtype(kind).itemsize
    monkeypatch.setattr(shuffle_bitrev, "_REV_CHUNK", k ** (2 * b))
    monkeypatch.setattr(shuffle_bitrev, "_CHUNK_BYTES", pairs_per_step * 2 * k ** (2 * b) * size)
    spec = ShuffleSpec.for_length(k ** n, k)
    start = np.random.default_rng(n).integers(0, 256, spec.N * size, dtype=np.uint8)
    if kind == "memmap":
        path = tmp_path / "records.bin"
        path.write_bytes(make_record_file(k, size, start.tobytes()).to_bytes())
        _, array = open_records_inplace(str(path))
        start = start.view(array.dtype)
    else:
        start = start.view(kind)
        array = start.copy()
    for t in range(n + 1):
        array[:] = start
        partner = reversal_reference(spec.N, k, t)
        assert revswap_round(array, t, spec) == _round_swaps(spec, t), (t, kind)
        assert np.array_equal(array, start[partner]), (t, kind)


@pytest.mark.parametrize("dtype", ["uint8", "uint32", "uint64", "V12", "V64", "V1024"])
@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_tile_side_is_the_largest_that_half_a_step_holds(k, dtype, monkeypatch):
    # a round's first call of _reversals builds its tile-axis table, (k, b, k**b);
    # b is the largest with k**(2b) <= step/2 unless b reaches t//2 first, and
    # the size of a reversal chunk plays no part
    half = _CHUNK_BYTES // np.dtype(dtype).itemsize // 2
    n = 2 * largest_tile_side(k, np.dtype(dtype).itemsize) + 2
    spec = ShuffleSpec.for_length(k ** n, k)
    array = np.zeros(spec.N, dtype=dtype)
    reversals, calls = shuffle_bitrev._reversals, []

    def spy(*args):
        calls.append(args)
        return reversals(*args)

    def tile_side(t):
        calls.clear()
        assert revswap_round(array, t, spec) == _round_swaps(spec, t), (k, dtype, t)
        assert calls[0][::2] == (k, k ** calls[0][1])
        return calls[0][1]

    monkeypatch.setattr(shuffle_bitrev, "_reversals", spy)
    sides = {t: tile_side(t) for t in range(2, n + 1)}
    for t, b in sides.items():
        assert 1 <= b <= t // 2 and k ** (2 * b) <= half, (k, dtype, t, b)
        assert b == t // 2 or half < k ** (2 * b + 2), (k, dtype, t, b)
    assert sides[n] < n // 2
    monkeypatch.setattr(shuffle_bitrev, "_REV_CHUNK", 1)
    assert {t: tile_side(t) for t in (n - 1, n)} == {t: sides[t] for t in (n - 1, n)}


def test_small_digit_counts_on_many_blocks_stay_chunked():
    # t=2 on 2**20 positions: one 2x2 tile per block, 2**18 blocks
    spec = ShuffleSpec.for_length(2 ** 20, 2)
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
    spec = ShuffleSpec.for_length(2 ** n, 2)
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


@pytest.mark.parametrize("k, n, dtype", [(2, 18, "uint64"), (2, 22, "uint64"), (2, 20, "V12"), (2, 20, "uint8"),
                                         (3, 12, "V3"), (2, 16, "V64"), (2, 13, "V1024"), (3, 13, "uint64"),
                                         (5, 8, "V12"), (2, 24, "uint8")])
def test_shuffle_power_scratch_is_a_few_chunks(k, n, dtype):
    # a step gathers both sides of its tile pairs, _CHUNK_BYTES in all, in one
    # fancy index and scatters that gather; the mid pairs and index tables add a
    # little.  For 64 B and 1 KiB records a tile is at most half a step.
    spec = ShuffleSpec.for_length(k ** n, k)
    array = np.random.default_rng(n).integers(0, 256, spec.N * np.dtype(dtype).itemsize, np.uint8).view(dtype)
    want = oracle_shuffle(array.copy(), k)
    tracemalloc.start()
    try:
        assert shuffle_power(array, spec) == OpCounter(swaps=sum(swap_counts(spec)), rounds=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _CHUNK_BYTES, peak
    assert np.array_equal(array, want)
    assert tuple(revswap_round(array, t, spec) for t in (spec.n - 1, spec.n)) == swap_counts(spec)


def test_tiled_round_scratch_does_not_grow_with_n():
    # 2**27 one-byte records have 2**15 middle values per round, which the
    # round reverses a chunk of _reversals at a time
    peaks = []
    for n in (22, 27):
        array = np.zeros(2 ** n, dtype=np.uint8)
        tracemalloc.start()
        try:
            shuffle_power(array, ShuffleSpec.for_length(2 ** n, 2))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del array
    assert peaks[1] - peaks[0] < 0.15 * (1 << 20), peaks
