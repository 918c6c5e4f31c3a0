"""Number-theoretic shuffle: extended Euclid, the J involutions, swap rounds."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shuffleworks.network import build_network
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.shuffle_bitrev import ShuffleSpec
from shuffleworks.shuffle_modinv import (
    _ROW_BYTES,
    _SWAP_BATCH,
    OpCounter,
    _j_chunks,
    _modinv_chunks,
    ext_gcd,
    j_map,
    shuffle_modinv,
    swap_count_modinv,
)

from _reference import chunk_pairs

# j_map values for m = 26 (N = 27, k = 3), computed independently by
# modular arithmetic and frozen here; x = 0 is fixed by definition.
J1_M26 = {
    1: 1, 2: 2, 3: 9, 4: 14, 5: 21, 6: 18, 7: 15, 8: 20, 9: 3, 10: 16,
    11: 19, 12: 22, 13: 13, 14: 4, 15: 7, 16: 10, 17: 23, 18: 6,
    19: 11, 20: 8, 21: 5, 22: 12, 23: 17, 24: 24, 25: 25,
}
J3_M26 = {
    1: 3, 2: 6, 3: 1, 4: 16, 5: 11, 6: 2, 7: 19, 8: 8, 9: 9, 10: 22,
    11: 5, 12: 14, 13: 13, 14: 12, 15: 21, 16: 4, 17: 17, 18: 18,
    19: 7, 20: 24, 21: 15, 22: 10, 23: 25, 24: 20, 25: 23,
}


def test_ext_gcd_small_cases():
    assert ext_gcd(3, 26) == (1, 9)
    assert ext_gcd(0, 7) == (7, 0)
    assert ext_gcd(7, 0) == (7, 1)
    assert ext_gcd(12, 18) == (6, -1)


def test_ext_gcd_bezout_identity():
    for a in range(0, 40):
        for b in range(0, 40):
            if a == 0 and b == 0:
                continue
            g, u = ext_gcd(a, b)
            assert g == math.gcd(a, b)
            # a*u + b*v = g for an integer v
            assert (g - a * u) % b == 0 if b else a * u == g


def test_ext_gcd_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ext_gcd(-1, 3)
    with pytest.raises(ValueError):
        ext_gcd(3, -1)
    with pytest.raises(ValueError):
        ext_gcd(0, 0)


def test_ext_gcd_counts_quotient_steps():
    counter = OpCounter()
    ext_gcd(3, 26, counter)
    assert counter.gcd_calls == 1
    assert counter.euclid_iterations > 0
    before = counter.euclid_iterations
    ext_gcd(1, 1, counter)
    assert counter.gcd_calls == 2
    assert counter.euclid_iterations == before + 1


def test_context_validation():
    spec = ShuffleSpec.for_length(27, 3)
    assert (spec.k, spec.N, spec.m) == (3, 27, 26)
    with pytest.raises(ValueError):
        ShuffleSpec.for_length(10, 3)
    with pytest.raises(ValueError):
        ShuffleSpec.for_length(-3, 3)
    with pytest.raises(ValueError):
        ShuffleSpec.for_length(4, 1)


def test_j_map_golden_values():
    spec = ShuffleSpec.for_length(27, 3)
    assert j_map(1, 0, spec) == 0
    assert j_map(3, 0, spec) == 0
    for x, want in J1_M26.items():
        assert j_map(1, x, spec) == want, x
    for x, want in J3_M26.items():
        assert j_map(3, x, spec) == want, x


def test_j_map_argument_checks():
    spec = ShuffleSpec.for_length(27, 3)
    with pytest.raises(ValueError):
        j_map(13, 5, spec)  # 13 divides 26
    with pytest.raises(ValueError):
        j_map(1, 26, spec)
    with pytest.raises(ValueError):
        j_map(1, -1, spec)


def test_j_map_is_an_involution_that_preserves_gcd():
    for k, N in ((2, 12), (3, 27), (4, 36), (5, 40), (7, 63)):
        spec = ShuffleSpec.for_length(N, k)
        for r in (1, k):
            for x in range(spec.m):
                y = j_map(r, x, spec)
                assert j_map(r, y, spec) == x
                assert math.gcd(y, spec.m) == math.gcd(x, spec.m)


def test_chained_involutions_give_the_shuffle_map():
    for k, N in ((2, 16), (3, 27), (5, 30)):
        spec = ShuffleSpec.for_length(N, k)
        for x in range(spec.m):
            assert j_map(k, j_map(1, x, spec), spec) == k * x % spec.m


def test_compose_j_example():
    # J_3(J_1(4)) = 12 for 27 = 3 * 9 entries
    spec = ShuffleSpec.for_length(27, 3)
    assert j_map(3, j_map(1, 4, spec), spec) == 12


def test_shuffle_matches_oracle():
    for k in (2, 3, 4, 5, 7):
        for M in range(1, 60):
            N = k * M
            arr = list(range(N))
            shuffle_modinv(arr, k)
            assert arr == oracle_shuffle(list(range(N)), k), (k, M)


def test_shuffle_empty_input():
    arr = []
    shuffle_modinv(arr, 3)
    assert arr == []


def test_shuffle_rejects_bad_lengths():
    with pytest.raises(ValueError):
        shuffle_modinv([1, 2, 3], 2)


def test_shuffle_counts_swaps():
    counter = OpCounter()
    arr = list(range(27))
    shuffle_modinv(arr, 3, counter)
    assert counter.swaps == 20
    assert counter.gcd_calls > 0
    assert counter.euclid_iterations >= counter.gcd_calls


def test_swap_count_without_data_movement():
    # shuffle, count and network all read the same pairs and do the same Euclid work
    assert swap_count_modinv(27, 3).swaps == 20
    for k, N in ((2, 24), (3, 36), (5, 55), (2, 30), (3, 81), (4, 64), (4, 100), (5, 125)):
        counter = OpCounter()
        arr = list(range(N))
        shuffle_modinv(arr, k, counter)
        counted = OpCounter()
        assert swap_count_modinv(N, k, counted) is counted, (k, N)
        assert counted == counter, (k, N)
        assert build_network("modinv", ShuffleSpec.for_length(N, k)).total_swaps == counter.swaps


def test_single_group_sizes_are_fixed():
    # N = k means m = k - 1, and every residue is its own partner there
    for k in (2, 3, 4, 5, 7):
        arr = list(range(k))
        counter = OpCounter()
        shuffle_modinv(arr, k, counter)
        assert arr == list(range(k))
        assert counter.swaps == 0


def test_swap_count_reports_per_size():
    for N in (3, 6, 9, 12, 15):
        report = swap_count_modinv(N, 3)
        assert report.rounds == 2
        assert report.euclid_iterations >= report.gcd_calls >= 0
        assert report.euclid_iterations >= N - 2  # one quotient step minimum per interior position
        assert 0 <= report.swaps <= N


def test_j_map_matches_the_two_step_definition():
    # one Euclid run on (x, m) gives the partner that gcd(x, m) followed by
    # an inverse modulo m/g gives
    for k in (2, 3, 4, 5, 7):
        for N in range(k, 700, k):
            spec = ShuffleSpec.for_length(N, k)
            m = spec.m
            for r in (1, k):
                for x in range(m):
                    g = math.gcd(x, m)
                    want = g * (r * pow(x // g, -1, m // g) % (m // g))
                    assert j_map(r, x, spec) == want, (k, N, r, x)


def test_one_gcd_call_per_interior_position_per_round():
    for k in (2, 3, 4, 5, 7):
        for N in range(k, 400, k):
            if N < 3:
                continue
            counter = OpCounter()
            shuffle_modinv(list(range(N)), k, counter)
            assert counter.gcd_calls == 2 * (N - 2), (k, N)


def _scalar_round(r, spec, last=None):
    """One round's pairs (x, J_r(x)), x < J_r(x), from one scalar ext_gcd run per position."""
    counter = OpCounter()
    xs = range(1, spec.m if last is None else last + 1)
    return [(x, j) for x in xs if x < (j := j_map(r, x, spec, counter))], counter


# (N, k) with N - 2 interior positions just below, at and above 256 and 512
LANE_EDGES = [(257, 257), (258, 3), (259, 7), (513, 3), (514, 2), (515, 5)]


def test_lane_pairs_and_counts_equal_the_scalar_reference():
    cases = [(N, k) for k in range(2, 8) for N in range(k, 401, k)] + LANE_EDGES
    for N, k in cases:
        spec = ShuffleSpec.for_length(N, k)
        for r in (1, k):
            counter = OpCounter()
            got = sorted(chunk_pairs(_modinv_chunks(r, spec, counter)))
            want, scalar = _scalar_round(r, spec)
            assert got == want, (N, k, r)
            assert counter == scalar, (N, k, r)


# N = k*M whose lanes, which run 1..m//2, end just below, at and just past
# one and two full batches of _SWAP_BATCH (256) pairs, with m = N - 1 odd and even
MIRROR_EDGES = [
    (N, k) for k in (2, 3, 5, 7) for N in range(k, 1100, k) if (N - 1) // 2 in (255, 256, 257, 511, 512, 513)
]


def _mirror_container(kind, N, tmp_path):
    values = np.arange(N, dtype=np.uint64) * 7919
    if kind == "list":
        return values.tolist()
    if kind == "void":
        return values.view(np.dtype((np.void, 8)))
    if kind == "memmap":
        mm = np.memmap(tmp_path / "values.bin", dtype=np.uint64, mode="w+", shape=(N,))
        mm[:] = values
        return mm
    return values


def test_mirror_edges_take_both_parities_of_m():
    assert {(N - 1) % 2 for N, _ in MIRROR_EDGES} == {0, 1}
    assert {(N - 1) // 2 for N, _ in MIRROR_EDGES} == {255, 256, 257, 511, 512, 513}


@pytest.mark.parametrize("kind", ["uint64", "void", "memmap", "list"])
@pytest.mark.parametrize("N, k", MIRROR_EDGES)
def test_mirror_edges_match_the_oracle_and_the_scalar_counts(N, k, kind, tmp_path):
    array = _mirror_container(kind, N, tmp_path)
    want = oracle_shuffle(list(array) if kind == "list" else array.tolist(), k)
    counter = OpCounter()
    shuffle_modinv(array, k, counter)
    assert (array if kind == "list" else array.tolist()) == want
    counted = OpCounter()
    assert swap_count_modinv(N, k, counted) is counted
    assert counted == counter
    spec, scalar = ShuffleSpec.for_length(N, k), OpCounter(rounds=2)
    for r in (1, k):
        pairs, work = _scalar_round(r, spec)
        scalar.swaps += len(pairs)
        scalar.euclid_iterations += work.euclid_iterations
        scalar.gcd_calls += work.gcd_calls
    assert counter == scalar


# int32 and int64 lanes to a chunk
W32, W64 = _ROW_BYTES // 4, _ROW_BYTES // 8
# the int32 chunk widths of lanes 1..m//2, for m//2 just below, at and just
# past one and two full chunks
WIDE_WIDTHS = {
    W32 - 1: (W32 - 1,), W32: (W32,), W32 + 1: (W32, 1),
    2 * W32 - 1: (W32, W32 - 1), 2 * W32: (W32, W32), 2 * W32 + 1: (W32, W32, 1),
}
# N = k*M whose int32 lanes end at those edges, with m = N - 1 odd and even
WIDE_EDGES = [(N, k) for k in (2, 3, 5, 7) for N in range(k, 4 * W32 + 5, k) if (N - 1) // 2 in WIDE_WIDTHS]


def test_wide_edges_take_both_parities_of_m():
    assert {(N - 1) % 2 for N, _ in WIDE_EDGES} == {0, 1}
    assert {(N - 1) // 2 for N, _ in WIDE_EDGES} == set(WIDE_WIDTHS)


@pytest.mark.parametrize("kind", ["uint64", "void", "memmap", "list"])
@pytest.mark.parametrize("N, k", WIDE_EDGES)
def test_wide_edges_match_the_scalar_reference_and_the_oracle(N, k, kind, tmp_path):
    spec, scalar = ShuffleSpec.for_length(N, k), OpCounter(rounds=2)
    widths = WIDE_WIDTHS[spec.m // 2]
    assert [(len(x), x.dtype) for x, _ in _j_chunks(spec, 1, None)] == [(w, np.dtype(np.int32)) for w in widths]
    for r in (1, k):
        counter = OpCounter()
        got = sorted(chunk_pairs(_modinv_chunks(r, spec, counter)))
        want, work = _scalar_round(r, spec)
        assert (got, counter) == (want, work), r
        scalar.swaps += len(want)
        scalar.euclid_iterations += work.euclid_iterations
        scalar.gcd_calls += work.gcd_calls
    array = _mirror_container(kind, N, tmp_path)
    want = oracle_shuffle(list(array) if kind == "list" else array.tolist(), k)
    counter = OpCounter()
    shuffle_modinv(array, k, counter)
    assert (array if kind == "list" else array.tolist()) == want
    assert counter == scalar
    counted = OpCounter()
    assert swap_count_modinv(N, k, counted) is counted
    assert counted == scalar


@pytest.mark.parametrize("N, k", MIRROR_EDGES + WIDE_EDGES + [(3 * 12_001, 3)])
def test_modinv_chunks_hold_the_scalar_pairs_in_batches(N, k):
    # per round: disjoint index chunks of at most _SWAP_BATCH pairs, i < j,
    # whose pairs are the scalar reference's
    spec = ShuffleSpec.for_length(N, k)
    for r in (1, k):
        chunks = list(_modinv_chunks(r, spec))
        assert all(len(i) == len(j) <= _SWAP_BATCH for i, j in chunks), (N, k, r)
        i, j = (np.concatenate([chunk[side] for chunk in chunks]) for side in (0, 1))
        assert (i < j).all(), (N, k, r)
        assert len(np.unique(np.concatenate((i, j)))) == 2 * len(i), (N, k, r)
        assert sorted(zip(i.tolist(), j.tolist())) == _scalar_round(r, spec)[0], (N, k, r)


def _smooth(m):
    """True when m has no prime factor above 13."""
    for p in (2, 3, 5, 7, 11, 13):
        while m % p == 0:
            m //= p
    return m == 1


# per k, N = k*M whose lanes 1..m//2 span up to about five int32 chunks and
# whose m = N - 1 is 13-smooth, so that many lanes end with g = gcd(x, m) > 1
SMOOTH_LENGTHS = {k: [N for N in range(2 * k, 10 * W32 + 3, k) if _smooth(N - 1)] for k in range(2, 8)}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7).flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(SMOOTH_LENGTHS[k]))))
@example((3, 6273))  # m = 2**7 * 7**2; x = m/2 has m/g = 2, and lanes 1..3136 fill 4.9 chunks
@example((7, 5761))  # m = 2**7 * 3**2 * 5; every divisor of m up to m/2 is a lane's g
def test_cofactor_read_back_on_smooth_moduli(case):
    # finished lanes lose their remainders and give g and J from their
    # cofactors alone; on every lane the pairs and counts are ext_gcd's
    k, N = case
    spec = ShuffleSpec.for_length(N, k)
    for r in (1, k):
        counter = OpCounter()
        got = sorted(chunk_pairs(_modinv_chunks(r, spec, counter)))
        want, scalar = _scalar_round(r, spec)
        assert got == want, (N, k, r)
        assert counter == scalar, (N, k, r)


def _steps(x, m):
    counter = OpCounter()
    ext_gcd(x, m, counter)
    return counter.euclid_iterations


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7), st.data())
def test_mirror_identities_of_the_scalar_reference(k, data):
    # J_r(m-x) = m - J_r(x), and ext_gcd(m-x, m) takes one step more than
    # ext_gcd(x, m) below m/2 (two steps at m/2), for any m under the int64 guard
    M = data.draw(st.integers(2, ((1 << 63) - 1) // k // k), label="M")
    spec = ShuffleSpec.for_length(k * M, k)
    m = spec.m
    assert k * m < 1 << 63
    x = data.draw(st.one_of(st.integers(1, m - 1), st.sampled_from([1, m // 2, m - 1])), label="x")
    r = data.draw(st.sampled_from([1, k]), label="r")
    assert j_map(r, m - x, spec) == m - j_map(r, x, spec)
    if 2 * x < m:
        assert _steps(m - x, m) == _steps(x, m) + 1
    elif 2 * x == m:
        assert _steps(x, m) == 2


@pytest.mark.parametrize("k", [3, 7])
def test_lanes_are_exact_up_to_the_int64_guard(k):
    # The largest N with k*(N-1) < 2**63: the first chunk's partners, from
    # int64 remainders, cofactors and r*u, equal Python's exact integers.
    # That chunk of W64 lanes yields its pairs x <= W64 before any mirror m - x.
    N = ((1 << 63) - 1) // k + 1
    N -= N % k
    spec = ShuffleSpec.for_length(N, k)
    for r in (1, k):
        got = list(itertools.takewhile(lambda pair: pair[0] <= 256, chunk_pairs(_modinv_chunks(r, spec))))
        assert got == _scalar_round(r, spec, last=256)[0], r
    # one multiple of k further passes the spec check and stops at the guard
    counter = OpCounter()
    with pytest.raises(OverflowError, match="int64"):
        next(chunk_pairs(_modinv_chunks(1, ShuffleSpec.for_length(N + k, k), counter)))
    assert counter == OpCounter()


@pytest.mark.parametrize("k", [3, 7])
def test_lanes_are_exact_at_the_int32_boundary(k):
    # The largest N with k*(N-1) < 2**31 runs int32 lanes at full magnitude,
    # W32 to a chunk; the next multiple of k runs int64 lanes, W64 to a chunk.
    # Either way the first chunk's partners, which it yields before any
    # mirror, equal Python's exact integers.
    N = ((1 << 31) - 1) // k + 1
    N -= N % k
    assert k * (N - 1) < 1 << 31 <= k * (N + k - 1)
    for N, dtype, width in ((N, np.int32, W32), (N + k, np.int64, W64)):
        spec = ShuffleSpec.for_length(N, k)
        x, _ = next(_j_chunks(spec, 1, None))
        assert (x.dtype, len(x)) == (dtype, width), N
        for r in (1, k):
            pairs = chunk_pairs(_modinv_chunks(r, spec))
            got = list(itertools.takewhile(lambda pair: pair[0] <= width, pairs))
            assert got == _scalar_round(r, spec, last=width)[0], (N, r)


def test_lane_scratch_does_not_grow_with_n():
    arrays = [np.arange(3 * M, dtype=np.uint64) for M in (12_001, 120_001)]
    peaks = []
    tracemalloc.start()
    try:
        for array in arrays:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            shuffle_modinv(array, 3)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    for array in arrays:
        assert (array == np.arange(len(array), dtype=np.uint64).reshape(3, -1).T.ravel()).all()
    # the five lane rows of _ROW_BYTES (12.5 KiB), their temporaries and one chunk of records in flight
    assert max(peaks) < 32 << 10, peaks


def test_swap_count_holds_one_chunk_at_a_time():
    # the lane state (12.5 KiB), its temporaries and one chunk of index arrays: each chunk is dropped before the
    # next is made; holding the previous one too peaked at 28.0 KB on 3*12001
    swap_count_modinv(3 * 1001, 3)  # one-time allocations happen outside the measure
    peaks = []
    tracemalloc.start()
    try:
        for M in (12_001, 120_001):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = swap_count_modinv(3 * M, 3)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert report == shuffle_modinv(np.arange(3 * M), 3), M
    finally:
        tracemalloc.stop()
    assert max(peaks) < 25 << 10, peaks
