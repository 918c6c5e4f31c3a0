"""Digit-reversal shuffle: reversal arithmetic, swap rounds, rotation reduction."""

import collections
import tracemalloc

import numpy as np
import pytest

from shuffleworks import shuffle_bitrev
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.perm_core import OpCounter
from shuffleworks.shuffle_bitrev import (
    RotationPlan,
    ShuffleSpec,
    revswap_round,
    rotate_left,
    rotation_cost,
    rotation_plan,
    shuffle_general_k2,
    shuffle_power,
    swap_counts,
)

from _reference import chunk_pairs, rev_digits


def test_spec_for_length():
    spec = ShuffleSpec.for_length(27, 3)
    assert (spec.N, spec.k, spec.n) == (27, 3, 3)
    assert spec.powers == (1, 3, 9, 27)
    spec = ShuffleSpec.for_length(12, 2)
    assert spec.n is None
    assert spec.powers == ()


def test_exact_log():
    # n is the exact base-k logarithm of N, or None when N is no power of k
    assert ShuffleSpec.for_length(2, 2).n == 1
    assert ShuffleSpec.for_length(8, 2).n == 3
    assert ShuffleSpec.for_length(81, 3).n == 4
    assert ShuffleSpec.for_length(12, 2).n is None
    assert ShuffleSpec.for_length(0, 2).n is None
    with pytest.raises(ValueError):
        ShuffleSpec.for_length(8, 1)


def test_power_table():
    # powers lists k**0 .. k**n for N = k**n
    assert ShuffleSpec.for_length(81, 3).powers == (1, 3, 9, 27, 81)
    assert ShuffleSpec.for_length(2, 2).powers == (1, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        ShuffleSpec.for_length(10, 4)
    with pytest.raises(ValueError):
        ShuffleSpec.for_length(4, 1)
    with pytest.raises(OverflowError):
        ShuffleSpec.for_length(2 ** 63, 2)


def binary_spec(n):
    return ShuffleSpec.for_length(2 ** n, 2)


def test_rev_digits_examples():
    spec = binary_spec(6)
    # 44 = 101100b; reversing the low 3 digits gives 101001b = 41
    assert rev_digits(44, 3, spec) == 41
    assert rev_digits(44, 6, spec) == 13  # 001101b
    assert rev_digits(44, 0, spec) == 44
    assert rev_digits(44, 1, spec) == 44
    spec3 = ShuffleSpec.for_length(27, 3)
    assert rev_digits(5, 3, spec3) == 21  # 012 -> 210 base 3
    assert rev_digits(26, 3, spec3) == 26  # palindrome 222


def test_rev_digits_is_an_involution():
    for k, n in ((2, 6), (3, 4), (5, 3)):
        spec = ShuffleSpec.for_length(k ** n, k)
        for t in range(n + 1):
            for i in range(spec.N):
                assert rev_digits(rev_digits(i, t, spec), t, spec) == i


def test_rev_digits_range_checks():
    spec = binary_spec(3)
    with pytest.raises(ValueError):
        rev_digits(8, 3, spec)
    with pytest.raises(ValueError):
        rev_digits(0, 4, spec)
    with pytest.raises(ValueError):
        rev_digits(0, 2, ShuffleSpec.for_length(12, 2))


def _check_pairs(spec, t):
    # the round's chunks, concatenated, are its pairs recomputed from
    # scratch, in order, at block offset 0 and 5
    want = [(i, j) for i in range(spec.N) if (j := rev_digits(i, t, spec)) > i]
    assert list(chunk_pairs(shuffle_bitrev._revswap_chunks(t, spec))) == want, (spec.k, spec.n, t)
    shifted = [(i + 5, j + 5) for i, j in want]
    assert list(chunk_pairs(shuffle_bitrev._revswap_chunks(t, spec, 5))) == shifted, (spec.k, spec.n, t)


def test_revswap_chunks_match_rev_digits():
    # every digit count and block offset
    for k in (2, 3, 4, 5):
        n = 1
        while k ** n <= 2 ** 10:
            for t in range(n + 1):
                _check_pairs(ShuffleSpec.for_length(k ** n, k), t)
            n += 1


@pytest.mark.parametrize("chunk_digits", [1, 2])
def test_revswap_chunks_across_chunk_edges(monkeypatch, chunk_digits):
    # chunks of k or k**2 positions, so every size but the smallest crosses
    # chunk edges, and chunk starts take every digit above the chunk
    for k in (2, 3, 4, 5, 6, 7):
        monkeypatch.setattr(shuffle_bitrev, "_REV_CHUNK", k ** chunk_digits)
        n = 1
        while k ** n <= 2 ** 10:
            for t in range(n + 1):
                _check_pairs(ShuffleSpec.for_length(k ** n, k), t)
            n += 1


def test_revswap_chunks_over_several_real_chunks():
    for k, n in ((2, 14), (3, 9), (4, 7), (5, 6), (6, 6), (7, 5)):
        spec = ShuffleSpec.for_length(k ** n, k)
        assert spec.N > 2 * shuffle_bitrev._REV_CHUNK
        for t in (n - 1, n):
            _check_pairs(spec, t)


def test_revswap_chunks_scratch_does_not_grow_with_n():
    # draining a round holds a chunk's table and pairs, not the round:
    # the last round of 2**20 positions holds 524 288 - 512 pairs
    for n in (16, 20):
        spec = ShuffleSpec.for_length(2 ** n, 2)
        tracemalloc.start()
        try:
            collections.deque(shuffle_bitrev._revswap_chunks(n, spec), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)


def test_revswap_round_small_counts():
    spec = binary_spec(2)
    arr = list("abcd")
    assert revswap_round(arr, 2, spec) == 1
    assert arr == list("acbd")
    # t <= 1 reverses nothing
    arr = list("abcd")
    assert revswap_round(arr, 1, spec) == 0
    assert arr == list("abcd")
    assert revswap_round(arr, 0, spec) == 0


def test_revswap_round_validation():
    spec = binary_spec(2)
    with pytest.raises(ValueError):
        revswap_round([1, 2], 2, spec)
    with pytest.raises(ValueError):
        revswap_round(list(range(4)), 3, spec)
    with pytest.raises(ValueError):
        revswap_round(list(range(12)), 2, ShuffleSpec.for_length(12, 2))
    with pytest.raises(ValueError, match="digit count 3 out of range"):
        revswap_round(np.arange(4), 3, spec)
    with pytest.raises(ValueError, match="N=12 is not a power of k=2"):
        revswap_round(list(range(12)), 1, ShuffleSpec.for_length(12, 2))


@pytest.mark.parametrize("t", [-1, 4])
@pytest.mark.parametrize("kind", ["list", "uint64"])
def test_revswap_round_refuses_a_bad_digit_count_before_anything_moves(kind, t):
    spec = binary_spec(3)
    array = list(range(8)) if kind == "list" else np.arange(8, dtype=np.uint64)
    with pytest.raises(ValueError, match="digit count %d out of range" % t):
        revswap_round(array, t, spec)
    assert list(array) == list(range(8)), kind


def test_shuffle_power_three_cubed():
    spec = ShuffleSpec.for_length(27, 3)
    arr = list(range(27))
    assert shuffle_power(arr, spec) == OpCounter(swaps=18, rounds=2)
    assert arr == oracle_shuffle(list(range(27)), 3)
    arr = list(range(27))
    assert [revswap_round(arr, t, spec) for t in (2, 3)] == [9, 9]
    assert arr == oracle_shuffle(list(range(27)), 3)


def test_shuffle_power_nine():
    arr = list(range(9))
    shuffle_power(arr, ShuffleSpec.for_length(9, 3))
    assert arr == [0, 3, 6, 1, 4, 7, 2, 5, 8]


def test_shuffle_power_requires_power_spec():
    with pytest.raises(ValueError):
        shuffle_power(list(range(12)), ShuffleSpec.for_length(12, 2))
    with pytest.raises(ValueError):
        shuffle_power([1, 2], ShuffleSpec.for_length(4, 2))


def test_shuffle_power_matches_oracle_and_closed_forms():
    for k in (2, 3, 4, 5):
        N = k
        while N <= 4096:
            spec = ShuffleSpec.for_length(N, k)
            arr = list(range(N))
            report = shuffle_power(arr, spec)
            assert arr == oracle_shuffle(list(range(N)), k), (k, N)
            assert report == OpCounter(swaps=sum(swap_counts(spec)), rounds=2), (k, N)
            arr = list(range(N))
            rounds = tuple(revswap_round(arr, t, spec) for t in (spec.n - 1, spec.n))
            assert arr == oracle_shuffle(list(range(N)), k), (k, N)
            assert rounds == swap_counts(spec), (k, N)
            N *= k


def test_swap_counts_small_values():
    assert swap_counts(ShuffleSpec.for_length(27, 3)) == (9, 9)
    assert swap_counts(ShuffleSpec.for_length(16, 2)) == (4, 6)
    assert swap_counts(ShuffleSpec.for_length(2, 2)) == (0, 0)
    with pytest.raises(ValueError):
        swap_counts(ShuffleSpec.for_length(12, 2))


def test_ruler_modes_agree():
    # a power-of-two length, and one that needs rotations first
    for N in (256, 2 * 45):
        base = list(range(N))
        want = oracle_shuffle(base, 2)
        for mode in (None, "counter", "popcnt"):
            arr = base.copy()
            shuffle_general_k2(arr, ruler=mode)
            assert arr == want, (N, mode)


def test_unknown_ruler_is_refused_before_anything_moves():
    # on either container
    for array in (list(range(12)), np.arange(12)):
        with pytest.raises(ValueError, match="ruler"):
            shuffle_general_k2(array, ruler="bogus")
        assert list(array) == list(range(12)), type(array)


def test_ndarray_route_matches_scalar_route():
    for k, nmax in ((2, 10), (3, 6), (4, 5), (5, 4)):
        for n in range(1, nmax + 1):
            spec = ShuffleSpec.for_length(k ** n, k)
            lst = list(range(spec.N))
            arr = np.arange(spec.N, dtype=np.int64)
            counts_lst = shuffle_power(lst, spec)
            counts_arr = shuffle_power(arr, spec)
            assert counts_lst == counts_arr, (k, n)
            assert arr.tolist() == lst, (k, n)


def test_ndarray_route_needs_contiguous_1d():
    spec = binary_spec(3)
    with pytest.raises(ValueError):
        revswap_round(np.arange(16, dtype=np.int64)[::2], 3, spec)


def test_general_shuffle_refuses_a_layout_before_rotating():
    # a strided view and a 2-D array, both of lengths that need rotations
    base = np.arange(24)
    for array in (base[::2], np.arange(24).reshape(12, 2)):
        before = array.copy()
        with pytest.raises(ValueError, match="contiguous one-dimensional"):
            shuffle_general_k2(array)
        assert np.array_equal(array, before), array.shape
    assert np.array_equal(base, np.arange(24))


def test_rotation_plan_fifteen():
    plan = rotation_plan(15)
    assert isinstance(plan, RotationPlan)
    assert plan.segment_sizes == (8, 4, 2, 1)
    assert plan.rotations == ((8, 15, 7), (20, 7, 3), (26, 3, 1))
    assert rotation_cost(15) == 15 + 7 + 3 == 25


def test_rotation_plan_power_of_two_is_free():
    plan = rotation_plan(8)
    assert plan.segment_sizes == (8,)
    assert plan.rotations == ()
    assert rotation_cost(8) == 0


def test_rotation_plan_six():
    # one rotation, displacing the whole 6-element window between the mates
    plan = rotation_plan(6)
    assert plan.segment_sizes == (4, 2)
    assert plan.rotations == ((4, 6, 2),)
    assert rotation_cost(6) == 6


def test_rotation_cost_closed_form():
    for M in range(1, 3000):
        planned = sum(length for _, length, _ in rotation_plan(M).rotations)
        assert planned == rotation_cost(M) <= 2 * M
    with pytest.raises(ValueError):
        rotation_cost(0)
    with pytest.raises(ValueError):
        rotation_plan(0)


def test_rotation_trace_strings():
    # N=30: the three rotations bring each segment pair together in turn
    arr = list("ssssssssttttuuv" * 2)
    plan = rotation_plan(15)
    stages = []
    for start, length, shift in plan.rotations:
        rotate_left(arr, start, length, shift)
        stages.append("".join(arr))
    assert stages == [
        "ssssssssssssssssttttuuvttttuuv",
        "ssssssssssssssssttttttttuuvuuv",
        "ssssssssssssssssttttttttuuuuvv",
    ]


def test_rotate_left_list_and_ndarray():
    arr = list(range(10))
    assert rotate_left(arr, 2, 6, 2) == 6
    assert arr == [0, 1, 4, 5, 6, 7, 2, 3, 8, 9]
    nd = np.arange(10, dtype=np.int64)
    rotate_left(nd, 2, 6, 2)
    assert nd.tolist() == arr


def test_rotate_left_trivial_shifts_move_nothing():
    arr = list(range(6))
    assert rotate_left(arr, 0, 6, 0) == 0
    assert rotate_left(arr, 0, 6, 6) == 0
    assert rotate_left(arr, 3, 1, 1) == 0
    assert arr == list(range(6))


def test_rotate_left_window_checks():
    with pytest.raises(ValueError):
        rotate_left([1, 2, 3], 2, 4, 1)
    with pytest.raises(ValueError):
        rotate_left([1, 2, 3], 0, 3, 4)


def test_general_shuffle_figure_sizes():
    arr = list("abcdef123456")
    stats = shuffle_general_k2(arr)
    assert "".join(arr) == "a1b2c3d4e5f6"
    assert stats == OpCounter(swaps=5, moved=6, rounds=3)


def test_general_shuffle_matches_oracle():
    for N in range(0, 700, 2):
        arr = list(range(N))
        stats = shuffle_general_k2(arr)
        assert arr == oracle_shuffle(list(range(N)), 2), N
        if N:
            assert stats.moved == rotation_cost(N // 2)
            assert stats.rounds == 2 + len(rotation_plan(N // 2).rotations)


def test_general_shuffle_ndarray():
    for N in (2, 12, 30, 100, 1022, 4096):
        arr = np.arange(N, dtype=np.int64)
        lst = list(range(N))
        stats_a = shuffle_general_k2(arr)
        stats_l = shuffle_general_k2(lst)
        assert stats_a == stats_l
        assert arr.tolist() == lst


def test_general_shuffle_rejects_odd_lengths():
    with pytest.raises(ValueError):
        shuffle_general_k2([1, 2, 3])
