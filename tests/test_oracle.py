"""The naive reference shuffle and the involution census."""

import numpy as np
import pytest

from shuffleworks.oracle import (
    inshuffle_permutation,
    oracle_apply,
    oracle_shuffle,
)
from shuffleworks.perm_core import Permutation, is_involution

from _reference import enumerate_involutions


def telephone_number(n: int) -> int:
    """Number of involutions of n points: T(n) = T(n-1) + (n-1)*T(n-2)."""
    a, b = 1, 1
    for i in range(2, n + 1):
        a, b = b, b + (i - 1) * a
    return b if n >= 1 else 1


def test_two_way_shuffle_interleaves_the_halves():
    tokens = "a b c d e f 1 2 3 4 5 6".split()
    assert oracle_shuffle(tokens, 2) == "a 1 b 2 c 3 d 4 e 5 f 6".split()


def test_three_way_shuffle_of_nine():
    assert oracle_shuffle(list(range(9)), 3) == [0, 3, 6, 1, 4, 7, 2, 5, 8]


def test_endpoints_stay_put():
    for k, n in ((2, 16), (3, 27), (5, 40)):
        out = oracle_shuffle(list(range(n)), k)
        assert out[0] == 0 and out[-1] == n - 1


def test_element_lands_at_k_i_mod_m():
    for k, n in ((2, 12), (3, 12), (4, 12), (7, 21)):
        out = oracle_shuffle(list(range(n)), k)
        m = n - 1
        assert all(out[k * i % m] == i for i in range(m))


def test_degenerate_lengths():
    assert oracle_shuffle([], 2) == []
    assert oracle_shuffle(["x", "y"], 2) == ["x", "y"]


def test_rejects_bad_arity():
    with pytest.raises(ValueError):
        oracle_shuffle([1, 2, 3], 2)
    with pytest.raises(ValueError):
        oracle_shuffle([1, 2], 1)


def test_ndarray_path_matches_list_path():
    for k, n in ((2, 64), (3, 81), (5, 30), (2, 0)):
        lst = oracle_shuffle(list(range(n)), k)
        arr = oracle_shuffle(np.arange(n, dtype=np.int64), k)
        assert isinstance(arr, np.ndarray)
        assert arr.tolist() == lst


def test_oracle_apply():
    p = Permutation([2, 0, 1])
    assert oracle_apply(p, ["a", "b", "c"]) == ["b", "c", "a"]
    with pytest.raises(ValueError):
        oracle_apply(p, ["a", "b"])


def test_inshuffle_permutation_matches_the_shuffle():
    for k, n in ((2, 2), (2, 24), (3, 27), (4, 20), (5, 35)):
        p = inshuffle_permutation(n, k)
        assert oracle_apply(p, list(range(n))) == oracle_shuffle(list(range(n)), k)


def test_inshuffle_permutation_rejects_bad_sizes():
    for n, k in ((5, 2), (0, 2), (4, 1)):
        with pytest.raises(ValueError):
            inshuffle_permutation(n, k)


def test_telephone_numbers():
    want = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]
    assert [telephone_number(n) for n in range(11)] == want


def test_enumeration_is_complete_and_duplicate_free():
    for n in range(8):
        seen = set()
        for inv in enumerate_involutions(n):
            assert is_involution(inv)
            assert inv.size == n
            seen.add(inv.map)
        assert len(seen) == telephone_number(n)


def test_enumeration_bails_out_on_large_n():
    with pytest.raises(ValueError):
        list(enumerate_involutions(10))
    with pytest.raises(ValueError):
        list(enumerate_involutions(-1))
