"""Two-involution factorizations of cyclic shifts and general permutations."""

import itertools
import random

import pytest

from shuffleworks.involution_factor import (
    InvolutionPair,
    factor_permutation,
)
from shuffleworks.network import _involution_rows
from shuffleworks.oracle import oracle_apply
from shuffleworks.perm_core import Permutation, cycle_decompose, is_involution

from _reference import brute_force_factorizations, compose


def cyclic_shift(n):
    return Permutation([(i + 1) % n for i in range(n)])


def test_shift_factors_are_involutions_on_every_axis():
    for n in range(1, 20):
        for k in range(n):
            pair = factor_permutation(cyclic_shift(n), k)
            assert is_involution(pair.s) and is_involution(pair.t)


def test_shift_factors_pair_mirror_about_the_axis():
    inv = factor_permutation(cyclic_shift(13), 0).s
    assert _involution_rows(inv).tolist() == [
        [1, 12], [2, 11], [3, 10], [4, 9], [5, 8], [6, 7]]
    assert [i for i, v in enumerate(inv.map) if i == v] == [0]
    inv = factor_permutation(cyclic_shift(14), 3).s
    assert _involution_rows(inv).tolist() == [
        [0, 3], [1, 2], [4, 13], [5, 12], [6, 11], [7, 10], [8, 9]]
    assert [i for i, v in enumerate(inv.map) if i == v] == []


def test_adjacent_pairings_compose_to_the_cyclic_shift():
    # t on axis k is the pairing s on axis k-1, and s after t is the shift
    for n in range(1, 30):
        shift = cyclic_shift(n)
        for k in range(n):
            pair = factor_permutation(shift, k)
            assert pair.t == factor_permutation(shift, (k - 1) % n).s
            assert compose(pair.s, pair.t) == shift


def test_factor_cyclic_product_field():
    for n in (1, 2, 3, 8, 13):
        for k in range(n):
            pair = factor_permutation(cyclic_shift(n), k)
            assert isinstance(pair, InvolutionPair)
            assert compose(pair.s, pair.t) == cyclic_shift(n)


def test_every_axis_gives_a_distinct_shift_factorization():
    for n in range(1, 16):
        pairs = [factor_permutation(cyclic_shift(n), k) for k in range(n)]
        assert len({(p.s.map, p.t.map) for p in pairs}) == n


def test_brute_force_agrees_with_enumeration():
    # the cyclic shift on n points has exactly n ordered factorizations
    for n in range(1, 8):
        found = brute_force_factorizations(cyclic_shift(n))
        assert len(found) == n
        want = {(p.s.map, p.t.map) for p in (factor_permutation(cyclic_shift(n), k) for k in range(n))}
        assert {(p.s.map, p.t.map) for p in found} == want


def test_brute_force_verifies_each_pair():
    for vals in itertools.permutations(range(4)):
        p = Permutation(vals)
        found = brute_force_factorizations(p)
        assert found, vals
        for pair in found:
            assert is_involution(pair.s) and is_involution(pair.t)
            assert compose(pair.s, pair.t) == p


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_factorizations(Permutation(range(10)))


def test_factor_permutation_exhaustive_small():
    for n in range(7):
        for vals in itertools.permutations(range(n)):
            p = Permutation(vals)
            pair = factor_permutation(p)
            assert is_involution(pair.s) and is_involution(pair.t)
            assert compose(pair.s, pair.t) == p


def test_factor_permutation_random_large():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(1, 1025)
        vals = list(range(n))
        rng.shuffle(vals)
        p = Permutation(vals)
        pair = factor_permutation(p)
        assert compose(pair.s, pair.t) == p
        # the factors only touch positions inside each cycle of p
        arr = list(range(n))
        for i, j in _involution_rows(pair.t).tolist() + _involution_rows(pair.s).tolist():
            arr[i], arr[j] = arr[j], arr[i]
        assert arr == oracle_apply(p, list(range(n)))


def test_factor_permutation_keeps_cycles_independent():
    p = Permutation([1, 2, 0, 4, 3, 5])
    pair = factor_permutation(p)
    cycles = {frozenset(c) for c in cycle_decompose(p)}
    for i, j in _involution_rows(pair.s).tolist() + _involution_rows(pair.t).tolist():
        assert any(i in c and j in c for c in cycles)


def test_factor_permutation_every_axis_is_a_factorization():
    for n in range(1, 7):
        for vals in itertools.permutations(range(n)):
            p = Permutation(vals)
            found = brute_force_factorizations(p)
            for axis in range(n):
                assert factor_permutation(p, axis) in found, (vals, axis)
