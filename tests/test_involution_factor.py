"""Two-involution factorizations of cyclic shifts and general permutations."""

import itertools
import random

import pytest

from shuffleworks.involution_factor import (
    InvolutionPair,
    brute_force_factorization_count,
    brute_force_factorizations,
    circular_involution,
    enumerate_circular_factorizations,
    factor_cyclic,
    factor_permutation,
)
from shuffleworks.oracle import oracle_apply
from shuffleworks.perm_core import Permutation, compose, cycle_decompose, is_involution


def cyclic_shift(n):
    return Permutation([(i + 1) % n for i in range(n)])


def test_circular_involution_is_an_involution():
    for n in range(1, 20):
        for k in range(n):
            assert is_involution(circular_involution(n, k))


def test_circular_involution_pairs_mirror_about_the_axis():
    inv = circular_involution(13, 0)
    assert inv.transpositions == (
        (1, 12), (2, 11), (3, 10), (4, 9), (5, 8), (6, 7))
    assert inv.fixed_points == (0,)
    inv = circular_involution(14, 3)
    assert inv.transpositions == (
        (0, 3), (1, 2), (4, 13), (5, 12), (6, 11), (7, 10), (8, 9))
    assert inv.fixed_points == ()


def test_circular_involution_range_check():
    with pytest.raises(ValueError):
        circular_involution(5, 5)
    with pytest.raises(ValueError):
        circular_involution(5, -1)


def test_adjacent_pairings_compose_to_the_cyclic_shift():
    for n in range(1, 30):
        for k in range(n):
            s = circular_involution(n, k)
            t = circular_involution(n, (k - 1) % n)
            assert compose(s, t) == cyclic_shift(n)


def test_factor_cyclic_product_field():
    for n in (1, 2, 3, 8, 13):
        for k in range(n):
            pair = factor_cyclic(n, k)
            assert isinstance(pair, InvolutionPair)
            assert compose(pair.s, pair.t) == cyclic_shift(n)


def test_enumerate_circular_factorizations_are_distinct():
    for n in range(1, 16):
        pairs = enumerate_circular_factorizations(n)
        assert len(pairs) == n
        assert len({(p.s.map, p.t.map) for p in pairs}) == n
    with pytest.raises(ValueError):
        enumerate_circular_factorizations(0)


def test_brute_force_agrees_with_enumeration():
    # the cyclic shift on n points has exactly n ordered factorizations
    for n in range(1, 8):
        found = brute_force_factorizations(cyclic_shift(n))
        assert len(found) == n
        want = {(p.s.map, p.t.map) for p in enumerate_circular_factorizations(n)}
        assert {(p.s.map, p.t.map) for p in found} == want


def test_brute_force_verifies_each_pair():
    for vals in itertools.permutations(range(4)):
        p = Permutation(vals)
        found = brute_force_factorizations(p)
        assert found, vals
        assert brute_force_factorization_count(p) == len(found)
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
        for i, j in pair.t.transpositions + pair.s.transpositions:
            arr[i], arr[j] = arr[j], arr[i]
        assert arr == oracle_apply(p, list(range(n)))


def test_factor_permutation_keeps_cycles_independent():
    p = Permutation([1, 2, 0, 4, 3, 5])
    pair = factor_permutation(p)
    cycles = {frozenset(c) for c in cycle_decompose(p)}
    for i, j in pair.s.transpositions + pair.t.transpositions:
        assert any(i in c and j in c for c in cycles)


def test_factor_permutation_every_axis_is_a_factorization():
    for n in range(1, 7):
        for vals in itertools.permutations(range(n)):
            p = Permutation(vals)
            found = brute_force_factorizations(p)
            for axis in range(n):
                assert factor_permutation(p, axis) in found, (vals, axis)
