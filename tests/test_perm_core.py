"""Permutation and involution plumbing."""

import random

import pytest

from shuffleworks.network import SwapNetwork, _involution_rows, apply_network
from shuffleworks.perm_core import (
    Involution,
    Permutation,
    cycle_decompose,
    cycle_notation,
    is_involution,
)

from _reference import compose, inverse, parse_cycle_notation, permutation_from_cycles


def test_permutation_accepts_any_iterable():
    p = Permutation(iter([2, 0, 1]))
    assert p.map == (2, 0, 1)
    assert p.size == 3
    assert len(p) == 3
    assert p[0] == 2


@pytest.mark.parametrize("bad", [[0, 0], [1, 2], [0, 2], [-1, 0], [0, 1, 1]])
def test_permutation_rejects_non_bijections(bad):
    with pytest.raises(ValueError):
        Permutation(bad)


def test_permutation_rejects_non_integers():
    with pytest.raises(ValueError):
        Permutation([0.0, 1])


def test_equality_and_hash():
    assert Permutation([1, 0]) == Permutation([1, 0])
    assert Permutation([1, 0]) != Permutation([0, 1])
    assert hash(Permutation([1, 0])) == hash(Permutation([1, 0]))
    assert Permutation([]) == Permutation([])


def test_repr_mentions_the_map():
    assert repr(Permutation([1, 0])) == "Permutation([1, 0])"
    assert repr(Involution([1, 0])) == "Involution([1, 0])"


def test_identity_and_compose_laws():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 17):
        vals = list(range(n))
        rng.shuffle(vals)
        p = Permutation(vals)
        e = Permutation(range(n))
        assert compose(p, e) == p
        assert compose(e, p) == p
        assert compose(p, inverse(p)) == e
        assert compose(inverse(p), p) == e


def test_compose_order():
    # compose(p, q) applies q first: i -> p.map[q.map[i]]
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert compose(p, q).map == (1, 0, 2)
    assert compose(q, p).map == (2, 1, 0)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation([0]), Permutation([0, 1]))


def test_cycle_decompose_starts_each_cycle_at_its_minimum():
    p = Permutation([1, 2, 0, 4, 3, 5])
    assert cycle_decompose(p) == ((0, 1, 2), (3, 4), (5,))


def test_cycle_decompose_traversal_follows_the_map():
    rng = random.Random(99)
    vals = list(range(40))
    rng.shuffle(vals)
    p = Permutation(vals)
    for cycle in cycle_decompose(p):
        for a, b in zip(cycle, cycle[1:] + (cycle[0],)):
            assert p.map[a] == b


def test_permutation_from_cycles_round_trip():
    rng = random.Random(3)
    for n in (1, 2, 9, 30):
        vals = list(range(n))
        rng.shuffle(vals)
        p = Permutation(vals)
        assert permutation_from_cycles(n, cycle_decompose(p)) == p


def test_permutation_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        permutation_from_cycles(4, [(0, 1), (1, 2)])


def test_is_involution():
    assert is_involution(Permutation([1, 0, 2]))
    assert is_involution(Permutation(range(4)))
    assert not is_involution(Permutation([1, 2, 0]))


def test_involution_constructor_checks_self_inverse():
    with pytest.raises(ValueError):
        Involution([1, 2, 0])
    Involution([1, 2, 0], check=False)  # caller's problem then


def test_involution_views():
    inv = Involution([3, 1, 4, 0, 2, 5])
    assert _involution_rows(inv).tolist() == [[0, 3], [2, 4]]
    assert [i for i, v in enumerate(inv.map) if i == v] == [1, 5]


def test_apply_pair_matches_composition():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 25)
        s = _random_involution(rng, n)
        t = _random_involution(rng, n)
        product = compose(s, t)
        arr = list(range(n))
        apply_network(arr, SwapNetwork(n, (_involution_rows(t), _involution_rows(s)), "pair"))
        # element starting at x must sit at product.map[x]
        assert all(arr[product.map[x]] == x for x in range(n))


def _random_involution(rng, n):
    free = list(range(n))
    rng.shuffle(free)
    m = list(range(n))
    while len(free) > 1:
        a = free.pop()
        if rng.random() < 0.7:
            b = free.pop()
            m[a], m[b] = b, a
    return Involution(m)


def test_cycle_notation():
    assert cycle_notation(Permutation(range(6))) == "()"
    assert cycle_notation(Permutation(range(0))) == "()"
    p = Permutation([0, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
    assert cycle_notation(p) == "(0)(1 12)(2 11)(3 10)(4 9)(5 8)(6 7)"


def test_parse_cycle_notation_round_trip():
    rng = random.Random(5)
    for n in (0, 1, 2, 3, 8, 20):
        vals = list(range(n))
        rng.shuffle(vals)
        p = Permutation(vals)
        assert parse_cycle_notation(cycle_notation(p), n) == p


def test_parse_cycle_notation_accepts_commas():
    assert parse_cycle_notation("(0,2)(1)", 3) == Permutation([2, 1, 0])


@pytest.mark.parametrize("text", ["", "0 1", "(", "()(", "( )"])
def test_parse_cycle_notation_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_cycle_notation(text, 3)
