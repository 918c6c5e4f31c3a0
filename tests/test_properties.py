"""Property-based checks of the structural invariants."""

import math

from hypothesis import given, settings, strategies as st

from shuffleworks.involution_factor import factor_permutation
from shuffleworks.network import (
    build_network,
    emit_text,
    network_permutation,
    parse_text,
)
from shuffleworks.oracle import oracle_shuffle
from shuffleworks.perm_core import (
    Permutation,
    cycle_decompose,
    cycle_notation,
    is_involution,
)
from shuffleworks.shuffle_bitrev import (
    ShuffleSpec,
    _revswap_chunks,
    rotation_cost,
    rotation_plan,
    shuffle_general_k2,
)
from shuffleworks.shuffle_modinv import j_map, shuffle_modinv

from _reference import chunk_pairs, compose, parse_cycle_notation, rev_digits

permutations = st.integers(0, 40).flatmap(
    lambda n: st.permutations(list(range(n))))

power_specs = st.tuples(st.integers(2, 5), st.integers(1, 6)).filter(
    lambda kn: kn[0] ** kn[1] <= 4096).map(
    lambda kn: ShuffleSpec.for_length(kn[0] ** kn[1], kn[0]))


@given(permutations)
def test_factoring_yields_two_involutions_that_recompose(vals):
    p = Permutation(vals)
    pair = factor_permutation(p)
    assert is_involution(pair.s)
    assert is_involution(pair.t)
    assert compose(pair.s, pair.t) == p


@given(permutations)
def test_cycle_decomposition_partitions_the_points(vals):
    p = Permutation(vals)
    seen = [x for cycle in cycle_decompose(p) for x in cycle]
    assert sorted(seen) == list(range(p.size))


@given(permutations)
def test_cycle_notation_round_trip(vals):
    p = Permutation(vals)
    assert parse_cycle_notation(cycle_notation(p), p.size) == p


@given(power_specs, st.data())
def test_digit_reversal_is_an_involution(spec, data):
    t = data.draw(st.integers(0, spec.n))
    i = data.draw(st.integers(0, spec.N - 1))
    assert rev_digits(rev_digits(i, t, spec), t, spec) == i


@given(power_specs, st.data())
def test_chained_reversals_give_the_shuffle_map(spec, data):
    # reversing n-1 digits then n digits sends i to k*i mod (N-1)
    i = data.draw(st.integers(0, spec.N - 2))
    assert rev_digits(rev_digits(i, spec.n - 1, spec), spec.n, spec) == spec.k * i % (spec.N - 1)


@settings(max_examples=25)
@given(power_specs.filter(lambda s: s.n >= 2), st.data())
def test_incremental_reversal_matches_recomputation(spec, data):
    t = data.draw(st.integers(2, spec.n))
    want = [(i, j) for i in range(spec.N) if (j := rev_digits(i, t, spec)) > i]
    assert list(chunk_pairs(_revswap_chunks(t, spec))) == want


@given(st.integers(1, 100000))
def test_rotation_cost_formula(M):
    plan = rotation_plan(M)
    assert sum(plan.segment_sizes) == M
    assert list(plan.segment_sizes) == sorted(plan.segment_sizes, reverse=True)
    assert sum(length for _, length, _ in plan.rotations) == rotation_cost(M) <= 2 * M


@settings(max_examples=40)
@given(st.integers(1, 300))
def test_general_shuffle_equals_oracle(M):
    arr = list(range(2 * M))
    shuffle_general_k2(arr)
    assert arr == oracle_shuffle(list(range(2 * M)), 2)


@settings(max_examples=40)
@given(st.integers(2, 7), st.integers(1, 80))
def test_modinv_shuffle_equals_oracle(k, M):
    arr = list(range(k * M))
    shuffle_modinv(arr, k)
    assert arr == oracle_shuffle(list(range(k * M)), k)


@settings(max_examples=40)
@given(st.integers(2, 7), st.integers(1, 120), st.data())
def test_j_map_laws(k, M, data):
    spec = ShuffleSpec.for_length(k * M, k)
    x = data.draw(st.integers(0, spec.m - 1))
    y = j_map(1, x, spec)
    assert j_map(1, y, spec) == x
    assert math.gcd(y, spec.m) == math.gcd(x, spec.m)
    assert j_map(k, y, spec) == k * x % spec.m


@given(permutations)
def test_factorization_network_round_trip(vals):
    p = Permutation(vals)
    net = build_network("factorization", p)
    assert network_permutation(net) == p
    assert parse_text(emit_text(net)) == net
