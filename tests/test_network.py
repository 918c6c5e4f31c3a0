"""Swap-network construction, text and DOT rendering, round-trip parsing."""

import importlib
import random
import re
import tracemalloc

import numpy as np
import pytest

from shuffleworks import network
from shuffleworks.involution_factor import factor_permutation
from shuffleworks.network import (
    SwapNetwork,
    TEXT_FORMAT_LINE,
    apply_network,
    build_network,
    emit_dot,
    emit_text,
    network_permutation,
    parse_text,
    row_dtype,
)
from shuffleworks.oracle import inshuffle_permutation, oracle_shuffle
from shuffleworks.perm_core import Permutation
from shuffleworks.shuffle_bitrev import ShuffleSpec, _revswap_chunks
from shuffleworks.shuffle_modinv import _modinv_chunks, j_map

from _reference import chunk_pairs, emit_text_per_pair, rev_digits


def test_parse_text_names_the_overlapping_round():
    # the declared count matches, so only the disjointness check can refuse
    head = TEXT_FORMAT_LINE + "\nN=4 method=x swaps=4\nround 0: (0 1) (2 3)\nround 1: "
    net = SwapNetwork(4, (((0, 1), (2, 3)), ((1, 2), (0, 3)), ()), "x")
    assert parse_text(head + "(1 2) (0 3)\nround 2:\n") == net
    with pytest.raises(ValueError, match="round 1 has overlapping swaps"):
        parse_text(head + "(1 2) (2 3)\n")


def test_total_swaps():
    net = SwapNetwork(4, (((0, 1),), ((0, 2), (1, 3))), "x")
    assert net.total_swaps == 3


def test_bitrev_network_counts():
    net = build_network("bitrev", ShuffleSpec.for_length(27, 3))
    assert net.total_swaps == 18
    assert [len(r) for r in net.rounds] == [9, 9]
    assert net.label == "bitrev"


def test_modinv_network_counts():
    net = build_network("modinv", ShuffleSpec.for_length(27, 3))
    assert net.total_swaps == 20
    assert net.label == "modinv"


def test_network_rounds_are_the_pair_sources():
    # each round is its construction's pair source, sorted by i, and both
    # agree with the pairs recomputed position by position
    for k, n in ((2, 1), (2, 6), (3, 4), (4, 3), (5, 2)):
        spec = ShuffleSpec.for_length(k ** n, k)
        net = build_network("bitrev", spec)
        digits = (n - 1, n)
        assert net == SwapNetwork(spec.N, [list(chunk_pairs(_revswap_chunks(t, spec))) for t in digits], "bitrev")
        assert net == SwapNetwork(spec.N, [
            [(i, j) for i in range(spec.N) if (j := rev_digits(i, t, spec)) > i] for t in digits], "bitrev")
    for k, N in ((2, 30), (3, 27), (4, 40), (5, 45)):
        spec = ShuffleSpec.for_length(N, k)
        net = build_network("modinv", spec)
        assert net == SwapNetwork(spec.N, [sorted(chunk_pairs(_modinv_chunks(r, spec))) for r in (1, k)], "modinv")
        assert net == SwapNetwork(spec.N, [
            [(x, j) for x in range(1, spec.m) if (j := j_map(r, x, spec)) > x] for r in (1, k)], "modinv")


def test_modinv_network_walks_the_lanes_once_per_round(monkeypatch):
    # the mirrors of a round come from the walk that yields its direct pairs
    lanes, walks = importlib.import_module("shuffleworks.shuffle_modinv"), []
    walk = lanes._j_chunks
    monkeypatch.setattr(lanes, "_j_chunks", lambda spec, r, *rest: walks.append(r) or walk(spec, r, *rest))
    for k, N in ((2, 30), (3, 3 * 12001), (7, 7 * 150)):
        walks.clear()
        build_network("modinv", ShuffleSpec.for_length(N, k))
        assert walks == [1, k], (k, N)


def test_networks_realise_the_inshuffle():
    cases = [("bitrev", 16, 2), ("bitrev", 81, 3), ("modinv", 16, 2),
             ("modinv", 30, 2), ("modinv", 27, 3), ("modinv", 40, 5)]
    for method, N, k in cases:
        net = build_network(method, ShuffleSpec.for_length(N, k))
        assert network_permutation(net) == inshuffle_permutation(N, k), (method, N)
        for rows in net.rounds:
            assert (np.bincount(rows.ravel()) <= 1).all(), (method, N)  # disjoint
        arr = list(range(N))
        apply_network(arr, net)
        assert arr == oracle_shuffle(list(range(N)), k)


def test_built_rounds_are_disjoint_and_in_range():
    # build_network does not validate what it builds; the pair sources
    # must give disjoint pairs i < j < N on their own
    specs = [("bitrev", ShuffleSpec.for_length(k ** n, k)) for k in (2, 3, 4, 5) for n in range(1, 13) if k ** n <= 4096]
    specs += [("modinv", ShuffleSpec.for_length(k * M, k)) for k in (2, 3, 4, 5) for M in range(1, 130, 3)]
    for method, spec in specs:
        net = build_network(method, spec)
        assert len(net.rounds) == 2
        for rows in net.rounds:
            assert all(0 <= i < j < spec.N for i, j in rows.tolist()), (method, spec.N, spec.k)
            assert (np.bincount(rows.ravel()) <= 1).all(), (method, spec.N, spec.k)  # disjoint


def test_factorization_network():
    rng = random.Random(17)
    for n in (1, 2, 5, 12, 40):
        vals = list(range(n))
        rng.shuffle(vals)
        p = Permutation(vals)
        net = build_network("factorization", p)
        assert len(net.rounds) == 2
        assert network_permutation(net) == p
    net = build_network("factorization", Permutation(range(3)))
    assert net == SwapNetwork(3, ((), ()), "factorization")


def test_apply_network_length_check():
    net = build_network("bitrev", ShuffleSpec.for_length(4, 2))
    with pytest.raises(ValueError):
        apply_network([1, 2, 3], net)


def test_build_network_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        build_network("bitrev", ShuffleSpec.for_length(12, 2))
    with pytest.raises(ValueError):
        build_network("bitrev", Permutation([1, 0]))
    with pytest.raises(ValueError):
        build_network("factorization", ShuffleSpec.for_length(4, 2))
    with pytest.raises(ValueError):
        build_network("sorting", ShuffleSpec.for_length(4, 2))


def test_emit_text_golden():
    net = build_network("bitrev", ShuffleSpec.for_length(16, 2))
    assert emit_text(net) == (
        "# shuffleworks-net v1\n"
        "N=16 method=bitrev swaps=10\n"
        "round 0: (1 4) (3 6) (9 12) (11 14)\n"
        "round 1: (1 8) (2 4) (3 12) (5 10) (7 14) (11 13)\n"
    )


def test_emit_text_keeps_empty_rounds_visible():
    net = build_network("factorization", Permutation(range(3)))
    assert emit_text(net) == (
        TEXT_FORMAT_LINE + "\nN=3 method=factorization swaps=0\nround 0:\nround 1:\n"
    )


def test_emit_text_equals_the_per_pair_rendering():
    # the digit renderer gives the bytes of one format call a swap, on rounds
    # of many chunks of pairs, of mirrored modinv pairs, empty rounds and N = 2
    nets = [
        build_network("bitrev", ShuffleSpec.for_length(2 ** 12, 2)),
        build_network("bitrev", ShuffleSpec.for_length(3 ** 7, 3)),
        build_network("modinv", ShuffleSpec.for_length(3 * 401, 3)),
        build_network("factorization", Permutation(range(5))),
        build_network("factorization", Permutation([1, 0, 2])),
        build_network("bitrev", ShuffleSpec.for_length(2, 2)),
        build_network("modinv", ShuffleSpec.for_length(2, 2)),
        build_network("factorization", Permutation([1, 0])),
    ]
    for net in nets:
        assert emit_text(net) == emit_text_per_pair(net), (net.label, net.n_positions)


def test_emit_text_across_digit_widths():
    # numbers of one width and of several in a chunk, a chunk's width changing from one to the next, and
    # numbers past 9 digits, which take the 64-bit digit path
    nets = [
        build_network("bitrev", ShuffleSpec.for_length(10 ** 4, 10)),
        build_network("bitrev", ShuffleSpec.for_length(2 ** 14, 2)),
        SwapNetwork(2 ** 63, [[(0, 9), (10, 99), (100, 999_999_999), (10 ** 9, 2 ** 32 + 5), (2 ** 40, 2 ** 63 - 1)],
                              [(8, 10)], [(10 ** 18, 10 ** 18 + 1)]], "wide"),
    ]
    for net in nets:
        assert emit_text(net) == emit_text_per_pair(net), (net.label, net.n_positions)
    with pytest.raises(ValueError, match="negative position in a swap"):  # unsigned digits would wrap it
        emit_text(SwapNetwork(3, [[(0, 1)], [(-1, 2)]], "x"))


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_emit_text_and_apply_network_across_row_chunks(monkeypatch, rows):
    # with a few rows a step, every round spans many steps, some of them ending where a round does
    nets = [
        build_network("bitrev", ShuffleSpec.for_length(10 ** 3, 10)),
        build_network("bitrev", ShuffleSpec.for_length(3 ** 4, 3)),
        build_network("modinv", ShuffleSpec.for_length(3 * 41, 3)),
        build_network("factorization", Permutation([0, 2, 1, 3, 5, 4, 6, 8, 9, 7])),
    ]
    texts = [emit_text(net) for net in nets]
    perms = [network_permutation(net) for net in nets]
    monkeypatch.setattr(network, "_ROWS", rows)
    for net, text, perm in zip(nets, texts, perms):
        assert emit_text(net) == text == emit_text_per_pair(net), (net.label, rows)
        assert network_permutation(net) == perm
        arr = list(range(net.n_positions))
        apply_network(arr, net)
        assert [arr.index(x) for x in range(net.n_positions)] == list(perm.map)


def test_factorizations_with_fixed_points_and_empty_rounds():
    for perm in ([0], [1, 0], [0, 1, 2], [0, 2, 1, 3], [2, 1, 0, 3, 4], [3, 1, 2, 0, 5, 4, 6]):
        p = Permutation(perm)
        net = build_network("factorization", p)
        pair = factor_permutation(p)
        rounds = [[(i, v) for i, v in enumerate(inv.map) if i < v] for inv in (pair.t, pair.s)]
        assert net == SwapNetwork(len(perm), rounds, "factorization")
        assert all(rows.shape[1:] == (2,) and rows.dtype == np.uint8 for rows in net.rounds)
        assert emit_text(net) == emit_text_per_pair(net)
        assert parse_text(emit_text(net)) == net
        assert network_permutation(net) == p
        values = np.arange(len(perm))
        apply_network(values, net)  # the ndarray route
        assert all(values[p.map[x]] == x for x in range(len(perm)))


@pytest.mark.parametrize("method, k, N", [
    ("bitrev", 2, 2 ** 14), ("bitrev", 2, 2 ** 17), ("modinv", 3, 3 * 12_001), ("modinv", 2, 2 ** 16 + 2)])
def test_build_and_emit_scratch_per_position(method, k, N):
    # two rounds of about N/2 rows, 4 bytes a row at 2**14 (uint16) and 8 at 2**17 (uint32), the text (12.5 to
    # 14.3 bytes a position here) held twice while it is joined, and one step of the renderer: 32.6 and 36.5 bytes
    # a position measured, so the bound leaves 10% over the larger; intp rows took 44.5, pair tuples 156 to 170.
    # A modinv round's sort by i holds an intp index and a sorted copy of the round for a moment, below the text's
    # peak: about 31 and 35 bytes a position
    spec = ShuffleSpec.for_length(N, k)
    emit_text(build_network(method, ShuffleSpec.for_length(64, 2)))  # one-time allocations
    tracemalloc.start()
    try:
        text = emit_text(build_network(method, spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) < 15 * spec.N
    assert peak < 40 * spec.N, peak / spec.N


def test_swap_network_rounds_are_rows():
    pairs = SwapNetwork(5, (((0, 1), (2, 4)), [], [[1, 3]]), "x")
    assert [rows.tolist() for rows in pairs.rounds] == [[[0, 1], [2, 4]], [], [[1, 3]]]
    assert all(rows.dtype == np.uint8 and rows.shape[1:] == (2,) for rows in pairs.rounds)
    arrays = SwapNetwork(5, (np.array([[0, 1], [2, 4]], np.int32), np.empty((0, 2)), np.array([[1, 3]])), "x")
    assert arrays == pairs and pairs == arrays
    rows = np.array([[0, 1]], np.uint8)
    assert SwapNetwork(2, (rows,), "x").rounds[0] is rows  # an array already in the round's dtype is kept as it is
    assert pairs != SwapNetwork(5, (((0, 1), (2, 4)), (), ((1, 2),)), "x")
    assert pairs != SwapNetwork(5, (((0, 1), (2, 4)), ()), "x")
    assert pairs != SwapNetwork(6, pairs.rounds, "x")
    assert pairs != SwapNetwork(5, pairs.rounds, "y")
    assert pairs != pairs.rounds
    for bad in ([(0, 1, 2)], [0, 1], [[(0, 1)]]):
        with pytest.raises(ValueError, match="a round must be a sequence of"):
            SwapNetwork(3, (bad,), "x")


def test_row_dtype_and_swap_floor_at_each_edge():
    # the narrowest unsigned type narrower than intp that holds N - 1, and a swap's floor of two positions and
    # its text " (i j)"; an unsigned type as wide as intp would not pass np.bincount or a safe cast to intp
    wide = np.dtype(np.intp).itemsize
    for N, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16), (2 ** 16, np.uint16),
                     (2 ** 16 + 1, np.uint32), (2 ** 32, np.uint32), (2 ** 32 + 1, np.intp), (2 ** 62, np.intp)):
        expected = np.dtype(dtype if np.dtype(dtype).itemsize < wide else np.intp)
        assert row_dtype(N) == expected, N
        assert network.min_swap_bytes(N) == 2 * expected.itemsize + 6, N
        assert np.can_cast(row_dtype(N), np.intp), N


@pytest.mark.parametrize("given", ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"])
def test_swap_network_refuses_positions_outside_the_network(given):
    # rows of any integer dtype become the round's dtype with their values; a position past N - 1, or below 0,
    # is refused when the network is built, since the round's dtype may not hold it
    for N, dtype in ((3, np.uint8), (256, np.uint8), (257, np.uint16), (2 ** 16, np.uint16), (2 ** 16 + 1, np.uint32)):
        last = min(N - 1, np.iinfo(given).max)
        net = SwapNetwork(N, (np.array([[0, last]], given), np.array([[1, 2]], given)), "x")
        assert [rows.dtype for rows in net.rounds] == [dtype, dtype], (N, given)
        assert [rows.tolist() for rows in net.rounds] == [[[0, last]], [[1, 2]]]
        assert parse_text(emit_text(net)) == net
        if N - 1 < np.iinfo(given).max:
            with pytest.raises(ValueError, match="position %d in a swap is outside 0..%d" % (N, N - 1)):
                SwapNetwork(N, (np.array([[1, 2]], given), np.array([[0, N]], given)), "x")
        if np.iinfo(given).min < 0:
            with pytest.raises(ValueError, match="negative position in a swap"):
                SwapNetwork(N, (np.array([[-1, 2]], given),), "x")
    with pytest.raises(ValueError, match="position 5 in a swap is outside 0..2"):
        SwapNetwork(3, [[(0, 5)]], "x")
    with pytest.raises(ValueError, match="position 0 in a swap is outside 0..-1"):
        SwapNetwork(0, [[(0, 0)]], "x")


# N - 1 at each end of uint8, uint16 and uint32 rows: a power of k through bitrev, modinv otherwise
DTYPE_EDGES = [(2, 256, "bitrev", np.uint8), (2, 258, "modinv", np.uint16), (2, 2 ** 16, "bitrev", np.uint16),
               (2, 2 ** 16 + 2, "modinv", np.uint32), (3, 3 ** 10, "bitrev", np.uint16),
               (3, 3 ** 11, "bitrev", np.uint32)]


@pytest.mark.parametrize("k, N, method, dtype", DTYPE_EDGES)
def test_networks_at_the_row_dtype_edges(k, N, method, dtype):
    net = build_network(method, ShuffleSpec.for_length(N, k))
    assert [rows.dtype for rows in net.rounds] == [dtype, dtype]
    text = emit_text(net)
    assert text == emit_text_per_pair(net)
    assert parse_text(text) == net
    assert network_permutation(net) == inshuffle_permutation(N, k)
    values = np.arange(N, dtype=np.uint32)
    apply_network(values, net)
    assert np.array_equal(values, oracle_shuffle(np.arange(N, dtype=np.uint32), k))


def test_text_round_trip_is_byte_stable():
    for method, N, k in (("bitrev", 64, 2), ("modinv", 54, 3)):
        net = build_network(method, ShuffleSpec.for_length(N, k))
        text = emit_text(net)
        parsed = parse_text(text)
        assert parsed == net
        assert emit_text(parsed) == text
        head, rounds = text.split("round 1:")
        assert parse_text(head + "\n  \nround 1:" + rounds) == net  # blank lines between rounds are skipped


# each malformed text and the start of its refusal, which tells the branch that refused it
MALFORMED = {
    "": "missing format line",
    "N=4 method=x swaps=0\n": "missing format line",
    "# shuffleworks-net v1\n": "missing header line",
    "# shuffleworks-net v1\nN=4 swaps=0\nround 0:\n": "malformed header",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0:\n": "header declares 1 swaps, body has 0",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (0 1) (1 2)\n": "round 0 has overlapping swaps",
    "# shuffleworks-net v1\nN=4 method=x swaps=2\nround 0: (0 1) (1 2)\n": "round 0 has overlapping swaps",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (2 2)\n": "swap (2 2) out of range",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (4 5)\n": "swap (4 5) out of range",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (2 1)\n": "swap (2 1) out of range",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: 0 1\n": "unclosed swap '0 1'",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nswaps (0 1)\n": "expected round 0, got 'swaps (0 1)'",
    "# shuffleworks-net v1\nN=-3 method=x swaps=0\n": "negative network size N=-3",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 7: (0 1)\n": "expected round 0, got 'round 7",
    "# shuffleworks-net v1\nN=4 method=x swaps=2\nround 1: (0 1)\nround 0: (2 3)\n": "expected round 0, got 'round 1",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: 0 1)\n": "malformed swap '0 1'",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (0 1))\n": "malformed swap ''",
    "# shuffleworks-net v1\nN=4 method=x swaps=0\nround 0: )\n": "malformed swap ''",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (+1 2)\n": "malformed swap '(+1 2'",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (0)\n": "malformed swap '(0'",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (0 1 2)\n": "malformed swap '(0 1 2'",
    "# shuffleworks-net v1\nN=4 method=x swaps=1\nround 0: (a b)\n": "malformed swap '(a b'",
}


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_text_rejects_malformed_input(text):
    with pytest.raises(ValueError, match="^" + re.escape(MALFORMED[text])):
        parse_text(text)


def test_parse_text_rejects_an_unclosed_swap():
    head = TEXT_FORMAT_LINE + "\nN=4 method=x swaps=2\nround 0: (0 1) "
    assert parse_text(head + "(2 3)\n") == SwapNetwork(4, (((0, 1), (2, 3)),), "x")
    with pytest.raises(ValueError, match="unclosed swap"):
        parse_text(head + "(2 3\n")


def test_parse_text_rejects_a_repeated_header_key():
    body = " method=x swaps=1\nround 0: (0 8)\n"
    assert parse_text(TEXT_FORMAT_LINE + "\nN=9" + body).n_positions == 9
    with pytest.raises(ValueError, match="repeated key"):
        parse_text(TEXT_FORMAT_LINE + "\nN=4 N=9" + body)


def test_dot_output_shape():
    net = build_network("modinv", ShuffleSpec.for_length(27, 3))
    dot = emit_dot(net)
    lines = dot.splitlines()
    assert lines[0] == 'graph "modinv" {'
    assert lines[-1] == "}"
    assert "rankdir=RL;" in dot
    # one bold edge per swap, one dotted rail segment per position per round
    assert dot.count("style=bold") == 20
    assert dot.count("style=dotted") == 27 * 2
    assert dot.count("rank=same") == 3


def test_dot_labels_inputs_and_outputs():
    net = build_network("bitrev", ShuffleSpec.for_length(4, 2))
    dot = emit_dot(net)
    # position rails exist for all four slots in all three columns
    for pos in range(4):
        for col in range(3):
            assert "p%d_r%d" % (pos, col) in dot
    # the left column carries the origin of each element: 4 slots -> 0 2 1 3
    assert 'p1_r2 [label="2"];' in dot
    assert 'p2_r2 [label="1"];' in dot
