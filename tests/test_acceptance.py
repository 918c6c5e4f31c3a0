"""Acceptance gate: every shipping criterion, one printed PASS/FAIL line each.

Run with plain pytest; the result lines bypass output capture so they are
visible in CI logs.  Golden values are frozen literals, independently
derived; nothing here is computed from the code under test and fed back
into its own expectation.
"""

import math
import os
import re
import tempfile
import time

import numpy as np
import pytest

from shuffleworks.involution_factor import factor_permutation
from shuffleworks.network import build_network, network_permutation
from shuffleworks.oracle import inshuffle_permutation, oracle_shuffle
from shuffleworks.perm_core import OpCounter, Permutation
from shuffleworks.shuffle_bitrev import (
    ShuffleSpec,
    revswap_round,
    rotate_left,
    rotation_cost,
    rotation_plan,
    shuffle_general_k2,
    shuffle_power,
    swap_counts,
)
from shuffleworks.shuffle_modinv import (
    j_map,
    shuffle_modinv,
    swap_count_modinv,
)

from _reference import brute_force_factorizations


@pytest.fixture
def check(capsys):
    """Collect problems, then print one un-captured verdict line."""

    def runner(num, name, budget_s, body):
        problems = []
        t0 = time.perf_counter()
        try:
            body(problems)
        except Exception as exc:
            problems.append("raised %s: %s" % (type(exc).__name__, exc))
        elapsed = time.perf_counter() - t0
        ok = not problems and elapsed <= budget_s
        if not problems and elapsed > budget_s:
            problems.append("took %.2fs, budget %.1fs" % (elapsed, budget_s))
        with capsys.disabled():
            print("acceptance %02d %s %s [%.2fs]" % (
                num, "PASS" if ok else "FAIL", name, elapsed), flush=True)
        assert ok, "; ".join(str(p) for p in problems[:8])

    return runner


def test_criterion_01_twelve_token_interleave(check):
    def body(problems):
        tokens = "a b c d e f 1 2 3 4 5 6".split()
        want = "a 1 b 2 c 3 d 4 e 5 f 6".split()
        general = tokens.copy()
        shuffle_general_k2(general)
        if general != want:
            problems.append("rotation-reduced path: %s" % " ".join(general))
        modular = tokens.copy()
        shuffle_modinv(modular, 2)
        if modular != want:
            problems.append("modular-inverse path: %s" % " ".join(modular))
        if oracle_shuffle(tokens, 2) != want:
            problems.append("reference path differs")

    check(1, "two-way interleave of twelve tokens", 1.0, body)


def test_criterion_02_network_swap_totals(check):
    def body(problems):
        spec = ShuffleSpec.for_length(27, 3)
        got = build_network("bitrev", spec).total_swaps
        if got != 18:
            problems.append("digit-reversal network has %d swaps, want 18" % got)
        got = build_network("modinv", spec).total_swaps
        if got != 20:
            problems.append("modular-inverse network has %d swaps, want 20" % got)

    check(2, "swap totals of the 27-element networks", 1.0, body)


def test_criterion_03_closed_form_swap_counts(check):
    def body(problems):
        for k in (2, 3):
            N = k
            while N <= 1 << 16:
                spec = ShuffleSpec.for_length(N, k)
                arr = np.arange(N, dtype=np.int64)
                measured = tuple(revswap_round(arr, t, spec) for t in (spec.n - 1, spec.n))
                predicted = swap_counts(spec)
                if measured != predicted:
                    problems.append("k=%d N=%d measured %s predicted %s"
                                    % (k, N, measured, predicted))
                report = shuffle_power(np.arange(N, dtype=np.int64), spec)
                if report != OpCounter(swaps=sum(predicted), rounds=2):
                    problems.append("k=%d N=%d report %s predicted %s" % (k, N, report, predicted))
                total = report.swaps
                if total > N + 2 * math.isqrt(N):
                    problems.append("k=%d N=%d total %d above N+2*sqrt(N)" % (k, N, total))
                N *= k

    check(3, "per-round swap counts match the closed forms", 10.0, body)


def test_criterion_04_cyclic_shift_has_n_factorizations(check):
    def body(problems):
        for n in range(3, 9):
            shift = Permutation([(i + 1) % n for i in range(n)])
            found = brute_force_factorizations(shift)
            if len(found) != n:
                problems.append("n=%d: exhaustive search found %d pairs" % (n, len(found)))
                continue
            want = {(p.s.map, p.t.map) for p in (factor_permutation(shift, axis) for axis in range(n))}
            got = {(p.s.map, p.t.map) for p in found}
            if got != want:
                problems.append("n=%d: search and construction disagree" % n)

    check(4, "cyclic shift on n points has exactly n factorizations", 60.0, body)


# Golden mirror pairings for 13 and 14 points, one line per axis choice,
# in the source notation: parenthesised pairs, singletons are fixed points.
PAIRINGS_13 = """
(0)(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)
(0,1)(2,12)(3,11)(4,10)(5,9)(6,8)(7)
(0,2)(1)(3,12)(4,11)(5,10)(6,9)(7,8)
(0,3)(1,2)(4,12)(5,11)(6,10)(7,9)(8)
(0,4)(1,3)(2)(5,12)(6,11)(7,10)(8,9)
(0,5)(1,4)(2,3)(6,12)(7,11)(8,10)(9)
(0,6)(1,5)(2,4)(3)(7,12)(8,11)(9,10)
(0,7)(1,6)(2,5)(3,4)(8,12)(9,11)(10)
(0,8)(1,7)(2,6)(3,5)(4)(9,12)(10,11)
(0,9)(1,8)(2,7)(3,6)(4,5)(10,12)(11)
(0,10)(1,9)(2,8)(3,7)(4,6)(5)(11,12)
(0,11)(1,10)(2,9)(3,8)(4,7)(5,6)(12)
(0,12)(1,11)(2,10)(3,9)(4,8)(5,7)(6)
"""

PAIRINGS_14 = """
(0)(1,13)(2,12)(3,11)(4,10)(5,9)(6,8)(7)
(0,1)(2,13)(3,12)(4,11)(5,10)(6,9)(7,8)
(0,2)(1)(3,13)(4,12)(5,11)(6,10)(7,9)(8)
(0,3)(1,2)(4,13)(5,12)(6,11)(7,10)(8,9)
(0,4)(1,3)(2)(5,13)(6,12)(7,11)(8,10)(9)
(0,5)(1,4)(2,3)(6,13)(7,12)(8,11)(9,10)
(0,6)(1,5)(2,4)(3)(7,13)(8,12)(9,11)(10)
(0,7)(1,6)(2,5)(3,4)(8,13)(9,12)(10,11)
(0,8)(1,7)(2,6)(3,5)(4)(9,13)(10,12)(11)
(0,9)(1,8)(2,7)(3,6)(4,5)(10,13)(11,12)
(0,10)(1,9)(2,8)(3,7)(4,6)(5)(11,13)(12)
(0,11)(1,10)(2,9)(3,8)(4,7)(5,6)(12,13)
(0,12)(1,11)(2,10)(3,9)(4,8)(5,7)(6)(13)
(0,13)(1,12)(2,11)(3,10)(4,9)(5,8)(6,7)
"""


def _parse_pairing(line):
    pairs, fixed = set(), set()
    for group in re.findall(r"\(([^)]*)\)", line):
        nums = [int(tok) for tok in group.split(",")]
        if len(nums) == 1:
            fixed.add(nums[0])
        else:
            pairs.add(tuple(sorted(nums)))
    return pairs, fixed


def test_criterion_05_mirror_pairing_golden_tables(check):
    def body(problems):
        for n, table in ((13, PAIRINGS_13), (14, PAIRINGS_14)):
            lines = table.strip().splitlines()
            assert len(lines) == n
            for k, line in enumerate(lines):
                want_pairs, want_fixed = _parse_pairing(line)
                inv = factor_permutation(Permutation([(i + 1) % n for i in range(n)]), k).s
                if {(i, v) for i, v in enumerate(inv.map) if i < v} != want_pairs:
                    problems.append("n=%d axis=%d pairs differ" % (n, k))
                if {i for i, v in enumerate(inv.map) if i == v} != want_fixed:
                    problems.append("n=%d axis=%d fixed points differ" % (n, k))

    check(5, "mirror pairings match the golden tables", 1.0, body)


# Golden values of the two involutions on Z_26 (27 elements, three-way),
# frozen from the independent computer-algebra computation.
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


def test_criterion_06_involution_golden_values(check):
    def body(problems):
        spec = ShuffleSpec.for_length(27, 3)
        for x in range(1, 26):
            got = j_map(1, x, spec)
            if got != J1_M26[x]:
                problems.append("first round maps %d to %d, want %d" % (x, got, J1_M26[x]))
            got = j_map(3, x, spec)
            if got != J3_M26[x]:
                problems.append("second round maps %d to %d, want %d" % (x, got, J3_M26[x]))

    check(6, "involution values on Z_26 match the golden tables", 1.0, body)


def test_criterion_07_oracle_equivalence(check):
    def body(problems):
        for k in (2, 3, 4, 5):
            N = k
            while N <= 65536:
                arr = np.arange(N, dtype=np.int64)
                shuffle_power(arr, ShuffleSpec.for_length(N, k))
                if not np.array_equal(arr, oracle_shuffle(np.arange(N, dtype=np.int64), k)):
                    problems.append("digit reversal k=%d N=%d" % (k, N))
                N *= k
        for k in (2, 3, 4, 5, 7):
            for N in range(k, 2001, k):
                arr = list(range(N))
                shuffle_modinv(arr, k)
                if arr != oracle_shuffle(list(range(N)), k):
                    problems.append("modular inverse k=%d N=%d" % (k, N))
        for N in range(2, 4097, 2):
            arr = np.arange(N, dtype=np.int64)
            shuffle_general_k2(arr)
            if not np.array_equal(arr, oracle_shuffle(np.arange(N, dtype=np.int64), 2)):
                problems.append("rotation reduction N=%d" % N)

    check(7, "all in-place routes equal the reference shuffle", 60.0, body)


def test_criterion_08_involution_and_gcd_laws(check):
    def body(problems):
        for k in (2, 3, 4, 5, 7):
            for N in range(k, 2001, k):
                spec = ShuffleSpec.for_length(N, k)
                m = spec.m
                j1 = [j_map(1, x, spec) for x in range(m)]
                jk = [j_map(k, x, spec) for x in range(m)]
                for x in range(m):
                    if j1[j1[x]] != x or jk[jk[x]] != x:
                        problems.append("not self-inverse at k=%d N=%d x=%d" % (k, N, x))
                    if math.gcd(j1[x], m) != math.gcd(x, m):
                        problems.append("gcd not preserved at k=%d N=%d x=%d" % (k, N, x))
                    if jk[j1[x]] != k * x % m:
                        problems.append("chain law fails at k=%d N=%d x=%d" % (k, N, x))
                if problems:
                    return

    check(8, "self-inverse, gcd-preservation, and chain laws", 30.0, body)


def test_criterion_09_rotation_cost_formula(check):
    def body(problems):
        for M in range(1, 4097):
            plan = rotation_plan(M)
            arr = np.arange(2 * M, dtype=np.int64)
            moved = sum(rotate_left(arr, s, ln, sh) for s, ln, sh in plan.rotations)
            # the digit sum: each set bit above the lowest moves a window of
            # the bits at and below it (the lowest pair needs no rotation)
            bits = [i for i in range(M.bit_length()) if M >> i & 1]
            digit_sum = sum(M % (1 << i + 1) for i in bits[1:])
            planned = sum(length for _, length, _ in plan.rotations)
            if not (moved == planned == rotation_cost(M) == digit_sum):
                problems.append("M=%d moved=%d planned=%d cost=%d digits=%d"
                                % (M, moved, planned, rotation_cost(M), digit_sum))
            if moved > 2 * M:
                problems.append("M=%d moved %d exceeds N" % (M, moved))
            if M % 2:
                # for odd M this equals the literal sum over every set bit
                # with the i=0 term excluded by the summation range
                s = M.bit_length() - 1
                literal = sum((M >> i & 1) * (M % (1 << i + 1)) for i in range(1, s + 1))
                if moved != literal:
                    problems.append("M=%d literal digit sum %d != moved %d"
                                    % (M, literal, moved))

    check(9, "rotation plan moves exactly the digit-sum count", 10.0, body)


def test_criterion_10_throughput_budgets(check):
    def body(problems):
        arr = np.arange(1 << 24, dtype=np.uint64)
        t0 = time.perf_counter()
        shuffle_power(arr, ShuffleSpec.for_length(1 << 24, 2))
        big = time.perf_counter() - t0
        if big > 10.0:
            problems.append("2^24 digit-reversal shuffle took %.2fs (budget 10s)" % big)
        spot = oracle_shuffle(np.arange(1 << 24, dtype=np.uint64), 2)
        if not np.array_equal(arr, spot):
            problems.append("2^24 shuffle is wrong")
        del arr, spot

        data = list(range(1 << 20))
        t0 = time.perf_counter()
        shuffle_modinv(data, 2)
        small = time.perf_counter() - t0
        if small > 30.0:
            problems.append("2^20 modular shuffle took %.2fs (budget 30s)" % small)
        if data != oracle_shuffle(list(range(1 << 20)), 2):
            problems.append("2^20 shuffle is wrong")

    check(10, "large-array throughput within budget", 60.0, body)


def test_criterion_11_euclid_iteration_bound(check):
    def body(problems):
        sweep = sorted(
            set(range(1, 257))
            | {1 << j for j in range(8, 16)}
            | {1000, 3000, 10000, 20000, 32749, 32768})
        rows = []
        for M in sweep:
            report = swap_count_modinv(2 * M, 2)
            rows.append((2 * M, report.euclid_iterations, report.gcd_calls, report.swaps))
        out = os.path.join(tempfile.gettempdir(), "shuffleworks_euclid_profile.csv")
        with open(out, "w") as fh:
            fh.write("N,euclid_iterations,gcd_calls,swaps\n")
            for row in rows:
                fh.write("%d,%d,%d,%d\n" % row)
        for N, iters, calls, swaps in rows:
            if N > 1 and iters > 3 * N * math.log2(N):
                problems.append("N=%d: %d iterations exceed 3*N*log2(N)" % (N, iters))
            if swaps > N:
                problems.append("N=%d: %d swaps exceed N" % (N, swaps))
        if not problems:
            # leave the sweep around for eyeballing the growth trend
            print("euclid profile written to %s" % out)

    check(11, "extended-Euclid work stays under 3*N*log2(N)", 30.0, body)


def test_criterion_12_network_integrity(check):
    def body(problems):
        specs = []
        for k in (2, 3, 4, 5):
            N = k
            while N <= 4096:
                specs.append(("bitrev", ShuffleSpec.for_length(N, k)))
                N *= k
        for k in (2, 3, 4, 5, 7):
            for M in range(1, 81, 7):
                specs.append(("modinv", ShuffleSpec.for_length(k * M, k)))
        for method, spec in specs:
            net = build_network(method, spec)
            for r, round_ in enumerate(net.rounds):
                if (np.bincount(round_.ravel()) > 1).any():
                    problems.append("%s N=%d round %d overlaps" % (method, spec.N, r))
            if network_permutation(net) != inshuffle_permutation(spec.N, spec.k):
                problems.append("%s N=%d wrong permutation" % (method, spec.N))

    check(12, "every generated network is disjoint and exact", 10.0, body)
