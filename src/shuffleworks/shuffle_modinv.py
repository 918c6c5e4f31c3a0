"""Number-theoretic construction of the in-place k-way in-shuffle.

Take any N = k*M and let m = N - 1.  The interior positions 1..N-2 live
in Z_m, and for r coprime to m the map

    J_r(x) = g * ((r * (x/g)^-1) mod (m/g)),   g = gcd(x, m),  J_r(0) = 0

is an involution of Z_m that preserves gcd(., m).  Chaining two of them
gives J_k(J_1(x)) = k*x mod m, the in-shuffle, so two rounds of swaps
(first along J_1, then along J_k) shuffle any multiple-of-k length with
no digit structure required.

Each round has one pair source, modinv_pairs.  shuffle_modinv runs its
pairs through perm_core.swap_pairs, swap_count_modinv counts them, and
build_network stores them as the rounds of the swap network.  Each
J_r(x) costs one extended-Euclid run on (x, m), whose Bezout coefficient
of x gives g and (x/g)^-1 mod m/g at once: 2(N-2) runs per shuffle, one
per interior position per round.  The loop carries that one cofactor,
not the coefficient of m, which nothing reads.  The OpCounter every
shuffle fills (defined in perm_core, re-exported here) records that
work, identically for shuffle_modinv and swap_count_modinv.
"""

from __future__ import annotations

import math

from .perm_core import OpCounter, swap_pairs
from .shuffle_bitrev import ShuffleSpec


def ext_gcd(a: int, b: int, counter: OpCounter | None = None) -> tuple[int, int]:
    """Extended Euclid: (g, u) with g = gcd(a, b) and a*u = g (mod b).

    Counts one gcd call and one iteration per quotient step.
    """
    if a < 0 or b < 0:
        raise ValueError("inputs must be non-negative")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = 1, 0
    steps = 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        steps += 1
    if counter is not None:
        counter.gcd_calls += 1
        counter.euclid_iterations += steps
    return r0, s0


def mod_inverse(a: int, m: int, counter: OpCounter | None = None) -> int:
    """The inverse of a modulo m, in 0..m-1.  mod_inverse(anything, 1) is 0."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 0
    g, u = ext_gcd(a % m, m, counter)
    if g != 1:
        raise ValueError("%d is not invertible modulo %d" % (a, m))
    return u % m


def _j_value(r: int, x: int, m: int, counter: OpCounter | None) -> int:
    # Callers guarantee gcd(r, m) == 1 and 0 <= x < m.  Dividing
    # x*u + m*v = g by g shows u is already (x/g)^-1 mod m/g.
    if x == 0:
        return 0
    g, u = ext_gcd(x, m, counter)
    return g * (r * u % (m // g))


def j_map(r: int, x: int, spec: ShuffleSpec, counter: OpCounter | None = None) -> int:
    """The involution J_r on Z_m: x maps to gcd(x,m) * ((r * (x/g)^-1) mod (m/g)).

    Fixes 0; preserves gcd(., m); is its own inverse whenever gcd(r, m) = 1.
    """
    if math.gcd(r, spec.m) != 1:
        raise ValueError("r=%d shares a factor with m=%d" % (r, spec.m))
    if not 0 <= x < spec.m:
        raise ValueError("x=%d outside 0..%d" % (x, spec.m - 1))
    return _j_value(r, x, spec.m, counter)


def modinv_pairs(r: int, spec: ShuffleSpec, counter: OpCounter | None = None):
    """Yield the swaps (x, J_r(x)), x < J_r(x), of one round on N = k*M positions.

    Positions 0 and N-1 are never paired.  r must be coprime to m = N - 1,
    as 1 and k always are.  The Euclid work of every J_r value computed
    goes to counter.
    """
    m = spec.m
    for x in range(1, m):
        j = _j_value(r, x, m, counter)
        if x < j:
            yield x, j


def shuffle_modinv(array, k: int, counter: OpCounter | None = None) -> None:
    """In-place k-way in-shuffle of any N = k*M elements.

    Two rounds of independent swaps: positions pair along J_1, then along
    J_k.  Positions 0 and N-1 are never touched.
    """
    spec = ShuffleSpec.for_length(len(array), k)
    swaps = sum(swap_pairs(array, modinv_pairs(r, spec, counter)) for r in (1, k))
    if counter is not None:
        counter.swaps += swaps
        counter.rounds += 2


def swap_count_modinv(N: int, k: int, counter: OpCounter | None = None) -> int:
    """Swaps the two rounds of shuffle_modinv would perform, no data moved.

    counter receives the same tally shuffle_modinv would give it.
    """
    spec = ShuffleSpec.for_length(N, k)
    total = sum(1 for r in (1, k) for _ in modinv_pairs(r, spec, counter))
    if counter is not None:
        counter.swaps += total
        counter.rounds += 2
    return total


def op_count_profile(m_values, k: int) -> list[tuple[int, int, int, int]]:
    """Index-arithmetic cost per shuffle size, with no data movement.

    Returns one row (N, euclid_iterations, gcd_calls, swaps) per M in
    m_values, covering both swap rounds.
    """
    rows = []
    for M in m_values:
        counter = OpCounter()
        swap_count_modinv(k * M, k, counter)
        rows.append((k * M, counter.euclid_iterations, counter.gcd_calls, counter.swaps))
    return rows
