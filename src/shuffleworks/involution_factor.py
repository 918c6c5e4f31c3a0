"""Factoring permutations into exactly two involutions.

Any cyclic shift of n points is the product of two mirror-image pairings,
and a cyclic shift has exactly n such factorizations (one per choice of
pairing axis) once n > 2.  Splitting a general permutation into disjoint
cycles and factoring each cycle independently extends this to everything:
two rounds of independent swaps suffice for any rearrangement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .oracle import enumerate_involutions
from .perm_core import Involution, Permutation, cycle_decompose


@dataclass(frozen=True)
class InvolutionPair:
    """Ordered factor pair: applying t then s realises compose(s, t)."""

    s: Involution
    t: Involution


def circular_involution(n: int, k: int) -> Involution:
    """Mirror pairing of 0..n-1 about k/2 and (k+n)/2.

    Positions 0..k pair up as (0 k)(1 k-1)... and positions k+1..n-1 as
    (k+1 n-1)(k+2 n-2)...; a self-paired middle position is left fixed.
    Composing this with its k-1 neighbour gives the cyclic shift i -> i+1.
    """
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n, got k=%d n=%d" % (k, n))
    m = list(range(n))
    a, b = 0, k
    while a < b:
        m[a], m[b] = b, a
        a += 1
        b -= 1
    a, b = k + 1, n - 1
    while a < b:
        m[a], m[b] = b, a
        a += 1
        b -= 1
    return Involution(m, check=False)


def factor_cyclic(n: int, k: int) -> InvolutionPair:
    """The k-th factorization of the cyclic shift on n points.

    Returns (s, t) with s the pairing about k and t the pairing about k-1
    (taken mod n); their product sends i to i+1 mod n.
    """
    s = circular_involution(n, k)
    t = circular_involution(n, (k - 1) % n)
    return InvolutionPair(s, t)


def enumerate_circular_factorizations(n: int) -> list[InvolutionPair]:
    """All n two-involution factorizations of the cyclic shift on n points."""
    if n < 1:
        raise ValueError("n must be positive")
    return [factor_cyclic(n, k) for k in range(n)]


def relabel_factors(n: int, factored) -> InvolutionPair:
    """Map factorizations of cyclic shifts onto disjoint cycles of n points.

    factored yields (cycle, pair) with pair a factorization of the shift
    on 0..L-1, L = len(cycle); position a of the shift becomes cycle[a].
    The unions over cycles stay involutions because cycles are disjoint.
    """
    s_map = list(range(n))
    t_map = list(range(n))
    for cycle, pair in factored:
        for inv, m in ((pair.s, s_map), (pair.t, t_map)):
            for a, b in inv.transpositions:
                m[cycle[a]], m[cycle[b]] = cycle[b], cycle[a]
    return InvolutionPair(Involution(s_map, check=False), Involution(t_map, check=False))


def factor_permutation(p: Permutation) -> InvolutionPair:
    """Factor an arbitrary permutation into two involutions.

    Each cycle, listed from its smallest element, is factored as the cyclic
    shift with pairing axis 0 and relabelled onto its own points.
    """
    return relabel_factors(p.size, ((c, factor_cyclic(len(c), 0)) for c in cycle_decompose(p)))


def brute_force_factorizations(p: Permutation) -> list[InvolutionPair]:
    """Every ordered involution pair (s, t) with compose(s, t) == p.

    Scans all pairs from the full involution enumeration, so p.size must
    stay small (at most 9).
    """
    if p.size > 9:
        raise ValueError("exhaustive search limited to size <= 9")
    invs = list(enumerate_involutions(p.size))
    pm = p.map
    rng = range(p.size)
    found = []
    for s in invs:
        sm = s.map
        for t in invs:
            tm = t.map
            if all(sm[tm[i]] == pm[i] for i in rng):
                found.append(InvolutionPair(s, t))
    return found


def brute_force_factorization_count(p: Permutation) -> int:
    """Number of ordered two-involution factorizations of p."""
    return len(brute_force_factorizations(p))
