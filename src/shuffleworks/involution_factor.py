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
    return Involution([(k - a) % n for a in range(n)], check=False)


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


def factor_permutation(p: Permutation, axis: int = 0) -> InvolutionPair:
    """Factor an arbitrary permutation into two involutions.

    Each cycle c of length L, listed from its smallest element, is the
    cyclic shift on its own points, factored by the mirror pairings about
    axis and axis - 1: s sends c[a] to c[(axis - a) mod L] and t sends c[a]
    to c[(axis - 1 - a) mod L].  Disjoint cycles keep the unions involutions.
    On a single cycle of n points, axes 0..n-1 give its n factorizations.
    """
    s_map, t_map = list(range(p.size)), list(range(p.size))
    for c in cycle_decompose(p):
        L = len(c)
        for a, x in enumerate(c):
            s_map[x] = c[(axis - a) % L]
            t_map[x] = c[(axis - 1 - a) % L]
    return InvolutionPair(Involution(s_map, check=False), Involution(t_map, check=False))


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
