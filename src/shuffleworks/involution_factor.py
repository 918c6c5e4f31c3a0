"""Factoring permutations into exactly two involutions.

Any cyclic shift of n points is the product of two mirror-image pairings,
and a cyclic shift has exactly n such factorizations (one per choice of
pairing axis) once n > 2.  Splitting a general permutation into disjoint
cycles and factoring each cycle independently extends this to everything:
two rounds of independent swaps suffice for any rearrangement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm_core import Involution, Permutation, cycle_decompose


@dataclass(frozen=True)
class InvolutionPair:
    """Ordered factor pair: applying t and then s realises the factored permutation."""

    s: Involution
    t: Involution


def factor_permutation(p: Permutation, axis: int = 0) -> InvolutionPair:
    """Factor an arbitrary permutation into two involutions.

    Each cycle c of length L, listed from its smallest element, is the
    cyclic shift on its own points; s mirrors it about axis, sending c[a] to
    c[(axis - a) mod L], and t, s after p, mirrors it about axis - 1.  As s
    is its own inverse, t and then s give p.  Disjoint cycles keep the unions
    involutions; on one cycle of n points, axes 0..n-1 give its n factorizations.
    """
    s_map = list(range(p.size))
    for c in cycle_decompose(p):
        L = len(c)
        for a, x in enumerate(c):
            s_map[x] = c[(axis - a) % L]
    return InvolutionPair(Involution(s_map, check=False), Involution([s_map[v] for v in p.map], check=False))
