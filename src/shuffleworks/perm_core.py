"""Permutations, involutions, and their in-place application.

A permutation of N positions is stored as a full index map: ``map[i]`` is
the position that the element currently sitting at position ``i`` moves
to.  An involution is a self-inverse permutation, i.e. a disjoint set of
transpositions plus fixed points.  Applying an involution's
transpositions as element swaps realises it in one round of independent
exchanges, which is what makes involutions interesting here: any
permutation factors into two of them, so any rearrangement can be done
in exactly two rounds of swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


def _check_index_map(map_: tuple[int, ...]) -> None:
    n = len(map_)
    seen = bytearray(n)
    for v in map_:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            raise ValueError("map is not a bijection of 0..%d" % (n - 1))
        seen[v] = 1


class Permutation:
    """A bijection of {0, ..., N-1} held as a full destination map."""

    def __init__(self, map_: Iterable[int], check: bool = True):
        self.map = tuple(map_)
        if check:
            _check_index_map(self.map)

    @property
    def size(self) -> int:
        return len(self.map)

    def __len__(self) -> int:
        return len(self.map)

    def __getitem__(self, i: int) -> int:
        return self.map[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.map == other.map

    def __hash__(self) -> int:
        return hash(self.map)

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, list(self.map))


class Involution(Permutation):
    """A self-inverse permutation, held as its map like any other.

    network._involution_rows reads its transpositions off the map.
    """

    def __init__(self, map_: Iterable[int], check: bool = True):
        super().__init__(map_, check=check)
        if check and not is_involution(self):
            raise ValueError("map is not self-inverse")


def cycle_decompose(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of p covering 0..N-1, each listed from its smallest element.

    Cycles appear in increasing order of that smallest element and are
    traversed in application order, so cycle[(t+1) % L] = p.map[cycle[t]].
    """
    seen = bytearray(p.size)
    cycles = []
    for start in range(p.size):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        x = p.map[start]
        while x != start:
            cycle.append(x)
            seen[x] = 1
            x = p.map[x]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def is_involution(p: Permutation) -> bool:
    m = p.map
    return all(m[v] == i for i, v in enumerate(m))


@dataclass
class OpCounter:
    """The one report of a shuffle's work; each routine fills the fields it does.

    rounds counts the two swap rounds plus any rotations run before them;
    moved counts the elements those rotations displace.  Euclid work comes
    from the modular-inverse rounds only.
    """

    euclid_iterations: int = 0
    gcd_calls: int = 0
    swaps: int = 0
    moved: int = 0
    rounds: int = 0


def swap_chunks(array, chunks) -> int:
    """Swap the disjoint pairs of a round, given as chunks (i, j) of index arrays; return the count.

    The one round executor: ndarrays swap by fancy indexing through a
    plain view, which skips a memmap's indexing; lists swap pair by pair.
    """
    if not isinstance(array, np.ndarray):
        swaps = 0
        for i, j in chunks:
            for a, b in zip(i.tolist(), j.tolist()):
                array[a], array[b] = array[b], array[a]
            swaps += len(i)
        return swaps
    array, swaps = array.view(np.ndarray), 0
    for i, j in chunks:
        array[i], array[j] = array[j], array[i]
        swaps += len(i)
        del i, j  # freed before the next chunk is made
    return swaps


def cycle_notation(p: Permutation) -> str:
    """Cycle string like ``(0)(1 12)(2 11)``; a permutation that moves nothing prints ``()``."""
    cycles = cycle_decompose(p)
    if all(len(c) == 1 for c in cycles):
        return "()"
    return "".join("(%s)" % " ".join(str(x) for x in c) for c in cycles)

