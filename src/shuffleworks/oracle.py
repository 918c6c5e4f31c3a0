"""Reference implementations used to cross-check the in-place algorithms.

Everything here is deliberately naive: out-of-place, index-by-index, no
cleverness.  The fast paths elsewhere must agree with these on every
input, which is what the test suite enforces.
"""

from __future__ import annotations

import numpy as np

from .perm_core import Permutation


def oracle_shuffle(array, k: int):
    """Out-of-place k-way perfect in-shuffle.

    The element at position i lands at k*i mod (N-1); the first and last
    positions stay put.  For k=2 this interleaves the two halves starting
    with the first element of the first half.
    """
    n = len(array)
    if k < 2:
        raise ValueError("k must be at least 2")
    if n % k:
        raise ValueError("length %d is not a multiple of k=%d" % (n, k))
    if n < 2:
        return array.copy() if isinstance(array, np.ndarray) else list(array)
    m = n - 1
    if isinstance(array, np.ndarray):
        out = np.empty_like(array)
        idx = (k * np.arange(m, dtype=np.int64)) % m
        out[idx] = array[:m]
        out[m] = array[m]
        return out
    out = [None] * n
    for i in range(m):
        out[k * i % m] = array[i]
    out[m] = array[m]
    return out


def oracle_apply(p: Permutation, array):
    """Out-of-place application of a permutation: out[p.map[i]] = array[i]."""
    if len(array) != p.size:
        raise ValueError("array length %d != permutation size %d" % (len(array), p.size))
    out = [None] * p.size
    for i, v in enumerate(p.map):
        out[v] = array[i]
    return out


def inshuffle_permutation(N: int, k: int) -> Permutation:
    """The index map induced by the k-way in-shuffle on N = k*M positions."""
    if k < 2 or N < 2 or N % k:
        raise ValueError("need N = k*M with k >= 2 and M >= 1")
    m = N - 1
    return Permutation([k * i % m for i in range(m)] + [m], check=False)
