"""Digit-reversal construction of the in-place k-way in-shuffle.

For N = k**n the in-shuffle factors into two rounds of independent swaps:
first every position exchanges with the reversal of its low n-1 base-k
digits, then with the reversal of all n digits.  Chaining the two
reversals sends position i to k*i mod (N-1), which is exactly the
in-shuffle with both end positions fixed.

Positions are visited in counter order and each partner index is updated
in O(1) from the carry length of the increment, so a round costs O(N)
time and O(log N) words of state (the counter digits plus the table of
powers of k).  Lengths that are not powers of k are handled for k=2 by
rotating power-of-two segment pairs into adjacency and shuffling each
aligned block.

Plain sequences go through the faithful scalar loop.  numpy arrays
(memmaps included) take a cache-blocked route after Carter and Gatlin's
bit-reversal program (FOCS 1998): the t reversed digits split into
(hi, mid, lo), and a round becomes swaps of small k**b x k**b tiles
between mid and its reversal, each tile digit-reversed on both axes and
transposed.  Tile pairs are gathered a fixed number of bytes at a time,
so the scratch memory of a round does not grow with N.  The route
produces the same permutation as the scalar loop and reports the same
swap count, from its closed form.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Guards the int64-based vectorised index path; nothing real gets close.
_INDEX_LIMIT = 1 << 62


def exact_log(N: int, k: int) -> int | None:
    """The exponent n with N == k**n, or None if there is none."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if N < 1:
        return None
    n = 0
    v = 1
    while v < N:
        v *= k
        n += 1
    return n if v == N else None


def power_table(k: int, n: int) -> tuple[int, ...]:
    """Powers k**0 .. k**n."""
    t = [1]
    for _ in range(n):
        t.append(t[-1] * k)
    return tuple(t)


@dataclass(frozen=True)
class ShuffleSpec:
    """Validated parameters of a k-way in-shuffle on N = k*M positions.

    n and powers are filled in only when N is an exact power of k; the
    digit-reversal rounds require them.
    """

    N: int
    k: int
    M: int
    n: int | None
    powers: tuple[int, ...]

    @classmethod
    def for_length(cls, N: int, k: int) -> "ShuffleSpec":
        if k < 2:
            raise ValueError("k must be at least 2")
        if N < 0 or N % k:
            raise ValueError("N=%d is not a multiple of k=%d" % (N, k))
        if N > _INDEX_LIMIT:
            raise OverflowError("N=%d exceeds the index arithmetic limit" % N)
        n = exact_log(N, k)
        powers = power_table(k, n) if n is not None else ()
        return cls(N, k, N // k, n, powers)

    @classmethod
    def for_power(cls, k: int, n: int) -> "ShuffleSpec":
        if n < 1:
            raise ValueError("exponent must be at least 1")
        spec = cls.for_length(k ** n, k)
        assert spec.n == n
        return spec


class KaryCounter:
    """An n-digit base-k counter that reports the carry length of each step."""

    def __init__(self, k: int, n: int):
        if k < 2 or n < 0:
            raise ValueError("need k >= 2 and n >= 0")
        self.k = k
        self.n = n
        self.digits = [0] * n  # digits[t] is the coefficient of k**t
        self.value = 0

    def increment(self) -> int:
        """Step the counter; return the index of the leftmost digit changed.

        The return value equals the number of trailing k-1 digits the old
        value had.  Raises OverflowError past k**n - 1.
        """
        d = self.digits
        top = self.k - 1
        p = 0
        while p < self.n and d[p] == top:
            d[p] = 0
            p += 1
        if p == self.n:
            raise OverflowError("counter wrapped past k**n - 1")
        d[p] += 1
        self.value += 1
        return p


def ruler_increment(counter: KaryCounter) -> int:
    """Advance the counter and return the carry length of the increment."""
    return counter.increment()


def rev_digits(i: int, t: int, spec: ShuffleSpec) -> int:
    """Reverse the t least significant base-k digits of the n-digit index i."""
    if spec.n is None:
        raise ValueError("N=%d is not a power of k=%d" % (spec.N, spec.k))
    if not 0 <= i < spec.N:
        raise ValueError("index %d out of range" % i)
    if not 0 <= t <= spec.n:
        raise ValueError("digit count %d out of range" % t)
    k = spec.k
    head, low = divmod(i, spec.powers[t])
    rev = 0
    for _ in range(t):
        low, digit = divmod(low, k)
        rev = rev * k + digit
    return head * spec.powers[t] + rev


def rev_next(prev: int, p: int, t: int, spec: ShuffleSpec) -> int:
    """Reversal of i+1's low t digits, given prev = rev_digits(i, t, spec).

    p is the carry length of the increment from i to i+1.  The incremented
    digit moves the top reversed digit down one slot, which shifts the
    reversal by -k**t + k**(t-p) + k**(t-p-1).  Only valid while the carry
    stays inside the reversed digits (p < t); at p >= t the low t digits
    of i+1 are all zero and the caller resets the partner to i+1 itself.
    """
    if spec.n is None:
        raise ValueError("N=%d is not a power of k=%d" % (spec.N, spec.k))
    if not 0 <= t <= spec.n:
        raise ValueError("digit count %d out of range" % t)
    if p >= t:
        raise ValueError("carry length %d reaches past the %d reversed digits" % (p, t))
    pw = spec.powers
    return prev - pw[t] + pw[t - p] + pw[t - p - 1]


def _resolve_ruler(k: int, ruler: str | None) -> str:
    if ruler is None:
        mode = os.environ.get("SHUFFLEWORKS_POPCNT", "auto").lower()
        if mode not in ("auto", "on", "off"):
            raise ValueError("SHUFFLEWORKS_POPCNT must be auto, on, or off")
        return "popcnt" if (k == 2 and mode != "off") else "counter"
    if ruler not in ("counter", "popcnt"):
        raise ValueError("ruler must be 'counter' or 'popcnt'")
    if ruler == "popcnt" and k != 2:
        raise ValueError("the popcnt ruler only applies to k=2")
    return ruler


def revswap_round(array, t: int, spec: ShuffleSpec, ruler: str | None = None) -> int:
    """Swap every position with its low-t digit reversal; return the swap count.

    Each pair is touched once (only i < partner swaps), so the round is a
    single set of independent exchanges.  ruler selects how carry lengths
    are produced for the scalar loop: "counter" simulates the base-k
    counter, "popcnt" uses trailing-bit arithmetic (k=2 only), and None
    defers to the SHUFFLEWORKS_POPCNT environment variable.  numpy arrays
    are dispatched to the tiled route, which has no ruler at all; it needs
    a contiguous one-dimensional array, swaps whole tile pairs a bounded
    chunk at a time, and returns the count (N/k**t)*(k**t - k**ceil(t/2))/2
    of non-palindromic positions over two.
    """
    if spec.n is None:
        raise ValueError("N=%d is not a power of k=%d" % (spec.N, spec.k))
    if len(array) != spec.N:
        raise ValueError("array length %d != N=%d" % (len(array), spec.N))
    if isinstance(array, np.ndarray):
        return _revswap_round_tiled(array, t, spec)
    return _revswap_round_seq(array, t, spec, 0, ruler)


def _revswap_round_seq(array, t: int, spec: ShuffleSpec, base: int, ruler: str | None) -> int:
    if not 0 <= t <= spec.n:
        raise ValueError("digit count %d out of range" % t)
    if t <= 1:
        return 0  # reversing one digit or none moves nothing
    N = spec.N
    mode = _resolve_ruler(spec.k, ruler)
    swaps = 0
    j = 0
    if mode == "popcnt":
        for i in range(1, N):
            # trailing ones of i-1 == trailing zeros of i
            p = (i & -i).bit_length() - 1
            j = i if p >= t else rev_next(j, p, t, spec)
            if i < j:
                bi, bj = base + i, base + j
                array[bi], array[bj] = array[bj], array[bi]
                swaps += 1
    else:
        counter = KaryCounter(spec.k, spec.n)
        for i in range(1, N):
            p = ruler_increment(counter)
            j = i if p >= t else rev_next(j, p, t, spec)
            if i < j:
                bi, bj = base + i, base + j
                array[bi], array[bj] = array[bj], array[bi]
                swaps += 1
    return swaps


# Tiles of the ndarray route hold at most this many elements (k**(2b) <= it),
# and fewer for records so large that a chunk holds fewer.
_TILE_ELEMS = 1 << 12
# Bytes gathered from one side of the tile pairs per step; the step's scratch
# is a few times this, independent of the array length.
_CHUNK_BYTES = 1 << 18


def _rev_table(k: int, digits: int) -> np.ndarray:
    """rev[i] = reversal of i's base-k digits, for all i < k**digits."""
    r = np.zeros(1, dtype=np.intp)
    for _ in range(digits):
        r = np.concatenate([k * r + d for d in range(k)])
    return r


def _revswap_round_tiled(array: np.ndarray, t: int, spec: ShuffleSpec) -> int:
    if not 0 <= t <= spec.n:
        raise ValueError("digit count %d out of range" % t)
    if array.ndim != 1 or not array.flags.c_contiguous:
        raise ValueError("need a contiguous one-dimensional array")
    if t <= 1:
        return 0
    k, kt = spec.k, spec.powers[t]
    blocks = spec.N // kt
    # Split the t reversed digits of a position into (hi, mid, lo) with b
    # digits in hi and lo.  Reversal maps (hi, mid, lo) to
    # (rev lo, rev mid, rev hi), so the k**b x k**b tile at mid trades places
    # with the tile at rev mid, reversed on both axes and transposed.  That
    # tile transform is one fixed permutation of the k**(2b) tile elements.
    step = max(1, _CHUNK_BYTES // array.itemsize)
    b = 1
    while b < t // 2 and k ** (2 * b + 2) <= min(_TILE_ELEMS, step):
        b += 1
    kb = k ** b
    revb = _rev_table(k, b)
    tile_perm = (revb[None, :] * kb + revb[:, None]).ravel()
    revm = _rev_table(k, t - 2 * b)
    mids = np.flatnonzero(np.arange(revm.size) <= revm)
    # axes (block, mid, hi, lo)
    x = array.view(np.ndarray).reshape(blocks, kb, revm.size, kb).transpose(0, 2, 1, 3)
    mids_per_step = min(mids.size, max(1, step // (kb * kb)))
    blocks_per_step = max(1, step // (kb * kb * mids_per_step))
    for h in range(0, blocks, blocks_per_step):
        xs = x[h:h + blocks_per_step]
        for c in range(0, mids.size, mids_per_step):
            mine = mids[c:c + mids_per_step]
            theirs = revm[mine]
            here = xs[:, mine]
            there = xs[:, theirs]
            xs[:, theirs] = here.reshape(*here.shape[:2], -1).take(tile_perm, axis=2).reshape(here.shape)
            xs[:, mine] = there.reshape(*there.shape[:2], -1).take(tile_perm, axis=2).reshape(there.shape)
    # Every position moves except the palindromes of its t digits.
    return blocks * (kt - k ** ((t + 1) // 2)) // 2


def shuffle_power(array, spec: ShuffleSpec, ruler: str | None = None) -> tuple[int, int]:
    """In-place in-shuffle of N = k**n elements via two reversal rounds.

    Returns the swap counts of the two rounds.
    """
    if spec.n is None or spec.n < 1:
        raise ValueError("need N = k**n with n >= 1")
    if len(array) != spec.N:
        raise ValueError("array length %d != N=%d" % (len(array), spec.N))
    first = revswap_round(array, spec.n - 1, spec, ruler)
    second = revswap_round(array, spec.n, spec, ruler)
    return first, second


def swap_counts(spec: ShuffleSpec) -> tuple[int, int]:
    """Closed-form swap counts of the two reversal rounds.

    A round of t-digit reversal swaps (k**n - fixed)/2 pairs where the
    fixed positions are the palindromes of the reversed digits.
    """
    if spec.n is None or spec.n < 1:
        raise ValueError("need N = k**n with n >= 1")
    k, n = spec.k, spec.n
    if n % 2 == 0:
        first = k * (k ** (n - 1) - k ** (n // 2)) // 2
        second = (k ** n - k ** (n // 2)) // 2
    else:
        first = k * (k ** (n - 1) - k ** ((n - 1) // 2)) // 2
        second = (k ** n - k ** ((n + 1) // 2)) // 2
    return first, second


@dataclass(frozen=True)
class RotationPlan:
    """Rotations that align power-of-two segment pairs for k=2, N = 2*M.

    Both halves split into segments sized by the binary expansion of M,
    largest first.  Each rotation (start, length, left_shift) brings one
    second-half segment next to its first-half mate; the smallest pair is
    adjacent once the others are done and needs no rotation.  cost counts
    every element the rotations displace.
    """

    segment_sizes: tuple[int, ...]
    rotations: tuple[tuple[int, int, int], ...]
    cost: int


def rotation_plan(M: int) -> RotationPlan:
    if M < 1:
        raise ValueError("M must be positive")
    segs = [1 << b for b in range(M.bit_length() - 1, -1, -1) if (M >> b) & 1]
    rotations = []
    cost = 0
    prefix = 0  # first-half elements already aligned
    for m in segs[:-1]:
        rest = M - prefix - m  # first-half elements still between the mates
        rotations.append((2 * prefix + m, m + rest, rest))
        cost += m + rest
        prefix += m
    return RotationPlan(tuple(segs), tuple(rotations), cost)


def rotation_cost(M: int) -> int:
    """Closed-form element-move count of rotation_plan(M).

    The rotation that aligns the segment of bit i displaces a window of
    M mod 2**(i+1) elements; the lowest set bit needs no rotation.
    """
    if M < 1:
        raise ValueError("M must be positive")
    lowest = M & -M
    total = 0
    for i in range(M.bit_length()):
        bit = 1 << i
        if M & bit and bit != lowest:
            total += M & ((bit << 1) - 1)
    return total


def _reverse_range(array, lo: int, hi: int) -> None:
    hi -= 1
    while lo < hi:
        array[lo], array[hi] = array[hi], array[lo]
        lo += 1
        hi -= 1


def rotate_left(array, start: int, length: int, shift: int) -> int:
    """Rotate array[start:start+length] left by shift using three reversals.

    Returns the number of elements displaced (length, or 0 for the trivial
    shifts 0 and length).
    """
    if length < 0 or start < 0 or start + length > len(array):
        raise ValueError("window out of range")
    if not 0 <= shift <= length:
        raise ValueError("shift %d outside 0..%d" % (shift, length))
    if shift in (0, length) or length < 2:
        return 0
    if isinstance(array, np.ndarray):
        seg = array[start:start + length]
        seg[:shift] = seg[:shift][::-1].copy()
        seg[shift:] = seg[shift:][::-1].copy()
        seg[:] = seg[::-1].copy()
    else:
        _reverse_range(array, start, start + shift)
        _reverse_range(array, start + shift, start + length)
        _reverse_range(array, start, start + length)
    return length


class GeneralShuffleStats(NamedTuple):
    moved: int  # elements displaced by rotations
    swaps: int  # swaps performed by the power-of-two sub-shuffles


def shuffle_general_k2(array, ruler: str | None = None) -> GeneralShuffleStats:
    """In-place two-way in-shuffle for any even length.

    Runs the full rotation plan first, then shuffles each aligned
    power-of-two block with the two reversal rounds.
    """
    N = len(array)
    if N % 2:
        raise ValueError("the two-way in-shuffle needs an even length")
    if N == 0:
        return GeneralShuffleStats(0, 0)
    plan = rotation_plan(N // 2)
    moved = 0
    for start, length, shift in plan.rotations:
        moved += rotate_left(array, start, length, shift)
    swaps = 0
    base = 0
    for m in plan.segment_sizes:
        spec = ShuffleSpec.for_length(2 * m, 2)
        if isinstance(array, np.ndarray):
            block = array[base:base + 2 * m]
            c1, c2 = shuffle_power(block, spec, ruler)
        else:
            c1 = _revswap_round_seq(array, spec.n - 1, spec, base, ruler)
            c2 = _revswap_round_seq(array, spec.n, spec, base, ruler)
        swaps += c1 + c2
        base += 2 * m
    return GeneralShuffleStats(moved, swaps)
