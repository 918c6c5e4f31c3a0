"""Digit-reversal construction of the in-place k-way in-shuffle.

For N = k**n the in-shuffle factors into two rounds of independent swaps:
first every position exchanges with the reversal of its low n-1 base-k
digits, then with the reversal of all n digits.  Chaining the two
reversals sends position i to k*i mod (N-1), which is exactly the
in-shuffle with both end positions fixed.

Every digit reversal comes from one generator, _reversals.  It walks the
positions in aligned chunks of at most _REV_CHUNK, and reversal never
mixes a chunk's offset digits with the digits above them, so the partner
of first + o is rev(first) + rev(o): one table of rev(o) per round, plus
one scalar per chunk.  That keeps the paper's O(N) time in O(chunk)
state without its carry-length recurrence, which pays only when
positions go one at a time.  On lists a round's pair source,
_revswap_chunks, keeps i < rev(i) from each chunk for
perm_core.swap_chunks, and build_network stacks the same chunks into a
network round's rows.  Lengths that are not powers of k are handled for
k=2 by rotating power-of-two segment pairs into adjacency and shuffling
each aligned block.  A rotation trades blocks forward a chunk at a time
until one side fits in a chunk, then slides the other side over it, so a
step's scratch fits _CHUNK_BYTES.

numpy arrays (memmaps included) take a cache-blocked route after Carter
and Gatlin's bit-reversal program (FOCS 1998): the t reversed digits
split into (hi, mid, lo), and a round becomes swaps of k**b x k**b tiles
between mid and its reversal, each tile digit-reversed on both axes and
transposed.  The step alone bounds the tile: b is the largest with
k**(2b) at most half the records of _CHUNK_BYTES (and b at most t/2), so
a step holds a whole tile pair, and 8-byte records go in 128 x 128 tiles.
A step gathers both sides of its tile pairs with their rows (runs of
k**b contiguous elements) in reversed order, in one fancy index, and
scatters the transposed gather into the partners' reversed rows: an
element is read and written once a round.  Tile pairs go _CHUNK_BYTES of
both sides at a time, and mid values pair with their reversals a chunk
of _reversals at a time, so the scratch memory of a round does not grow
with N.  The route produces the same permutation as the scalar loop and
reports the same swap count, from its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perm_core import OpCounter, swap_chunks

# Guards the int64-based vectorised index path; nothing real gets close.
INDEX_LIMIT = 1 << 62


@dataclass(frozen=True)
class ShuffleSpec:
    """Validated parameters of a k-way in-shuffle on N = k*M positions.

    n and powers are filled in only when N is an exact power of k; the
    digit-reversal rounds require them.  The modular-inverse rounds work
    modulo m = N - 1.
    """

    N: int
    k: int
    n: int | None
    powers: tuple[int, ...]

    @classmethod
    def for_length(cls, N: int, k: int) -> "ShuffleSpec":
        if k < 2:
            raise ValueError("k must be at least 2")
        if N < 0 or N % k:
            raise ValueError("N=%d is not a multiple of k=%d" % (N, k))
        if N > INDEX_LIMIT:
            raise OverflowError("N=%d exceeds the index arithmetic limit" % N)
        powers = [1]
        while powers[-1] < N:
            powers.append(powers[-1] * k)
        if powers[-1] != N:
            return cls(N, k, None, ())
        return cls(N, k, len(powers) - 1, tuple(powers))

    @property
    def m(self) -> int:
        return self.N - 1


def _reversals(k: int, t: int, N: int, base: int = 0):
    """Yield (base + i, base + rev(i)) over i in 0..N-1, N a power of k, as index arrays.

    rev reverses the t least significant base-k digits of i and keeps the
    rest.  Chunks are aligned runs of k**c <= _REV_CHUNK positions, in
    ascending order; each adds its rev(first) to one table of rev(o).
    """
    c = 0
    while k ** (c + 1) <= min(N, _REV_CHUNK):
        c += 1
    table = np.zeros(1, dtype=np.intp)
    for d in range(c):  # digit d of the offset goes to t-1-d, or stays above t
        table = (np.arange(k)[:, None] * k ** (t - 1 - d if d < t else d) + table).ravel()
    for first in range(0, N, k ** c):
        rev, rest = divmod(first, k ** t)
        for _ in range(t):
            rest, digit = divmod(rest, k)
            rev = rev * k + digit
        yield np.arange(base + first, base + first + k ** c), table + (base + rev)


def _revswap_chunks(t: int, spec: ShuffleSpec, base: int = 0):
    """Yield the swaps (base + i, base + rev(i)), i < rev(i), of one round as index arrays.

    Each chunk of _reversals yields its pairs, i ascending.  The caller
    passes a power-of-k spec and 0 <= t <= spec.n.
    """
    if t <= 1:
        return  # reversing one digit or none moves nothing
    for i, j in _reversals(spec.k, t, spec.N, base):
        keep = i < j
        yield i[keep], j[keep]


def revswap_round(array, t: int, spec: ShuffleSpec) -> int:
    """Swap every position with its low-t digit reversal; return the swap count.

    Each pair is touched once (only i < partner swaps), so the round is a
    single set of independent exchanges.  Sequences run the chunks of
    _revswap_chunks through swap_chunks.  numpy arrays are dispatched to the
    tiled route; it needs a contiguous one-dimensional array, swaps whole
    tile pairs a bounded chunk at a time, and returns the count
    (N/k**t)*(k**t - k**ceil(t/2))/2 of non-palindromic positions over two.
    """
    if spec.n is None:
        raise ValueError("N=%d is not a power of k=%d" % (spec.N, spec.k))
    if not 0 <= t <= spec.n:
        raise ValueError("digit count %d out of range" % t)
    if len(array) != spec.N:
        raise ValueError("array length %d != N=%d" % (len(array), spec.N))
    if isinstance(array, np.ndarray):
        return _revswap_round_tiled(array, t, spec)
    return swap_chunks(array, _revswap_chunks(t, spec))


# _reversals yields aligned chunks of at most this many positions: a list
# round's pairs, a network round's rows, and a tiled round's mid values and
# tile-axis table.
_REV_CHUNK = 1 << 12
# Bytes a step holds: both sides of a tiled round's tile pairs, or a k=2
# rotation's chunks.  A step's scratch is about this, whatever the length.
_CHUNK_BYTES = 1 << 18


def _check_layout(array) -> None:
    """Refuse an ndarray that the tiled route cannot reshape in place."""
    if isinstance(array, np.ndarray) and (array.ndim != 1 or not array.flags.c_contiguous):
        raise ValueError("need a contiguous one-dimensional array")


def _revswap_round_tiled(array: np.ndarray, t: int, spec: ShuffleSpec) -> int:
    _check_layout(array)
    if t <= 1:
        return 0
    k = spec.k
    blocks = spec.N // spec.powers[t]
    # Split the t reversed digits of a position into (hi, mid, lo) with b
    # digits in hi and lo.  Reversal maps (hi, mid, lo) to
    # (rev lo, rev mid, rev hi), so the k**b x k**b tile at mid trades places
    # with the tile at rev mid, reversed on both axes and transposed:
    # out[i, j] = tile[rev j, rev i], that is out[rev i] = tile[rev].T[i].
    step = max(1, _CHUNK_BYTES // array.itemsize)
    b = 1
    while b < t // 2 and k ** (2 * b + 2) <= step // 2:
        b += 1
    kb = k ** b
    revb = np.concatenate([revs for _, revs in _reversals(k, b, kb)])
    n_mids = spec.powers[t - 2 * b]
    # axes (block, mid, hi, lo)
    x = array.view(np.ndarray).reshape(blocks, kb, n_mids, kb).transpose(0, 2, 1, 3)
    for mids, revs in _reversals(k, t - 2 * b, n_mids):
        keep = mids <= revs
        pairs = np.stack((mids[keep], revs[keep]), axis=1)[:, :, None]  # (mid, rev mid) rows
        del mids, revs, keep  # drops the unfiltered chunk
        mids_per_step = max(1, min(len(pairs), step // (2 * kb * kb)))
        blocks_per_step = max(1, step // (2 * kb * kb * mids_per_step))
        for h in range(0, blocks, blocks_per_step):
            xs = x[h:h + blocks_per_step]
            for c in range(0, len(pairs), mids_per_step):
                rows = pairs[c:c + mids_per_step]
                xs[:, rows[:, ::-1], revb] = xs[:, rows, revb].swapaxes(-1, -2)
    return _round_swaps(spec, t)


def shuffle_power(array, spec: ShuffleSpec) -> OpCounter:
    """In-place in-shuffle of N = k**n elements via two reversal rounds; return their report.

    revswap_round checks the array before each round and returns that
    round's swaps; the report holds both rounds' swaps.
    """
    if spec.n is None:
        raise ValueError("N=%d is not a power of k=%d" % (spec.N, spec.k))
    return OpCounter(swaps=revswap_round(array, spec.n - 1, spec) + revswap_round(array, spec.n, spec), rounds=2)


def swap_counts(spec: ShuffleSpec) -> tuple[int, int]:
    """Closed-form swap counts of the two reversal rounds.

    A round of t-digit reversal swaps (k**n - fixed)/2 pairs where the
    fixed positions are the palindromes of the reversed digits.
    """
    if spec.n is None or spec.n < 1:
        raise ValueError("need N = k**n with n >= 1")
    return _round_swaps(spec, spec.n - 1), _round_swaps(spec, spec.n)


def _round_swaps(spec: ShuffleSpec, t: int) -> int:
    """Swaps of the round reversing t digits: (N/k**t)(k**t - k**ceil(t/2))/2.

    Every position moves except the k**ceil(t/2) palindromes of its t
    digits in each block of k**t, and each swap moves two.
    """
    kt = spec.powers[t]
    return spec.N // kt * (kt - spec.k ** ((t + 1) // 2)) // 2


@dataclass(frozen=True)
class RotationPlan:
    """Rotations that align power-of-two segment pairs for k=2, N = 2*M.

    Both halves split into segments sized by the binary expansion of M,
    largest first.  Each rotation (start, length, left_shift) brings one
    second-half segment next to its first-half mate; the smallest pair is
    adjacent once the others are done and needs no rotation.  The lengths
    of the rotations sum to rotation_cost(M), the elements they displace.
    """

    segment_sizes: tuple[int, ...]
    rotations: tuple[tuple[int, int, int], ...]


def rotation_plan(M: int) -> RotationPlan:
    if M < 1:
        raise ValueError("M must be positive")
    segs = [1 << b for b in range(M.bit_length() - 1, -1, -1) if (M >> b) & 1]
    rotations = []
    prefix = 0  # first-half elements already aligned
    for m in segs[:-1]:
        rest = M - prefix - m  # first-half elements still between the mates
        rotations.append((2 * prefix + m, m + rest, rest))
        prefix += m
    return RotationPlan(tuple(segs), tuple(rotations))


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


def rotate_left(array, start: int, length: int, shift: int) -> int:
    """Rotate array[start:start+length] left by shift with forward copies only.

    Returns the number of elements displaced (length, or 0 for the trivial
    shifts 0 and length).  The window [A B], A the first shift elements,
    becomes [B A].  While both sides are longer than a chunk, the shorter
    side trades places, a chunk at a time, with the end of the longer side
    next to it, which puts that end in its final place (Gries and Mills).
    Once a side fits in a chunk it is copied out, the other side slides
    over its place a chunk at a time, and the copy goes in behind; swapping
    on down to the last element would take a step per shift, like
    subtractive Euclid.  A step holds one _CHUNK_BYTES, whatever the window:
    an ndarray's copied-out chunk (numpy moves overlapping slices in place),
    or three lists of a list chunk's pointers.  No copy runs backwards:
    numpy moves a reversed void record one at a time.
    """
    if length < 0 or start < 0 or start + length > len(array):
        raise ValueError("window out of range")
    if not 0 <= shift <= length:
        raise ValueError("shift %d outside 0..%d" % (shift, length))
    if shift in (0, length) or length < 2:
        return 0
    if isinstance(array, np.ndarray):
        chunk, held = max(1, _CHUNK_BYTES // array.itemsize), np.ndarray.copy
    else:  # the copy, the right-hand slice and the replaced items; a slice is already a copy
        chunk, held = max(1, _CHUNK_BYTES // 24), lambda part: part
    lo, mid, hi = start, start + shift, start + length
    while (n := min(mid - lo, hi - mid)) > chunk:
        for p in range(mid - n, mid, chunk):  # [mid - n, mid) trades places with [mid, mid + n)
            c = min(chunk, mid - p)
            part = held(array[p:p + c])
            array[p:p + c] = array[p + n:p + n + c]
            array[p + n:p + n + c] = part
            del part  # else it is still held while the next chunk is copied out
        if n == mid - lo:  # the start of B is in place, and A follows it
            lo, mid = mid, mid + n
        else:  # the end of A is in place, and B precedes it
            mid, hi = mid - n, hi - n
    a, b = mid - lo, hi - mid
    if 0 < a <= b:  # A fits in a chunk: B slides left over it
        part = held(array[lo:mid])
        for p in range(lo, hi - a, chunk):
            c = min(chunk, hi - a - p)
            array[p:p + c] = array[p + a:p + a + c]
        array[hi - a:hi] = part
    elif 0 < b < a:  # B fits: A slides right over it, from its end
        part = held(array[mid:hi])
        for p in range(mid, lo, -chunk):
            c = min(chunk, p - lo)
            array[p - c + b:p + b] = array[p - c:p]
        array[lo:lo + b] = part
    return length


def shuffle_general_k2(array, ruler: str | None = None) -> OpCounter:
    """In-place two-way in-shuffle for any even length.

    Runs the full rotation plan first, then shuffles each aligned
    power-of-two block with the two reversal rounds.  The report counts
    the elements the rotations displace as moved, the block swaps, and
    one round per rotation on top of the two swap rounds.  ruler and an
    ndarray's layout are checked before anything moves; ruler changes
    nothing.
    """
    N = len(array)
    if N % 2:
        raise ValueError("the two-way in-shuffle needs an even length")
    if ruler not in (None, "counter", "popcnt"):
        raise ValueError("ruler must be None, 'counter' or 'popcnt'")
    _check_layout(array)
    report = OpCounter(rounds=2)
    if N == 0:
        return report
    plan = rotation_plan(N // 2)
    for start, length, shift in plan.rotations:
        report.moved += rotate_left(array, start, length, shift)
        report.rounds += 1
    base = 0
    for m in plan.segment_sizes:
        spec = ShuffleSpec.for_length(2 * m, 2)
        if isinstance(array, np.ndarray):
            report.swaps += shuffle_power(array[base:base + 2 * m], spec).swaps
        else:
            report.swaps += sum(swap_chunks(array, _revswap_chunks(t, spec, base)) for t in (spec.n - 1, spec.n))
        base += 2 * m
    return report
