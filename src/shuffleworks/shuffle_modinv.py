"""Number-theoretic construction of the in-place k-way in-shuffle.

Take any N = k*M and let m = N - 1.  The interior positions 1..N-2 live
in Z_m, and for r coprime to m the map

    J_r(x) = g * ((r * (x/g)^-1) mod (m/g)),   g = gcd(x, m),  J_r(0) = 0

is an involution of Z_m that preserves gcd(., m).  Chaining two of them
gives J_k(J_1(x)) = k*x mod m, the in-shuffle, so two rounds of swaps
(first along J_1, then along J_k) shuffle any multiple-of-k length with
no digit structure required.

Each J_r(x) comes from one extended-Euclid run on (x, m), whose Bezout
coefficient of x gives g and (x/g)^-1 mod m/g at once.  As gcd(m-x, m)
= gcd(x, m) = g and (m-x)/g = -x/g mod m/g, J_r(m-x) = m - J_r(x), so the
rounds run Euclid only for x in 1..m//2: about N-2 runs per shuffle, not
2(N-2).  ext_gcd is the scalar reference, which j_map uses.  The rounds
run Euclid in lockstep lanes, seven rows of 2 KiB (14 KiB of state),
counting a step only where both remainders are non-zero.  The lanes are
int32, 512 to a row, when k*(N-1) < 2**31, and int64, 256 to a row,
otherwise; k*(N-1) must be below 2**63, or the rounds raise OverflowError
at once.  The OpCounter (from perm_core) still gets ext_gcd's counts for
every position taken: for x < m/2, ext_gcd(m-x, m) takes one step more
than ext_gcd(x, m), as both reach (x, m mod x), and ext_gcd(m/2, m) takes
2.  A chunk's pairs, then its mirrors', swap by fancy indexing on ndarrays,
at most 256 records at a time, and through swap_pairs on lists;
modinv_pairs yields them x-sorted for networks, holding a round's mirror
pairs until its walk ends.
"""

from __future__ import annotations

import math

import numpy as np

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


def j_map(r: int, x: int, spec: ShuffleSpec, counter: OpCounter | None = None) -> int:
    """The involution J_r on Z_m: x maps to gcd(x,m) * ((r * (x/g)^-1) mod (m/g)).

    Fixes 0; preserves gcd(., m); is its own inverse whenever gcd(r, m) = 1.
    """
    if math.gcd(r, spec.m) != 1:
        raise ValueError("r=%d shares a factor with m=%d" % (r, spec.m))
    if not 0 <= x < spec.m:
        raise ValueError("x=%d outside 0..%d" % (x, spec.m - 1))
    if x == 0:
        return 0
    g, u = ext_gcd(x, spec.m, counter)  # x*u + m*v = g, so u is (x/g)^-1 mod m/g
    return g * (r * u % (spec.m // g))


_ROW_BYTES = 2048  # bytes per lane row: 256 int64 or 512 int32 positions per lockstep Euclid chunk
_SWAP_BATCH = 256  # records gathered at a time by one fancy-index swap


def _j_chunks(spec: ShuffleSpec, rs: tuple[int, ...], counter: OpCounter | None):
    """Yield (x, J) per r in rs and chunk: x = lo, lo+1, ... of 1..m//2, one per lane, J = J_r(x).

    A chunk is one row of lanes: 512 int32 lanes when k*(N-1) < 2**31, 256
    int64 lanes otherwise.  The mirrors m-x pair with m-J.  Chunks come in
    ascending lo.  x and J are views that the next chunk overwrites; a
    caller may turn them into m-x and m-J in place.
    Lane i runs ext_gcd(lo+i, m) in rows a, s_a, b, s_b (remainders and
    cofactors of x), taking a %= b and b %= a in turn.  Once a round's last
    chunk is out, counter gets ext_gcd's counts for all of 1..m-1.
    """
    m = spec.m
    if spec.k * m >= 1 << 63:
        raise OverflowError("k*(N-1) exceeds the int64 Euclid lanes (N=%d, k=%d)" % (spec.N, spec.k))
    # m < 2**30 in int32: remainders, cofactors, q*s <= 2m, r*u < k*m and g*J < m all fit
    dtype = np.dtype(np.int32 if spec.k * m < 1 << 31 else np.int64)
    width = _ROW_BYTES // dtype.itemsize
    state, q, tmp = np.empty((4, width), dtype), np.empty(width, dtype), np.empty((2, width), dtype)
    los = range(1, m // 2 + 1, width)
    for r in rs:
        lanes = 0
        for lo in los:
            n = min(width, m // 2 + 1 - lo)
            st, qn, tn = state[:, :n], q[:n], tmp[:, :n]
            st[0], st[1], st[2], st[3] = np.arange(lo, lo + n, dtype=dtype), 1, m, 0
            dst, src = st[:2], st[2:]
            with np.errstate(divide="ignore"):  # a finished lane divides by 0, gets q = 0 and stays put
                while live := np.count_nonzero(st[::2]) - n:  # lanes with a and b both non-zero
                    lanes += live
                    np.floor_divide(dst[0], src[0], out=qn)
                    np.multiply(qn, src, out=tn)
                    np.subtract(dst, tn, out=dst)
                    dst, src = src, dst
            np.copyto(tn, st[2:])  # g and u: the remainder that is not 0, and its cofactor
            np.copyto(tn, st[:2], where=st[0] != 0)
            g, J = tn
            J *= r
            J %= np.floor_divide(m, g, out=qn)
            J *= g
            x = st[0]  # free once the lanes are done
            x[:] = np.arange(lo, lo + n, dtype=dtype)
            yield x, J
        if counter is not None and m > 1:
            counter.euclid_iterations += 2 * int(lanes) + (m - 1) // 2 - (2 if m % 2 == 0 else 0)
            counter.gcd_calls += m - 1


def modinv_pairs(r: int, spec: ShuffleSpec, counter: OpCounter | None = None):
    """Yield the swaps (x, J_r(x)), x < J_r(x), of one round on N = k*M positions, x ascending.

    Positions 0 and N-1 are never paired.  r must be 1 or k, which are
    coprime to m = N - 1.  One walk of the chunks yields the pairs with
    x <= m/2 as it goes and keeps the rest, (m-x, m-J_r(x)) for the x with
    J_r(x) < x, which come after them in reverse.  So the kept mirrors
    live until the walk ends: memory linear in N, about 1.3 bytes per
    position with int32 lanes (tracemalloc) and twice that with int64.  The
    Euclid work of every J_r value taken goes to counter.
    """
    m, mirrors = spec.m, []
    for x, J in _j_chunks(spec, (r,), counter):
        keep = J > x
        yield from zip(x[keep].tolist(), J[keep].tolist())
        back = J < x
        mirrors.append((np.subtract(m, x[back]), np.subtract(m, J[back])))
    for x, J in reversed(mirrors):
        yield from zip(x[::-1].tolist(), J[::-1].tolist())


def shuffle_modinv(array, k: int, counter: OpCounter | None = None) -> OpCounter:
    """In-place k-way in-shuffle of any N = k*M elements; return its report: counter, or a new one.

    Two rounds of independent swaps: positions pair along J_1, then along
    J_k.  Positions 0 and N-1 are never touched.  A memmap is swapped
    through a plain ndarray view of it, whose indexing skips memmap's.
    """
    spec = ShuffleSpec.for_length(len(array), k)
    report = OpCounter() if counter is None else counter
    if isinstance(array, np.ndarray):
        array = array.view(np.ndarray)
    swaps, m = 0, spec.m
    for x, J in _j_chunks(spec, (1, k), report):
        for _ in range(2):  # x, then m-x
            for i in range(0, len(x), _SWAP_BATCH):  # the records in flight do not grow with the lane count
                xs, ys = x[i : i + _SWAP_BATCH], J[i : i + _SWAP_BATCH]
                keep = ys > xs
                xs, ys = xs[keep].astype(np.intp), ys[keep].astype(np.intp)  # once, not in each indexing
                if isinstance(array, np.ndarray):
                    array[xs], array[ys] = array[ys], array[xs]  # pairs within a round are disjoint
                else:
                    swap_pairs(array, zip(xs.tolist(), ys.tolist()))
                swaps += len(ys)
            np.subtract(m, x, out=x)
            np.subtract(m, J, out=J)
    report.swaps += swaps
    report.rounds += 2
    return report


def swap_count_modinv(N: int, k: int, counter: OpCounter | None = None) -> OpCounter:
    """The report shuffle_modinv would return on N elements, no data moved: counter, or a new one, filled."""
    report = OpCounter() if counter is None else counter
    spec = ShuffleSpec.for_length(N, k)
    report.swaps += sum(int(np.count_nonzero(J != x)) for x, J in _j_chunks(spec, (1, k), report))
    report.rounds += 2
    return report
