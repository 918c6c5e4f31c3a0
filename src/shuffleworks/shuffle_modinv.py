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
run Euclid in lockstep lanes, five rows of 2.5 KiB (12.5 KiB of state):
one divmod per phase, counting a step only where the divisor is
non-zero.  A finished lane may lose its remainders, so g and J are read
back from its cofactors (see _j_chunks).  The lanes are int32, 640 to a
row, when k*(N-1) < 2**31, and int64, 320 to a row, otherwise; k*(N-1)
must be below 2**63, or the rounds raise OverflowError at once.  The
OpCounter (from perm_core) still gets ext_gcd's counts for every position
taken: for x < m/2, ext_gcd(m-x, m) takes one step more than
ext_gcd(x, m), as both reach (x, m mod x), and ext_gcd(m/2, m) takes 2.
_modinv_chunks gives a lane chunk's pairs, then its mirrors', as index
arrays of at most 256 pairs: the one pair source, which
perm_core.swap_chunks runs on every container and build_network stacks.
"""

from __future__ import annotations

import math

import numpy as np

from .perm_core import OpCounter, swap_chunks
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


_ROW_BYTES = 2560  # bytes per lane row, five rows a chunk: 640 int32 or 320 int64 lanes, 12.5 KiB of state
_SWAP_BATCH = 256  # pairs in one chunk of _modinv_chunks, so the records a swap gathers stay few


def _j_chunks(spec: ShuffleSpec, r: int, counter: OpCounter | None):
    """Yield (x, J) per chunk of one round: x = lo, lo+1, ... of 1..m//2, one per lane, J = J_r(x).

    A chunk is one width of lanes: 640 int32 lanes when k*(N-1) < 2**31,
    320 int64 lanes otherwise.  The mirrors m-x pair with m-J.  Chunks come in
    ascending lo.  x and J are views that the next chunk overwrites; a
    caller may turn them into m-x and m-J in place.  Lane i runs
    ext_gcd(lo+i, m) in five rows a, s_a, b, s_b, q (remainders of x and m,
    their cofactors of x, the quotient).  ext_gcd's first step, x // m = 0,
    is counted but not run: the lanes start with b %= a.  A phase takes
    q, dividend = divmod(dividend, divisor), then subtracts q times the
    divisor's cofactor from the dividend's, and the rows swap roles.  A
    finished lane divides by 0, which numpy answers with q = 0 and
    remainder 0: its g may be lost, but its cofactors stay at u and +-m/g,
    of opposite signs with |u| <= m/2g (Knuth, TAOCP 2, 4.5.2).  So
    m/g = max(|s_a|, |s_b|), g = m // (m/g) and
    J = g * (r*(s_a + s_b) mod m/g), where |r*(s_a + s_b)| <= k*m/g.
    Once the last chunk is out, counter gets ext_gcd's counts for all of
    1..m-1.
    """
    m = spec.m
    if spec.k * m >= 1 << 63:
        raise OverflowError("k*(N-1) exceeds the int64 Euclid lanes (N=%d, k=%d)" % (spec.N, spec.k))
    # m < 2**30 in int32: remainders, cofactors, q*s <= 2m, r*(s_a+s_b) <= k*m and g*J < m all fit
    dtype = np.dtype(np.int32 if spec.k * m < 1 << 31 else np.int64)
    width = _ROW_BYTES // dtype.itemsize
    state = np.empty((5, width), dtype)
    lanes = 0
    for lo in range(1, m // 2 + 1, width):
        n = min(width, m // 2 + 1 - lo)
        a, s_a, b, s_b, q = state[:, :n]
        a[:], s_a[:], b[:], s_b[:] = np.arange(lo, lo + n, dtype=dtype), 1, m, 0
        lanes += n  # the first step, x // m = 0, leaves (x, m) as they are
        dividend, s_dividend, divisor, s_divisor = b, s_b, a, s_a
        with np.errstate(divide="ignore"):  # a finished lane divides by 0 and gets q = 0
            while live := np.count_nonzero(divisor):
                lanes += live
                np.divmod(dividend, divisor, out=(q, dividend))
                q *= s_divisor
                s_dividend -= q
                dividend, s_dividend, divisor, s_divisor = divisor, s_divisor, dividend, s_dividend
        np.maximum(np.abs(s_a, out=a), np.abs(s_b, out=b), out=q)  # m/g
        J = s_a
        J += s_b  # u mod m/g
        J *= r
        J %= q
        J *= np.floor_divide(m, q, out=q)  # g
        x = a  # free once the lanes are done
        x[:] = np.arange(lo, lo + n, dtype=dtype)
        yield x, J
    if counter is not None and m > 1:
        counter.euclid_iterations += 2 * int(lanes) + (m - 1) // 2 - (2 if m % 2 == 0 else 0)
        counter.gcd_calls += m - 1


def _modinv_chunks(r: int, spec: ShuffleSpec, counter: OpCounter | None = None):
    """Yield one round's swaps (x, J_r(x)), x < J_r(x), as index arrays of at most _SWAP_BATCH pairs.

    Per lane chunk, the pairs with x <= m/2 come first, then the mirrors
    (m-x, m-J_r(x)) of those with J_r(x) < x, both in ascending x.
    """
    for x, J in _j_chunks(spec, r, counter):
        for _ in range(2):  # x, then m-x, whose partner is m-J
            for b in range(0, len(x), _SWAP_BATCH):
                xs, js = x[b:b + _SWAP_BATCH], J[b:b + _SWAP_BATCH]
                keep = js > xs
                yield xs[keep].astype(np.intp), js[keep].astype(np.intp)  # unnamed: freed once swapped
            np.subtract(spec.m, x, out=x)
            np.subtract(spec.m, J, out=J)


def shuffle_modinv(array, k: int, counter: OpCounter | None = None) -> OpCounter:
    """In-place k-way in-shuffle of any N = k*M elements; return its report: counter, or a new one.

    Two rounds of independent swaps, one swap_chunks call each: positions
    pair along J_1, then along J_k.  Positions 0 and N-1 are never touched.
    """
    spec = ShuffleSpec.for_length(len(array), k)
    report = OpCounter() if counter is None else counter
    for r in (1, k):  # one round's lanes are freed before the next round's are made
        report.swaps += swap_chunks(array, _modinv_chunks(r, spec, report))
    report.rounds += 2
    return report


def swap_count_modinv(N: int, k: int, counter: OpCounter | None = None) -> OpCounter:
    """The report shuffle_modinv would return on N elements, no data moved: counter, or a new one, filled."""
    report = OpCounter() if counter is None else counter
    spec = ShuffleSpec.for_length(N, k)
    for r in (1, k):
        for i, j in _modinv_chunks(r, spec, report):
            report.swaps += len(i)
            del i, j  # freed before the next chunk is made
    report.rounds += 2
    return report
