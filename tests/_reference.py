"""Position-by-position references that the tests compare the library against.

rev_digits recomputes a digit reversal from scratch, one position at a
time, the check on the chunked offset table that _revswap_chunks reads;
chunk_pairs turns a round's index chunks, from _revswap_chunks or
_modinv_chunks, into the (i, j) tuples that the tests compare (sorted
for _modinv_chunks, which gives a lane chunk's mirrors after it, against
the scalar j_map pairs); and emit_text_per_pair renders a network one
swap at a time, the check on emit_text's digit renderer.
parse_cycle_notation reads the cycle strings that cycle_notation and the
factor command print.  compose and inverse are the permutation algebra
the factoring laws are stated in, and enumerate_involutions and
brute_force_factorizations the exhaustive census that
factor_permutation's pairs are counted against; the library itself
needs none of them.
"""

from shuffleworks.involution_factor import InvolutionPair
from shuffleworks.network import TEXT_FORMAT_LINE
from shuffleworks.perm_core import Involution, Permutation, is_involution
from shuffleworks.shuffle_bitrev import ShuffleSpec


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


def chunk_pairs(chunks):
    """Yield the pairs of a round's (i, j) index-array chunks as int tuples, in order."""
    for i, j in chunks:
        yield from zip(i.tolist(), j.tolist())


def emit_text_per_pair(net) -> str:
    """The network text format, each swap rendered by its own format call."""
    lines = [
        TEXT_FORMAT_LINE,
        "N=%d method=%s swaps=%d" % (net.n_positions, net.label, net.total_swaps),
    ]
    for r, rows in enumerate(net.rounds):
        body = " ".join("(%d %d)" % (i, j) for i, j in rows.tolist())
        lines.append("round %d:%s" % (r, " " + body if body else ""))
    return "\n".join(lines) + "\n"


def permutation_from_cycles(n: int, cycles) -> Permutation:
    """Rebuild a permutation of n points from disjoint cycles."""
    m = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, tuple(cycle[1:]) + (cycle[0],)):
            if m[a] != a:
                raise ValueError("cycles are not disjoint at %d" % a)
            m[a] = b
    return Permutation(m)


def parse_cycle_notation(text: str, n: int) -> Permutation:
    """Inverse of cycle_notation for permutations of n points."""
    text = text.strip()
    if text == "()":
        return Permutation(range(n))
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError("malformed cycle string: %r" % text)
    cycles = []
    for part in text[1:-1].split(")("):
        if not part.strip():
            raise ValueError("empty cycle in %r" % text)
        cycles.append([int(tok) for tok in part.replace(",", " ").split()])
    return permutation_from_cycles(n, cycles)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: the result sends i to p.map[q.map[i]]."""
    if p.size != q.size:
        raise ValueError("size mismatch: %d vs %d" % (p.size, q.size))
    pm = p.map
    return Permutation([pm[v] for v in q.map], check=False)


def inverse(p: Permutation) -> Permutation:
    m = [0] * p.size
    for i, v in enumerate(p.map):
        m[v] = i
    return Permutation(m, check=False)


def enumerate_involutions(n: int):
    """Yield every involution of n points exactly once.

    Recursive matching: the smallest unmatched point is either fixed or
    paired with one of the larger unmatched points.  Intended for small n
    only; the count grows like the telephone numbers.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > 9:
        raise ValueError("n > 9 is too large for exhaustive enumeration")

    def match(free: tuple[int, ...], m: list[int]):
        if not free:
            yield Involution(m, check=False)
            return
        x = free[0]
        yield from match(free[1:], m)
        for pos in range(1, len(free)):
            y = free[pos]
            m[x], m[y] = y, x
            yield from match(free[1:pos] + free[pos + 1:], m)
            m[x], m[y] = x, y

    yield from match(tuple(range(n)), list(range(n)))


def brute_force_factorizations(p: Permutation) -> list[InvolutionPair]:
    """Every ordered involution pair (s, t) with compose(s, t) == p, in order of s.

    Scans the full involution enumeration for s, so p.size must stay small
    (at most 9).  s is its own inverse, so t = s after p is the only
    partner of s; the pair counts when that t is an involution.
    """
    if p.size > 9:
        raise ValueError("exhaustive search limited to size <= 9")
    found = []
    for s in enumerate_involutions(p.size):
        t = Involution([s.map[v] for v in p.map], check=False)
        if is_involution(t):
            found.append(InvolutionPair(s, t))
    return found
