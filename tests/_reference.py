"""Position-by-position references that the tests compare the library against.

rev_digits recomputes a digit reversal from scratch, the check on the
incremental partner update of revswap_pairs.  parse_cycle_notation reads
the cycle strings that cycle_notation and the factor command print.
"""

from shuffleworks.perm_core import Permutation
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
