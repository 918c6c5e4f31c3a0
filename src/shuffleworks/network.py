"""Explicit swap networks: rounds of disjoint exchanges, rendered as text or DOT.

A network is a list of rounds; each round is a list of (i, j) swaps with
i < j and no position appearing twice, so every round can execute as
fully independent exchanges.  The shuffle constructions emit two-round
networks whose rounds are the pairs of their one pair source,
revswap_pairs or modinv_pairs; factoring an arbitrary permutation gives
two rounds too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .involution_factor import factor_permutation
from .perm_core import Involution, Permutation, swap_pairs
from .shuffle_bitrev import ShuffleSpec, revswap_pairs
from .shuffle_modinv import modinv_pairs

TEXT_FORMAT_LINE = "# shuffleworks-net v1"
_SWAP = re.compile(r"\(\s*([0-9]+)\s+([0-9]+)")  # one swap up to its ")": two unsigned decimal integers

Swap = tuple[int, int]


@dataclass(frozen=True)
class SwapNetwork:
    n_positions: int
    rounds: tuple[tuple[Swap, ...], ...]
    label: str

    @property
    def total_swaps(self) -> int:
        return sum(len(r) for r in self.rounds)


def build_network(method: str, target) -> SwapNetwork:
    """Construct the swap network of a shuffle or of a factored permutation.

    method "bitrev" and "modinv" take a ShuffleSpec; "factorization" takes
    a Permutation.  Round 0 is applied first.  The rounds are the
    transpositions of involutions, so they are disjoint and in range by
    construction; only parse_text, which reads outside input, checks them.
    """
    if method == "factorization":
        if not isinstance(target, Permutation):
            raise ValueError("factorization network needs a Permutation")
        pair = factor_permutation(target)
        rounds = (pair.t.transpositions, pair.s.transpositions)
        return SwapNetwork(target.size, rounds, method)
    if method not in ("bitrev", "modinv"):
        raise ValueError("unknown network method %r" % method)
    if not isinstance(target, ShuffleSpec):
        raise ValueError("this network method needs a ShuffleSpec")
    if method == "bitrev":
        if target.n is None or target.n < 1:
            raise ValueError("bitrev network needs N = k**n")
        sources = (revswap_pairs(t, target) for t in (target.n - 1, target.n))
    else:
        sources = (modinv_pairs(r, target) for r in (1, target.k))
    rounds = tuple(tuple(pairs) for pairs in sources)
    return SwapNetwork(target.N, rounds, method)


def apply_network(array, net: SwapNetwork) -> None:
    """Execute the network's swaps in round order."""
    if len(array) != net.n_positions:
        raise ValueError("array length %d != network size %d" % (len(array), net.n_positions))
    for round_ in net.rounds:
        swap_pairs(array, round_)


def network_permutation(net: SwapNetwork) -> Permutation:
    """The permutation the network realises: where each starting position ends."""
    slots = list(range(net.n_positions))
    apply_network(slots, net)
    m = [0] * net.n_positions
    for pos, src in enumerate(slots):
        m[src] = pos
    return Permutation(m, check=False)


def emit_text(net: SwapNetwork) -> str:
    """Versioned plain-text rendering; parse_text inverts it exactly."""
    lines = [
        TEXT_FORMAT_LINE,
        "N=%d method=%s swaps=%d" % (net.n_positions, net.label, net.total_swaps),
    ]
    for r, round_ in enumerate(net.rounds):
        lines.append("round %d:" % r + " (%d %d)" * len(round_) % tuple(chain.from_iterable(round_)))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> SwapNetwork:
    """Rebuild a SwapNetwork from its emit_text rendering."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != TEXT_FORMAT_LINE:
        raise ValueError("missing format line %r" % TEXT_FORMAT_LINE)
    if len(lines) < 2:
        raise ValueError("missing header line")
    items = [item.split("=", 1) for item in lines[1].split() if "=" in item]
    fields = dict(items)
    if len(fields) != len(items):
        raise ValueError("repeated key in header %r" % lines[1])
    try:
        n_positions = int(fields["N"])
        label = fields["method"]
        declared = int(fields["swaps"])
    except (KeyError, ValueError) as exc:
        raise ValueError("malformed header %r" % lines[1]) from exc
    if n_positions < 0:
        raise ValueError("negative network size N=%d" % n_positions)
    rounds = []
    for line in lines[2:]:
        line = line.strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        if head.split() != ["round", str(len(rounds))]:
            raise ValueError("expected round %d, got %r" % (len(rounds), line))
        swaps = []
        *tokens, tail = body.split(")")
        if tail.strip():
            raise ValueError("unclosed swap %r in round %d" % (tail.strip(), len(rounds)))
        for token in map(str.strip, tokens):
            if not (swap := _SWAP.fullmatch(token)):
                raise ValueError("malformed swap %r" % token)
            i, j = int(swap[1]), int(swap[2])
            if not 0 <= i < j < n_positions:
                raise ValueError("swap (%d %d) out of range in round %d" % (i, j, len(rounds)))
            swaps.append((i, j))
        try:
            Involution.from_pairs(n_positions, swaps)
        except ValueError as exc:
            raise ValueError("round %d has overlapping swaps" % len(rounds)) from exc
        rounds.append(tuple(swaps))
    net = SwapNetwork(n_positions, tuple(rounds), label)
    if net.total_swaps != declared:
        raise ValueError("header declares %d swaps, body has %d" % (declared, net.total_swaps))
    return net


def emit_dot(net: SwapNetwork) -> str:
    """Deterministic DOT rendering of the network.

    Each position is a horizontal rail of nodes p<pos>_r<round>, one
    column per round boundary.  Input labels sit on the right column,
    the ending position of each element on the left, and every swap is
    exactly one bold edge between its two rails; rails are dotted.
    """
    cols = len(net.rounds) + 1
    origin = list(range(net.n_positions))
    apply_network(origin, net)
    out = [
        'graph "%s" {' % net.label,
        "  rankdir=RL;",
        "  node [shape=plaintext, fontsize=10];",
    ]
    for c in range(cols):
        row = ["  { rank=same;"]
        for pos in range(net.n_positions):
            if c == 0:
                row.append(' p%d_r%d [label="%d"];' % (pos, c, pos))
            elif c == cols - 1:
                row.append(' p%d_r%d [label="%d"];' % (pos, c, origin[pos]))
            else:
                row.append(" p%d_r%d [shape=point];" % (pos, c))
        row.append(" }")
        out.append("".join(row))
    for pos in range(net.n_positions):
        for c in range(cols - 1):
            out.append("  p%d_r%d -- p%d_r%d [style=dotted];" % (pos, c, pos, c + 1))
    for r, round_ in enumerate(net.rounds):
        for i, j in round_:
            out.append("  p%d_r%d -- p%d_r%d [style=bold];" % (i, r, j, r))
    out.append("}")
    return "\n".join(out) + "\n"
