"""Explicit swap networks: rounds of disjoint exchanges, rendered as text or DOT.

A network is a tuple of rounds; each round is one (n, 2) array whose
rows are its swaps (i, j), i < j, no position appearing twice, in the
order the text lists them, so every round can execute as fully
independent exchanges.  A row holds its positions in the narrowest
unsigned type narrower than intp that holds N - 1 (row_dtype): uint8
up to N = 256, uint16 up to 2**16, uint32 up to 2**32 on a 64-bit
build, intp past that.  The shuffle constructions emit two-round
networks whose rows are the stacked index chunks of their one pair
source, _revswap_chunks or _modinv_chunks, by ascending i (a modinv
round is sorted); factoring an arbitrary permutation gives two rounds
too, read off the maps of its two involutions.  apply_network runs a
round as one perm_core.swap_chunks call, and emit_text renders it _ROWS
rows at a time as ASCII digits, making no Python int per position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .involution_factor import factor_permutation
from .perm_core import Involution, Permutation, swap_chunks
from .shuffle_bitrev import ShuffleSpec, _revswap_chunks
from .shuffle_modinv import _modinv_chunks

TEXT_FORMAT_LINE = "# shuffleworks-net v1"
_SWAP = re.compile(r"\(\s*([0-9]+)\s+([0-9]+)")  # one swap up to its ")": two unsigned decimal integers
_ROWS = 1 << 12  # rows that emit_text renders, and apply_network swaps, in one step


def row_dtype(n_positions: int) -> np.dtype:
    """The narrowest unsigned type, narrower than intp, that holds 0..n_positions-1; intp when none does.

    Never an unsigned type as wide as intp: np.bincount and numpy's safe
    casts to intp refuse it.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if np.dtype(dtype).itemsize < np.dtype(np.intp).itemsize and n_positions - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.intp)


def min_swap_bytes(n_positions: int) -> int:
    """The least one swap of a network on n_positions positions holds: its row and its text " (i j)"."""
    return 2 * row_dtype(n_positions).itemsize + len(" (0 1)")


def _rows(round_, n_positions: int) -> np.ndarray:
    """A round as an (n, 2) array of its rows (i, j), in row_dtype(n_positions): from any sequence of pairs.

    An array already in that type is kept as it is.  Raises ValueError for a
    position outside 0..n_positions-1, which that type may not hold.
    """
    rows = np.asarray(round_)
    if rows.size == 0:
        rows = rows.reshape(0, 2)
    if rows.ndim != 2 or rows.shape[1] != 2:
        raise ValueError("a round must be a sequence of (i, j) pairs")
    if rows.size and rows.min() < 0:
        raise ValueError("negative position in a swap")
    if rows.size and rows.max() >= n_positions:
        raise ValueError("position %d in a swap is outside 0..%d" % (rows.max(), n_positions - 1))
    return rows.astype(row_dtype(n_positions), copy=False)


@dataclass(frozen=True, eq=False)
class SwapNetwork:
    """Rounds of disjoint swaps on n_positions positions, round 0 first.

    Each round is an (n, 2) array of rows (i, j) in row_dtype(n_positions);
    any other sequence of pairs given for a round is made into one here,
    and a position outside 0..n_positions-1 raises ValueError.  Networks
    are equal when their sizes, labels and rows are.
    """

    n_positions: int
    rounds: tuple[np.ndarray, ...]
    label: str

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(_rows(r, self.n_positions) for r in self.rounds))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SwapNetwork) and (self.n_positions, self.label) == (other.n_positions, other.label)
                and len(self.rounds) == len(other.rounds) and all(map(np.array_equal, self.rounds, other.rounds)))

    @property
    def total_swaps(self) -> int:
        return sum(len(r) for r in self.rounds)


def _stacked(chunks, dtype: np.dtype) -> np.ndarray:
    """One round's rows, in dtype, from its (i, j) index chunks, in their order."""
    parts = []
    for i, j in chunks:
        part = np.empty((len(i), 2), dtype)
        part[:, 0], part[:, 1] = i, j
        parts.append(part)
    return np.concatenate(parts) if parts else np.empty((0, 2), dtype)


def _involution_rows(inv: Involution) -> np.ndarray:
    """The transpositions of inv as rows (i, inv[i]), i < inv[i], i ascending, in row_dtype(inv.size)."""
    m = np.array(inv.map, row_dtype(inv.size))
    i = np.flatnonzero(m > np.arange(inv.size, dtype=m.dtype))
    rows = np.empty((len(i), 2), m.dtype)
    rows[:, 0], rows[:, 1] = i, m[i]
    return rows


def build_network(method: str, target) -> SwapNetwork:
    """Construct the swap network of a shuffle or of a factored permutation.

    method "bitrev" and "modinv" take a ShuffleSpec; "factorization" takes
    a Permutation.  Round 0 is applied first.  The rounds are the
    transpositions of involutions, so they are disjoint by construction;
    only parse_text, which reads outside input, checks that.  SwapNetwork
    checks that every position is in range.
    """
    if method == "factorization":
        if not isinstance(target, Permutation):
            raise ValueError("factorization network needs a Permutation")
        pair = factor_permutation(target)
        return SwapNetwork(target.size, (_involution_rows(pair.t), _involution_rows(pair.s)), method)
    if method not in ("bitrev", "modinv"):
        raise ValueError("unknown network method %r" % method)
    if not isinstance(target, ShuffleSpec):
        raise ValueError("this network method needs a ShuffleSpec")
    dtype = row_dtype(target.N)
    if method == "bitrev":
        if target.n is None or target.n < 1:
            raise ValueError("bitrev network needs N = k**n")
        return SwapNetwork(target.N, tuple(_stacked(_revswap_chunks(t, target), dtype)
                                           for t in (target.n - 1, target.n)), method)
    rounds = (_stacked(_modinv_chunks(r, target), dtype) for r in (1, target.k))  # a lane chunk's mirrors follow it
    return SwapNetwork(target.N, tuple(rows[np.argsort(rows[:, 0])] for rows in rounds), method)


def apply_network(array, net: SwapNetwork) -> None:
    """Execute the network's swaps in round order, one swap_chunks call a round."""
    if len(array) != net.n_positions:
        raise ValueError("array length %d != network size %d" % (len(array), net.n_positions))
    for rows in net.rounds:
        swap_chunks(array, ((rows[b:b + _ROWS, 0], rows[b:b + _ROWS, 1]) for b in range(0, len(rows), _ROWS)))


def network_permutation(net: SwapNetwork) -> Permutation:
    """The permutation the network realises: where each starting position ends."""
    slots = np.arange(net.n_positions)
    apply_network(slots, net)
    where = np.empty_like(slots)
    where[slots] = np.arange(net.n_positions)
    return Permutation(where.tolist(), check=False)


def _swap_text(rows: np.ndarray) -> str:
    """The text " (i j)" of each row, in order, made as ASCII digits in one uint8 matrix.

    Every row is written at the width of the chunk's largest number,
    zero-padded, and one boolean mask then drops the leading zeros.  Each
    digit of i, and of j, is found for all rows at once and written down a
    column of the matrix.
    """
    n, width = len(rows), len(str(int(rows.max())))
    text = np.empty((n, 2 * width + 4), np.uint8)
    keep = np.ones(text.shape, bool)
    text[:, 0], text[:, 1], text[:, width + 2], text[:, -1] = ord(" "), ord("("), ord(" "), ord(")")
    rest = np.array(rows.T, np.uint32 if width < 10 else np.uint64)  # i, then j, each contiguous
    quot, digit = np.empty_like(rest), np.empty_like(rest)
    for c in reversed(range(width)):  # rest is each number over 10**(width-1-c)
        np.floor_divide(rest, 10, out=quot)
        np.multiply(quot, 10, out=digit)
        np.subtract(rest, digit, out=digit)
        digit += ord("0")
        for f, start in enumerate((2, width + 3)):  # where the digits of i and of j start in a row
            text[:, start + c] = digit[f]
            if c:  # digit c-1 is a leading 0 unless the number over 10**(width-c) is not 0
                np.greater(quot[f], 0, out=keep[:, start + c - 1])
        rest, quot = quot, rest
    return text[keep].tobytes().decode("ascii")


def emit_text(net: SwapNetwork) -> str:
    """Versioned plain-text rendering; parse_text inverts it exactly."""
    parts = [TEXT_FORMAT_LINE, "\nN=%d method=%s swaps=%d" % (net.n_positions, net.label, net.total_swaps)]
    for r, rows in enumerate(net.rounds):
        parts.append("\nround %d:" % r)
        parts.extend(_swap_text(rows[b:b + _ROWS]) for b in range(0, len(rows), _ROWS))
    parts.append("\n")
    return "".join(parts)


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
        rows = _rows(swaps, n_positions)
        if (np.bincount(rows.ravel()) > 1).any():
            raise ValueError("round %d has overlapping swaps" % len(rounds))
        rounds.append(rows)
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
    origin = np.arange(net.n_positions)
    apply_network(origin, net)
    origin = origin.tolist()
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
    for r, rows in enumerate(net.rounds):
        for i, j in rows.tolist():
            out.append("  p%d_r%d -- p%d_r%d [style=bold];" % (i, r, j, r))
    out.append("}")
    return "\n".join(out) + "\n"
