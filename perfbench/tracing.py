"""Spans around calls into shuffleworks, recorded from the benchmark side.

The tracer replaces the public names that ``cli``, ``recordfile`` and
``shuffle_bitrev`` look up at call time with wrappers, for the length of
one traced operation, and puts the originals back afterwards.  Untraced
operations therefore run the package exactly as shipped.

Each span has a name, a start and end time, the index of its parent span
and the operation it belongs to.  When ``tracemalloc`` is tracing, a span
also records its scratch: the peak of traced memory during the span minus
the traced memory at its start.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from shuffleworks import cli, recordfile, shuffle_bitrev


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    scratch: int | None = None  # bytes, only when tracemalloc was tracing
    base: int = field(default=0, repr=False)
    peak: int = field(default=0, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "scratch_bytes": self.scratch,
        }


class Tracer:
    """In-memory span recorder plus the counts seen at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        tracing = tracemalloc.is_tracing()
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.op, parent, 0.0)
        if tracing:
            # Peaks of nested spans are kept by hand: reset_peak() restarts
            # the interpreter's single peak, so a parent records what it saw
            # before each child resets it, and takes the child's peak after.
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent].peak = max(self.spans[parent].peak, peak)
            tracemalloc.reset_peak()
            s.base = s.peak = current
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if tracing:
                s.peak = max(s.peak, tracemalloc.get_traced_memory()[1])
                s.scratch = s.peak - s.base
                if parent is not None:
                    self.spans[parent].peak = max(self.spans[parent].peak, s.peak)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(result, *args)
            return result

        return traced

    def _patches(self):
        """(owner, attribute, span name, on_return) for every traced call site."""
        count = self.count

        def round_name(array, t, spec, *rest):
            return "shuffle_bitrev.round0" if t == spec.n - 1 else "shuffle_bitrev.round1"

        def round_swaps(swaps, array, t, spec, *rest):
            count(round_name(array, t, spec) + "_swaps", swaps)

        def general_name(array, *rest):
            return "shuffle_bitrev.general_k2" if isinstance(array, np.ndarray) else "shuffle_bitrev.scalar"

        def general_stats(stats, *rest):
            count("shuffle_bitrev.general_swaps", stats.swaps)
            count("shuffle_bitrev.general_moved", stats.moved)

        def modinv_counter(_, array, k, counter=None, *rest):
            count("shuffle_modinv.euclid_iters", counter.euclid_iterations)
            count("shuffle_modinv.gcd_calls", counter.gcd_calls)
            count("shuffle_modinv.swaps", counter.swaps)

        return [
            (recordfile, "open_records_inplace", "recordfile.open", None),
            (recordfile, "parse_record_file", "recordfile.parse", None),
            (recordfile.RecordFile, "to_bytes", "recordfile.write", None),
            (np.memmap, "flush", "recordfile.flush", None),
            (cli, "shuffle_power", "shuffle_bitrev.shuffle_power", None),
            (shuffle_bitrev, "shuffle_power", "shuffle_bitrev.shuffle_power", None),
            (shuffle_bitrev, "revswap_round", round_name, round_swaps),
            (cli, "shuffle_general_k2", general_name, general_stats),
            (shuffle_bitrev, "rotate_left", "shuffle_bitrev.rotate",
             lambda moved, *a: count("shuffle_bitrev.rotate_moved", moved)),
            (cli, "shuffle_modinv", "shuffle_modinv.shuffle", modinv_counter),
            (cli, "build_network", "network.build",
             lambda net, *a: count("network.swaps", net.total_swaps)),
            (cli, "emit_text", "network.emit",
             lambda text, *a: count("network.text_bytes", len(text.encode()))),
        ]

    @contextmanager
    def operation(self):
        """Trace one operation: install the wrappers, open its root span, restore."""
        self.op += 1
        self.counts = {}
        saved = []
        try:
            for owner, attr, name, on_return in self._patches():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, on_return))
            with self.span("cli.main") as root:
                yield root
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

