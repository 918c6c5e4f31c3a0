#!/usr/bin/env python3
"""Self-test of the benchmark at small sizes; a few seconds in all.

    python3 perfbench/selftest.py

Checks that every workload passes its oracle check and emits exactly the
metrics BENCHMARK.json lists, with their units; that a deliberately
corrupted output, or a wrong count, is counted as a failed operation; and
that the counts repeat exactly, and the scratch figures closely, at a
fixed seed.
"""

from __future__ import annotations

import json
import sys

import run

SECONDS = 0.05
# The metrics the benchmark promises, with their units.
NAMED_END_TO_END = {"op_s": "s", "peak_scratch_mib": "MiB", "setup_s": "s"}
NAMED_PER_LAYER = {
    **{"recordfile.%s_s" % p: "s" for p in ("open", "flush", "parse", "write")},
    "recordfile.scratch_mib": "MiB",
    **{"shuffle_bitrev.round%d_%s" % (r, m): u for r in (0, 1)
       for m, u in (("s", "s"), ("scratch_mib", "MiB"), ("swaps", "count"))},
    "shuffle_bitrev.bytes_moved": "B-computed",
    "shuffle_bitrev.gbps": "GB/s-computed",
    "shuffle_bitrev.rotate_s": "s",
    "shuffle_bitrev.rotate_moved": "count",
    "shuffle_bitrev.scalar_s": "s",
    "shuffle_bitrev.scalar_counter_s": "s",
    "shuffle_modinv.pairgen_s": "s",
    "shuffle_modinv.shuffle_s": "s",
    **{"shuffle_modinv." + c: "count" for c in ("euclid_iters", "gcd_calls", "swaps")},
    "network.build_s": "s",
    "network.emit_s": "s",
    "network.scratch_mib": "MiB",
    "network.swaps": "count",
    "network.text_bytes": "B",
    "cli.self_s": "s",
    "oracle.copy_s": "s",
    "oracle.ratio": "ratio",
    "trace.overhead_frac": "fraction",
}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def values(result: dict, kinds: tuple[str, ...]) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in kinds}


def repeats(a: dict, b: dict) -> bool:
    """Counts repeat exactly.  Scratch repeats to within 4 KiB: numpy buffers
    are exact, but the interpreter's own bookkeeping (argparse, caches) moves
    the tracemalloc peak by a few hundred bytes between runs."""
    counts = ("count", "B", "B-computed")
    near = all(abs(x - y) <= 4 / 1024 for x, y in zip(values(a, ("MiB",)).values(),
                                                       values(b, ("MiB",)).values()))
    return values(a, counts) == values(b, counts) and near


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)
            print("FAIL " + what, file=sys.stderr)

    import_s = run.import_package()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = run.declared_metrics("end_to_end"), run.declared_metrics("per_layer")
    # BENCHMARK.json lists the workloads the run budget allows; all of them run here.
    expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
           "BENCHMARK.json lists an unknown workload")
    expect(end_to_end == NAMED_END_TO_END, "end-to-end metrics in BENCHMARK.json")
    expect(NAMED_PER_LAYER.items() <= per_layer.items(), "per-layer metrics in BENCHMARK.json")

    print("selftest: injected faults below report FAIL on purpose", file=sys.stderr)
    for name in WORKLOADS:
        plain = run.measure(name, 3, SECONDS, False, import_s, small=True)
        expect(plain["correct"] and plain["failed"] == 0, "%s fails untraced" % name)
        expect(units(plain) == end_to_end, "%s end-to-end metrics or units" % name)
        expect(all(m["value"] > 0 for m in plain["metrics"].values()), "%s reads 0" % name)
        expect(plain["failed_frac"] == 0, "%s failed_frac" % name)

        traced = run.measure(name, 3, SECONDS, True, import_s, small=True)
        expect(traced["correct"] and traced["failed"] == 0, "%s fails traced" % name)
        expect(units(traced) == per_layer, "%s per-layer metrics or units" % name)
        again = run.measure(name, 3, SECONDS, True, import_s, small=True)
        expect(repeats(again, traced), "%s counts or scratch do not repeat" % name)

        # The first timed operation follows the warm-ups and the scratch operation.
        faulty = run.measure(name, 3, SECONDS, False, import_s, small=True,
                             fault_at=run.SETUP_REPEATS + 1)
        expect(not faulty["correct"] and faulty["failed"] == 1,
               "%s corrupted output not counted: %d failed" % (name, faulty["failed"]))

    pow2 = WORKLOADS["rec-pow2-inplace"]
    closed_form = pow2.expected_counts
    pow2.expected_counts = lambda self: {k: v + 1 for k, v in closed_form(self).items()}
    try:
        wrong = run.measure(pow2.name, 3, SECONDS, True, import_s, small=True)
    finally:
        pow2.expected_counts = closed_form
    expect(not wrong["correct"] and wrong["failed"] > 0, "a wrong swap count is not counted")

    print("selftest: %d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
