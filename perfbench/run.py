#!/usr/bin/env python3
"""Benchmark of the shuffleworks command line, end to end and layer by layer.

    python3 perfbench/run.py --workload rec-pow2-inplace --seed 1 --seconds 25 --trace 0

Load model: closed loop, one client.  A single process with no threads
calls ``cli.main`` for one operation at a time, checks the output against
the oracle outside the timed region, and repeats until ``--seconds`` have
passed.  The package is imported from ``src/`` of the checkout this file
sits in.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (median time of
one operation), ``peak_scratch_mib`` (tracemalloc peak of one separate
operation) and ``setup_s`` (import, input generation and the warm-up
operation; the median of several set-ups).  Both times are wall times
scaled to a steady machine speed by a reference task timed on either
side (see ``reference.py``); the unscaled median is printed as
``op_wall_s``.  ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics, which are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failed
operation or count mismatch makes the exit code 1; the metrics are still
printed.  The full result, with the environment block and every span, is
also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "shuffleworks"
RESULTS_DIR = HERE / "results"
WORK_DIR = HERE / "_work"

SETUP_REPEATS = 5
MIN_OPS = 3
ORACLE_REPEATS = 3
MIB = float(1 << 20)

# Spans whose summed duration per operation is a per-layer time metric.
TIMED_SPANS = [
    "recordfile.open", "recordfile.flush", "recordfile.parse", "recordfile.write",
    "shuffle_bitrev.round0", "shuffle_bitrev.round1", "shuffle_bitrev.rotate",
    "shuffle_bitrev.scalar", "shuffle_modinv.shuffle", "network.build", "network.emit",
]
# Per-layer scratch: the largest scratch of any span whose name starts so.
SCRATCH_SPANS = {
    "recordfile.scratch_mib": "recordfile.",
    "shuffle_bitrev.round0_scratch_mib": "shuffle_bitrev.round0",
    "shuffle_bitrev.round1_scratch_mib": "shuffle_bitrev.round1",
    "network.scratch_mib": "network.",
}
# Counts seen at span boundaries that are reported as metrics.
COUNTS = [
    "shuffle_bitrev.round0_swaps", "shuffle_bitrev.round1_swaps", "shuffle_bitrev.rotate_moved",
    "shuffle_modinv.euclid_iters", "shuffle_modinv.gcd_calls", "shuffle_modinv.swaps",
    "network.swaps", "network.text_bytes",
]


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer") from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class PackageMissing(RuntimeError):
    pass


def import_package() -> float:
    """Import shuffleworks from this checkout's src/; return the import's seconds."""
    if not (PACKAGE_DIR / "cli.py").is_file():
        raise PackageMissing("no shuffleworks package at %s" % PACKAGE_DIR)
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    start = time.perf_counter()
    module = importlib.import_module("shuffleworks.cli")
    seconds = time.perf_counter() - start
    if Path(module.__file__).resolve().parent != PACKAGE_DIR:
        raise PackageMissing("shuffleworks was imported from %s" % module.__file__)
    return seconds


class Runner:
    """Runs checked operations of one workload and tallies the failures.

    A failure is a non-zero exit, an exception, an output that differs
    from the oracle, or a count that differs from its closed form.
    """

    def __init__(self, workload, tracer=None, fault_at: int | None = None):
        self.wl = workload
        self.tracer = tracer
        self.fault_at = fault_at  # corrupt this operation's output, to test the check
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.counts: list[dict[str, int]] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAIL %s" % what, file=sys.stderr)

    def operation(self, traced: bool = False, scratch: bool = False) -> tuple[float, float | None]:
        """One checked operation; return its seconds and, if asked, its scratch in MiB."""
        wl = self.wl
        peak = None
        if scratch:
            # Collect first, so that the collector runs at the same points of
            # the operation every time and the peak repeats exactly.
            gc.collect()
            tracemalloc.start()
        try:
            with self.tracer.operation() if traced else nullcontext():
                seconds, ok = wl.operate()
            if scratch:
                peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            if scratch:
                tracemalloc.stop()
        if self.ops == self.fault_at:
            wl.corrupt()
        what = "%s operation %d" % (wl.name, self.ops)
        ok = wl.check() and ok
        if traced:
            counts = dict(self.tracer.counts)
            expected = wl.expected_counts()
            bad = {k: (counts.get(k), v) for k, v in expected.items() if counts.get(k) != v}
            if self.counts and counts != self.counts[0]:
                bad["repeat"] = (counts, self.counts[0])
            if bad:
                what += " counts (seen, expected): %s" % bad
                ok = False
            self.counts.append(counts)
        self.record(ok, what)
        self.ops += 1
        return seconds, peak


def run_plain(runner: Runner, seconds: float, setup_times: list[float], ref) -> tuple[dict, dict]:
    _, peak = runner.operation(scratch=True)
    times, scaled = [], []
    before = ref.seconds()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_OPS:
        times.append(runner.operation()[0])
        after = ref.seconds()
        scaled.append(ref.scale(times[-1], before, after))
        before = after
    return {
        "op_s": statistics.median(scaled),
        "op_wall_s": statistics.median(times),
        "peak_scratch_mib": peak,
        "setup_s": statistics.median(setup_times),
    }, {"op_seconds": times, "op_scaled_seconds": scaled, "setup_seconds": setup_times}


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    wl, tracer = runner.wl, runner.tracer
    metrics = {name: 0.0 for name in declared_metrics("per_layer")}
    extra, ok = wl.extras()
    runner.record(ok, "%s layer extras %s" % (wl.name, sorted(extra)))
    metrics.update(extra)

    first = tracer.op + 1
    runner.operation(traced=True, scratch=True)
    scratch_spans = tracer.op_spans(first)
    for metric, prefix in SCRATCH_SPANS.items():
        found = [s.scratch for s in scratch_spans if s.name.startswith(prefix)]
        metrics[metric] = max(found) / MIB if found else 0.0

    plain, traced, traced_ops = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < MIN_OPS:
        plain.append(runner.operation()[0])
        traced.append(runner.operation(traced=True)[0])
        traced_ops.append(tracer.op)

    per_op = []
    for op in traced_ops:
        spans = tracer.op_spans(op)
        root = spans[0]
        sums = {name: 0.0 for name in TIMED_SPANS}
        children = 0.0
        for s in spans[1:]:
            if s.name in sums:
                sums[s.name] += s.seconds
            if s.parent is not None and tracer.spans[s.parent] is root:
                children += s.seconds
        sums["cli.self"] = root.seconds - children
        sums["cover"] = children / root.seconds
        per_op.append(sums)
    for name in TIMED_SPANS + ["cli.self"]:
        metrics[name + "_s"] = statistics.median([p[name] for p in per_op])
    metrics["trace.cover_frac"] = statistics.median([p["cover"] for p in per_op])

    counts = runner.counts[0]
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    swaps = metrics["shuffle_bitrev.round0_swaps"] + metrics["shuffle_bitrev.round1_swaps"]
    # Computed, not measured: each swap reads and writes two records.
    metrics["shuffle_bitrev.bytes_moved"] = 2 * swaps * wl.record_size
    round_s = metrics["shuffle_bitrev.round0_s"] + metrics["shuffle_bitrev.round1_s"]
    metrics["shuffle_bitrev.gbps"] = metrics["shuffle_bitrev.bytes_moved"] / round_s / 1e9 if round_s else 0.0

    from shuffleworks.oracle import oracle_shuffle

    data = wl.oracle_input()
    oracle_times = []
    for _ in range(ORACLE_REPEATS):
        start = time.perf_counter()
        oracle_shuffle(data, wl.k)
        oracle_times.append(time.perf_counter() - start)
    op_s = statistics.median(plain)
    metrics["oracle.copy_s"] = statistics.median(oracle_times)
    metrics["oracle.ratio"] = op_s / metrics["oracle.copy_s"]
    metrics["trace.overhead_frac"] = (statistics.median(traced) - op_s) / op_s
    return metrics, {
        "op_seconds": plain,
        "traced_op_seconds": traced,
        "oracle_seconds": oracle_times,
        "counts": counts,
        "spans": [s.as_dict() for s in tracer.spans],
    }


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: float,
            small: bool = False, fault_at: int | None = None) -> dict:
    """Run one workload; return the result object with its metrics and environment."""
    from environment import environment
    from reference import Reference
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, small)
    ref = Reference(wl.reference)
    runner = Runner(wl, Tracer() if trace else None, fault_at)
    # A fixed name: the paths reach the CLI's argv, and a random one would
    # change the traced Python allocations from run to run.
    work = WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl.workdir = work
        setup_times = []
        env = None
        for _ in range(1 if trace else SETUP_REPEATS):
            before = ref.seconds()
            start = time.perf_counter()
            path = wl.generate()
            generated = time.perf_counter() - start
            if env is None:
                env = environment(ROOT, seed, wl.describe(), path)
            warm, _ = runner.operation()
            setup_times.append(import_s + ref.scale(generated + warm, before, ref.seconds()))
        if trace:
            metrics, detail = run_traced(runner, seconds)
        else:
            metrics, detail = run_plain(runner, seconds, setup_times, ref)
        detail["reference"] = {"kind": ref.kind, "nominal_s": ref.nominal, "seconds": ref.times}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "op_wall_s": metrics.get("op_wall_s"),
        "metrics": {
            k: {"value": metrics[k], "unit": u}
            for k, u in declared_metrics("per_layer" if trace else "end_to_end").items()
        },
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    from reference import Reference

    # The import is timed once and scaled by the Python reference, which
    # needs nothing the import would bring in.
    python = Reference("python")
    before = python.seconds()
    try:
        import_s = import_package()
    except (PackageMissing, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    import_s = python.scale(import_s, before, python.seconds())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(result, indent=1) + "\n")
    print("environment: " + json.dumps(result["environment"]))
    for name, m in result["metrics"].items():
        print("%-18s %-36s %.6g %s" % (args.workload, name, m["value"], m["unit"]))
    if result["op_wall_s"] is not None:
        print("%-18s %-36s %.6g s (unscaled)" % (args.workload, "op_wall_s", result["op_wall_s"]))
    print("%-18s %-36s %.6g fraction (%d of %d operations)" % (
        args.workload, "failed_frac", result["failed_frac"], result["failed"], result["attempted"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
