"""drg benchmark: one workload, closed loop, one caller, one thread.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; drg is imported from ./src.
Workloads (see workloads.py for why each was chosen):

  array-sweep      array text -> parse, validate, derive, profile, proofs
  oracle-registry  explicit graphs -> construct, verify_drg, exact solver
  cli-session      a seeded mix of `drg` commands through drg.cli.main

Inputs are generated from --seed before timing starts.  Operations run
back to back in whole passes over the workload's inputs until --seconds
have passed and the tail percentile has at least 10 samples beyond it.
Every result is checked against an independent reference (reference.py);
a wrong result, wrong exit code or unexpected exception is a failed
operation.

Times are reported at reference speed (speed.py): each operation's time
is scaled by how fast a fixed probe kernel ran around it, because a
shared machine can run at half speed for longer than a run.  Each
operation then counts with its median over the passes.

--trace 0 prints the end-to-end metrics:
  setup_s         median, over fresh interpreters spread across the run,
                  of `import drg` plus the first catalog_list(), which
                  every CLI invocation pays
  ops_per_s       completed operations per second of operation time
  latency_p50_ms  median operation latency
  latency_tail_ms latency at the workload's tail percentile (nearest rank)
  success_ratio   completed / attempted (fail_ratio = 1 - success_ratio)
  peak_rss_mb     peak resident set size of the benchmark process after
                  the first pass (later passes repeat the same work, while
                  the benchmark's own per-op records keep growing)

--trace 1 then repeats as many passes with every layer function wrapped
(tracing.py) and prints per-layer metrics, each per pass over the
workload's inputs: busy and self seconds per layer, exact counts, and
the tracing overhead against the untraced passes.  Spans are written to
benchmark/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from speed import REFERENCE_PROBE_S, Speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_RUNS = 9
TAIL_MIN_BEYOND = 10

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import drg
drg.catalog_list()
t1 = time.perf_counter()
if not drg.__file__.startswith(sys.argv[1]):
    raise SystemExit("drg imported from " + drg.__file__)
sys.path.insert(0, sys.argv[2])
from speed import probe_seconds
print(repr(t1 - t0), repr(probe_seconds()))
"""


def load_drg():
    """Import drg from ./src of this checkout, never from anywhere else."""
    if not (SRC / "drg" / "__init__.py").is_file():
        raise SystemExit(f"error: no drg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import drg
    import drg.cli  # noqa: F401  (imported so the traced run can wrap it)

    if Path(drg.__file__).resolve().parent != SRC / "drg":
        raise SystemExit(f"error: drg imported from {drg.__file__}, not {SRC}")
    return drg


class SetupProbe:
    """Seconds for `import drg` + catalog_list() in a fresh interpreter.

    The interpreter also times the speed probe, right after, so the set-up
    time is scaled by the speed of the same process on the same core.
    Probes are spread over the run (see measure); the first, which also
    compiles the bytecode, is not counted.
    """

    def __init__(self) -> None:
        self.env = {k: v for k, v in os.environ.items() if k != "DRG_CATALOG"}
        self.times: list[float] = []
        self.last = 0.0
        self._probe()

    def _probe(self) -> float:
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, env=self.env, timeout=60, check=True,
        )
        self.last = time.perf_counter()
        seconds, probe = map(float, done.stdout.split())
        return seconds * REFERENCE_PROBE_S / probe

    def sample(self) -> None:
        self.times.append(self._probe())


def beyond(n: int, pct: float) -> int:
    """Samples above the nearest-rank percentile."""
    return n - math.ceil(pct / 100 * n)


def percentile(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


@dataclass
class Segment:
    speed: Speed
    # each op's start and end, pass after pass
    starts: array = field(default_factory=lambda: array("q"))
    ends: array = field(default_factory=lambda: array("q"))
    peak_rss_mb: float = 0.0  # after the first pass
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    passes: int = 0
    ops_per_pass: int = 0

    def scales(self) -> list[float]:
        return [self.speed.scale(t0, t1) for t0, t1 in zip(self.starts, self.ends)]

    def op_seconds(self) -> list[float]:
        """Each op's median, over the passes, of its time at reference speed."""
        k = self.ops_per_pass
        scaled = [
            self.speed.clean_ns(t0, t1) * f / 1e9
            for t0, t1, f in zip(self.starts, self.ends, self.scales())
        ]
        return [statistics.median(scaled[i::k]) for i in range(k)]


def measure(workload, seconds: float, speed: Speed, passes: int | None = None,
            tracer=None, setup: SetupProbe | None = None) -> Segment:
    """Whole passes until `seconds` and the tail sample count are reached, or `passes`.

    With `setup`, a set-up probe runs between passes every
    seconds / SETUP_RUNS, and after the last pass until there are SETUP_RUNS.
    """

    def sample_setup() -> None:
        speed.pause()
        setup.sample()
        speed.resume()

    seg = Segment(speed)
    clock = time.perf_counter_ns
    gc.collect()
    started = time.perf_counter()
    while True:
        items = workload.pass_items(seg.passes)
        seg.ops_per_pass = len(items)
        if tracer is not None:
            tracer.start_pass()
        for item in items:
            if tracer is not None:
                tracer.op = len(seg.starts)
            t0 = clock()
            try:
                result = workload.run(item)
                error = None
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                t1 = clock()
                error = f"{type(exc).__name__}: {exc}"
            else:
                t1 = clock()
                error = workload.check(item, result)
                if tracer is not None:
                    for name, value in workload.op_counts(result).items():
                        tracer.add(name, value)
            seg.starts.append(t0)
            seg.ends.append(t1)
            if error is not None:
                seg.failed += 1
                if len(seg.errors) < 10:
                    seg.errors.append(error)
        seg.passes += 1
        if seg.passes == 1:
            seg.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if setup is not None and time.perf_counter() - setup.last >= seconds / SETUP_RUNS:
            sample_setup()
        if passes is not None:
            if seg.passes >= passes:
                break
        elif (
            time.perf_counter() - started >= seconds
            and beyond(len(seg.starts), workload.tail_pct) >= TAIL_MIN_BEYOND
        ):
            break
    while setup is not None and len(setup.times) < SETUP_RUNS:
        sample_setup()
    return seg


def end_to_end(seg: Segment, tail_pct: float, setup_times: list[float]) -> dict:
    """Times are at reference speed (see Speed); each execution of an op
    counts with its op's median over the passes."""
    lat = sorted(seg.op_seconds() * seg.passes)
    attempted = len(lat)
    completed = attempted - seg.failed
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (completed / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, tail_pct) * 1e3, "ms"),
        "success_ratio": (completed / attempted, "ratio"),
        "peak_rss_mb": (seg.peak_rss_mb, "MB"),
    }


# per-layer metrics, each per pass over the workload's inputs
BUSY = ("arrays.parse_array", "arrays.validate", "arrays.derive",
        "potentials.compute_profile", "proofs.prove_k3", "proofs.prove_optimal",
        "catalog.catalog_list", "catalog.lookup", "graphs.construct",
        "graphs.verify_drg", "graphs.parse_edge_list", "linalg.invert")
SELF = ("oracle.cross_validate", "oracle.resistance_matrix", "cli.main")
COUNTS = {"proofs.trace_steps": "count", "oracle.pairs_checked": "count",
          "oracle.pairs_total": "count", "linalg.ops_computed": "count",
          "linalg.result_bits_max": "bits", "cli.stdout_bytes": "bytes"}
EXACT = tuple(COUNTS)[:5]  # must repeat exactly across passes and runs at one seed


def per_layer(tracer, traced: Segment, untraced: Segment) -> tuple[dict, dict]:
    """Per-pass layer metrics, and the layer rows for the table."""
    layers = tracer.layers(traced.ops_per_pass, traced.scales(), traced.speed.clean_ns)
    counts = tracer.pass_counts[0]
    metrics = {}
    for name in BUSY:
        metrics[f"{name}.busy_s"] = (layers[name][1], "s")
    for name in SELF:
        metrics[f"{name}.self_s"] = (layers[name][2], "s")
    metrics["catalog.catalog_list.calls"] = (layers["catalog.catalog_list"][0], "count")
    for name, unit in COUNTS.items():
        metrics[name] = (counts[name], unit)
    total = counts["oracle.pairs_total"]
    metrics["oracle.pair_use_ratio"] = (counts["oracle.pairs_checked"] / total if total else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (sum(traced.op_seconds()) / sum(untraced.op_seconds()), "ratio")
    return metrics, layers


def print_layer_table(workload, layers: dict, traced: Segment, absent: list[str]) -> None:
    op_s = sum(traced.op_seconds())
    print(f"layer table: {workload.name}, traced, per pass of {traced.ops_per_pass} ops "
          f"(median of {traced.passes} passes per op, reference speed)")
    print(f"  {'span':28} {'calls':>9} {'busy_ms':>11} {'self_ms':>11} {'share':>7}")
    attributed = 0.0
    for name, (calls, busy, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        if not calls:
            continue
        attributed += self_s
        print(f"  {name:28} {calls:9g} {busy * 1e3:11.3f} {self_s * 1e3:11.3f} {self_s / op_s:7.1%}")
    rest = op_s - attributed
    print(f"  {'(unattributed)':28} {'':9} {'':11} {rest * 1e3:11.3f} {rest / op_s:7.1%}")
    print(f"  {'op time':28} {'':9} {'':11} {op_s * 1e3:11.3f} {1:7.1%}")
    print(f"  absent spans: {', '.join(absent) if absent else 'none'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    drg = load_drg()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    os.environ.pop("DRG_CATALOG", None)
    setup = SetupProbe()

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir, Speed() as speed:
        # relative, so that paths echoed in CLI output are the same in every checkout
        workload = WORKLOADS[args.workload](drg, args.seed, Path(os.path.relpath(workdir)))
        untraced = measure(workload, args.seconds, speed, setup=setup)
        segments = [untraced]
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds, speed, passes=untraced.passes, tracer=tracer)
            finally:
                tracer.uninstall()
            segments.append(traced)

    attempted = sum(len(s.starts) for s in segments)
    failed = sum(s.failed for s in segments)
    correct = failed == 0
    for seg in segments:
        for error in seg.errors:
            print(f"FAILED: {error}", file=sys.stderr)

    print(f"drg benchmark: workload={workload.name} seed={args.seed} "
          "closed loop, 1 caller, 1 thread")
    n_ops = len(untraced.starts)
    context = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": untraced.passes,
        "ops_per_pass": untraced.ops_per_pass,
        "samples": n_ops,
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": beyond(n_ops, workload.tail_pct),
        "setup_runs": SETUP_RUNS,
        "speed_probe_ms": {
            "reference": REFERENCE_PROBE_S * 1e3,
            "median": statistics.median(speed.probe_ns()) / 1e6,
        },
        "inputs": workload.context(),
    }
    print("context: " + json.dumps(context))
    metrics = end_to_end(untraced, workload.tail_pct, setup.times)
    print(f"  {'metric':18} {'value':>14}  unit")
    for name, (value, unit) in metrics.items():
        print(f"  {name:18} {value:14.6g}  {unit}")
    print(f"  {'fail_ratio':18} {untraced.failed / n_ops:14.6g}  ratio")

    if args.trace:
        metrics, layers = per_layer(tracer, traced, untraced)
        print_layer_table(workload, layers, traced, tracer.absent)
        print(f"  tracing overhead: traced / untraced op time = {metrics['trace.overhead_ratio'][0]:.3f}")
        repeat = [{k: c[k] for k in EXACT} for c in tracer.pass_counts]
        if any(r != repeat[0] for r in repeat):
            print("FAILED: exact counts differ between passes", file=sys.stderr)
            correct = False
        print("  exact counts per pass: " + json.dumps(repeat[0]))
        tracer.write(HERE / "out" / f"spans-{workload.name}-seed{args.seed}.tsv")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
