"""Benchmark of the meandro toolkit: end-to-end and per-layer metrics.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ./src):

    python3 bench/run.py --workload eval-grid --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): eval-grid, jet-deep, residual-scan.  One client
runs the workload's operations one after another (closed loop): each
operation is a meandro CLI command invoked in this process, or a direct
library call where no command exists.  MEANDRO_THREADS is cleared, so the CLI
runs at its default thread count.  Passes over the operations repeat at
least three times and for about --seconds (a pass starts only if half of it
fits); times are medians over passes.
Every result of every pass is checked against an oracle (oracles.py).

--trace 0 reports the end-to-end metrics:
  pass_ref_s   wall time of one pass over the timed operations, rescaled to
               a reference host speed (see below)
  setup_s      median time for a fresh interpreter to import meandro.cli and
               generate the workload's inputs (9 interpreters per run)
  peak_rss_mb  peak resident memory of the benchmark process
and prints, in the report above the result line, the raw wall time of a pass
(pass_s), the time of each command (eval_s ... curve_s), lib_s for direct
library calls, and ops_failed_frac and oracle_miss_frac over one pass plus
the untimed probes.

Host speed.  On a shared host the speed of one core drifts by 20-30% over
tens of seconds, with no change to the program.  So each pass is cut into
segments of at least CAL_EVERY_S of operation time, and a fixed pure-Python
reference loop is timed before the first segment and after each one.  A
segment's wall time is scaled by CAL_REF_S over the mean of the two loop
times around it, and pass_ref_s is the sum over segments: the pass's wall
time on a host where the reference loop takes CAL_REF_S.  The loop time is
not counted in any metric.  Its median goes into the environment record as
host_loop_ms, so that a reader can tell a slow host from a slow program.

--trace 1 reports the per-layer metrics (tracer.py).  It alternates three
passes: untraced at the default thread count (per-command times and
cli.pool_cpu_ratio), untraced with MEANDRO_THREADS=1, and traced with
MEANDRO_THREADS=1.  The traced passes run on one thread so that every counter
is a function of the inputs alone; pool threads race to fill the same q-log
caches.  trace.overhead_s is traced minus untraced single-thread pass time.

The last line of stdout is the JSON result {"correct", "attempted", "failed",
"metrics"}.  A record with the environment, every metric, the probe verdicts
and, for traced runs, the spans of the last traced pass is written to
.bench_out/.  The exit code is 2 when the meandro sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 9
MIN_PASSES = 3
#: Operation time between two timings of the reference loop.
CAL_EVERY_S = 0.4
#: Iterations of the reference loop and its nominal time: about 44 ms on one
#: core of a 2-vCPU Intel Xeon VM.
CAL_LOOP = 600_000
CAL_REF_S = 0.044

import workloads  # noqa: E402  (bench/ is on sys.path as the script directory)


def import_program():
    """Import meandro.cli from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import meandro.cli
    except ImportError as exc:
        print(f"cannot import meandro from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(meandro.cli.__file__).resolve().is_relative_to(src):
        print(f"meandro was imported from {meandro.cli.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return meandro.cli


@dataclass
class PassResult:
    seconds: float  # wall time of the operations
    ref_seconds: float  # the same, rescaled to the reference host speed
    loops: list[float]  # times of the reference loop around the segments
    by_metric: dict[str, float]
    verdicts: list[workloads.Verdict]


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now."""
    t0, acc = time.perf_counter(), 0
    for i in range(CAL_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def run_pass(ops: list[workloads.Op], tracer=None) -> PassResult:
    """One closed-loop pass; results are checked after the clock stops."""
    by_metric: dict[str, float] = defaultdict(float)
    outcomes = []
    loops = [reference_loop()]
    seconds = ref_seconds = segment = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op("lib" if op.metric == "lib_s" else "cli." + op.metric[:-2])
        t0 = time.perf_counter()
        outcomes.append(op.run())
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        by_metric[op.metric] += dt
        segment += dt
        if segment >= CAL_EVERY_S or i == len(ops) - 1:
            loops.append(reference_loop())
            seconds += segment
            ref_seconds += segment * CAL_REF_S / ((loops[-2] + loops[-1]) / 2)
            segment = 0.0
    return PassResult(seconds, ref_seconds, loops, dict(by_metric),
                      [op.check(o) for op, o in zip(ops, outcomes)])


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of fresh interpreters importing meandro.cli and building inputs."""
    env = {k: v for k, v in os.environ.items() if k != "MEANDRO_THREADS"}
    times = []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--setup-only", str(workdir / f"setup-{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


@dataclass
class Tally:
    """Operations attempted, failed and checked across passes and probes."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    misses: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, names: list[str], verdicts: list[workloads.Verdict]) -> None:
        for name, v in zip(names, verdicts):
            self.attempted += 1
            self.failed += v.failed
            self.checked += v.checked
            self.misses += v.misses
            if v.failed or v.misses:
                what = "failed" if v.failed else f"{v.misses} of {v.checked} missed"
                self.notes.append(f"{name}: {what} {v.note}".rstrip())


def correctness(wl: workloads.Workload, passes: list[PassResult], probes: list[workloads.Verdict]):
    """(tally of every timed pass, failed and miss fractions of one pass plus the probes)."""
    names = [op.name for op in wl.ops]
    timed = Tally()
    for p in passes:
        timed.add(names, p.verdicts)
    worst = max(passes, key=lambda p: (sum(v.failed for v in p.verdicts), sum(v.misses for v in p.verdicts)))
    one = Tally()
    one.add(names, worst.verdicts)
    one.add([op.name for op in wl.probes], probes)
    fracs = {"ops_failed_frac": one.failed / one.attempted,
             "oracle_miss_frac": one.misses / one.checked if one.checked else 0.0}
    return timed, fracs, one.notes


def command_times(passes: list[PassResult]) -> dict[str, float]:
    return {m: statistics.median([p.by_metric.get(m, 0.0) for p in passes])
            for m in (*workloads.COMMAND_METRICS, "lib_s")}


def timed_run(wl: workloads.Workload, seconds: float) -> tuple[list[PassResult], dict]:
    """Passes until --seconds is used up; the last one starts only if half of it fits."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start + passes[-1].seconds / 2 < seconds:
        passes.append(run_pass(wl.ops))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"pass_ref_s": statistics.median([p.ref_seconds for p in passes]),
               "pass_s": statistics.median([p.seconds for p in passes]),
               "peak_rss_mb": rss_mb}
    return passes, metrics


def traced_run(wl: workloads.Workload, seconds: float) -> tuple[list[PassResult], dict, dict]:
    from tracer import PoolClock, Tracer, layer_metrics

    counts: dict[str, int] = defaultdict(int)
    for op in wl.ops:
        for k, v in op.counts.items():
            counts[k] += v
    pool = PoolClock()
    default, single, traced, layers = [], [], [], []
    tracer = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        pool.install()
        try:
            default.append(run_pass(wl.ops))
        finally:
            pool.uninstall()
        os.environ["MEANDRO_THREADS"] = "1"
        try:
            single.append(run_pass(wl.ops))
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_pass(wl.ops, tracer))
            finally:
                tracer.uninstall()
        finally:
            del os.environ["MEANDRO_THREADS"]
        layers.append(layer_metrics(tracer.spans, counts))

    per_layer = {}
    repeat = True
    for name, first in layers[0].items():
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            per_layer[name] = statistics.median(values)
        else:
            per_layer[name] = first
            repeat = repeat and all(v == first for v in values)
    per_layer["cli.pool_cpu_ratio"] = pool.cpu / pool.wall if pool.wall > 0 else 0.0
    per_layer["trace.overhead_s"] = (statistics.median([p.seconds for p in traced])
                                     - statistics.median([p.seconds for p in single]))
    per_layer["pass_s"] = statistics.median([p.seconds for p in default])
    per_layer.update(command_times(default))
    info = {"counters_repeat": repeat, "traced_passes": len(traced), "unpatched": tracer.missing,
            "spans": [s.as_dict() for s in tracer.spans]}
    return default + single + traced, per_layer, info


def environment(cli) -> dict:
    import numpy

    thread_count = getattr(cli, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cli_threads": thread_count() if thread_count else 1,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    if args.setup_only:
        workloads.build(args.workload, args.seed, args.setup_only)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    os.environ.pop("MEANDRO_THREADS", None)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = {} if args.trace else {"setup_s": measure_setup(args.workload, args.seed, workdir)}
        wl = workloads.build(args.workload, args.seed, str(workdir / "run"))
        env = environment(cli)
        if args.trace:
            passes, metrics, info = traced_run(wl, seconds)
        else:
            passes, metrics = timed_run(wl, seconds)
            info = {}
        env["host_loop_ms"] = 1000.0 * statistics.median([t for p in passes for t in p.loops])
        probe_verdicts = [op.check(op.run()) for op in wl.probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    timed, fracs, notes = correctness(wl, passes, probe_verdicts)
    report = {**metrics, **setup}
    if args.trace:
        report.update(fracs)
    else:
        report.update(command_times(passes), **fracs)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"meandro benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(passes)} passes")
    print("environment: " + json.dumps(env))
    for name, value in report.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for line in notes:
        print("  check: " + line)
    if info.get("unpatched"):
        print("  tracer could not patch: " + ", ".join(info["unpatched"]))

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
              "metrics": report, "pass_seconds": [p.seconds for p in passes],
              "pass_ref_seconds": [p.ref_seconds for p in passes], "checks": notes, **info}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": timed.failed == 0 and timed.misses == 0,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {name: {"value": report[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
