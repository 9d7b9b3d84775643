"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload jet-deep --seeds 1-10 [--trace 0] [--out FILE]

For every metric it prints the median of the per-run values, the
interquartile range (statistics.quantiles, n=4) as a share of the median,
and the metric's bound from BENCHMARK.json.  Runs are made one after
another with the run_seconds of BENCHMARK.json.  --out writes the values
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid if mid else 0.0
        summary[name] = {"median": mid, "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"  {name:32s} median {mid:.6g}  spread {spread:.4f}  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                              "trace": args.trace, "summary": summary,
                                              "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
