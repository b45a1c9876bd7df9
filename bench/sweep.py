"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workloads atomic_mc,cli_mixed --seeds 1-10 --trace 0 --out runs.json

For each workload and end-to-end (or, with --trace 1, per-layer) metric it
prints the median, the quartiles from `statistics.quantiles(values, n=4)` and
their distance as a share of the median, next to the bound in BENCHMARK.json.
Runs are sequential: the benchmark is meant to have the machine to itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list[dict], bounds: dict) -> dict:
    names = sorted({name for run in runs for name in run["metrics"]})
    out = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "bound": bounds.get(name),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="a seed or an inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file for every run and the summary")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            run = json.loads(lines[-1])
            run.update(seed=seed, wall_s=time.perf_counter() - start, summary=lines[-2])
            runs.append(run)
            print(f"{workload} seed={seed} correct={run['correct']} wall={run['wall_s']:.1f}s", flush=True)
        summary = summarise(runs, bounds)
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f" bound={s['bound']}"
            print(f"  {workload:14s} {name:28s} median={s['median']:.6g} spread={s['spread']:.4f}{bound}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
