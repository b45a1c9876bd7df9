"""The revcurve benchmark: one workload per run, its seed as an argument.

    python3 bench/run.py --workload atomic_mc --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src`, never from an installed copy.  Each workload is a closed
loop of operations from one process (see workloads.py): rounds of operations
repeat, each round with its own seed derived from --seed, until --seconds
have passed.  Outputs are checked in the untimed part of the run (checks.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split from a
separate traced run (tracing.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; lines before it starting
with '#' are a readable summary.  Scratch files go under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_LAUNCHES = 7  # at least; one more after every round spreads them over the run


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process multiprocessing starts beside a spawn pool."""
    tracker_mod = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker_mod, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_inprocess(workload, seed: int, seconds: float) -> dict:
    """Library calls with workers=1: every grid point is one operation."""
    import checks
    import ops

    inputs = ops.Inputs.parse(workload)
    reference = checks.load_reference()
    walls = {"light": [], "heavy": [], "adversary": []}
    results, failures, setups = [], [], []
    trials = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        s = ops.op_seed(seed, rounds)
        for kind, curves in (("light", workload.light), ("heavy", workload.heavy)):
            for curve in curves:
                for n in curve.grid:
                    got = ops.guarded(failures, f"{curve} n={n}", ops.timed_point, inputs, curve, n, s)
                    results.append(("point", curve, n, got and got[0]))
                    if got:
                        walls[kind].append(got[1])
                        trials += curve.trials
        learner = inputs.learners[workload.adversary.learner]
        t = time.perf_counter()
        adv = ops.guarded(failures, "adversary", ops.run_adversary, workload.adversary, learner, s)
        walls["adversary"].append(time.perf_counter() - t)
        results.append(("adversary", None, None, adv))
        setups.append(ops.setup_seconds(workload))
        rounds += 1
    peak = _peak_rss_mb(resource.RUSAGE_SELF)

    failed = len(failures)
    for kind, curve, n, got in results:
        if got is None:
            continue
        if kind == "point":
            errors = ops.check_curve_point(curve, n, got, inputs, reference)
        else:
            errors = ops.check_adversary(workload.adversary, got.dist, got.construction, got.levels, reference)
        failures += errors
        failed += bool(errors)
    summary = {"rounds": rounds, "workers": 1}
    return _result(len(results), failed, failures, trials, _setup(workload, setups), peak, walls, summary)


def _setup(workload, setups: list) -> float:
    """Median set-up time over the launches made between rounds, topped up
    to SETUP_LAUNCHES after the timed phase."""
    import ops

    while len(setups) < SETUP_LAUNCHES:
        setups.append(ops.setup_seconds(workload))
    return statistics.median(setups)


def _curve_cmd(curve, seed: int, out: Path, extra: list[str]) -> list[str]:
    grid = ",".join(str(n) for n in curve.grid)
    return [
        sys.executable, "-m", "revcurve", "curve", "--learner", curve.learner, "--dist", curve.dist,
        "--grid", grid, "--trials", str(curve.trials), "--seed", str(seed), "--out", str(out), *extra,
    ]


def _adversary_cmd(adv, seed: int, out: Path) -> list[str]:
    return [
        sys.executable, "-m", "revcurve", "adversary", "--learner", adv.learner, "--phi", "inv",
        "--depth", str(adv.depth), "--trials", str(adv.trials), "--seed", str(seed), "--out", str(out),
    ]


def _check_cli_curve(curve, out: Path, inputs, reference) -> list[str]:
    import ops
    from revcurve.curves import CurvePoint

    doc = json.loads((out / "curve.json").read_text())
    ns = [p["n"] for p in doc["points"]]
    if ns != list(curve.grid):
        return [f"{out.name}: grid {ns} != {list(curve.grid)}"]
    errors = []
    for p in doc["points"]:
        errors += ops.check_curve_point(curve, p["n"], CurvePoint(**p), inputs, reference)
    return errors


def _check_cli_adversary(adv, out: Path, reference) -> list[str]:
    import ops
    from revcurve.dist import Distribution

    construction = json.loads((out / "construction.json").read_text())
    validation = json.loads((out / "validation.json").read_text())
    dist = Distribution.from_dict(validation["distribution"])
    return ops.check_adversary(adv, dist, construction, validation["levels"], reference)


def run_cli(workload, seed: int, seconds: float) -> dict:
    """Fresh `revcurve` processes with the default worker count: every
    invocation is one operation."""
    import checks
    import ops

    inputs = ops.Inputs.parse(workload)
    reference = checks.load_reference()
    scratch = ops.OUT / f"{workload.name}-{seed}-{time.time_ns()}"
    kinds = [("light", c) for c in workload.light] + [("heavy", c) for c in workload.heavy]
    walls = {"light": [], "heavy": [], "adversary": []}
    invocations, failures, setups = [], [], []
    trials = rounds = 0
    try:
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            s = ops.op_seed(seed, rounds)
            # an adversary run after each curve: the short invocation gets
            # as many samples as the two long ones together
            for kind, curve in kinds:
                out = scratch / f"r{rounds}-{kind}-{len(invocations)}"
                wall, code, _, err = ops.run_process(_curve_cmd(curve, s, out, []))
                invocations.append((kind, curve, s, out, code, err))
                walls[kind].append(wall)
                trials += curve.trials * len(curve.grid)
                out = scratch / f"r{rounds}-adversary-{len(invocations)}"
                wall, code, _, err = ops.run_process(_adversary_cmd(workload.adversary, s, out))
                invocations.append(("adversary", workload.adversary, s, out, code, err))
                walls["adversary"].append(wall)
            setups.append(ops.setup_seconds(workload))
            rounds += 1
        peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)

        failed = 0
        single = {}
        for kind, spec, s, out, code, err in invocations:
            if code != 0:
                errors = [f"{out.name}: exit {code}: {err.strip()[-500:]}"]
            elif kind == "adversary":
                errors = ops.guarded(failures, out.name, _check_cli_adversary, spec, out, reference)
            else:
                errors = ops.guarded(failures, out.name, _check_cli_curve, spec, out, inputs, reference)
                if errors == [] and spec not in single:
                    # byte identity against --workers 1, once per curve and run
                    one = out.with_name(out.name + "-w1")
                    wall, code1, _, err1 = ops.run_process(_curve_cmd(spec, s, one, ["--workers", "1"]))
                    single[spec] = wall
                    if code1 != 0:
                        errors = [f"{one.name}: exit {code1}: {err1.strip()[-500:]}"]
                    elif (one / "curve.json").read_bytes() != (out / "curve.json").read_bytes():
                        errors = [f"{out.name}: curve.json differs from the --workers 1 run"]
            if errors is None:  # the check itself raised; guarded() recorded why
                failed += 1
                continue
            failures += errors
            failed += bool(errors)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = {
        "rounds": rounds,
        "workers": ops.workers(),
        "workers_1_s": {k: single.get(c) for k, c in kinds},
    }
    return _result(len(invocations), failed, failures, trials, _setup(workload, setups), peak, walls, summary)


def _result(attempted, failed, failures, trials, setup, peak, walls, summary) -> dict:
    """Metrics of the timed phase.  Times are means over every operation of a
    kind in the run, not medians: on a machine whose speed switches between
    states the median of a handful of rounds flips between them, while the
    mean moves with the share of time spent in each."""
    for line in failures:
        print(f"# FAILED {line}", file=sys.stderr)
    summary["op_walls_s"] = {k: [round(w, 4) for w in v] for k, v in walls.items()}
    metrics = {
        "trials_per_s": _metric(trials / (sum(walls["light"]) + sum(walls["heavy"])), "trials/s"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(peak, "MB"),
    }
    for kind in ("light", "heavy", "adversary"):
        metrics[f"{kind}_op_s"] = _metric(statistics.fmean(walls[kind]), "s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "summary": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "revcurve" / "__init__.py").is_file():
        print(f"bench: no revcurve sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import revcurve

    if Path(revcurve.__file__).resolve().parent != (src / "revcurve").resolve():
        print(f"bench: imported revcurve from {revcurve.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            import tracing

            res = tracing.run_traced(workload, args.seed, args.seconds)
        elif workload.cli:
            res = run_cli(workload, args.seed, args.seconds)
        else:
            res = run_inprocess(workload, args.seed, args.seconds)
    finally:
        _stop_resource_tracker()
    print("# " + json.dumps({"workload": workload.name, "seed": args.seed, **res["summary"]}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": res["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
