"""The traced run: the per-layer split of a workload's trials.

For every curve point it re-enacts the trial loop of `estimate_gap` from
public calls -- `trial_streams`, `Distribution.sample`, `Learner.decide` and
`Distribution.revenue` -- recording one span around each.  While it runs,
`EmpiricalDist.from_values` is wrapped so the sort inside `decide` records a
child span.  Spans carry (id, name, start, end, parent id, point key, trial),
stay in memory and are written to `.bench_out/` when the run ends.

The same point is then run untraced through `estimate_gap`: its wall time per
trial minus the four trial spans is the driver's own cost, the ratio of the
two rates is the tracing overhead, and `trace.faithful` says whether the
re-enactment's mean gap equals `estimate_gap`'s bit for bit.  On cli_mixed
the re-enactment makes, in process, the calls the CLI makes.

Layers with a fixed cost per run (pool start, parallel efficiency, adversary
probing and validation, import, optimal revenue) are timed by calling them
directly, on every workload, with that workload's inputs.
"""

from __future__ import annotations

import gc
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from revcurve.curves import SIGNAL_SIGMA, estimate_gap, learning_curve, trial_streams
from revcurve.empirical import EmpiricalDist

import checks
import ops

TRIAL_LAYERS = ("curves.seed", "dist.draw", "learners.decide", "dist.revenue")
PROBE_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, key, trial)
        self.ids = 0
        self.key = None
        self.trial = -1
        self.parent = None
        self.gap = None  # mean gap of the last re-enacted point

    def new_id(self) -> int:
        self.ids += 1
        return self.ids

    def record(self, name: str, start: float, end: float, span_id: int | None = None, parent=None) -> None:
        span_id = self.new_id() if span_id is None else span_id
        self.spans.append((span_id, name, start, end, parent, self.key, self.trial))

    def wrap_from_values(self):
        """Return a from_values that records a child span of the running decide."""
        inner = EmpiricalDist.__dict__["from_values"].__func__
        tracer = self

        def from_values(cls, values):
            start = time.perf_counter()
            out = inner(cls, values)
            tracer.record("empirical.from_values", start, time.perf_counter(), parent=tracer.parent)
            return out

        return classmethod(from_values)

    def self_times(self) -> dict:
        """Total self time per span name: duration minus what children cover."""
        child = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for span_id, name, start, end, _, _, _ in self.spans:
            totals[name] += end - start - child.get(span_id, 0.0)
        return totals

    def durations(self) -> dict:
        totals = defaultdict(float)
        for _, name, start, end, _, _, _ in self.spans:
            totals[name] += end - start
        return totals

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def reenact(tracer: Tracer, learner, dist, opt: float, n: int, trials: int, base_seed: int) -> float:
    """estimate_gap's trial loop from public calls, one span per layer call."""
    pc = time.perf_counter
    revs = np.empty(trials)
    for t in range(trials):
        tracer.trial = t
        t0 = pc()
        sample_rng, learner_rng = trial_streams(base_seed, n, t)
        t1 = pc()
        sample = dist.sample(sample_rng, n)
        t2 = pc()
        tracer.record("curves.seed", t0, t1)
        tracer.record("dist.draw", t1, t2)
        decide_id = tracer.parent = tracer.new_id()
        t3 = pc()
        price = learner.decide(sample.values, n, learner_rng)
        t4 = pc()
        tracer.parent = None
        tracer.record("learners.decide", t3, t4, span_id=decide_id)
        t5 = pc()
        revs[t] = dist.revenue(float(price))
        tracer.record("dist.revenue", t5, pc())
    return opt - float(np.mean(revs))


def _traced_point(tracer: Tracer, learner, dist, opt: float, n: int, trials: int, seed: int) -> float:
    """Re-enact one point with from_values wrapped; returns its wall time."""
    original = EmpiricalDist.__dict__["from_values"]
    EmpiricalDist.from_values = tracer.wrap_from_values()
    # the span list holds no cycles, and collections it would trigger would
    # land inside spans and inflate them
    gc.disable()
    try:
        start = time.perf_counter()
        tracer.gap = reenact(tracer, learner, dist, opt, n, trials, seed)
        return time.perf_counter() - start
    finally:
        gc.enable()
        EmpiricalDist.from_values = original


def _pair(tracer: Tracer, inputs, curve, n: int, seed: int, traced_first: bool):
    """One point traced and once untraced through estimate_gap; the order
    alternates between rounds so warm-up favours neither.  Returns
    (traced wall, untraced point, untraced wall)."""
    learner, dist = inputs.learners[curve.learner], inputs.dists[curve.dist]
    if not traced_first:
        point, wall = ops.timed_point(inputs, curve, n, seed)
    traced = _traced_point(tracer, learner, dist, inputs.opts[curve.dist], n, curve.trials, seed)
    if traced_first:
        point, wall = ops.timed_point(inputs, curve, n, seed)
    return traced, point, wall


def _probe_pool_start(inputs, workload, seed: int, workers: int) -> float:
    """estimate_gap with as many trials as workers: the fixed cost of one pool."""
    curve = workload.light[0]
    learner, dist = inputs.learners[curve.learner], inputs.dists[curve.dist]
    walls = []
    for i in range(PROBE_REPEATS):
        start = time.perf_counter()
        estimate_gap(learner, dist, curve.grid[0], max(2, workers), seed + i, workers=workers)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _probe_parallel_efficiency(inputs, workload, seed: int, workers: int) -> float:
    """t(workers=1) / (W * t(workers=W)) on the workload's first heavy curve."""
    curve = workload.heavy[0]
    learner, dist = inputs.learners[curve.learner], inputs.dists[curve.dist]
    walls = {}
    for w in (1, workers):
        start = time.perf_counter()
        learning_curve(learner, dist, list(curve.grid), curve.trials, seed, workers=w)
        walls[w] = time.perf_counter() - start
    return walls[1] / (workers * walls[workers])


def _probe_optimal_revenue_ms(workload) -> float:
    """Median over repeats of the summed optimal_revenue() time of freshly parsed laws."""
    import revcurve

    totals = []
    for _ in range(PROBE_REPEATS):
        total = 0.0
        for spec in workload.dists():
            dist = revcurve.parse_dist(spec)
            start = time.perf_counter()
            dist.optimal_revenue()
            total += time.perf_counter() - start
        totals.append(total)
    return 1e3 * statistics.median(totals)


def run_traced(workload, seed: int, seconds: float) -> dict:
    inputs = ops.Inputs.parse(workload)
    reference = checks.load_reference()
    workers = min(ops.workers(), 4)
    tracer = Tracer()
    failures: list[str] = []
    failed = attempted = 0
    trials = bytes_drawn = points = signal = 0
    traced_wall = untraced_wall = 0.0
    faithful = True
    adversary_runs = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        s = ops.op_seed(seed, rounds)
        for curve in workload.curves():
            for n in curve.grid:
                attempted += 1
                tracer.key = f"{workload.name}|{checks.point_key(curve.learner, curve.dist, n)}|round={rounds}"
                got = ops.guarded(failures, f"{curve} n={n}", _pair, tracer, inputs, curve, n, s, rounds % 2 == 0)
                if got is None:
                    failed += 1
                    continue
                traced, point, wall = got
                traced_wall += traced
                untraced_wall += wall
                faithful &= tracer.gap == point.mean_gap
                trials += curve.trials
                bytes_drawn += 8 * n * curve.trials
                points += 1
                signal += point.mean_gap > SIGNAL_SIGMA * point.std_err
                errors = ops.check_curve_point(curve, n, point, inputs, reference)
                failures += errors
                failed += bool(errors)
        attempted += 1
        learner = inputs.learners[workload.adversary.learner]
        adv = ops.guarded(failures, "adversary", ops.run_adversary, workload.adversary, learner, s)
        if adv is None:
            failed += 1
        else:
            adversary_runs.append(adv)
            errors = ops.check_adversary(workload.adversary, adv.dist, adv.construction, adv.levels, reference)
            failures += errors
            failed += bool(errors)
        rounds += 1

    span_s = tracer.durations()
    self_s = tracer.self_times()
    per_trial_us = {name: 1e6 * span_s[name] / trials for name in TRIAL_LAYERS}
    driver_us = 1e6 * untraced_wall / trials - sum(per_trial_us.values())
    probe_calls = statistics.median(a.probe_calls for a in adversary_runs)
    import_s = ops.median_wall([sys.executable, "-c", "import revcurve"], PROBE_REPEATS)
    pool_start = _probe_pool_start(inputs, workload, ops.op_seed(seed, rounds), workers)
    efficiency = _probe_parallel_efficiency(inputs, workload, ops.op_seed(seed, rounds), workers)
    path = ops.OUT / f"trace_{workload.name}_s{seed}.jsonl.gz"
    tracer.write(path)

    def m(value, unit):
        return {"value": float(value), "unit": unit}

    metrics = {
        "curves.seed_us": m(per_trial_us["curves.seed"], "us"),
        "dist.draw_us": m(per_trial_us["dist.draw"], "us"),
        "learners.decide_us": m(per_trial_us["learners.decide"], "us"),
        "empirical.sort_us": m(1e6 * self_s["empirical.from_values"] / trials, "us"),
        "dist.revenue_us": m(per_trial_us["dist.revenue"], "us"),
        "curves.driver_us": m(driver_us, "us"),
        "curves.pool_start_s": m(pool_start, "s"),
        "curves.parallel_efficiency": m(efficiency, "ratio"),
        "adversary.probe_calls": m(probe_calls, "count"),
        "adversary.probe_us": m(statistics.median(1e6 * a.build_s / a.probe_calls for a in adversary_runs), "us"),
        "adversary.validate_s": m(statistics.median(a.validate_s for a in adversary_runs), "s"),
        "cli.import_s": m(import_s, "s"),
        "dist.optimal_revenue_ms": m(_probe_optimal_revenue_ms(workload), "ms"),
        "curves.trials": m(trials, "count"),
        "learners.decide_calls": m(trials + sum(a.probe_calls for a in adversary_runs), "count"),
        "dist.bytes_drawn": m(bytes_drawn, "bytes_computed"),
        "curves.signal_share": m(signal / points, "ratio"),
        "trace.overhead": m(untraced_wall / traced_wall - 1.0, "ratio"),
        "trace.faithful": m(1.0 if faithful else 0.0, "flag"),
    }
    for line in failures:
        print(f"# FAILED {line}", file=sys.stderr)
    trial_us = 1e6 * untraced_wall / trials
    trial_parts = ("curves.seed_us", "dist.draw_us", "learners.decide_us", "empirical.sort_us",
                   "dist.revenue_us", "curves.driver_us")
    summary = {
        "rounds": rounds,
        "workers": workers,
        "trace_file": str(path.relative_to(ops.ROOT)),
        "untraced_trial_us": trial_us,
        "share_of_trial": {k: metrics[k]["value"] / trial_us for k in trial_parts},
        "decide_self_us": 1e6 * self_s["learners.decide"] / trials,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "summary": summary}
