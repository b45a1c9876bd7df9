"""The benchmark's operations on revcurve, shared by the timed and traced runs.

Imported only after `src` is on sys.path.  Layers are timed from outside, by
calls into their public functions; nothing here reaches into `src`.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import revcurve
from revcurve.adversary import ProbeConfig, build_slow_rate_distribution, validate_slow_rate
from revcurve.curves import estimate_gap

import checks
from workloads import Adversary, Curve, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROCESS_TIMEOUT_S = 60.0  # a normal invocation takes under 10 s; a hung one must not outlast the run
ADVERSARY_RNG_KEY = 0xADFE  # the CLI's stream key for the adversary's probe rng


def workers() -> int:
    """The CLI's default worker count: the processors this process may run on."""
    return len(os.sched_getaffinity(0))


def op_seed(seed: int, round_index: int) -> int:
    """Base seed of one round of operations, derived from the workload seed."""
    return seed * 1000 + round_index


def inv(j: int) -> float:
    return 1.0 / j


@dataclass
class Inputs:
    """Parsed learners and distributions of a workload, with each optimum."""

    learners: dict
    dists: dict
    opts: dict

    @classmethod
    def parse(cls, workload: Workload) -> "Inputs":
        learners = {spec: revcurve.parse_learner(spec) for spec in workload.learners()}
        dists = {spec: revcurve.parse_dist(spec) for spec in workload.dists()}
        return cls(learners, dists, {spec: d.optimal_revenue().value for spec, d in dists.items()})


@dataclass
class AdversaryRun:
    dist: object
    construction: dict
    levels: list
    probe_calls: int
    build_s: float
    validate_s: float


def run_adversary(adv: Adversary, learner, seed: int) -> AdversaryRun:
    """Build the slow-rate construction against `learner` and validate it, as the CLI does."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, ADVERSARY_RNG_KEY))))
    probe = ProbeConfig()
    t0 = time.perf_counter()
    dist, construction = build_slow_rate_distribution(learner, inv, adv.depth, probe, rng)
    t1 = time.perf_counter()
    levels = validate_slow_rate(dist, construction, learner, trials=adv.trials, base_seed=seed)
    t2 = time.perf_counter()
    per_dataset = 1 if learner.deterministic else probe.trials_per_dataset
    calls = per_dataset * sum(row["datasets_probed"] for row in construction.probe_stats["levels"])
    return AdversaryRun(dist, construction.to_dict(), levels, calls, t1 - t0, t2 - t1)


def check_curve_point(curve: Curve, n: int, point, inputs: Inputs, reference: dict) -> list[str]:
    key = checks.point_key(curve.learner, curve.dist, n)
    return checks.check_point(
        key, n, point.trials, point.mean_gap, point.std_err, inputs.opts[curve.dist], reference
    ) + checks.check_oracles(
        curve.learner, curve.dist, inputs.dists[curve.dist], n, point.trials, point.mean_gap, point.std_err
    )


def check_adversary(adv: Adversary, dist, construction: dict, levels: list, reference: dict) -> list[str]:
    errors = checks.check_construction(construction)
    opt = dist.optimal_revenue().value
    for row in levels:
        key = checks.level_key(adv.learner, adv.depth, row["level"])
        errors += checks.check_point(key, row["level"], adv.trials, row["mean_gap"], row["std_err"], opt, reference)
    return errors


def guarded(failures: list, label: str, fn, *args):
    """Run one operation; an exception is recorded as its failure, not raised."""
    try:
        return fn(*args)
    except Exception:  # one failed operation must not end the run
        failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        return None


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(cmd: list[str], timeout: float = PROCESS_TIMEOUT_S) -> tuple[float, int, str, str]:
    """Run a child in its own session and wait for it; on timeout kill the
    whole session (a CLI's pool workers too).  Returns (wall, code, out, err)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\ntimed out after {timeout} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return time.perf_counter() - start, proc.returncode, out, err


def median_wall(cmd: list[str], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        wall, code, _, err = run_process(cmd)
        if code != 0:
            raise RuntimeError(f"{cmd} failed: {err}")
        walls.append(wall)
    return statistics.median(walls)


def setup_seconds(workload: Workload) -> float:
    """One launch: the time from starting a fresh interpreter to the point
    where the workload's first trial could start (see setup_probe.py)."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), workload.name]
    launched = time.monotonic()
    _, code, out, err = run_process(cmd)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err}")
    return float(out.split()[-1]) - launched


def timed_point(inputs: Inputs, curve: Curve, n: int, seed: int):
    start = time.perf_counter()
    point = estimate_gap(inputs.learners[curve.learner], inputs.dists[curve.dist], n, curve.trials, seed)
    return point, time.perf_counter() - start
