"""Self-tests of the benchmark: `python3 -m pytest bench -q` from the repo root.

They run tiny versions of each workload through the same code as a real run,
check the printed metric names against BENCHMARK.json, and check that wrong
outputs are counted as failures rather than passing.
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import ops  # noqa: E402
import revcurve  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import PINNED_PMF, WORKLOADS, Adversary, Curve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

TINY_ADVERSARY = Adversary(trials=200)
TINY = {
    "atomic_mc": dataclasses.replace(
        WORKLOADS["atomic_mc"],
        light=(Curve("erm", "erm_hard", (64, 4096), 50), Curve("structural", "erm_hard", (64,), 50)),
        heavy=(Curve("capped", PINNED_PMF, (1000,), 50),),
        adversary=TINY_ADVERSARY,
    ),
    "continuous_mc": dataclasses.replace(
        WORKLOADS["continuous_mc"],
        light=(Curve("erm", "uniform01", (10_000,), 10),),
        heavy=(Curve("capped", "regular_no_opt", (100_000,), 5),),
        adversary=TINY_ADVERSARY,
    ),
    "cli_mixed": dataclasses.replace(
        WORKLOADS["cli_mixed"],
        light=(Curve("erm", checks.TWO_POINT, (20, 40), 200),),
        heavy=(Curve("erm", "uniform01", (10_000,), 20),),
        adversary=TINY_ADVERSARY,
    ),
}


def _run(workload, trace: bool) -> dict:
    if trace:
        return tracing.run_traced(workload, 1, 0.0)
    if workload.cli:
        return run.run_cli(workload, 1, 0.0)
    return run.run_inprocess(workload, 1, 0.0)


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]] + E2E + PER_LAYER
    assert len(names) == len(set(names))
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(entry["name"]) and UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_each_workload_is_correct_and_names_every_metric(name, trace):
    res = _run(TINY[name], trace)
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == (PER_LAYER if trace else E2E)
    for metric in res["metrics"].values():
        assert math.isfinite(metric["value"])
    spec_units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(spec_units[k] == v["unit"] for k, v in res["metrics"].items())
    if trace:
        assert res["metrics"]["trace.faithful"]["value"] == 1.0


def test_wrong_learner_counts_as_failed(monkeypatch):
    monkeypatch.setattr(revcurve, "parse_learner", lambda spec: revcurve.make_constant(0.0))
    res = run.run_inprocess(TINY["atomic_mc"], 1, 0.0)
    assert res["attempted"] > 0 and res["failed"] == res["attempted"]


def test_command_prints_one_json_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atomic_mc", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == E2E


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "atomic_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_binomial_helpers_match_direct_sums():
    n, p = 30, 0.3
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    for k in (0, 5, 9, 30):
        assert checks.binom_cdf(k, n, p) == pytest.approx(sum(pmf[: k + 1]), rel=1e-12)
        assert checks.binom_sf(k, n, p) == pytest.approx(sum(pmf[k:]), rel=1e-12)
    q = 1 / 128
    assert checks.erm_hard_floor(64) == pytest.approx(0.5 * (1 - (1 - q) ** 64 - 64 * q * (1 - q) ** 63))
    assert checks.two_point_error(20) == pytest.approx(8.8e-4, rel=0.01)


def test_oracles_reject_gaps_outside_their_tolerance():
    dist = revcurve.parse_dist(checks.TWO_POINT)
    per_error = dist.optimal_revenue().value - dist.revenue(1.0)
    assert checks.check_oracles("erm", checks.TWO_POINT, dist, 20, 2000, 2 * per_error / 2000, 0.0) == []
    assert checks.check_oracles("erm", checks.TWO_POINT, dist, 20, 2000, 40 * per_error / 2000, 0.0)
    assert checks.check_oracles("erm", "erm_hard", None, 4096, 1000, 0.0, 0.001)


def test_construction_identities_catch_a_broken_transcript():
    learner = revcurve.make_erm()
    adv = ops.run_adversary(Adversary(trials=10), learner, 1)
    assert checks.check_construction(adv.construction) == []
    broken = dict(adv.construction, P=[adv.construction["P"][0]] + [2 * p for p in adv.construction["P"][1:]])
    assert checks.check_construction(broken)
