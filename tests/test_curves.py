import concurrent.futures
import math
import os
import shlex
import subprocess
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from revcurve import curves
from revcurve.curves import (
    CurvePoint,
    GapUndefinedError,
    InsufficientDataError,
    LearningCurve,
    RateFit,
    delta_eps,
    estimate_gap,
    expected_revenue_curve,
    fit_exponential,
    fit_power,
    learning_curve,
    t_eps,
    trial_streams,
)
from revcurve.dist import ContinuousDist, Distribution, TailRuleDist, parse_dist, two_point, zoo
from revcurve.learners import (
    Learner,
    make_capped,
    make_constant,
    make_erm,
    make_structural,
    make_truncated,
    parse_learner,
)
from revcurve.streams import sample_stream


# Module level, so workers can unpickle them by reference (a spawned worker
# imports this module; a forked one unpickles the same payload).
def _g_three(n):
    return 3.0


def _exp10_cdf(p):
    return 1.0 - np.exp(-np.maximum(np.asarray(p, dtype=np.float64), 0.0) / 10.0)


def _exp10_quantile(u):
    return -10.0 * np.log1p(-np.asarray(u, dtype=np.float64))


def _exit_decide(values, n, rng):
    os._exit(3)


def exp_mean_10(cdf=_exp10_cdf, quantile=_exp10_quantile):
    return Distribution("exp(mean 10)", ContinuousDist("exponential_mean_10", cdf, quantile))


def record_pools(monkeypatch) -> list:
    """Wrap ProcessPoolExecutor so each pool records its worker count, start
    context, map chunk size and job count, and the processes it started; the
    real class does the work."""
    pools = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recorder(real):
        def __init__(self, max_workers=None, mp_context=None, *args, **kwargs):
            super().__init__(max_workers, mp_context, *args, **kwargs)
            self.max_workers, self.mp_context, self.started, self.chunksize = max_workers, mp_context, 0, None
            self.jobs = None
            pools.append(self)

        def map(self, fn, *iterables, chunksize=1, **kwargs):
            self.chunksize, self.jobs = chunksize, len(iterables[0])
            return super().map(fn, *iterables, chunksize=chunksize, **kwargs)

        def shutdown(self, *args, **kwargs):
            self.started = len(self._processes or ())
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return pools


def delta_grid_oracle(dist, eps, step=1e-5):
    """Brute-force localization radius on a uniform grid (independent of the
    exact piecewise computation): scan all grid prices with revenue within eps
    of optimal and take the worst min-over-optimal-prices of
    max(|t - t*|, min(t,t*) * mass[min, max))."""
    pmf = dist.variant
    vals, masses = pmf.values, pmf.masses
    tails = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
    tails[0] = 1.0

    def survival(ts):
        return tails[np.searchsorted(vals, ts, side="left")]

    atom_rev = vals * survival(vals)
    opt = atom_rev.max()
    t_star = vals[atom_rev >= opt - 1e-12]
    hi = float(vals[-1])
    best = 0.0
    for lo_edge in np.arange(0.0, hi, 65536 * step):
        ts = np.arange(lo_edge, min(lo_edge + 65536 * step, hi + step), step)
        ts = np.concatenate([ts, vals[(vals >= lo_edge) & (vals < lo_edge + 65536 * step)]])
        rev = ts * survival(ts)
        ts = ts[rev >= opt - eps]
        if ts.size == 0:
            continue
        h = np.full(ts.size, np.inf)
        for tstar in t_star:
            lo = np.minimum(ts, tstar)
            up = np.maximum(ts, tstar)
            g = lo * (survival(lo) - survival(up))
            h = np.minimum(h, np.maximum(np.abs(ts - tstar), g))
        best = max(best, float(h.max()))
    return best


class TestEstimateGap:
    def test_point_mass_gap_exactly_zero(self):
        d = zoo("finite", points=[(1.0, 1.0)])
        pt = estimate_gap(make_erm(), d, n=10, trials=50, base_seed=1)
        assert pt.mean_gap == 0.0 and pt.std_err == 0.0

    def test_even_two_point_every_price_optimal(self):
        # rev(1) = rev(2) = 1, so any sample price is optimal and the gap is 0
        d = zoo("finite", points=[(1.0, 0.5), (2.0, 0.5)])
        pt = estimate_gap(make_erm(), d, n=25, trials=50, base_seed=2)
        assert pt.mean_gap == 0.0

    def test_identical_seed_identical_point(self):
        d = zoo("uniform01")
        a = estimate_gap(make_erm(), d, n=100, trials=200, base_seed=7)
        b = estimate_gap(make_erm(), d, n=100, trials=200, base_seed=7)
        assert a == b

    def test_worker_count_invariance(self):
        d = zoo("uniform01")
        lr = parse_learner("erm")
        seq = estimate_gap(lr, d, n=50, trials=64, base_seed=9, workers=1)
        par = estimate_gap(lr, d, n=50, trials=64, base_seed=9, workers=2)
        assert seq == par

    def test_worker_count_invariance_custom_growth(self):
        # the spec "capped:g=sqrt" names the default cap; workers must get g = 3 itself
        lr = make_capped(_g_three)
        d = parse_dist("finite:1@0.2,10@0.79,1000@0.01")
        seq = estimate_gap(lr, d, n=200, trials=40, base_seed=3, workers=1)
        par = estimate_gap(lr, d, n=200, trials=40, base_seed=3, workers=2)
        assert seq == par
        assert seq.mean_gap == pytest.approx(10.0 - 3.0 * 0.8)

    def test_worker_count_invariance_law_outside_zoo(self):
        d = exp_mean_10()
        seq = estimate_gap(make_erm(), d, n=100, trials=20, base_seed=1, workers=1)
        par = estimate_gap(make_erm(), d, n=100, trials=20, base_seed=1, workers=2)
        assert seq == par

    def test_unpicklable_inputs_fail_before_any_process(self, monkeypatch):
        def no_executor(*args, **kwargs):
            raise AssertionError("an executor was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_executor)
        d = exp_mean_10(cdf=lambda p: _exp10_cdf(p), quantile=lambda u: _exp10_quantile(u))
        with pytest.raises(ValueError, match="workers=1"):
            estimate_gap(make_erm(), d, n=100, trials=20, base_seed=1, workers=2)
        in_process = estimate_gap(make_erm(), d, n=100, trials=20, base_seed=1)
        assert in_process == estimate_gap(make_erm(), exp_mean_10(), n=100, trials=20, base_seed=1)

    def test_dead_worker_raises_broken_pool(self):
        lr = Learner(name="exits", decide=_exit_decide)
        outcome = []

        def run():
            try:
                estimate_gap(lr, zoo("uniform01"), n=10, trials=8, base_seed=1, workers=2)
            except BaseException as exc:  # handed to the test thread below
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "a dead worker left the pool hanging"
        assert len(outcome) == 1 and isinstance(outcome[0], BrokenProcessPool)

    def test_no_more_workers_than_jobs(self, monkeypatch):
        # 3 trials on one point are 3 jobs, so 8 workers must start only 3
        pools = record_pools(monkeypatch)
        d = zoo("uniform01")
        par = estimate_gap(make_erm(), d, n=20, trials=3, base_seed=4, workers=8)
        assert len(pools) == 1 and pools[0].max_workers <= 3 and pools[0].started <= 3
        assert par == estimate_gap(make_erm(), d, n=20, trials=3, base_seed=4, workers=1)

    @pytest.mark.parametrize("law", ["uniform01", "erm_hard"])  # the sample door and the count door
    def test_spawned_pool_matches_in_process(self, monkeypatch, law):
        # the start method every platform but Linux takes
        pools = record_pools(monkeypatch)
        monkeypatch.setattr(curves, "_START_METHOD", "spawn")
        d = zoo(law)
        par = estimate_gap(make_erm(), d, n=64, trials=40, base_seed=5, workers=2)
        assert pools[0].mp_context.get_start_method() == "spawn"
        assert par == estimate_gap(make_erm(), d, n=64, trials=40, base_seed=5, workers=1)

    def test_pool_forks_on_linux(self, monkeypatch):
        pools = record_pools(monkeypatch)
        estimate_gap(make_erm(), two_point(1.0, 3.0, 2.0), n=20, trials=8, base_seed=1, workers=2)
        expected = "fork" if sys.platform.startswith("linux") else "spawn"
        assert len(pools) == 1 and pools[0].mp_context.get_start_method() == expected

    def test_pool_leaves_no_thread_behind(self):
        # the CLI skips interpreter teardown only while the main thread is the last one
        code = (
            "import threading; from revcurve import learning_curve, make_erm, zoo; "
            "learning_curve(make_erm(), zoo('uniform01'), [10, 20], 8, 1, workers=2); print(threading.active_count())"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout == "1\n", proc.stderr

    def test_subprocess_learner_inside_workers(self):
        # each trial starts a process from inside a pool worker
        median = "import sys; v = sorted(map(float, sys.stdin.read().split()[1:])); print(v[len(v) // 2])"
        lr = parse_learner(f"cmd:{shlex.quote(sys.executable)} -c {shlex.quote(median)}")
        d = zoo("uniform01")
        seq = estimate_gap(lr, d, n=9, trials=6, base_seed=21, workers=1)
        par = estimate_gap(lr, d, n=9, trials=6, base_seed=21, workers=2)
        assert seq == par and seq.mean_gap > 0.0

    def test_two_point_erm_small_gap_at_200(self):
        pt = estimate_gap(make_erm(), two_point(1.0, 3.0, 2.0), n=200, trials=2000, base_seed=11)
        assert pt.mean_gap <= 0.02

    def test_erm_hard_constant_gap_at_64(self):
        # errors need two samples in the 1/(2n) tail or one beyond it; the
        # exact binomial floor is ~0.0448 * regret 1/2
        pt = estimate_gap(make_erm(), zoo("erm_hard"), n=64, trials=20_000, base_seed=12)
        assert pt.mean_gap >= 0.02

    def test_gap_never_significantly_negative(self):
        # every (learner, dist) pair the acceptance gate exercises
        from revcurve.learners import make_capped, parse_learner

        big = zoo("finite", points=[(1.0, 0.2), (10.0, 0.79), (1000.0, 0.01)])
        pairs = [
            (make_erm(), zoo("uniform01")),
            (make_erm(), zoo("erm_hard")),
            (make_erm(), two_point(1.0, 3.0, 2.0)),
            (make_structural(), zoo("erm_hard")),
            (make_capped(), big),
            (make_truncated(), big),
            (parse_learner("const:1"), zoo("discrete_no_opt")),
        ]
        for lr, d in pairs:
            pt = estimate_gap(lr, d, n=30, trials=500, base_seed=13)
            assert pt.mean_gap >= -3.0 * pt.std_err, (lr.name, d.label)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("price", [math.nan, math.inf])
    def test_non_finite_price_raises(self, price, workers):
        with pytest.raises(ValueError, match="finite"):
            estimate_gap(make_constant(price), zoo("uniform01"), n=10, trials=5, base_seed=1, workers=workers)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_gap(make_erm(), zoo("uniform01"), n=5, trials=1, base_seed=1)

    def test_infinite_opt_directs_to_revenue_harness(self):
        heavy = Distribution(
            label="heavy",
            variant=TailRuleDist(
                rule_name="heavy",
                value_fn=lambda k: float((k + 1) ** 2),
                survival_fn=lambda k: 1.0 / (k + 1),
                truncation_depth=60,
                revenue_limit=math.inf,
            ),
        )
        with pytest.raises(GapUndefinedError, match="expected_revenue_curve"):
            estimate_gap(make_erm(), heavy, n=10, trials=10, base_seed=1)
        # the harness it points to: truncated ERM revenue keeps growing
        rows = expected_revenue_curve(make_truncated(), heavy, [20, 200, 2000], trials=300, base_seed=3)
        revs = [r[1] for r in rows]
        assert revs[0] < revs[-1]


def _refuse_samples(values, n, rng):
    raise AssertionError("the sample path ran")


class TestCountPath:
    """Atomic laws with K <= n atoms and a learner with decide_counts draw one
    count vector per trial; every other trial draws the sample."""

    @pytest.mark.parametrize("n,trial", [(1, 0), (64, 3), (4096, 999)])
    def test_sample_stream_is_trial_streams_first(self, n, trial):
        # both against the contract's own construction: the first of two spawned children
        first = np.random.SeedSequence((2024, n, trial)).spawn(2)[0]
        for a in (sample_stream(2024, n, trial), trial_streams(2024, n, trial)[0]):
            b = np.random.Generator(np.random.Philox(first))
            for word in ("key", "counter"):
                assert np.array_equal(a.bit_generator.state["state"][word], b.bit_generator.state["state"][word])
            assert np.array_equal(a.random(8), b.random(8))

    def test_path_depends_only_on_count_form_table_and_k(self):
        counts_only = Learner(name="counts only", decide=_refuse_samples, decide_counts=make_constant(1.0).decide_counts)
        two = two_point(1.0, 3.0, 2.0)  # K = 2
        assert estimate_gap(counts_only, two, n=2, trials=4, base_seed=1).mean_gap == 1.0
        with pytest.raises(AssertionError, match="sample path"):
            estimate_gap(counts_only, zoo("discrete_no_opt", truncation_depth=200), n=201, trials=2, base_seed=1)
        with pytest.raises(AssertionError, match="sample path"):
            estimate_gap(counts_only, zoo("uniform01"), n=1000, trials=2, base_seed=1)
        # K = 202 atoms fit at n = 202
        estimate_gap(counts_only, zoo("discrete_no_opt", truncation_depth=200), n=202, trials=2, base_seed=1)

    def test_few_atoms_are_tallied_below_k(self):
        # n < K <= 128: the n draws are tallied into a count row, never handed to decide
        counts_only = Learner(name="counts only", decide=_refuse_samples, decide_counts=make_constant(1.0).decide_counts)
        for law, n in [(zoo("erm_hard"), 3), (zoo("discrete_no_opt", truncation_depth=126), 1)]:  # K = 22, 128
            assert law.atom_table.values.size > n
            estimate_gap(counts_only, law, n=n, trials=3, base_seed=1)
        with pytest.raises(AssertionError, match="sample path"):  # K = 129
            estimate_gap(counts_only, zoo("discrete_no_opt", truncation_depth=127), n=128, trials=2, base_seed=1)

    def test_count_path_agrees_with_sample_path_in_distribution(self):
        d = zoo("erm_hard")
        lr = make_erm()
        counts = estimate_gap(lr, d, n=256, trials=10_000, base_seed=31)
        samples = estimate_gap(Learner(lr.name, decide=lr.decide), d, n=256, trials=10_000, base_seed=31)
        assert counts != samples  # the two paths draw differently ...
        sigma = math.hypot(counts.std_err, samples.std_err)
        assert abs(counts.mean_gap - samples.mean_gap) <= 5.0 * sigma  # ... from the same law

    def test_k_above_n_keeps_the_sample_path_bits(self):
        # ERM and const:1 on discrete_no_opt (K = 202 atoms) at n = 100: the
        # bits every earlier revision gives, and those of the forced sample path
        d = parse_dist("discrete_no_opt:truncation_depth=200")
        erm_pt = estimate_gap(make_erm(), d, n=100, trials=300, base_seed=7)
        assert (erm_pt.mean_gap, erm_pt.std_err) == (0.06096229277098164, 0.004943616693537128)
        assert erm_pt == estimate_gap(Learner("erm", decide=make_erm().decide), d, n=100, trials=300, base_seed=7)
        const_pt = estimate_gap(parse_learner("const:1"), zoo("discrete_no_opt"), n=1000, trials=50, base_seed=7)
        assert (const_pt.mean_gap, const_pt.std_err) == (1.0, 0.0)

    @pytest.mark.parametrize(
        "make,law",
        [
            # erm_hard prices count rows, uniform01 sends every trial's sample through decide
            pytest.param(make, law, id=name if law == "erm_hard" else f"{name}-{law}")
            for law in ("erm_hard", "uniform01")
            for name, make in (
                ("make_erm", make_erm),
                ("make_truncated", make_truncated),
                ("make_capped", make_capped),
                ("make_structural", make_structural),
                ("const_1", lambda: parse_learner("const:1")),
            )
        ],
    )
    def test_worker_count_invariance_capped_and_structural(self, make, law):
        # 301 trials: 150 + 151 between 2 workers, and not a multiple of the 128-row count block
        d = zoo(law)
        seq = learning_curve(make(), d, [16, 64, 256], trials=301, base_seed=17, workers=1)
        par = learning_curve(make(), d, [16, 64, 256], trials=301, base_seed=17, workers=2)
        assert seq == par

    @pytest.mark.parametrize("workers", [2, 3, 5])
    # 2 and 3 trials leave fewer trials than some worker counts; 7 and 301 cut into uneven pieces
    @pytest.mark.parametrize("trials", [2, 3, 7, 301])
    @pytest.mark.parametrize(
        "law,grid",
        [
            ("erm_hard", [32, 64, 128]),  # count path: 22 atoms, n >= K
            ("finite_40", [5, 10, 20]),  # tally path: n < K <= 128
            ("uniform01", [16, 64, 256]),  # sample path
            ("uniform01", [16 << k for k in range(8)]),  # 8 points, the costliest last
        ],
    )
    def test_batched_pool_messages_keep_the_bits(self, monkeypatch, law, grid, trials, workers):
        # one job per worker per grid point, never more workers than trials, each job one message,
        # so every point, the costliest included, runs on every worker
        pools = record_pools(monkeypatch)
        d = zoo("finite", points=[(float(v), 1 / 40) for v in range(1, 41)]) if law == "finite_40" else zoo(law)
        par = learning_curve(make_erm(), d, grid, trials=trials, base_seed=23, workers=workers)
        size = min(workers, trials)
        assert len(pools) == 1 and pools[0].max_workers == size
        assert pools[0].chunksize == 1 and pools[0].jobs == len(grid) * size
        assert par.to_json() == learning_curve(make_erm(), d, grid, trials=trials, base_seed=23, workers=1).to_json()

    def test_worker_count_invariance_two_point(self):
        d = two_point(1.0, 3.0, 2.0)
        seq = learning_curve(make_erm(), d, [2, 20, 40], trials=60, base_seed=5, workers=1)
        par = learning_curve(make_erm(), d, [2, 20, 40], trials=60, base_seed=5, workers=2)
        assert seq == par


class TestLearningCurve:
    def test_deterministic_repeat(self):
        d = zoo("uniform01")
        a = learning_curve(make_erm(), d, [10, 100], trials=100, base_seed=5)
        b = learning_curve(make_erm(), d, [10, 100], trials=100, base_seed=5)
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            learning_curve(make_erm(), zoo("uniform01"), [100, 10], trials=10, base_seed=1)

    @pytest.mark.parametrize("fn", [learning_curve, expected_revenue_curve])
    @pytest.mark.parametrize(
        "grid,trials,match",
        [
            ([], 10, "grid"),
            ([100, 10], 10, "grid"),
            ([10, 10], 10, "grid"),
            ([10, 100], 1, "trials must be >= 2, got 1 "),
            ([0, 10], 10, "sample size 0 "),
            ([-1, 10], 10, "sample size -1 "),
            ([2.5, 10], 10, "sample size 2.5 "),
            ([10, 2**63], 10, "sample size 9223372036854775808 .*int64"),
            ([10, 1e22], 10, r"sample size 1e\+22 .*int64"),
            ([10, 100], 2.5, "trials"),
            ([10, 100], 4.0, "trials must be >= 2, got 4.0 "),
        ],
    )
    def test_inputs_validated(self, fn, grid, trials, match):
        with pytest.raises(ValueError, match=match):
            fn(make_erm(), zoo("uniform01"), grid, trials=trials, base_seed=1)

    @pytest.mark.parametrize("seed", [1.5, -1])
    @pytest.mark.parametrize("law", ["erm_hard", "uniform01"])  # the count door and the sample door
    def test_seed_negative_or_not_an_integer_refused(self, law, seed):
        with pytest.raises(ValueError, match=f"base seed must be >= 0, got {seed!r} "):
            estimate_gap(make_erm(), zoo(law), n=64, trials=50, base_seed=seed)

    @pytest.mark.parametrize("workers", [0, -2, 2.5])
    def test_workers_below_one_refused(self, workers):
        d = two_point(1.0, 3.0, 2.0)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            estimate_gap(make_erm(), d, n=10, trials=10, base_seed=1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            expected_revenue_curve(make_erm(), d, [10, 20], trials=10, base_seed=1, workers=workers)

    @pytest.mark.parametrize("spec", ["erm", "structural", "const:1"])
    def test_size_zero_on_a_few_atom_law_refused(self, spec):
        # a few-atom law is priced on the count path, which draws no sample that could check n
        with pytest.raises(ValueError, match="sample size 0 "):
            estimate_gap(parse_learner(spec), two_point(1.0, 3.0, 2.0), n=0, trials=10, base_seed=1)

    def test_worker_count_invariance_whole_grid(self):
        d = zoo("erm_hard")
        seq = learning_curve(make_structural(), d, [16, 64, 256], trials=30, base_seed=2, workers=1)
        par = learning_curve(make_structural(), d, [16, 64, 256], trials=30, base_seed=2, workers=2)
        assert seq == par
        rows = expected_revenue_curve(make_erm(), d, [16, 64, 256], trials=30, base_seed=2, workers=2)
        assert rows == expected_revenue_curve(make_erm(), d, [16, 64, 256], trials=30, base_seed=2)

    def test_uniform_erm_monotone_up_to_noise(self):
        curve = learning_curve(make_erm(), zoo("uniform01"), [100, 1000, 10000], trials=800, base_seed=6)
        for a, b in zip(curve.points, curve.points[1:]):
            noise = 3.0 * math.hypot(a.std_err, b.std_err)
            assert b.mean_gap <= a.mean_gap + noise

    def test_structural_rescues_erm_hard(self):
        curve = learning_curve(
            make_structural(), zoo("erm_hard"), [16, 64, 256, 1024], trials=2000, base_seed=8
        )
        assert curve.points[-1].mean_gap < 0.05

    def test_csv_roundtrip_exact(self, tmp_path):
        curve = learning_curve(make_erm(), zoo("uniform01"), [10, 50], trials=100, base_seed=4)
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        back = LearningCurve.from_csv(path)
        assert back.points == curve.points and back.base_seed == curve.base_seed


class TestOneRevenuePoints:
    """A point whose trials all earn one revenue reports it exactly with SE 0;
    np.mean and np.std over equal values leave float dust that reads as signal."""

    def test_optimal_price_in_every_trial_reads_zero_gap(self):
        d = parse_dist("finite:1@0.3,2@0.4,3@0.3")
        curve = learning_curve(make_erm(), d, [100, 1000, 10_000, 100_000], trials=2000, base_seed=4)
        assert [(p.mean_gap, p.std_err) for p in curve.points] == [(0.0, 0.0)] * 4
        with pytest.raises(InsufficientDataError):
            fit_power(curve)

    def test_one_wrong_price_in_every_trial_reads_its_exact_gap(self):
        d = parse_dist("finite:1@0.2,10@0.79,1000@0.01")
        price = make_truncated().decide(d.sample(np.random.default_rng(0), 1000).values, 1000, None)
        point = estimate_gap(make_truncated(), d, n=1000, trials=2000, base_seed=7)
        assert point.std_err == 0.0
        assert point.mean_gap == d.optimal_revenue().value - d.revenue(price) > 4.0


def synthetic_curve(ns, gaps):
    pts = tuple(CurvePoint(n, g, g * 1e-6, 100) for n, g in zip(ns, gaps))
    return LearningCurve("synthetic", "synthetic", pts, 0)


class TestFits:
    def test_power_recovers_planted_half(self):
        ns = [10, 100, 1000, 10000]
        fit = fit_power(synthetic_curve(ns, [n**-0.5 for n in ns]))
        assert fit.slope_or_rate == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_power_recovers_planted_intercept(self):
        ns = [10, 100, 1000]
        fit = fit_power(synthetic_curve(ns, [3.0 / n for n in ns]))
        assert fit.slope_or_rate == pytest.approx(-1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)

    def test_exponential_recovers_planted_rate(self):
        ns = [5, 10, 15, 20]
        fit = fit_exponential(synthetic_curve(ns, [math.exp(-0.2 * n) for n in ns]))
        assert fit.slope_or_rate == pytest.approx(-0.2, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_exponential_recovers_planted_intercept(self):
        ns = [2, 4, 6]
        fit = fit_exponential(synthetic_curve(ns, [5.0 * math.exp(-n) for n in ns]))
        assert fit.slope_or_rate == pytest.approx(-1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-9)

    def test_rate_fit_json(self):
        text = RateFit("power", -0.5, 1.25, 0.875, 4).to_json()
        assert text == '{"intercept": 1.25, "model": "power", "points_used": 4, "r_squared": 0.875, "slope_or_rate": -0.5}'

    def test_positive_signal_filter(self):
        pts = (
            CurvePoint(10, 0.1, 0.001, 100),
            CurvePoint(100, 0.01, 0.001, 100),
            CurvePoint(1000, 0.0005, 0.001, 100),  # below 3 sigma, dropped
            CurvePoint(10000, 0.0001, 0.001, 100),  # below 3 sigma, dropped
        )
        with pytest.raises(InsufficientDataError):
            fit_power(LearningCurve("s", "s", pts, 0))

    @pytest.mark.parametrize("fit", [fit_power, fit_exponential])
    @pytest.mark.parametrize("ns,distinct", [([100, 100, 100], 1), ([10, 10, 100, 100], 2)])
    def test_repeated_sample_sizes_count_once(self, fit, ns, distinct):
        curve = synthetic_curve(ns, [0.1 * (i + 1) for i in range(len(ns))])
        with pytest.raises(InsufficientDataError, match=f">= 3 distinct sample sizes, have {distinct}$"):
            fit(curve)

    def test_uniform_erm_slope_near_half_or_steeper(self):
        curve = learning_curve(make_erm(), zoo("uniform01"), [100, 1000, 10000], trials=800, base_seed=10)
        fit = fit_power(curve)
        assert fit.slope_or_rate <= -0.45


class TestTEps:
    def test_point_mass_eps_zero(self):
        res = t_eps(zoo("finite", points=[(1.0, 1.0)]), 0.0)
        assert list(res.atoms) == [1.0]

    def test_even_two_point_eps_zero(self):
        res = t_eps(zoo("finite", points=[(1.0, 0.5), (2.0, 0.5)]), 0.0)
        assert list(res.atoms) == [1.0, 2.0]

    def test_even_two_point_interval_boundaries(self):
        # oracle check: rev(t) = t on [0,1] and t/2 on (1,2]; threshold 0.5
        # gives t >= 0.5 on the first piece and t >= 1 on the second, so
        # T(0.5) is the single interval [0.5, 2]
        d = zoo("finite", points=[(1.0, 0.5), (2.0, 0.5)])
        res = t_eps(d, 0.5)
        assert len(res.intervals) == 1
        lo, hi = res.intervals[0]
        assert lo == pytest.approx(0.5, abs=1e-12) and hi == 2.0
        for t in np.arange(0.0, 2.2, 0.01):
            inside = d.revenue(float(t)) >= 0.5 - 1e-12
            assert res.contains(float(t)) == inside

    def test_quarter_eps_two_intervals(self):
        d = zoo("finite", points=[(1.0, 0.5), (2.0, 0.5)])
        res = t_eps(d, 0.25)
        assert len(res.intervals) == 2
        assert res.intervals[0] == pytest.approx((0.75, 1.0))
        assert res.intervals[1] == pytest.approx((1.5, 2.0))

    def test_eps_at_least_opt_rejected(self):
        with pytest.raises(ValueError):
            t_eps(zoo("finite", points=[(1.0, 1.0)]), 1.0)

    @pytest.mark.parametrize("dist,eps,msg", [
        (zoo("uniform01"), 0.1, "finite support"),
        (zoo("finite", points=[(1.0, 1.0)]), -0.1, "eps must be nonnegative"),
        (two_point(1.0, 3.0, 2.0), math.nan, "eps must be nonnegative"),
    ], ids=["uniform01", "negative_eps", "nan_eps"])
    def test_refused(self, dist, eps, msg):
        with pytest.raises(ValueError, match=msg):
            t_eps(dist, eps)
        with pytest.raises(ValueError, match=msg):
            delta_eps(dist, eps)


FIVE_PMFS = [
    ("two_point(1,3,2)", lambda: two_point(1.0, 3.0, 2.0)),
    ("two_point(1,3,1.5)", lambda: two_point(1.0, 3.0, 1.5)),
    ("even_pair", lambda: zoo("finite", points=[(1.0, 0.5), (2.0, 0.5)])),
    ("three_atoms", lambda: zoo("finite", points=[(0.5, 0.25), (1.0, 0.5), (4.0, 0.25)])),
    ("erm_hard_head", lambda: zoo("finite", points=[(1.0, 7 / 8), (4.0, 3 / 32), (16.0, 1 / 32)])),
]


class TestDeltaEps:
    def test_delta_zero_is_zero(self):
        # boundary-inclusive float tolerance leaves O(1e-12) dust around atoms
        for _, mk in FIVE_PMFS:
            assert delta_eps(mk(), 0.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name,mk", FIVE_PMFS)
    def test_matches_grid_oracle(self, name, mk):
        d = mk()
        for eps in (0.05, 0.1, 0.25, 0.4):
            exact = delta_eps(d, eps)
            grid = delta_grid_oracle(d, eps)
            assert abs(exact - grid) <= 1e-4, (name, eps, exact, grid)

    @pytest.mark.parametrize("name,mk", FIVE_PMFS)
    def test_monotone_and_vanishing(self, name, mk):
        d = mk()
        deltas = [delta_eps(d, 10.0**-k) for k in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:])), name
        assert deltas[-1] <= 1e-5

    def test_nondecreasing_in_eps(self):
        for _, mk in FIVE_PMFS:
            d = mk()
            eps_grid = [0.0, 0.1, 0.2, 0.3, 0.4]
            deltas = [delta_eps(d, e) for e in eps_grid]
            assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))
