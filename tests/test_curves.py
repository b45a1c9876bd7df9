import concurrent.futures
import math
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

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
)
from revcurve.dist import ContinuousDist, Distribution, TailRuleDist, parse_dist, two_point, zoo
from revcurve.learners import (
    GrowthFns,
    Learner,
    _f_quarter,
    make_capped,
    make_constant,
    make_erm,
    make_structural,
    make_truncated,
    parse_learner,
)


# Module level, so spawn workers can unpickle them by reference.
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
        lr = make_capped(GrowthFns(g=_g_three, f=_f_quarter))
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
        [([], 10, "grid"), ([100, 10], 10, "grid"), ([10, 10], 10, "grid"), ([10, 100], 1, "2 trials")],
    )
    def test_inputs_validated(self, fn, grid, trials, match):
        with pytest.raises(ValueError, match=match):
            fn(make_erm(), zoo("uniform01"), grid, trials=trials, base_seed=1)

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
