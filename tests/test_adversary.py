import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.stats import binom

from revcurve.adversary import (
    BudgetExceededError,
    ProbeConfig,
    bound_learner_output,
    build_slow_rate_distribution,
    coin_game,
    exp_lb_witness,
    gadget_member,
    GadgetParams,
    GadgetStructureError,
    monotone_envelope,
    uniform_gadget,
    validate_slow_rate,
    verify_gadget,
)
from revcurve.dist import Distribution, FinitePMF, InfeasibleParametersError, zoo
from revcurve.learners import (
    Learner,
    make_capped,
    make_constant,
    make_erm,
    make_structural,
    make_truncated,
)


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def erm_ordered():
    """ERM without its count form: the adversary must probe it tuple by tuple."""
    return Learner("erm-ordered", decide=make_erm().decide)


def ordered_bounds(learner, con, draws=None):
    """Reference c_{j-1}: the max of decide over every ordered dataset on the
    construction's own support, or over draws[j] where given."""
    out = []
    for j in range(2, con.depth + 1):
        support = con.points[: j - 1]
        datasets = draws[j] if draws and j in draws else itertools.product(support, repeat=j - 1)
        out.append(max(0.0, *(float(learner.decide(np.array(ds), j - 1, None)) for ds in datasets)))
    return tuple(out)


def split_learner():
    """A symmetric rule whose maximum lies on an even split, not on the all-top
    dataset where the ERM family peaks: copies of the sample minimum times
    copies of the maximum, 0 on a one-value sample."""

    def decide(values, n, rng):
        v = np.asarray(values)
        return float((v == v.min()).sum() * (v == v.max()).sum()) if v.max() > v.min() else 0.0

    def decide_counts(values, counts, n):
        drawn = counts > 0
        rows = np.arange(len(counts))
        first = counts[rows, drawn.argmax(axis=-1)]
        last = counts[rows, counts.shape[-1] - 1 - drawn[:, ::-1].argmax(axis=-1)]
        return np.where(drawn.sum(axis=-1) > 1, first * last, 0).astype(np.float64)

    return Learner("split", decide=decide, decide_counts=decide_counts)


def exact_coin_error(p, gamma, c):
    """Oracle: exact error of the count-threshold test, ties resolved upward."""
    n = math.ceil(c * p / gamma**2)
    thr = n * p
    k = math.ceil(thr)  # guesses +1 iff count >= thr, i.e. count >= ceil(thr)
    err_plus = binom.cdf(k - 1, n, p + gamma)  # sigma=+1 but count below threshold
    err_minus = binom.sf(k - 1, n, p - gamma)  # sigma=-1 but count at/above threshold
    return (err_plus + err_minus) / 2.0


class TestMonotoneEnvelope:
    def test_holds_back_increases(self):
        r = monotone_envelope(lambda j: [0.5, 0.7, 0.3][j - 1], 3)
        assert r.R == (0.5, 0.5, 0.3)

    def test_nonincreasing_phi_unchanged(self):
        r = monotone_envelope(lambda j: 1.0 / (j + 1), 5)
        assert r.R == r.phi

    def test_constant(self):
        r = monotone_envelope(lambda j: 0.9, 3)
        assert r.R == (0.9, 0.9, 0.9)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            monotone_envelope(lambda j: 1.5, 2)

    def test_horizon_below_one_refused(self):
        with pytest.raises(ValueError, match="horizon"):
            monotone_envelope(lambda j: 1.0, 0)

    @pytest.mark.parametrize("horizon", [0, -3, 2.5, 3.0, "3"])
    def test_horizon_not_a_whole_number_from_one_named(self, horizon):
        # 2.5 and 3.0 failed in range and "3" in <, neither naming the horizon
        with pytest.raises(ValueError, match=re.escape(f"horizon must be >= 1, got {horizon!r}")):
            monotone_envelope(lambda j: 1.0, horizon)


class TestBoundLearnerOutput:
    def test_deterministic_exact(self):
        res = bound_learner_output(make_erm(), np.array([1.0, 1.0, 4.0]), 0.25, trials=10)
        assert res.value == 4.0 and res.exact

    def test_constant_learner(self):
        res = bound_learner_output(make_constant(7.0), np.array([1.0]), 0.01, trials=10)
        assert res.value == 7.0

    def test_randomized_upper_quantile(self):
        # uniform on {1, 10}: any quantile at level >= 0.875 is 10
        coin = Learner(
            name="coin",
            decide=lambda values, n, rng: 10.0 if rng.random() < 0.5 else 1.0,
            deterministic=False,
        )
        res = bound_learner_output(coin, np.array([1.0]), 0.25, trials=10_000, rng=philox(31))
        assert res.value >= 10.0 and not res.exact
        assert 0.0 < res.quantile_miss_prob < 0.25

    def test_randomized_needs_rng(self):
        coin = Learner(name="c", decide=lambda v, n, r: 1.0, deterministic=False)
        with pytest.raises(ValueError):
            bound_learner_output(coin, np.array([1.0]), 0.25, trials=10)

    @pytest.mark.parametrize("mass,trials,msg", [
        (0.0, 10, "confidence_mass"), (1.0, 10, "confidence_mass"), (0.25, 0, "probe trials"),
        (0.25, 1.5, "probe trials"),
    ])
    def test_arguments_refused(self, mass, trials, msg):
        with pytest.raises(ValueError, match=msg):
            bound_learner_output(make_erm(), np.array([1.0]), mass, trials=trials)


class TestSlowRateConstruction:
    def test_erm_depth5_hand_values(self):
        # phi(j) = 1/j, deterministic ERM: c_j = max output over all datasets,
        # which is the largest support point at every level; the chain below
        # was derived by hand from the three defining constraints
        dist, con = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=5)
        assert con.points == (0.0, 2.0, 12.0, 30.0, 63.0)
        assert con.bounds == (0.0, 2.0, 12.0, 30.0)
        assert con.tails[0] == 1.0
        for j in range(2, 6):
            assert con.points[j - 1] * con.tails[j - 1] == pytest.approx(2.0 - con.R[j - 2], abs=1e-12)

    def test_invariants_all_hold(self):
        dist, con = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=6)
        con.check_invariants(atol=1e-9)
        pmf = dist.variant
        assert np.all(pmf.masses > 0)
        assert pmf.masses.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("field,edit,named", [
        ("points", lambda v: (v[0], 0.0) + v[2:], "ordering"),
        ("tails", lambda v: (v[0], v[0]) + v[2:], "tail cap"),
        ("points", lambda v: v[:-1] + (v[-1] + 1.0,), "revenue identity"),
    ])
    def test_broken_transcript_named(self, field, edit, named):
        _, con = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=5)
        broken = dataclasses.replace(con, **{field: edit(getattr(con, field))})
        with pytest.raises(AssertionError, match=named):
            broken.check_invariants()

    def test_truncated_revenue_identity_every_level(self):
        # lumping the tail onto the last atom preserves rev(i_j) = 2 - R(j-1)
        dist, con = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=6)
        for j in range(2, 7):
            assert dist.revenue(con.points[j - 1]) == pytest.approx(2.0 - con.R[j - 2], abs=1e-9)

    def test_truncated_opt_at_last_point(self):
        dist, con = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=6)
        opt = dist.optimal_revenue()
        assert opt.value == pytest.approx(2.0 - con.R[-2], abs=1e-9)
        assert opt.price == con.points[-1]

    def test_constant_learner_gap_exact(self):
        # a learner pinned at price 1 earns rev(1) = 1 - mass(0) = 1/2 exactly,
        # so its gap at depth 5 is opt - 1/2 >= R(4)/4
        lr = make_constant(1.0)
        dist, con = build_slow_rate_distribution(lr, lambda j: 1.0 / j, depth=5)
        opt = dist.optimal_revenue().value
        gap = opt - dist.revenue(1.0)
        assert dist.revenue(1.0) == pytest.approx(0.5, abs=1e-12)
        assert gap >= con.R[3] / 4.0
        rows = validate_slow_rate(dist, con, lr, trials=200, base_seed=1, levels=[4])
        assert rows[0]["mean_gap"] == pytest.approx(gap, abs=1e-9)

    def test_budget_error_names_level(self):
        with pytest.raises(BudgetExceededError) as err:
            build_slow_rate_distribution(
                erm_ordered(), lambda j: 1.0 / j, depth=7, probe=ProbeConfig(max_datasets_per_level=100)
            )
        assert err.value.level == 5  # 4^4 = 256 datasets first exceeds 100

    def test_budget_error_names_level_multisets(self):
        with pytest.raises(BudgetExceededError) as err:
            build_slow_rate_distribution(
                make_erm(), lambda j: 1.0 / j, depth=7, probe=ProbeConfig(max_datasets_per_level=100)
            )
        assert err.value.level == 6  # C(9, 5) = 126 multisets first exceeds 100

    def test_sampled_probing_flagged(self):
        dist, con = build_slow_rate_distribution(
            make_erm(),
            lambda j: 1.0 / j,
            depth=5,
            probe=ProbeConfig(max_datasets_per_level=10, allow_sampling=True),
            rng=philox(5),
        )
        con.check_invariants()
        assert any(level["sampled"] for level in con.probe_stats["levels"])

    def test_sampled_probing_needs_rng(self):
        with pytest.raises(ValueError, match="needs an rng"):
            build_slow_rate_distribution(
                make_erm(), lambda j: 1.0 / j, depth=5, probe=ProbeConfig(max_datasets_per_level=10, allow_sampling=True)
            )

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=1)

    @pytest.mark.parametrize("depth", [1, 0, 2.5, 3.0, "3"])
    def test_depth_not_a_whole_number_from_two_named(self, depth):
        # 2.5 and 3.0 failed in range and "3" in <, neither naming the depth
        with pytest.raises(ValueError, match=re.escape(f"construction depth must be >= 2, got {depth!r}")):
            build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=depth)


class TestMultisetProbing:
    """A learner with decide_counts is probed once per multiset, in one
    decide_counts call per level; its bounds must equal the max of decide over
    every ordered dataset."""

    LEARNERS = {
        "erm": make_erm,
        "truncated": make_truncated,
        "capped": make_capped,
        "structural": make_structural,
        "const:1": lambda: make_constant(1.0),
    }
    PHIS = {"inv": lambda j: 1.0 / j, "pow:0.5": lambda j: j**-0.5}

    @pytest.mark.parametrize("phi", PHIS)
    @pytest.mark.parametrize("name", LEARNERS)
    def test_bounds_equal_ordered_brute_force(self, name, phi):
        learner = self.LEARNERS[name]()
        _, con = build_slow_rate_distribution(learner, self.PHIS[phi], depth=6)
        assert con.bounds == ordered_bounds(learner, con)
        for level in con.probe_stats["levels"]:
            j = level["level"]
            assert level["mode"] == "multiset"
            assert level["datasets_probed"] == level["datasets_total"] == math.comb(2 * j - 3, j - 1)
        # a shallower construction is a prefix of the deeper one
        for depth in range(2, 6):
            _, short = build_slow_rate_distribution(learner, self.PHIS[phi], depth=depth)
            assert short.points == con.points[:depth] and short.bounds == con.bounds[: depth - 1]

    def test_bounds_equal_ordered_brute_force_at_an_interior_multiset(self):
        learner = split_learner()
        _, con = build_slow_rate_distribution(learner, lambda j: 1.0 / j, depth=6)
        assert con.bounds == ordered_bounds(learner, con) == (0.0, 1.0, 2.0, 4.0, 6.0)

    def test_decide_only_learner_probes_ordered(self):
        _, con = build_slow_rate_distribution(erm_ordered(), lambda j: 1.0 / j, depth=6)
        _, ref = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=6)
        for level in con.probe_stats["levels"]:
            j = level["level"]
            assert level["mode"] == "ordered"
            assert level["datasets_probed"] == level["datasets_total"] == (j - 1) ** (j - 1)
        assert (con.points, con.tails, con.bounds) == (ref.points, ref.tails, ref.bounds)

    @pytest.mark.parametrize("make", [make_erm, split_learner], ids=["erm", "split"])
    def test_sampled_multisets_match_ordered_reference(self, make):
        budget = 3
        _, con = build_slow_rate_distribution(
            make(),
            lambda j: j**-0.5,
            depth=6,
            probe=ProbeConfig(max_datasets_per_level=budget, allow_sampling=True),
            rng=philox(8),
        )
        sampled = [level["level"] for level in con.probe_stats["levels"] if level["sampled"]]
        assert sampled == [4, 5, 6]  # C(5, 3) = 10 multisets is the first count above 3
        rng = philox(8)
        draws = {
            j: [tuple(rng.choice(con.points[: j - 1], size=j - 1)) for _ in range(budget)] for j in sampled
        }
        assert con.bounds == ordered_bounds(make(), con, draws)

    @pytest.mark.parametrize(
        "make", [erm_ordered, lambda: Learner("split-ordered", decide=split_learner().decide)], ids=["erm", "split"]
    )
    def test_sampled_ordered_tuples_match_rng_choice(self, make):
        budget = 3
        _, con = build_slow_rate_distribution(
            make(),
            lambda j: j**-0.5,
            depth=5,
            probe=ProbeConfig(max_datasets_per_level=budget, allow_sampling=True),
            rng=philox(8),
        )
        sampled = [level["level"] for level in con.probe_stats["levels"] if level["sampled"]]
        assert sampled == [3, 4, 5]  # 2^2 = 4 ordered tuples is the first count above 3
        assert all(level["datasets_probed"] == budget for level in con.probe_stats["levels"][1:])
        rng = philox(8)
        draws = {
            j: [tuple(rng.choice(con.points[: j - 1], size=j - 1)) for _ in range(budget)] for j in sampled
        }
        assert con.bounds == ordered_bounds(make(), con, draws)


class TestConsistentTargets:
    """Beside criterion 6 (plain ERM): the consistent learners' own depth-6
    constructions hold their Monte Carlo gap at n = j above R(j)/4 at every level."""

    @pytest.mark.parametrize("make", [make_capped, make_structural], ids=["capped", "structural"])
    def test_every_level_clears_quarter_r(self, make):
        learner = make()
        dist, con = build_slow_rate_distribution(learner, lambda j: 1.0 / j, depth=6)
        rows = validate_slow_rate(dist, con, learner, trials=2000, base_seed=3)
        assert [row["level"] for row in rows] == [2, 3, 4, 5, 6]
        assert all(row["meets_target"] for row in rows), rows


class TestValidation:
    """validate_slow_rate at n = j < K tallies each trial's j draws into one
    count row; the rows must carry the sample path's bits."""

    @pytest.mark.parametrize("name", TestMultisetProbing.LEARNERS)
    def test_rows_equal_a_decide_only_copy(self, name):
        # levels 2..5 have n = j < K = 6; level 6 (K = n) draws one multinomial
        # count row, as it always has, and the pinned ERM rows below cover it
        learner = TestMultisetProbing.LEARNERS[name]()
        dist, con = build_slow_rate_distribution(learner, lambda j: 1.0 / j, depth=6)
        assert dist.atom_table.values.size == 6
        levels = range(2, 6)
        rows = validate_slow_rate(dist, con, learner, trials=500, base_seed=5, levels=levels)
        sampled = Learner(learner.name, decide=learner.decide)
        assert rows == validate_slow_rate(dist, con, sampled, trials=500, base_seed=5, levels=levels)

    def test_erm_depth6_rows_keep_their_bits(self):
        dist, con = build_slow_rate_distribution(make_erm(), lambda j: 1.0 / j, depth=6)
        rows = validate_slow_rate(dist, con, make_erm(), trials=500, base_seed=5)
        assert [(row["mean_gap"], row["std_err"]) for row in rows] == [
            (0.9284666666666668, 0.026373880488713728),
            (0.7300333333333333, 0.021228035211905878),
            (0.6040000000000001, 0.01847387076753555),
            (0.5358333333333334, 0.01725687591075119),
            (0.4767999999999999, 0.015945072719225087),
        ]

    def test_levels_are_validated_exactly_as_given(self):
        lr = make_constant(1.0)
        dist, con = build_slow_rate_distribution(lr, lambda j: 1.0 / j, depth=4)
        assert validate_slow_rate(dist, con, lr, trials=20, base_seed=1, levels=[]) == []
        rows = validate_slow_rate(dist, con, lr, trials=20, base_seed=1, levels=[4, 2])
        assert [row["level"] for row in rows] == [4, 2]

    @pytest.mark.parametrize("levels", [[0], [1, 2], [5], [2, 9]])
    def test_level_outside_two_to_depth_is_refused(self, levels):
        lr = make_constant(1.0)
        dist, con = build_slow_rate_distribution(lr, lambda j: 1.0 / j, depth=4)
        bad = [j for j in levels if not 2 <= j <= 4]
        with pytest.raises(ValueError, match=re.escape(f"levels {bad} lie outside 2..4")):
            validate_slow_rate(dist, con, lr, trials=20, base_seed=1, levels=levels)


class TestUniformGadget:
    def test_direct_substitution(self):
        gp = uniform_gadget(1.0, 0.5, 0.05, 0.001)
        assert gp.x_pq == pytest.approx(0.5 / 0.55, abs=1e-12)
        assert gp.midpoint == pytest.approx((gp.x_pq + 1.0) / 2.0, abs=1e-15)

    def test_x_pq_tends_to_x_as_p_vanishes(self):
        gaps = [1.0 - uniform_gadget(1.0, 0.5, p).x_pq for p in (0.05, 0.005, 0.0005)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3

    def test_large_p_pushes_x_pq_below_half(self):
        with pytest.raises(InfeasibleParametersError, match="x_pq"):
            uniform_gadget(0.6, 0.5, 0.5)

    def test_domain_checks(self):
        with pytest.raises(InfeasibleParametersError):
            uniform_gadget(0.4, 0.5, 0.01)  # x too small
        with pytest.raises(InfeasibleParametersError):
            uniform_gadget(0.9, 0.4, 0.01)  # q below 1/2
        with pytest.raises(InfeasibleParametersError):
            uniform_gadget(1.0, 0.5, 0.05, 0.04)  # gamma fails smallness

    @pytest.mark.parametrize("x,q,p,gamma,named", [
        (1.0, 0.5, 0.0, None, "p = 0.0"),
        (1.0, 0.5, 0.05, 0.0, "gamma must be positive"),
        (1.0, 0.9, 0.1, None, "anchor mass"),  # default gamma 0.002 tips q + p + gamma past 1
    ])
    def test_refusals_named(self, x, q, p, gamma, named):
        with pytest.raises(InfeasibleParametersError, match=named):
            uniform_gadget(x, q, p, gamma)

    @pytest.mark.parametrize("q,p,gamma,named", [
        (math.nan, 0.05, None, "q = nan"),
        (0.5, math.nan, None, "p = nan"),
        (0.5, 0.05, math.nan, "gamma must be positive, got nan"),
    ])
    def test_nan_refused_by_name(self, q, p, gamma, named):
        with pytest.raises(InfeasibleParametersError, match=named):
            uniform_gadget(1.0, q, p, gamma)

    @pytest.mark.parametrize("p,gamma", [(0.05, 1e-9), (1e-12, None)])  # the default gamma is 2e-14 at p = 1e-12
    def test_gamma_whose_square_rounds_away_refused(self, p, gamma):
        # x - gamma^2 == x built members that failed their own condition 1 check
        with pytest.raises(InfeasibleParametersError, match=r"gamma = .* is too small"):
            uniform_gadget(1.0, 0.5, p, gamma)

    @pytest.mark.parametrize("gamma", np.geomspace(1e-9, 1e-7, 21))
    def test_every_accepted_gamma_builds_members_that_verify(self, gamma):
        try:
            gp = uniform_gadget(1.0, 0.5, 0.05, float(gamma))
        except InfeasibleParametersError as exc:
            assert "is too small" in str(exc)
            return
        for sigma in (-1, 1):
            assert verify_gadget(gp, gadget_member(gp, sigma), sigma).passed


class TestGadgetMember:
    def test_mass_conditions(self):
        gp = uniform_gadget(1.0, 0.5, 0.05)
        g2 = gp.gamma**2
        for sigma in (-1, 1):
            d = gadget_member(gp, sigma)
            # condition 1: top mass
            top = d.survival_strict(gp.x - g2)
            assert gp.q <= top <= gp.q + g2 + 1e-15
            # condition 2: bracket mass around x_pq
            mid = d.survival(gp.x_pq - g2) - d.survival(gp.x_pq + g2)
            assert abs(mid - (gp.p + sigma * gp.gamma)) <= g2 + 1e-15
            # condition 3: dead zone
            assert d.survival(gp.x_pq + g2) - d.survival_strict(gp.x - g2) == pytest.approx(0.0, abs=1e-15)

    def test_wrong_sigma(self):
        gp = uniform_gadget(1.0, 0.5, 0.05)
        with pytest.raises(ValueError):
            gadget_member(gp, 0)

    @pytest.mark.parametrize("sigma", [0, 2, 1.0, -1.0, "1"])
    def test_sigma_other_than_the_ints_plus_minus_one_named(self, sigma):
        # 1.0 failed formatting the label with "Unknown format code 'd'"
        gp = uniform_gadget(1.0, 0.5, 0.05)
        with pytest.raises(ValueError, match=re.escape(f"sigma must be the integer -1 or +1, got {sigma!r}")):
            gadget_member(gp, sigma)

    # hand-built geometry that uniform_gadget would never return, one per check
    @pytest.mark.parametrize("x,q,p,gamma,x_pq,sigma,named", [
        (1.0, 0.5, 0.01, 0.02, 0.98, -1, "nonpositive atom mass"),  # p - gamma < 0
        (1.0, 0.1, 0.05, 0.8, 0.6, 1, "anchor price collides"),  # x_pq/2 >= x_pq - gamma^2
        (1.0, 0.05, 0.1, 0.01, 0.9, 1, "transported optimum leaves"),  # rev(x) = 0.05 < rev(anchor)
        (1.0, 0.3, 0.1, 0.01, 0.6, 1, "restricted transported optimum"),  # rev(edge) < rev(anchor) < rev(x)
    ])
    def test_infeasible_geometry_named(self, x, q, p, gamma, x_pq, sigma, named):
        gp = GadgetParams(x=x, q=q, p=p, gamma=gamma, x_pq=x_pq, midpoint=(x_pq + x) / 2.0)
        with pytest.raises(InfeasibleParametersError, match=named):
            gadget_member(gp, sigma)


class TestVerifyGadget:
    def sweep_params(self):
        for x in (0.8, 0.9, 1.0):
            for q in (0.5, 0.6):
                for p in (0.01, 0.05):
                    gp0 = uniform_gadget(x, q, p)  # derive x_pq first for gamma rule
                    gamma = min(p, x - gp0.x_pq) / 50.0
                    yield uniform_gadget(x, q, p, gamma)

    def test_canonical_members_pass_both_sides(self):
        for gp in self.sweep_params():
            for sigma in (-1, 1):
                member = gadget_member(gp, sigma)
                report = verify_gadget(gp, member, sigma)
                assert report.passed, (gp, sigma, report)
                assert report.margin > gp.gamma / 4.0

    def test_wrong_side_fails(self):
        for gp in self.sweep_params():
            member = gadget_member(gp, -1)
            mirrored = verify_gadget(gp, member, -1, sweep_side="high")
            assert not mirrored.passed
            # the sigma=-1 optimum sits at x on the right side, margin ~ 0
            assert mirrored.margin <= 1e-12

    @pytest.mark.parametrize("sigma", [0, 2, 1.0, -1.0, "1"])
    def test_sigma_other_than_the_ints_plus_minus_one_named(self, sigma):
        # 0 and 2 reached condition 2, which blamed the law; 1.0 passed as +1
        gp = uniform_gadget(1.0, 0.5, 0.05)
        with pytest.raises(ValueError, match=re.escape(f"sigma must be the integer -1 or +1, got {sigma!r}")):
            verify_gadget(gp, gadget_member(gp, 1), sigma)

    def test_unknown_sweep_side_refused(self):
        gp = uniform_gadget(1.0, 0.5, 0.05)
        with pytest.raises(ValueError, match="sweep_side"):
            verify_gadget(gp, gadget_member(gp, -1), -1, sweep_side="middle")

    def test_structure_check_names_condition(self):
        gp = uniform_gadget(1.0, 0.5, 0.05)
        member = gadget_member(gp, -1)
        with pytest.raises(GadgetStructureError, match="condition 2"):
            verify_gadget(gp, member, +1)  # sigma=-1 mass cannot satisfy the +1 bracket

    def test_top_and_dead_zone_conditions_named(self):
        gp = uniform_gadget(1.0, 0.5, 0.05)
        with pytest.raises(GadgetStructureError, match="condition 1"):
            verify_gadget(gp, gadget_member(uniform_gadget(1.0, 0.6, 0.05), -1), -1)  # mass 0.6 at x
        member = gadget_member(gp, -1).variant
        # move 0.01 of the anchor's mass into the dead zone at the midpoint
        dead = FinitePMF(
            values=np.insert(member.values, 2, gp.midpoint),
            masses=np.insert(member.masses - [0.01, 0.0, 0.0], 2, 0.01),
        )
        with pytest.raises(GadgetStructureError, match="condition 3"):
            verify_gadget(gp, Distribution(label="dead", variant=dead), -1)

    def test_law_without_finite_support_refused(self):
        gp = uniform_gadget(1.0, 0.5, 0.05)
        with pytest.raises(ValueError, match="finite support"):
            verify_gadget(gp, zoo("uniform01"), -1)

    def test_known_margin_value(self):
        # sigma=-1: best bad-side price is x_pq itself with margin gamma * x_pq
        gp = uniform_gadget(1.0, 0.5, 0.05, 0.001)
        report = verify_gadget(gp, gadget_member(gp, -1), -1)
        assert report.margin == pytest.approx(gp.gamma * gp.x_pq, abs=1e-9)


class TestCoinGame:
    def test_trivially_distinguishable(self):
        res = coin_game(p=0.5, gamma=0.45, c=400.0, trials=4000, rng=philox(41))
        assert res.error_rate < 0.01

    def test_matches_exact_oracle(self):
        res = coin_game(p=0.01, gamma=0.001, c=1.0, trials=100_000, rng=philox(42))
        oracle = exact_coin_error(0.01, 0.001, 1.0)
        assert res.n == 10_000
        assert abs(res.error_rate - oracle) <= 3.0 * res.std_err
        assert res.error_rate >= 0.15  # the oracle value here is ~0.157

    def test_error_nonincreasing_in_c_oracle(self):
        errs = [exact_coin_error(0.01, 0.001, c) for c in (1.0, 4.0, 16.0, 100.0)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_more_samples_lower_error(self):
        lo = coin_game(p=0.01, gamma=0.001, c=100.0, trials=20_000, rng=philox(43))
        hi = coin_game(p=0.01, gamma=0.001, c=1.0, trials=20_000, rng=philox(44))
        assert lo.error_rate < hi.error_rate

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            coin_game(p=0.01, gamma=0.02, c=1.0, trials=10, rng=philox(45))

    def test_zero_c_refused(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            coin_game(p=0.01, gamma=0.001, c=0.0, trials=10, rng=philox(46))

    @pytest.mark.parametrize("c", [math.inf, 1e300, math.nan])
    def test_c_without_an_int64_sample_size_refused(self, c):
        # inf overflowed math.ceil and 1e300 rng.binomial; nan failed in ceil without naming c
        with pytest.raises(ValueError, match=re.escape(f"c = {c!r} makes c*p/gamma^2")):
            coin_game(p=0.3, gamma=0.01, c=c, trials=10, rng=philox(46))

    @pytest.mark.parametrize("trials", [0, 2.5, 10.0])
    def test_trials_not_a_whole_number_refused(self, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials!r}"):
            coin_game(p=0.1, gamma=0.01, c=1.0, trials=trials, rng=philox(47))

    def test_gamma_whose_square_underflows_refused(self):
        # 1e-200 passes 0 < gamma < p, but c*p/gamma^2 divided by zero
        with pytest.raises(ValueError, match=re.escape("gamma^2 > 0 (no underflow), got gamma = 1e-200")):
            coin_game(p=0.3, gamma=1e-200, c=1.0, trials=10, rng=philox(48))


@pytest.mark.parametrize("field,value", [
    ("trials_per_dataset", 0), ("trials_per_dataset", 1.5), ("max_datasets_per_level", 0),
    ("max_datasets_per_level", 100.0),
])
def test_probe_config_refuses_counts_that_are_not_whole(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value!r}"):
        ProbeConfig(**{field: value})


class TestExpLbWitness:
    def test_overshooting_learner_pinned_by_point_mass(self):
        # a learner that never posts the low price (here 2 * max of the sample)
        # has a_n = 0, so the point mass at p already costs it p/2 at every n
        doubler = Learner(name="doubler", decide=lambda v, n, r: 2.0 * float(np.max(v)))
        pts = exp_lb_witness(doubler, 1.0, 3.0, 2.0, n_grid=[1, 2, 5, 10], trials=10)
        for pt in pts:
            assert pt.a_n == 0.0 and pt.witness == "point_mass" and pt.gap == 0.5

    def test_max_learner_returns_p_on_all_p_dataset(self):
        # max(p,...,p) = p, so the max learner is pinned by the two-point law
        max_learner = Learner(name="max", decide=lambda v, n, r: float(np.max(v)))
        pts = exp_lb_witness(max_learner, 1.0, 3.0, 2.0, n_grid=[3], trials=10)
        assert pts[0].a_n == 1.0 and pts[0].witness == "two_point"

    def test_min_learner_pinned_by_two_point(self):
        min_learner = Learner(name="min", decide=lambda v, n, r: float(np.min(v)))
        pts = exp_lb_witness(min_learner, 1.0, 3.0, 2.0, n_grid=[1, 2, 5], trials=10)
        q = 1.0 - 2.0 / 3.0
        for pt in pts:
            assert pt.a_n == 1.0 and pt.witness == "two_point"
            assert pt.gap == pytest.approx(q**pt.n * 0.5, rel=1e-12)

    def test_formula_instantiation_at_n2(self):
        # p=1, p'=3, c=2: q = 1/3, gap at n=2 under the mixed law is (1/9)*(1/2)
        min_learner = Learner(name="min", decide=lambda v, n, r: float(np.min(v)))
        pts = exp_lb_witness(min_learner, 1.0, 3.0, 2.0, n_grid=[2], trials=10)
        assert pts[0].gap == pytest.approx(1.0 / 18.0, rel=1e-12)

    def test_erm_is_two_point_witnessed(self):
        pts = exp_lb_witness(make_erm(), 1.0, 3.0, 2.0, n_grid=[3], trials=10)
        assert pts[0].a_n == 1.0 and pts[0].witness == "two_point"

    def test_randomized_learner_estimated(self):
        coin = Learner(
            name="coin",
            decide=lambda values, n, rng: float(values[0]) if rng.random() < 0.3 else 99.0,
            deterministic=False,
        )
        pts = exp_lb_witness(coin, 1.0, 3.0, 2.0, n_grid=[4], trials=2000, rng=philox(46))
        assert pts[0].witness == "point_mass"
        assert abs(pts[0].a_n - 0.3) < 0.05

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exp_lb_witness(make_erm(), 1.0, 3.0, 3.5, n_grid=[1], trials=1)

    @pytest.mark.parametrize("c", [math.nan, 1.0])
    def test_c_not_above_one_refused(self, c):
        with pytest.raises(ValueError, match=f"c={c!r}"):
            exp_lb_witness(make_erm(), 1.0, 3.0, c, n_grid=[1], trials=1)

    def test_grid_in_any_order(self):
        # only a curve needs a strictly increasing grid
        pts = exp_lb_witness(make_erm(), 1.0, 3.0, 2.0, n_grid=[5, 2.0, 5], trials=1)
        assert [pt.n for pt in pts] == [5, 2, 5] and all(type(pt.n) is int for pt in pts)

    @pytest.mark.parametrize("n", [2.5, 0, -3, math.nan, math.inf])
    def test_grid_size_not_a_whole_number_refused(self, n):
        with pytest.raises(ValueError, match=re.escape(f"sample size {n!r} in the grid is not a whole number >= 1")):
            exp_lb_witness(make_erm(), 1.0, 3.0, 2.0, n_grid=[1, n], trials=1)
