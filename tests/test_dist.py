import json
import math
import zlib

import numpy as np
import pytest

from revcurve.dist import (
    ContinuousDist,
    Distribution,
    FinitePMF,
    InfeasibleParametersError,
    OptResult,
    SearchBudgetError,
    TailRuleDist,
    parse_dist,
    two_point,
    zoo,
    zoo_names,
)


def brute_force_opt(pmf: FinitePMF):
    """Independent enumeration oracle: max of v * sum(masses of atoms >= v)."""
    best_v, best_rev = None, -1.0
    for v in pmf.values:
        rev = v * pmf.masses[pmf.values >= v].sum()
        if rev > best_rev + 1e-15:
            best_v, best_rev = v, rev
    return best_rev, best_v


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestSurvivalAndRevenue:
    def test_point_mass_atom_at_price_sells(self):
        d = zoo("finite", points=[(1.0, 1.0)])
        assert d.survival(1.0) == 1.0

    def test_erm_hard_survival_at_4(self):
        # Pr[v >= 4^k] = 1/(2*4^k) with k = 1
        assert zoo("erm_hard").survival(4.0) == pytest.approx(0.125, abs=1e-15)

    def test_regular_no_opt_survival(self):
        assert zoo("regular_no_opt").survival(3.0) == pytest.approx(0.25, abs=1e-12)

    def test_erm_hard_revenues(self):
        d = zoo("erm_hard")
        assert d.revenue(1.0) == pytest.approx(1.0, abs=1e-15)
        assert d.revenue(16.0) == pytest.approx(0.5, abs=1e-15)

    def test_erm_hard_tail_revenue_constant_half(self):
        d = zoo("erm_hard")
        for k in range(1, 21):
            assert d.revenue(4.0**k) == pytest.approx(0.5, abs=1e-12)

    def test_regular_no_opt_revenue(self):
        d = zoo("regular_no_opt")
        assert d.revenue(1.0) == pytest.approx(0.5, abs=1e-12)
        for p in (0.3, 2.0, 17.5):
            assert d.revenue(p) == pytest.approx(p / (p + 1.0), abs=1e-12)

    def test_negative_price_rejected(self):
        d = zoo("uniform01")
        with pytest.raises(ValueError):
            d.survival(-0.1)
        with pytest.raises(ValueError):
            d.revenue(-1.0)

    def test_survival_nonincreasing_on_grid(self):
        for name in ("erm_hard", "discrete_no_opt", "regular_no_opt", "regular_no_opt2", "uniform01"):
            d = zoo(name)
            grid = np.linspace(0.0, 30.0, 301)
            s = [d.survival(float(p)) for p in grid]
            assert all(a >= b - 1e-12 for a, b in zip(s, s[1:])), name


class TestOptimalRevenue:
    def test_erm_hard_opt_attained_at_one(self):
        assert zoo("erm_hard").optimal_revenue() == (1.0, 1.0)

    def test_discrete_no_opt_sup_not_attained(self):
        opt = zoo("discrete_no_opt").optimal_revenue()
        assert opt.value == 2.0 and opt.price is None

    def test_finite_pmf_tie_breaks_low(self):
        # rev(1) = 1 and rev(3) = 1; the smaller maximizer wins
        d = zoo("finite", points=[(1.0, 2 / 3), (3.0, 1 / 3)])
        assert d.optimal_revenue() == (1.0, 1.0)

    def test_finite_pmf_matches_brute_force(self):
        rng = philox(11)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            vals = np.sort(rng.random(m) * 10 + rng.random())
            vals = np.unique(vals)
            masses = rng.random(vals.size) + 0.05
            masses /= masses.sum()
            pmf = FinitePMF(values=vals, masses=masses)
            opt = pmf.optimal_revenue()
            b_rev, b_v = brute_force_opt(pmf)
            assert opt.value == pytest.approx(b_rev, abs=1e-12)
            assert opt.price == pytest.approx(b_v, abs=1e-12)

    def test_uniform01_interior_max(self):
        opt = zoo("uniform01").optimal_revenue()
        assert opt.value == pytest.approx(0.25, abs=1e-12)
        assert opt.price == pytest.approx(0.5, abs=1e-7)

    def test_uniform01_optimum_bits(self):
        # pinned to the last bit: the search reads revenue only as p * survival(p)
        assert zoo("uniform01").optimal_revenue() == OptResult(0.25, 0.49999999612344764)

    def test_regular_no_opt_sup_is_declared_limit(self):
        assert zoo("regular_no_opt").optimal_revenue() == (1.0, None)
        assert zoo("regular_no_opt2").optimal_revenue() == (0.5, None)

    def test_revenue_below_opt_everywhere(self):
        for name in ("erm_hard", "discrete_no_opt", "regular_no_opt", "regular_no_opt2", "uniform01"):
            d = zoo(name)
            opt = d.optimal_revenue().value
            for p in np.linspace(0.0, 50.0, 501):
                assert 0.0 <= d.revenue(float(p)) <= opt + 1e-9, name

    def test_unbounded_search_budget_error(self):
        # revenue p/sqrt(p+1) grows without bound; the search must give up and
        # report its best bracket rather than fabricate an optimum
        runaway = ContinuousDist(
            rule_name="runaway",
            cdf_fn=lambda p: 1.0 - 1.0 / np.sqrt(np.maximum(p, 0.0) + 1.0),
            quantile_fn=lambda u: 1.0 / (1.0 - u) ** 2 - 1.0,
        )
        d = Distribution(label="runaway", variant=runaway)
        with pytest.raises(SearchBudgetError) as err:
            d.optimal_revenue()
        assert err.value.best_value > 1.0

    def test_saturating_revenue_returns_sup_without_price(self):
        # p/(p+1) saturates to 1.0 in float; the search must not claim a price
        saturating = ContinuousDist(
            rule_name="saturating",
            cdf_fn=lambda p: 1.0 - 1.0 / (np.maximum(p, 0.0) + 1.0),
            quantile_fn=lambda u: u / (1.0 - u),
        )
        d = Distribution(label="saturating", variant=saturating)
        opt = d.optimal_revenue()
        assert opt.value == pytest.approx(1.0, abs=1e-6)
        assert opt.price is None

    def test_infinite_opt_heavy_tail(self):
        # synthetic heavy tail: rev(value(k)) = k + 1 -> infinity
        heavy = TailRuleDist(
            rule_name="heavy",
            value_fn=lambda k: float((k + 1) ** 2),
            survival_fn=lambda k: 1.0 / (k + 1),
            truncation_depth=50,
            revenue_limit=math.inf,
        )
        d = Distribution(label="heavy", variant=heavy)
        opt = d.optimal_revenue()
        assert math.isinf(opt.value) and opt.price is None


class TestSampling:
    def test_point_mass_degenerate(self):
        d = zoo("finite", points=[(1.0, 1.0)])
        s = d.sample(philox(3), 5)
        assert np.array_equal(s.values, np.ones(5))

    def test_identical_seed_identical_sample(self):
        d = zoo("erm_hard")
        a = d.sample(philox(42), 1000).values
        b = d.sample(philox(42), 1000).values
        assert np.array_equal(a, b)

    def test_erm_hard_mass_at_one(self):
        # Pr[v = 1] = 7/8; binomial 3-sigma band is ~0.003, spec band 0.01
        s = zoo("erm_hard").sample(philox(7), 100_000)
        freq = float(np.mean(s.values == 1.0))
        assert abs(freq - 7 / 8) <= 0.01

    @pytest.mark.parametrize(
        "spec,prices",
        [
            ("erm_hard", [1.0, 4.0, 16.0, 64.0, 256.0]),
            ("discrete_no_opt", [1.0, 2.0, 5.0, 20.0, 100.0]),
            ("regular_no_opt", [0.5, 1.0, 2.0, 5.0, 10.0]),
            ("regular_no_opt2", [0.5, 1.0, 2.0, 5.0, 10.0]),
            ("uniform01", [0.1, 0.3, 0.5, 0.7, 0.9]),
            ("two_point:p=1,p_prime=3,c=2", [0.5, 1.0, 2.0, 3.0, 4.0]),
            ("finite:1@0.2,10@0.79,1000@0.01", [1.0, 5.0, 10.0, 500.0, 1000.0]),
        ],
    )
    def test_sampling_consistency(self, spec, prices):
        n = 100_000
        d = parse_dist(spec)
        vals = d.sample(philox(zlib.crc32(spec.encode())), n).values
        for p in prices:
            s = d.survival(p)
            emp = float(np.mean(vals >= p))
            band = 3.0 * math.sqrt(s * (1.0 - s) / n) + 1e-9
            assert abs(emp - s) <= band, (spec, p)

    def test_sample_size_validated(self):
        with pytest.raises(ValueError):
            zoo("uniform01").sample(philox(0), 0)


class TestZoo:
    def test_two_point_solves_q(self):
        d = two_point(1.0, 3.0, 2.0)
        assert np.allclose(d.variant.values, [1.0, 3.0])
        assert np.allclose(d.variant.masses, [1 / 3, 2 / 3])

    def test_two_point_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            two_point(1.0, 3.0, 3.0)  # c*p >= p'
        with pytest.raises(InfeasibleParametersError):
            two_point(3.0, 1.0, 0.1)  # p >= p'

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            zoo("nope")

    def test_zoo_names_catalogue(self):
        assert set(zoo_names()) == {
            "erm_hard",
            "discrete_no_opt",
            "regular_no_opt",
            "regular_no_opt2",
            "two_point",
            "finite",
            "uniform01",
        }

    def test_erm_hard_pmf_masses(self):
        # atom masses: Pr[v=1] = 7/8, Pr[v=4^k] = 3/(2*4^(k+1))
        pmf = zoo("erm_hard").variant._materialized
        assert pmf.values[0] == 1.0
        assert pmf.masses[0] == pytest.approx(7 / 8, abs=1e-12)
        for k in range(1, 20):
            assert pmf.values[k] == 4.0**k
            assert pmf.masses[k] == pytest.approx(3 / (2 * 4.0 ** (k + 1)), rel=1e-12)

    def test_erm_hard_truncation_tail_below_1e12(self):
        pmf = zoo("erm_hard").variant._materialized
        assert pmf.masses[-1] < 1e-12

    def test_continuous_quantile_cdf_roundtrip(self):
        for name in ("uniform01", "regular_no_opt", "regular_no_opt2"):
            d = zoo(name).variant
            for u in np.linspace(0.01, 0.99, 25):
                p = float(np.asarray(d.quantile_fn(u)))
                assert float(np.asarray(d.cdf_fn(p))) == pytest.approx(u, abs=1e-9), name
            hi = d.support_upper or 20.0
            for p in np.linspace(hi * 0.01, hi * 0.99, 25):
                u = float(np.asarray(d.cdf_fn(p)))
                assert float(np.asarray(d.quantile_fn(u))) == pytest.approx(p, abs=1e-9), name


class TestSerialization:
    def test_finite_roundtrip_value_exact(self):
        d = zoo("finite", points=[(1.0, 0.2), (10.0, 0.79), (1000.0, 0.01)])
        back = Distribution.from_json(d.to_json())
        assert np.array_equal(back.variant.values, d.variant.values)
        assert np.array_equal(back.variant.masses, d.variant.masses)

    def test_two_point_roundtrip_value_exact(self):
        d = two_point(1.0, 3.0, 2.0)
        back = Distribution.from_json(d.to_json())
        assert np.array_equal(back.variant.values, d.variant.values)
        assert np.array_equal(back.variant.masses, d.variant.masses)

    def test_tail_rule_roundtrip(self):
        d = zoo("erm_hard", truncation_depth=8)
        back = Distribution.from_json(d.to_json())
        assert back.variant.truncation_depth == 8
        assert back.survival(4.0) == d.survival(4.0)

    def test_continuous_roundtrip(self):
        d = zoo("uniform01")
        back = Distribution.from_json(d.to_json())
        assert back.optimal_revenue().value == pytest.approx(0.25, abs=1e-12)

    def test_to_dict_refuses_law_outside_zoo(self):
        exp10 = ContinuousDist(
            "exponential_mean_10",
            lambda p: -np.expm1(-np.asarray(p, dtype=np.float64) / 10.0),
            lambda u: -10.0 * np.log1p(-np.asarray(u, dtype=np.float64)),
        )
        heavy = TailRuleDist("heavy", lambda k: float(k + 1), lambda k: 1.0 / (k + 1), truncation_depth=5)
        for variant in (exp10, heavy):
            with pytest.raises(ValueError, match=variant.rule_name):
                Distribution(label="outside", variant=variant).to_dict()

    def test_schema_fields(self):
        doc = json.loads(zoo("erm_hard").to_json())
        assert doc["variant"] == "tail_rule"
        assert {"label", "variant", "rule_name", "params", "truncation_depth"} <= set(doc)


class TestParseDist:
    def test_plain_names(self):
        assert parse_dist("uniform01").label == "uniform01"

    def test_two_point_spec(self):
        d = parse_dist("two_point:p=1,p_prime=3,c=2")
        assert np.allclose(d.variant.masses, [1 / 3, 2 / 3])

    def test_finite_spec(self):
        d = parse_dist("finite:1@0.2,10@0.79,1000@0.01")
        assert np.array_equal(d.variant.values, [1.0, 10.0, 1000.0])

    def test_json_path(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(two_point(1.0, 3.0, 2.0).to_json())
        d = parse_dist(str(path))
        assert np.allclose(d.variant.masses, [1 / 3, 2 / 3])


class TestFinitePMFValidation:
    def test_rejects_bad_mass_sum(self):
        with pytest.raises(InfeasibleParametersError):
            FinitePMF(values=np.array([1.0, 2.0]), masses=np.array([0.5, 0.6]))

    def test_rejects_unsorted_values(self):
        with pytest.raises(InfeasibleParametersError):
            FinitePMF(values=np.array([2.0, 1.0]), masses=np.array([0.5, 0.5]))

    def test_rejects_negative_value(self):
        with pytest.raises(InfeasibleParametersError):
            FinitePMF(values=np.array([-1.0, 1.0]), masses=np.array([0.5, 0.5]))
