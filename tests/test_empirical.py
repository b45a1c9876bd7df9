import math

import numpy as np
import pytest

from revcurve.dist import parse_dist, zoo
from revcurve.empirical import EmpiricalDist, Sample, dkw_bound, sup_cdf_deviation


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestEmpiricalDist:
    def test_sorts(self):
        e = EmpiricalDist.from_values(Sample(np.array([4.0, 1.0, 1.0])).values)
        assert np.array_equal(e.sorted_values, [1.0, 1.0, 4.0])

    def test_permutation_invariance(self):
        perms = [[1, 1, 4], [1, 4, 1], [4, 1, 1]]
        dists = [EmpiricalDist.from_values(Sample(np.array(p, dtype=float)).values) for p in perms]
        for e in dists[1:]:
            assert np.array_equal(e.sorted_values, dists[0].sorted_values)

    def test_singleton(self):
        e = EmpiricalDist.from_values(Sample(np.array([2.0])).values)
        assert np.array_equal(e.sorted_values, [2.0]) and e.n == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDist.from_values(Sample(np.array([])).values)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Sample(np.array([-1.0, 2.0]))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Sample(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            Sample(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            EmpiricalDist.from_values([bad, 1.0, 2.0])


class TestEmpiricalRevenue:
    def test_examples(self):
        e = EmpiricalDist.from_values([1.0, 1.0, 4.0])
        assert e.revenue(1.0) == 1.0
        assert e.revenue(4.0) == pytest.approx(4 / 3, abs=1e-15)
        assert e.revenue(5.0) == 0.0

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDist.from_values([1.0]).revenue(-0.5)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_price_refused_as_a_law_refuses_it(self, bad):
        with pytest.raises(ValueError) as by_law:
            zoo("finite", points=[(1.0, 1.0)]).revenue(bad)
        with pytest.raises(ValueError) as by_sample:
            EmpiricalDist.from_values([1.0, 2.0, 3.0]).revenue(bad)
        assert str(by_sample.value) == str(by_law.value) and repr(bad) in str(by_sample.value)

    def test_times_n_is_integer_multiple_of_price(self):
        rng = philox(5)
        for _ in range(50):
            vals = rng.random(int(rng.integers(1, 40))) * 10
            e = EmpiricalDist.from_values(vals)
            for p in rng.random(10) * 12:
                total = e.revenue(float(p)) * e.n
                if p > 0:
                    k = total / p
                    assert abs(k - round(k)) < 1e-9

    def test_maximum_attained_on_candidate_set(self):
        # on [0, cap], the empirical-revenue max is attained at a sample value or the cap
        rng = philox(6)
        for _ in range(30):
            vals = rng.random(int(rng.integers(1, 25))) * 8
            e = EmpiricalDist.from_values(vals)
            cap = float(rng.random() * 9 + 0.1)
            cands = np.append(e.sorted_values[e.sorted_values <= cap], cap)
            best = max(e.revenue(float(c)) for c in cands)
            for p in np.linspace(0.0, cap, 400):
                assert e.revenue(float(p)) <= best + 1e-12


class TestDKWBound:
    def test_direct_substitution(self):
        assert dkw_bound(100, 0.1) == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert dkw_bound(10, 1.0) == pytest.approx(2 * math.exp(-20), rel=1e-12)

    def test_probability_cap(self):
        assert dkw_bound(5, 1e-4) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dkw_bound(100, 0.0)
        with pytest.raises(ValueError):
            dkw_bound(0, 0.1)
        with pytest.raises(ValueError, match="eps must be positive"):
            dkw_bound(10, math.nan)
        with pytest.raises(ValueError, match="n must be >= 1"):
            dkw_bound(math.nan, 0.1)


class TestSupCdfDeviation:
    def test_exact_match_is_zero(self):
        e = EmpiricalDist.from_values([1.0])
        assert sup_cdf_deviation(e, zoo("finite", points=[(1.0, 1.0)])) == 0.0

    def test_half_mass_missed(self):
        # F_n jumps 0 -> 1 at 1; F sits at 1/2 on (1, 2]; the sup is 1/2
        e = EmpiricalDist.from_values([1.0])
        d = zoo("finite", points=[(1.0, 0.5), (2.0, 0.5)])
        assert sup_cdf_deviation(e, d) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_on_atoms(self):
        rng = philox(9)
        atoms, masses = np.array([1.0, 2.0, 5.0]), np.array([0.3, 0.3, 0.4])
        d = zoo("finite", points=list(zip(atoms, masses)))
        for _ in range(20):
            vals = atoms[rng.integers(0, 3, size=int(rng.integers(1, 30)))]
            e = EmpiricalDist.from_values(vals)
            got = sup_cdf_deviation(e, d)
            # oracle: scalar scan of both step functions' one-sided limits, F summed from the atom masses
            xs = np.unique(np.concatenate([vals, atoms]))
            want = 0.0
            for x in xs:
                for side in ("left", "right"):
                    fn = np.searchsorted(e.sorted_values, x, side=side) / e.n
                    f = float(masses[atoms < x].sum() if side == "left" else masses[atoms <= x].sum())
                    want = max(want, abs(float(fn) - f))
            assert got == pytest.approx(want, abs=1e-15)

    def test_tail_rule_compared_as_the_rule(self):
        # draws come from a table whose last atom, 22, carries the rule's whole
        # tail Pr[v >= 22] = 2/23; the rule puts 2/24 of it above 22, so the
        # sample's CDF is 1 at 22 where the law's is 1 - 2/24
        d = parse_dist("discrete_no_opt:truncation_depth=20")
        vals = d.sample(philox(12), 2000).values
        assert sup_cdf_deviation(EmpiricalDist.from_values(vals), d) >= 2.0 / 24.0 - 1e-15

    def test_uniform_large_sample_small_deviation(self):
        # DKW at eps = 0.01, n = 1e5 leaves failure mass 2e^-20; all seeded trials pass
        d = zoo("uniform01")
        ok = 0
        for seed in range(100):
            vals = d.sample(philox(1000 + seed), 100_000).values
            if sup_cdf_deviation(EmpiricalDist.from_values(vals), d) < 0.01:
                ok += 1
        assert ok >= 95

    def test_dkw_empirical_validation(self):
        # fraction of trials with deviation > eps stays within the DKW bound
        # plus 3-sigma binomial slack, for eps in {0.05, 0.1}, n = 200
        d = zoo("uniform01")
        n, trials = 200, 1000
        devs = []
        for t in range(trials):
            vals = d.sample(philox(77_000 + t), n).values
            devs.append(sup_cdf_deviation(EmpiricalDist.from_values(vals), d))
        devs = np.array(devs)
        for eps in (0.05, 0.1):
            frac = float(np.mean(devs > eps))
            bound = dkw_bound(n, eps)
            slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
            assert frac <= bound + slack, (eps, frac, bound)
