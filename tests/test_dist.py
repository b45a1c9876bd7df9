import json
import math
import re
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcurve.curves import estimate_gap
from revcurve.dist import (
    ContinuousDist,
    Distribution,
    FinitePMF,
    InfeasibleParametersError,
    OptResult,
    SearchBudgetError,
    TailRuleDist,
    parse_dist,
    tally,
    two_point,
    zoo,
    zoo_names,
)
from revcurve.learners import parse_learner


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


def to_json(d) -> str:
    return json.dumps(d.to_dict(), sort_keys=True)


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


# every zoo law, plus a shallow tail rule whose lump atom sits at 22
QUERY_LAWS = {
    spec: parse_dist(spec)
    for spec in (
        "erm_hard",
        "discrete_no_opt",
        "discrete_no_opt:truncation_depth=20",
        "regular_no_opt",
        "regular_no_opt2",
        "uniform01",
        "two_point:p=1,p_prime=3,c=2",
        "finite:1@0.2,10@0.79,1000@0.01",
    )
}
QUERIES = ("survival", "survival_strict", "revenue")


@st.composite
def law_and_prices(draw):
    """A law and prices on its atoms, between them, below the support and past the lump."""
    spec = draw(st.sampled_from(sorted(QUERY_LAWS)))
    table = QUERY_LAWS[spec].atom_table
    atoms = np.empty(0) if table is None else table.values
    kinds = [st.floats(0.0, 1e6)]
    if atoms.size:
        k = st.integers(0, atoms.size - 1)
        kinds += [
            k.map(lambda i: float(atoms[i])),
            k.filter(lambda i: i + 1 < atoms.size).map(lambda i: float(atoms[i] + atoms[i + 1]) / 2.0),
            st.floats(0.0, 1.0, exclude_max=True).map(lambda u: u * float(atoms[0])),
            st.floats(1.0, 1e3, exclude_min=True).map(lambda u: u * float(atoms[-1])),
        ]
    return spec, draw(st.lists(st.one_of(kinds), min_size=1, max_size=12))


class TestArrayQueries:
    """One query per law: an array of prices answers exactly as the prices one by one."""

    @settings(max_examples=300, deadline=None)
    @given(law_and_prices())
    def test_array_answers_equal_float_answers(self, case):
        spec, prices = case
        d = QUERY_LAWS[spec]
        for name in QUERIES:
            query = getattr(d, name)
            got = query(np.array(prices))
            assert got.shape == (len(prices),), (spec, name)
            one_by_one = [query(p) for p in prices]
            assert all(type(x) is float for x in one_by_one), (spec, name)
            assert got.tolist() == one_by_one, (spec, name, prices)

    def test_tail_rule_survival_is_the_rule_at_depth_10000(self):
        # up to the lump atom the table is read, past it the rule; both
        # answer survival_fn(k) to the bit (a cumsum of the masses drifts)
        d = zoo("discrete_no_opt")
        rule = d.variant
        depth = rule.truncation_depth
        ks = [0, 1, 2, 777, depth - 1, depth, depth + 1, depth + 2, depth + 3, 2 * depth, 123_456]
        at = np.array([rule.value_fn(k) for k in ks])
        assert d.survival(at).tolist() == [rule.survival_fn(k) for k in ks]
        assert d.survival_strict(at).tolist() == [rule.survival_fn(k + 1) for k in ks]
        assert [d.survival(float(v)) for v in at] == [rule.survival_fn(k) for k in ks]

    def test_shallow_tail_rule_answers_past_the_lump(self):
        d = parse_dist("discrete_no_opt:truncation_depth=20")
        assert d.survival(np.array([30.0])).tolist() == [d.survival(30.0)] == [2.0 / 31.0]
        assert d.revenue(np.array([30.0]))[0] == pytest.approx(60.0 / 31.0, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    @pytest.mark.parametrize("query", ["survival", "survival_strict", "revenue"])
    def test_bad_price_inside_array_raises(self, query, bad):
        d = zoo("erm_hard")
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            getattr(d, query)(np.array([1.0, 4.0, bad, 2.0]))

    def test_revenue_names_first_non_finite_price(self):
        with pytest.raises(ValueError, match="got inf"):
            zoo("uniform01").revenue(np.array([0.5, math.inf, math.nan]))


def first_index_reaching(rule: TailRuleDist, p: float, strict: bool = False) -> int:
    """Smallest k with value_fn(k) >= p (> p when strict), a value_fn that
    overflows counting as +inf: one bisection over every k up to 2^1100."""

    def reaches(k):
        try:
            v = rule.value_fn(k)
        except OverflowError:
            return True
        return v > p if strict else v >= p

    lo, hi = -1, 2**1100  # value_fn(2^1100) overflows every rule shipped here
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


TAIL_SPECS = ("erm_hard", "discrete_no_opt:truncation_depth=20")
HUGE_PRICES = (1e18, 1e300, 1e308, 1.7976931348623157e308)


class TestTailRuleAnswersEveryPrice:
    """A tail rule answers every nonnegative price on the rule, however far
    past its table, and a price of +inf has survival 0 as on every other law."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("price", HUGE_PRICES)
    @pytest.mark.parametrize("spec", TAIL_SPECS)
    def test_huge_price_is_the_rule_at_the_first_index_reaching_it(self, spec, price, strict):
        d = parse_dist(spec)
        rule = d.variant
        k = first_index_reaching(rule, price, strict)
        assert k > rule.truncation_depth + 1  # past the table
        query = d.survival_strict if strict else d.survival
        assert query(price) == rule.survival_fn(k)
        assert query(np.array([1.0, price])).tolist() == [query(1.0), rule.survival_fn(k)]

    @pytest.mark.parametrize("query", ["survival", "survival_strict"])
    @pytest.mark.parametrize("spec", TAIL_SPECS)
    def test_infinite_price_answers_as_on_every_law(self, spec, query):
        for other in ("uniform01", "finite:1@0.5,2@0.5", spec):
            assert getattr(parse_dist(other), query)(math.inf) == 0.0, other

    def test_revenue_of_a_huge_price_sits_at_the_no_opt_limit(self):
        d = parse_dist("discrete_no_opt:truncation_depth=20")
        # 2m/(m+1) at m = 1e300 is 2 - 2e-300, which float64 rounds to 2.0
        assert d.revenue(1e300) == pytest.approx(2.0, rel=1e-15)
        assert d.revenue(1e300) <= d.optimal_revenue().value == 2.0
        assert zoo("erm_hard").revenue(1e300) == pytest.approx(1e300 * 0.5 * 4.0 ** -499, rel=1e-15)
        with pytest.raises(ValueError, match="got inf"):
            d.revenue(math.inf)

    def test_no_opt_revenue_never_passes_its_supremum(self):
        # the rule compares the exact int k + 1 with the price: a float k + 1
        # rounds past 2^53 and can stop short of a huge price, overpaying it
        d = parse_dist("discrete_no_opt:truncation_depth=20")
        prices = np.concatenate([[2.0**53, 2.0**53 + 2, 1e308, 1.7976931348623157e308], np.geomspace(1e15, 1e308, 300)])
        assert d.revenue(prices).max() <= 2.0
        assert max(d.revenue(float(p)) for p in prices) <= 2.0
        assert estimate_gap(parse_learner("const:1e308"), d, 10, 3, 1).mean_gap >= 0.0
        assert d.atom_table.values.dtype == np.float64 and d.atom_table.values.tolist() == [float(k + 1) for k in range(22)]

    def test_bounded_rule_answers_zero_past_its_supremum(self):
        # value_fn never reaches 2 and never overflows; the search stops
        # where survival_fn reaches 0.0
        rule = TailRuleDist("bounded", lambda k: 1.0 - 0.5**k, lambda k: 0.5**k, truncation_depth=3)
        d = Distribution(label="bounded", variant=rule)
        assert d.survival(2.0) == d.survival_strict(1.0) == 0.0
        assert d.survival(0.99) == 0.5 ** first_index_reaching(rule, 0.99)


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

    @pytest.mark.parametrize("spec", ["two_point:p=1,p_prime=3,c=2", "erm_hard", "discrete_no_opt:truncation_depth=50"])
    def test_count_draws_match_value_draws(self, spec):
        # the count of each atom in one multinomial draw against the same
        # table's value draws, per atom within 5 binomial sigma of n * mass
        n = 50_000
        d = parse_dist(spec)
        table = d.atom_table
        [counts] = table.count_rows([philox(zlib.crc32(spec.encode()))], n)
        assert counts.shape == table.values.shape and int(counts.sum()) == n and counts.min() >= 0
        from_values = np.bincount(np.searchsorted(table.values, d.sample(philox(1), n).values), minlength=counts.size)
        for got in (counts, from_values):
            band = 5.0 * np.sqrt(n * table.masses * (1.0 - table.masses)) + 1e-9
            assert np.all(np.abs(got - n * table.masses) <= band)

    @pytest.mark.parametrize("rows,width,k", [(1, 1, 1), (7, 3, 5), (128, 60, 128), (40, 9, 2)])
    def test_tally_counts_each_index_of_each_row(self, rows, width, k):
        idx = philox(rows * k).integers(k, size=(rows, width))
        kept = idx.copy()
        counts = tally(idx, k)
        assert np.array_equal(counts, (idx[..., None] == np.arange(k)).sum(axis=-2))
        assert np.array_equal(idx, kept)  # the rows are read, not written

    def test_atom_table(self):
        pmf = parse_dist("finite:1@0.2,10@0.79,1000@0.01")
        assert pmf.atom_table is pmf.variant
        hard = zoo("erm_hard", truncation_depth=5)
        # atoms 4^0..4^5 plus the lump atom 4^6 carrying the residual tail
        assert np.array_equal(hard.atom_table.values, 4.0 ** np.arange(7))
        assert zoo("uniform01").atom_table is None


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
        # in `revcurve zoo list` order
        assert zoo_names() == [
            "erm_hard",
            "discrete_no_opt",
            "regular_no_opt",
            "regular_no_opt2",
            "two_point",
            "finite",
            "uniform01",
        ]

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
        for name, hi in (("uniform01", 1.0), ("regular_no_opt", 20.0), ("regular_no_opt2", 20.0)):
            d = zoo(name).variant
            for u in np.linspace(0.01, 0.99, 25):
                p = float(np.asarray(d.quantile_fn(u)))
                assert float(np.asarray(d.cdf_fn(p))) == pytest.approx(u, abs=1e-9), name
            for p in np.linspace(hi * 0.01, hi * 0.99, 25):
                u = float(np.asarray(d.cdf_fn(p)))
                assert float(np.asarray(d.quantile_fn(u))) == pytest.approx(p, abs=1e-9), name


# keys that build each law, for the laws that require some
VALID_KEYS = {"two_point": {"p": 1.0, "p_prime": 3.0, "c": 2.0}, "finite": {"points": [(1.0, 0.5), (2.0, 0.5)]}}
TAIL_RULES = ("erm_hard", "discrete_no_opt")


class TestZooSchema:
    """A law takes exactly its builder's keys; any other spec fails loudly."""

    @pytest.mark.parametrize("name", zoo_names())
    def test_valid_keys_build(self, name):
        assert isinstance(zoo(name, **VALID_KEYS.get(name, {})), Distribution)

    @pytest.mark.parametrize("name", zoo_names())
    def test_unknown_key_names_the_law_and_the_key(self, name):
        with pytest.raises(ValueError, match=f"'{name}'.*'bogus'") as exc:
            zoo(name, **VALID_KEYS.get(name, {}), bogus=1.0)
        assert not isinstance(exc.value, InfeasibleParametersError)

    @pytest.mark.parametrize("name,key", [(n, k) for n, keys in VALID_KEYS.items() for k in keys])
    def test_missing_key_names_the_law_and_the_key(self, name, key):
        keys = {k: v for k, v in VALID_KEYS[name].items() if k != key}
        with pytest.raises(ValueError, match=f"'{name}'.*missing.*'{key}'") as exc:
            zoo(name, **keys)
        assert not isinstance(exc.value, InfeasibleParametersError)

    @pytest.mark.parametrize("name", zoo_names())
    def test_depth_below_zero_raises(self, name):
        with pytest.raises(ValueError, match="truncation_depth") as exc:
            zoo(name, **VALID_KEYS.get(name, {}), truncation_depth=-1)
        # a tail rule takes the key and refuses the value; any other law refuses the key
        assert isinstance(exc.value, InfeasibleParametersError) == (name in TAIL_RULES)

    def test_hand_built_rule_checks_its_depth(self):
        with pytest.raises(InfeasibleParametersError, match="heavy: truncation_depth -3"):
            TailRuleDist("heavy", lambda k: float(k + 1), lambda k: 1.0 / (k + 1), truncation_depth=-3)

    def test_depth_past_the_float_range_is_infeasible(self):
        # 4^512 overflows, so depth 511 would table a value past every float
        for depth in (511, 600):
            with pytest.raises(InfeasibleParametersError, match=f"erm_hard: truncation_depth {depth} "):
                parse_dist(f"erm_hard:truncation_depth={depth}")
        deepest = parse_dist("erm_hard:truncation_depth=510")
        assert deepest.atom_table.values[-1] == 4.0**511 and deepest.optimal_revenue() == (1.0, 1.0)

    @pytest.mark.parametrize("name", TAIL_RULES)
    def test_depth_zero_is_a_two_atom_table(self, name):
        d = parse_dist(f"{name}:truncation_depth=0")
        rule = d.variant
        assert d.label == f"{name}(trunc=0)" and rule.truncation_depth == 0
        assert d.atom_table.values.tolist() == [rule.value_fn(0), rule.value_fn(1)]
        assert d.atom_table.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_defaults(self):
        assert zoo("erm_hard").variant.truncation_depth == 20
        assert zoo("discrete_no_opt").variant.truncation_depth == 10_000

    @pytest.mark.parametrize("value", ["x", True, None, [1.0]])
    def test_non_real_value_names_the_law_and_the_key(self, value):
        with pytest.raises(ValueError, match=re.escape(f"zoo law 'two_point': key 'p' must be a real number, got {value!r}")) as exc:
            zoo("two_point", p=value, p_prime=3, c=2)
        assert not isinstance(exc.value, InfeasibleParametersError)
        assert zoo("two_point", p=np.float64(1.0), p_prime=3, c=2).label == zoo("two_point", p=1, p_prime=3.0, c=2).label

    def test_type_error_inside_a_builder_is_not_a_spec_error(self):
        with pytest.raises(TypeError):
            zoo("finite", points=[1.0, 2.0])  # atoms are not (value, mass) pairs


ROUNDTRIP_LAWS = [(n, VALID_KEYS.get(n, {})) for n in zoo_names()] + [
    (n, {"truncation_depth": depth}) for n in TAIL_RULES for depth in (0, 7)
]
ROUNDTRIP_GRID = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 16.0, 1e3, 4.0**9, 1e6, 1e18, 1e300, math.inf])


@pytest.mark.parametrize("name,keys", ROUNDTRIP_LAWS, ids=[f"{n}-{sorted(k)}" for n, k in ROUNDTRIP_LAWS])
def test_every_zoo_law_roundtrips_through_json(name, keys):
    d = zoo(name, **keys)
    back = Distribution.from_dict(json.loads(to_json(d)))
    assert back.label == d.label
    assert to_json(back) == to_json(d)
    for query in ("survival", "survival_strict"):
        assert getattr(back, query)(ROUNDTRIP_GRID).tobytes() == getattr(d, query)(ROUNDTRIP_GRID).tobytes()


class TestSerialization:
    def test_finite_roundtrip_value_exact(self):
        d = zoo("finite", points=[(1.0, 0.2), (10.0, 0.79), (1000.0, 0.01)])
        back = Distribution.from_dict(json.loads(to_json(d)))
        assert np.array_equal(back.variant.values, d.variant.values)
        assert np.array_equal(back.variant.masses, d.variant.masses)

    def test_two_point_roundtrip_value_exact(self):
        d = two_point(1.0, 3.0, 2.0)
        back = Distribution.from_dict(json.loads(to_json(d)))
        assert np.array_equal(back.variant.values, d.variant.values)
        assert np.array_equal(back.variant.masses, d.variant.masses)

    def test_tail_rule_roundtrip(self):
        d = zoo("erm_hard", truncation_depth=8)
        back = Distribution.from_dict(json.loads(to_json(d)))
        assert back.variant.truncation_depth == 8
        assert back.survival(4.0) == d.survival(4.0)

    def test_continuous_roundtrip(self):
        d = zoo("uniform01")
        back = Distribution.from_dict(json.loads(to_json(d)))
        assert back.optimal_revenue().value == pytest.approx(0.25, abs=1e-12)

    def test_unknown_variant_refused(self):
        with pytest.raises(ValueError, match="'mystery'"):
            Distribution.from_dict({"variant": "mystery"})

    @pytest.mark.parametrize("doc,key", [
        ({"label": "x"}, "variant"),
        (5, "variant"),
        ({"variant": "finite_pmf"}, "atoms"),
        ({"variant": "tail_rule"}, "rule_name"),
        ({"variant": "continuous", "params": {}}, "rule_name"),
    ])
    def test_missing_key_named(self, doc, key):
        with pytest.raises(ValueError, match=f"no '{key}' key"):
            Distribution.from_dict(doc)

    @pytest.mark.parametrize("doc,key,kind", [
        ({"variant": "finite_pmf", "atoms": 5}, "atoms", "a list of [value, mass] pairs"),
        ({"variant": "finite_pmf", "atoms": [[1.0, 0.5], [2.0, None]]}, "atoms", "a list of [value, mass] pairs"),
        ({"variant": "finite_pmf", "atoms": [[1.0, 0.5, 3.0]]}, "atoms", "a list of [value, mass] pairs"),
        ({"variant": "continuous", "rule_name": "uniform01", "params": 3}, "params", "an object"),
        ({"variant": "continuous", "rule_name": ["uniform01"]}, "rule_name", "a string"),
        ({"variant": "finite_pmf", "atoms": [[1.0, 1.0]], "label": 5}, "label", "a string"),
        ({"variant": "continuous", "rule_name": "uniform01", "label": None}, "label", "a string"),
    ])
    def test_mistyped_key_named(self, doc, key, kind):
        with pytest.raises(ValueError, match=re.escape(f"key '{key}' must be {kind}, got ")):
            Distribution.from_dict(doc)

    @pytest.mark.parametrize("depth", ["x", True, 12.5, 12.0, None])
    def test_non_integer_truncation_depth_refused(self, depth):
        with pytest.raises(ValueError, match=re.escape(f"erm_hard: truncation_depth must be an integer, got {depth!r}")):
            zoo("erm_hard", truncation_depth=depth)
        if depth is not None:  # a document's null depth means the law's default
            with pytest.raises(ValueError, match="truncation_depth must be an integer"):
                Distribution.from_dict({"variant": "tail_rule", "rule_name": "erm_hard", "truncation_depth": depth})

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
        doc = json.loads(to_json(zoo("erm_hard")))
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

    @pytest.mark.parametrize("spec,name,key", [
        ("erm_hard:truncation_depth=5,truncation_depth=9", "erm_hard", "truncation_depth"),
        ("two_point:p=1,p=2,p_prime=3,c=2", "two_point", "p"),
        ("two_point:p=1,pp=3,p_prime=3,c=2", "two_point", "p_prime"),
    ])
    def test_repeated_key_names_the_law_and_the_key(self, spec, name, key):
        with pytest.raises(ValueError, match=f"'{name}'.*'{key}' given twice") as exc:
            parse_dist(spec)
        assert not isinstance(exc.value, InfeasibleParametersError)

    @pytest.mark.parametrize("spec,message", [
        ("two_point:p=abc,p_prime=3,c=2", "zoo law 'two_point': key 'p' must be a real number, got 'abc'"),
        ("two_point:p=1,pp=,c=2", "zoo law 'two_point': key 'p_prime' must be a real number, got ''"),
        ("erm_hard:truncation_depth=1.5", "zoo law 'erm_hard': key 'truncation_depth' must be an integer, got '1.5'"),
        ("finite:1@0.5,2", "zoo law 'finite': atom '2' is not <value>@<mass> in real numbers"),
        ("finite:x@1", "zoo law 'finite': atom 'x@1' is not <value>@<mass> in real numbers"),
    ])
    def test_value_that_does_not_parse_names_the_law_and_the_key(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            parse_dist(spec)
        assert not isinstance(exc.value, InfeasibleParametersError)

    def test_json_path(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(to_json(two_point(1.0, 3.0, 2.0)))
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

    @pytest.mark.parametrize(
        "values,masses",
        [
            ([math.nan], [1.0]),
            ([1.0, math.inf], [0.5, 0.5]),
            ([-math.inf, 1.0], [0.5, 0.5]),
            ([1.0, 2.0], [math.nan, 0.5]),
            ([1.0, 2.0], [math.inf, 0.5]),
            ([1.0, 2.0], [0.5, -math.inf]),
        ],
    )
    def test_rejects_non_finite_atoms(self, values, masses):
        with pytest.raises(InfeasibleParametersError, match="finite"):
            FinitePMF(values=np.array(values), masses=np.array(masses))

    @pytest.mark.parametrize("values,masses", [([1.0, 2.0], [1.0]), ([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])])
    def test_rejects_mismatched_lengths_and_zero_mass(self, values, masses):
        with pytest.raises(InfeasibleParametersError):
            FinitePMF(values=np.array(values), masses=np.array(masses))

    @pytest.mark.parametrize("spec", ["finite:nan@1", "finite:1@0.5,inf@0.5"])
    def test_parse_rejects_non_finite_atoms(self, spec):
        with pytest.raises(InfeasibleParametersError, match="finite"):
            parse_dist(spec)

    def test_atom_revenues(self):
        pmf = parse_dist("finite:1@0.2,10@0.79,1000@0.01").variant
        assert np.allclose(pmf.atom_revenues, [1.0, 8.0, 10.0])
        assert pmf.optimal_revenue() == OptResult(float(pmf.atom_revenues[2]), 1000.0)
