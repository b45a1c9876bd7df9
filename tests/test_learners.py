import math
import shlex
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revcurve import learners
from revcurve.empirical import EmpiricalDist
from revcurve.learners import (
    GrowthFns,
    Learner,
    LearnerProcessError,
    capped_erm,
    default_growth,
    erm,
    make_capped,
    make_constant,
    make_structural,
    make_subprocess,
    parse_learner,
    structural_erm,
    truncated_erm,
)


def e(vals):
    return EmpiricalDist.from_values(np.asarray(vals, dtype=float))


def brute_force_erm(vals, cap=None):
    """Oracle: enumerate candidate prices (sample values plus cap) directly."""
    vals = np.asarray(vals, dtype=float)
    cands = sorted(set(v for v in vals if cap is None or v <= cap) | ({cap} if cap is not None else set()))
    best_p, best_rev = None, -1.0
    for p in cands:
        rev = p * np.sum(vals >= p) / vals.size
        if rev > best_rev + 1e-15:
            best_p, best_rev = p, rev
    return best_p


# Reference implementation: the np.unique / candidate-set / searchsorted
# revenue code the learners used before they shared one revenue kernel.


def ref_unique_revenues(emp):
    u, counts = np.unique(emp.sorted_values, return_counts=True)
    c_geq = counts[::-1].cumsum()[::-1]
    return u, u * c_geq / emp.n


def ref_best_on(emp, cap):
    vals = emp.sorted_values
    cands = np.unique(np.append(vals[vals <= cap], cap))
    counts = emp.n - np.searchsorted(vals, cands, side="left")
    return float(cands[int(np.argmax(cands * counts / emp.n))])


def ref_erm(emp):
    u, rev = ref_unique_revenues(emp)
    return float(u[int(np.argmax(rev))])


def ref_structural(emp, fn):
    u, rev = ref_unique_revenues(emp)
    if u.size == 1:
        return float(u[0])
    handicap = np.maximum.accumulate(rev + u * fn)
    wins = np.flatnonzero(rev[1:] > handicap[:-1] + u[1:] * fn)
    return float(u[wins[-1] + 1]) if wins.size else float(u[0])


@st.composite
def tie_heavy_sample(draw):
    """Values on a coarse grid (many ties, steps not all exact in binary) and a
    positive cap that is often one of the sample's own values."""
    step = draw(st.sampled_from([1.0, 0.25, 0.1, 1 / 3, 2.5]))
    vals = np.asarray(draw(st.lists(st.integers(0, 12), min_size=1, max_size=40)), dtype=float) * step
    positive = sorted(set(vals[vals > 0].tolist()))
    free_cap = st.floats(min_value=1e-3, max_value=40.0)
    cap = draw(st.one_of(st.sampled_from(positive), free_cap) if positive else free_cap)
    return vals, cap


class TestRevenueKernelMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_sample(), st.integers(1, 10**6), st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3, 1.0]))
    def test_prices_equal_reference(self, sample, n, fn):
        vals, cap = sample
        emp = e(vals)
        assert erm(emp) == ref_erm(emp)
        assert truncated_erm(emp, n) == ref_best_on(emp, max(math.log(n), 1.0))
        assert capped_erm(emp, n, lambda m: cap) == ref_best_on(emp, cap)
        assert structural_erm(emp, n, lambda m: fn) == ref_structural(emp, fn)


@st.composite
def tie_heavy_counts(draw):
    """Ascending atoms on a coarse grid with a count per atom, some of them
    zero, and a cap that is often one of the atoms."""
    step = draw(st.sampled_from([1.0, 0.25, 0.1, 1 / 3, 2.5]))
    atoms = np.asarray(sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=10))), dtype=float) * step
    counts = np.asarray(draw(st.lists(st.integers(0, 30), min_size=atoms.size, max_size=atoms.size)), dtype=np.int64)
    counts[draw(st.integers(0, atoms.size - 1))] += 1  # n >= 1
    positive = atoms[atoms > 0].tolist()
    free_cap = st.floats(min_value=1e-3, max_value=40.0)
    cap = draw(st.one_of(st.sampled_from(positive), free_cap) if positive else free_cap)
    return atoms, counts, cap


COUNT_SPECS = [
    "erm",
    "truncated",
    "capped",
    "capped:g=log",
    "capped:g=n^0.3",
    "structural",
    "structural:f=n^-0.4",
    "structural:f=const:0.05",
    "const:7",
]


class TestCountFormMatchesSampleForm:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_counts(), st.integers(0, 2**32 - 1))
    def test_prices_equal_bit_for_bit(self, drawn, shuffle_seed):
        atoms, counts, cap = drawn
        n = int(counts.sum())
        sample = np.repeat(atoms, counts)
        shuffled = np.random.default_rng(shuffle_seed).permutation(sample)
        for spec in COUNT_SPECS + [f"capped:g=const:{cap!r}"]:
            lr = parse_learner(spec)
            got = lr.decide_counts(atoms, counts, n)
            assert got == lr.decide(sample, n, None), spec
            assert got == lr.decide(shuffled, n, None), spec

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_counts(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_row_form_equals_one_row_calls(self, drawn, rows, seed):
        atoms, counts, cap = drawn
        n = int(counts.sum())
        # rows with the same n: the drawn row, then multinomial rows with atoms left out
        rng = np.random.default_rng(seed)
        table = [counts]
        for _ in range(rows - 1):
            p = rng.random(atoms.size) * (rng.random(atoms.size) < 0.6)
            p[rng.integers(atoms.size)] += 0.1
            table.append(rng.multinomial(n, p / p.sum()))
        table = np.array(table)
        for spec in COUNT_SPECS + [f"capped:g=const:{cap!r}"]:
            lr = parse_learner(spec)
            got = lr.decide_counts(atoms, table, n)
            assert got.shape == (rows,), spec
            for row, price in zip(table, got):
                assert price == lr.decide_counts(atoms, row, n) == lr.decide(np.repeat(atoms, row), n, None), spec

    def test_custom_growth_has_count_form(self):
        lr = make_capped(GrowthFns(g=lambda m: 2.5, f=lambda m: 0.1))
        assert lr.decide_counts(np.array([1.0, 2.5, 4.0]), np.array([3, 0, 2]), 5) == lr.decide(
            np.array([1.0, 1.0, 1.0, 4.0, 4.0]), 5, None
        )

    def test_only_symmetric_learners_declare_it(self):
        assert parse_learner("cmd:cat").decide_counts is None
        assert Learner(name="mine", decide=lambda values, n, rng: 1.0).decide_counts is None

    def test_count_form_refuses_randomized_flag(self):
        rule = parse_learner("erm")
        with pytest.raises(ValueError, match="'r'.*deterministic=False"):
            Learner("r", decide=rule.decide, decide_counts=rule.decide_counts, deterministic=False)


class TestErm:
    def test_prefers_higher_revenue(self):
        # rev(1) = 1 < rev(4) = 4/3
        assert erm(e([1, 1, 4])) == 4.0

    def test_tie_breaks_low(self):
        # rev(1) = 1 = rev(4)
        assert erm(e([1, 1, 1, 4])) == 1.0

    def test_singleton(self):
        assert erm(e([2.5])) == 2.5

    def test_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
        for _ in range(300):
            vals = rng.random(int(rng.integers(1, 30))) * 10
            assert erm(e(vals)) == brute_force_erm(vals)


class TestTruncatedErm:
    def test_large_value_excluded(self):
        # cap = max(ln 3, 1) ~ 1.0986; candidates {1, cap}: rev(1) = 1 beats cap/3
        assert truncated_erm(e([1, 1, 100]), 3) == 1.0

    def test_cap_inactive(self):
        assert truncated_erm(e([1, 1, 4]), 1000) == 4.0

    def test_cap_itself_returned_when_all_excluded(self):
        assert truncated_erm(e([5]), 2) == 1.0

    def test_output_never_exceeds_cap(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(22)))
        for _ in range(100):
            n = int(rng.integers(1, 50))
            vals = rng.random(n) * 40
            assert truncated_erm(e(vals), n) <= max(math.log(n), 1.0) + 1e-12


class TestCappedErm:
    def test_cap_binds(self):
        # candidates {1, 10}: emp rev(10) = 10 * (1/2) = 5 beats rev(1) = 1,
        # so the cap itself wins (the excluded 16 still counts toward survival)
        assert capped_erm(e([1, 16]), 100, lambda n: math.sqrt(n)) == 10.0

    def test_interior_value_wins(self):
        assert capped_erm(e([1, 9]), 100, lambda n: math.sqrt(n)) == 9.0

    def test_inactive_cap_equals_erm(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(23)))
        for _ in range(1000):
            vals = rng.random(int(rng.integers(1, 25))) * 5
            emp = e(vals)
            assert capped_erm(emp, 10, lambda n: 100.0) == erm(emp)

    def test_output_never_exceeds_cap(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(24)))
        g = lambda n: math.sqrt(n)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            vals = rng.random(n) * 30
            assert capped_erm(e(vals), n, g) <= g(n) + 1e-12

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            capped_erm(e([1.0]), 5, lambda n: 0.0)


class TestStructuralErm:
    def test_margin_blocks_large_price(self):
        # i* = 3 needs 4/3 > 1 + 5*0.1; i* = 2 needs rev(1) > rev(1) + 0.2; both fail
        assert structural_erm(e([1, 1, 4]), 3, lambda n: 0.1) == 1.0

    def test_zero_margin_takes_strict_winner(self):
        assert structural_erm(e([1, 1, 4]), 3, lambda n: 0.0) == 4.0

    def test_constant_sample(self):
        assert structural_erm(e([3, 3, 3]), 3, lambda n: 0.05) == 3.0

    def test_zero_margin_matches_erm_on_unique_maximizer(self):
        # with f = 0 and a duplicate-free sample, the strict winner is the
        # global empirical-revenue maximizer whenever it is unique
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(25)))
        checked = 0
        for _ in range(300):
            vals = np.unique(rng.random(int(rng.integers(2, 20))) * 10)
            emp = e(vals)
            revs = [emp.revenue(float(v)) for v in vals]
            top = max(revs)
            if sum(abs(r - top) < 1e-12 for r in revs) == 1:
                assert structural_erm(emp, vals.size, lambda n: 0.0) == erm(emp)
                checked += 1
        assert checked > 100

    def test_monotone_in_f(self):
        # growing the margin never moves the winner upward
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(26)))
        for _ in range(200):
            vals = rng.random(int(rng.integers(1, 20))) * 10
            emp = e(vals)
            fs = [0.0, 0.01, 0.05, 0.1, 0.3, 1.0]
            outs = [structural_erm(emp, vals.size, lambda n, fv=fv: fv) for fv in fs]
            assert all(a >= b - 1e-15 for a, b in zip(outs, outs[1:]))

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            structural_erm(e([1.0]), 1, lambda n: -0.1)


class TestPermutationDeterminism:
    def test_all_learners_permutation_invariant(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(27)))
        learners = [
            parse_learner("erm"),
            parse_learner("truncated"),
            parse_learner("capped:g=sqrt"),
            parse_learner("structural:f=n^-0.25"),
        ]
        for _ in range(50):
            n = int(rng.integers(1, 20))
            vals = rng.random(n) * 10
            perm = rng.permutation(vals)
            for lr in learners:
                assert lr.decide(vals, n, None) == lr.decide(perm, n, None), lr.name


class TestGrowthFns:
    def test_default_satisfies_constraint_with_equality(self):
        g = default_growth()
        for n in (1, 2, 10, 1000, 10**6):
            assert g.f(n) ** 2 * n == pytest.approx(g.g(n), rel=1e-12)

    def test_parsed_growth_constraint(self):
        # the parsed learner prices as structural ERM with f(n) = n^-0.25, and that f meets the default g
        lr = parse_learner("structural:f=n^-0.25")
        f, g = (lambda m: m ** -0.25), default_growth().g
        rng = np.random.default_rng(11)
        for n in range(1, 100):
            assert f(n) ** 2 * n >= g(n) - 1e-12
            vals = rng.random(n) * 10
            assert lr.decide(vals, n, None) == structural_erm(e(vals), n, f)


    def test_custom_functions_name_the_learner(self):
        def three(n):
            return 3.0

        class Scale:
            def __call__(self, n):
                return 0.1

            def __repr__(self):
                return "Scale(0.1)"

        growth = GrowthFns(g=three, f=Scale())
        assert (growth.g_name, growth.f_name) == ("three", "Scale(0.1)")
        assert make_capped(growth).name == "capped[g=three]"
        assert make_structural(growth).name == "structural[f=Scale(0.1)]"
        assert make_capped(GrowthFns(g=three, f=Scale(), g_name="3")).name == "capped[g=3]"


class TestParseLearner:
    def test_known_specs(self):
        assert parse_learner("erm").name == "erm"
        assert parse_learner("truncated").name == "truncated"
        assert parse_learner("capped:g=sqrt").name == "capped[g=sqrt]"
        assert parse_learner("structural:f=n^-0.25").name == "structural[f=n^-0.25]"

    def test_constant(self):
        lr = parse_learner("const:7")
        assert lr.decide(np.array([1.0, 2.0]), 2, None) == 7.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_learner("oracle")

    @pytest.mark.parametrize("spec", ["erm:junk", "truncated:g=sqrt", "erm:g=sqrt"])
    def test_argument_the_learner_does_not_take(self, spec):
        with pytest.raises(ValueError, match=f"unknown learner spec '{spec}'"):
            parse_learner(spec)

    def test_capped_custom_power(self):
        # every value is above the cap g(100) = 10, so the cap itself is the price
        lr = parse_learner("capped:g=n^0.5")
        assert lr.decide(np.full(100, 50.0), 100, None) == pytest.approx(10.0)

    def test_capped_log(self):
        # the cap is max(ln n, 1)
        lr = parse_learner("capped:g=log")
        assert lr.decide(np.full(1, 50.0), 1, None) == 1.0
        assert lr.decide(np.full(10**5, 50.0), 10**5, None) == pytest.approx(math.log(10**5))


class TestSubprocessLearner:
    def test_protocol_roundtrip(self):
        # black-box learner that reads n then n values and prints the max
        prog = "import sys; d = sys.stdin.read().split(); n = int(d[0]); print(max(map(float, d[1:n+1])))"
        lr = make_subprocess([sys.executable, "-c", prog])
        assert lr.decide(np.array([1.0, 7.5, 3.0]), 3, None) == 7.5

    def test_failure_propagates(self):
        lr = make_subprocess([sys.executable, "-c", "import sys; sys.exit(3)"])
        with pytest.raises(LearnerProcessError):
            lr.decide(np.array([1.0]), 1, None)

    def test_garbage_output_propagates(self):
        lr = make_subprocess([sys.executable, "-c", "print('not a price')"])
        with pytest.raises(LearnerProcessError):
            lr.decide(np.array([1.0]), 1, None)

    def test_hung_child_times_out(self, monkeypatch):
        monkeypatch.setattr(learners, "SUBPROCESS_TIMEOUT_S", 0.5)
        lr = make_subprocess([sys.executable, "-c", "import time; time.sleep(30)"])
        with pytest.raises(LearnerProcessError, match=r"time\.sleep\(30\).*within 0\.5 s"):
            lr.decide(np.array([1.0]), 1, None)

    def test_spec_keeps_quoted_arguments(self):
        lr = parse_learner(f'cmd:{shlex.quote(sys.executable)} -c "print(1.5)"')
        assert lr.decide(np.array([1.0]), 1, None) == 1.5
        assert lr.name == f"cmd[{shlex.quote(sys.executable)} -c 'print(1.5)']"

    def test_spec_string_roundtrip(self):
        lr = parse_learner("cmd:echo 4.25")
        assert lr.decide(np.array([1.0]), 1, None) == 4.25


@st.composite
def large_tie_heavy_sample(draw):
    """Up to 5,000 values on a coarse grid (NumPy draws them from a seed, so
    hypothesis need not build each value) and a positive cap that is often one
    of the sample's own values."""
    step = draw(st.sampled_from([1.0, 0.25, 0.1, 1 / 3, 2.5]))
    size, levels, seed = draw(st.integers(1, 5000)), draw(st.integers(1, 60)), draw(st.integers(0, 2**32 - 1))
    vals = np.random.default_rng(seed).integers(0, levels, size) * step
    positive = sorted(set(vals[vals > 0].tolist()))
    free_cap = st.floats(min_value=1e-3, max_value=200.0)
    cap = draw(st.one_of(st.sampled_from(positive), free_cap) if positive else free_cap)
    return vals, cap


class TestSortedSampleDoor:
    """The rules price a window of the sorted sample, every copy of every value
    in it included, with left[i] = m - i from one cached read-only array."""

    @settings(max_examples=200, deadline=None)
    @given(large_tie_heavy_sample(), st.integers(1, 10**6), st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3, 1.0]))
    def test_prices_equal_reference_on_large_samples(self, sample, n, fn):
        vals, cap = sample
        emp = e(vals)
        left = learners._left(emp.n)
        before = left.copy()
        assert erm(emp) == ref_erm(emp)
        assert truncated_erm(emp, n) == ref_best_on(emp, max(math.log(n), 1.0))
        assert capped_erm(emp, n, lambda m: cap) == ref_best_on(emp, cap)
        assert structural_erm(emp, n, lambda m: fn) == ref_structural(emp, fn)
        assert learners._left(emp.n) is left
        assert np.array_equal(left, before) and np.array_equal(left, emp.n - np.arange(emp.n))
        assert not left.flags.writeable


def window_row(kind: str, m: int, seed: int) -> np.ndarray:
    """A sorted sample of size m: continuous, tie-heavy, zero-heavy, Pareto or powers of two."""
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        v = rng.random(m)
    elif kind == "ties":
        v = rng.integers(0, 6, m) * 0.1
    elif kind == "zeros":
        v = np.where(rng.random(m) < 0.6, 0.0, rng.random(m))
    elif kind == "pareto":
        v = 1.0 / (1.0 - rng.random(m))
    else:
        v = 2.0 ** rng.integers(0, 12, m)
    return np.sort(v)


def window_caps(u: np.ndarray) -> list[float]:
    """Caps at a sample value, between two values, below the minimum and above the maximum."""
    caps = [float(u[u.size // 2]), float(u[-1]) * 2.0 + 1.0]
    above = u[u > u[u.size // 3]]
    if above.size:
        caps.append((float(u[u.size // 3]) + float(above[0])) / 2.0)
    if u[0] > 0.0:
        caps.append(float(u[0]) / 2.0)
    return [c for c in caps if c > 0.0]


def window_rules(u: np.ndarray, n: int) -> list:
    rules = [learners._Rule(), learners._Rule(cap=learners._g_log)]
    rules += [learners._Rule(cap=lambda m, c=c: c) for c in window_caps(u)]
    return rules + [learners._Rule(scale=lambda m, f=f: f) for f in (0.0, n**-0.25, 1.0)]


def assert_window_exact(u: np.ndarray, n: int):
    m = u.size
    e = EmpiricalDist(u, m)
    for rule in window_rules(u, n):
        full = float(rule.price(u, learners._left(m), None, m, n))
        assert rule.on_sorted(e, n) == full, (rule, m, n)


class TestSortedDoorWindow:
    """The sorted door prices a window that block bounds prove holds the price;
    the full-row kernel is the oracle, for every block size."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, learners._BLOCK])
    @pytest.mark.parametrize("kind", ["continuous", "ties", "zeros", "pareto", "pow2"])
    def test_window_prices_equal_full_row(self, monkeypatch, block, kind):
        monkeypatch.setattr(learners, "_BLOCK", block)
        monkeypatch.setattr(learners, "_MIN_BLOCKS", 0)  # window every row
        sizes = {1, block - 1, block, block + 1, 3 * block - 1, 3 * block + 1, 10 * block - 1, 10 * block + 1, 1000}
        for seed, m in enumerate(sorted(s for s in sizes if s >= 1)):
            u = window_row(kind, m, seed)
            for n in (m, 7 * m + 3):
                assert_window_exact(u, n)

    @pytest.mark.parametrize("block", [1, 3, learners._BLOCK])
    def test_all_equal_and_two_point_rows(self, monkeypatch, block):
        monkeypatch.setattr(learners, "_BLOCK", block)
        monkeypatch.setattr(learners, "_MIN_BLOCKS", 0)
        for m in (1, 2, block, 4 * block + 1, 600):
            assert_window_exact(np.full(m, 0.5), m)
            assert_window_exact(np.full(m, 0.0), m)
            assert_window_exact(np.sort(np.where(np.arange(m) % 3 == 0, 1.0, 3.0)), m)

    def test_first_maximiser_tied_at_a_later_block_end(self, monkeypatch):
        # revenue 1 at the first value and at the last, which ends a block: the
        # first block's bound equals that best block-end revenue, and is kept
        monkeypatch.setattr(learners, "_BLOCK", 2)
        monkeypatch.setattr(learners, "_MIN_BLOCKS", 0)
        u = np.array([1.0, 1.0, 1.5, 4.0])
        assert erm(e(u)) == 1.0
        assert_window_exact(u, u.size)

    def test_rising_revenue_row(self):
        # every value beats all before it with f = 0, so structural ERM prices the whole row
        m = 100_000
        j = np.arange(m)
        assert_window_exact(np.exp(5e-5 * j) / (m - j), m)

    def test_flat_powers_of_two_row(self):
        # powers of two whose revenue returns to 1 at each doubling: every block can hold ERM's maximum
        m = 100_000
        assert_window_exact(2.0 ** np.floor(np.log2(m / (m - np.arange(m)))), m)


class TestNonFiniteGrowthRejected:
    @pytest.mark.parametrize(
        "spec",
        ["structural:f=n^nan", "structural:f=const:inf", "structural:f=const:nan", "structural:f=n^-inf",
         "capped:g=const:inf", "capped:g=const:nan", "capped:g=n^inf", "capped:g=n^nan"],
    )
    def test_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            parse_learner(spec)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("make", [make_capped, make_structural])
    def test_hand_built_growth_rejected_at_pricing(self, make, bad):
        lr = make(GrowthFns(g=lambda n: bad, f=lambda n: bad, g_name="bad", f_name="bad"))
        with pytest.raises(ValueError, match="finite"):
            lr.decide(np.array([1.0, 2.0, 2.0]), 3, None)
        with pytest.raises(ValueError, match="finite"):
            lr.decide_counts(np.array([1.0, 2.0]), np.array([[1, 2], [3, 0]]), 3)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("make", [make_capped, make_structural])
    def test_refused_before_the_window_on_many_blocks(self, monkeypatch, make, bad):
        # 0.0 * inf is NaN with a RuntimeWarning, which the suite makes an error,
        # so the refusal must come before any block arithmetic touches the zeros
        monkeypatch.setattr(learners, "_MIN_BLOCKS", 0)  # window the 1,000 values (4 blocks)
        values = np.concatenate([np.zeros(500), np.random.default_rng(8).random(500)])
        lr = make(GrowthFns(g=lambda n: bad, f=lambda n: bad, g_name="bad", f_name="bad"))
        with pytest.raises(ValueError, match="finite"):
            lr.decide(values, values.size, None)

    @pytest.mark.parametrize("spec", ["capped:g=n^400", "structural:f=n^400"])
    def test_overflowing_power_rejected_at_pricing(self, spec):
        lr = parse_learner(spec)
        assert lr.decide(np.array([1.0, 2.0]), 1, None) in (1.0, 2.0)  # 1^400 is finite
        with pytest.raises(ValueError, match="finite"):
            lr.decide(np.array([1.0, 2.0]), 100, None)
