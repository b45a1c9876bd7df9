"""Executable lower-bound constructions: the algorithm-adaptive slow-rate
distribution, the uniform two-family gadget, the coin-distinguishing game, and
the exponential-rate witness pair.

The slow-rate builder probes the target learner on every dataset it could see
at each level, bounds its output, and then places the next support point out
of reach while pinning the tail revenue; the resulting transcript carries the
full construction so its arithmetic identities can be rechecked.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .curves import _sample_sizes, estimate_gap
from .dist import Distribution, FinitePMF, InfeasibleParametersError, tally
from .learners import Learner


@dataclass(frozen=True)
class RateFn:
    """A target rate phi on {1..horizon} and its nonincreasing envelope R."""

    phi: tuple[float, ...]
    R: tuple[float, ...]


def monotone_envelope(phi: Callable[[int], float], horizon: int) -> RateFn:
    """R(1) = phi(1); R(j) = phi(j) when phi(j) <= R(j-1), else R(j-1).

    R is nonincreasing and agrees with phi infinitely often along any
    vanishing phi; levels where they agree are where the slow-rate bound bites.
    """
    _check_count("horizon", horizon)
    phis = []
    for j in range(1, horizon + 1):
        v = float(phi(j))
        # (0, 1] rather than (0, 1): the construction only needs 2 - R >= 1,
        # and the canonical target phi(j) = 1/j starts at exactly 1
        if not (0.0 < v <= 1.0):
            raise ValueError(f"phi({j}) = {v!r} outside (0, 1]")
        phis.append(v)
    return RateFn(phi=tuple(phis), R=tuple(itertools.accumulate(phis, min)))


@dataclass(frozen=True)
class BoundResult:
    """An output bound c with Pr[learner output > c] <= confidence_mass.

    For deterministic learners the bound is the exact output.  For randomized
    ones it is an inflated empirical quantile; `quantile_miss_prob` is the
    declared probability that the quantile estimate itself fell short.
    """

    value: float
    exact: bool
    quantile_miss_prob: float = 0.0


def _check_count(name: str, value, least: int = 1) -> None:
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be >= {least}, got {value!r} (a whole number)")


def _check_sigma(sigma) -> None:
    if not (isinstance(sigma, numbers.Integral) and sigma in (-1, 1)):
        raise ValueError(f"sigma must be the integer -1 or +1, got {sigma!r}")


def _outputs(learner: Learner, dataset: np.ndarray, trials: int, rng: Optional[np.random.Generator]) -> np.ndarray:
    """The learner's prices on dataset: its one output when deterministic,
    else `trials` outputs drawn with rng."""
    _check_count("probe trials", trials)
    dataset = np.asarray(dataset, dtype=np.float64)
    if learner.deterministic:
        return np.array([float(learner.decide(dataset, dataset.size, rng))])
    if rng is None:
        raise ValueError("randomized learners need an rng")
    return np.array([float(learner.decide(dataset, dataset.size, rng)) for _ in range(trials)])


def bound_learner_output(
    learner: Learner,
    dataset: np.ndarray,
    confidence_mass: float,
    trials: int,
    rng: Optional[np.random.Generator] = None,
) -> BoundResult:
    if not (0.0 < confidence_mass < 1.0):
        raise ValueError("confidence_mass must be in (0, 1)")
    outputs = _outputs(learner, dataset, trials, rng)
    if learner.deterministic:
        return BoundResult(value=float(outputs[0]), exact=True)
    outputs.sort()
    # target the (1 - conf/2) quantile, then move up by the one-sided DKW margin
    # so the estimate covers the true quantile except with probability beta
    beta = confidence_mass / 4.0
    delta = math.sqrt(math.log(1.0 / beta) / (2.0 * trials))
    level = min(1.0, 1.0 - confidence_mass / 2.0 + delta)
    idx = min(trials - 1, max(0, math.ceil(trials * level) - 1))
    return BoundResult(value=float(outputs[idx]), exact=False, quantile_miss_prob=beta)


class BudgetExceededError(RuntimeError):
    def __init__(self, level: int, datasets: int, budget: int):
        super().__init__(
            f"level {level} needs {datasets} dataset probes, over the budget of {budget} "
            "(raise max_datasets_per_level or allow_sampling)"
        )
        self.level = level


@dataclass(frozen=True)
class ProbeConfig:
    trials_per_dataset: int = 10_000
    max_datasets_per_level: int = 4_000  # enumerates to depth 8 by multisets (C(13, 7) = 1716), 6 ordered (5^5)
    allow_sampling: bool = False  # sample a subset beyond the budget, flagged in the transcript

    def __post_init__(self):
        for name in ("trials_per_dataset", "max_datasets_per_level"):
            _check_count(name, getattr(self, name))


@dataclass(frozen=True)
class SlowRateConstruction:
    """Transcript of the slow-rate adversary: envelope, support, tails, bounds."""

    depth: int
    R: tuple[float, ...]
    points: tuple[float, ...]  # i_1..i_J, i_1 = 0
    tails: tuple[float, ...]  # P_1..P_J, P_1 = 1
    bounds: tuple[float, ...]  # c_1..c_{J-1}
    trials_per_dataset: int
    probe_stats: dict = field(default_factory=dict)

    def check_invariants(self, atol: float = 1e-9) -> None:
        J = self.depth
        for j in range(2, J + 1):
            i_j, p_j = self.points[j - 1], self.tails[j - 1]
            if not i_j > max(self.points[j - 2], self.bounds[j - 2]):
                raise AssertionError(f"ordering violated at level {j}")
            cap = min(self.tails[j - 2] / 2.0, self.R[j - 2] / (2.0 * (j - 1)))
            if p_j > cap + atol:
                raise AssertionError(f"tail cap violated at level {j}")
            if abs(i_j * p_j - (2.0 - self.R[j - 2])) > atol:
                raise AssertionError(f"revenue identity violated at level {j}")

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "R": list(self.R),
            "i": list(self.points),
            "P": list(self.tails),
            "c": list(self.bounds),
            "trials_per_dataset": self.trials_per_dataset,
            "probe_stats": self.probe_stats,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def build_slow_rate_distribution(
    learner: Learner,
    phi: Callable[[int], float],
    depth: int,
    probe: ProbeConfig | None = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[Distribution, SlowRateConstruction]:
    """Adversarial finite PMF forcing the learner's gap above R(j)/4 at n = j.

    Level by level: bound the learner's output c_{j-1} over every dataset of
    size j-1 it can see over the support so far, then pick the smallest integer
    support point

        i_j = max(ceil(i_{j-1}) + 1, ceil(c_{j-1}) + 1, ceil((2 - R(j-1)) / P_max))

    with P_max = min(P_{j-1}/2, R(j-1)/(2(j-1))), and tail P_j = (2 - R(j-1))/i_j,
    so that i_j * P_j = 2 - R(j-1) exactly.  The depth-J truncation keeps atom
    masses P_j - P_{j+1} and lumps P_J onto the last point, so the per-level
    revenue identity survives truncation at every level.

    A learner with decide_counts is symmetric and deterministic, so it is
    probed once per multiset: the C(2j-3, j-1) count vectors, priced in one
    decide_counts call.  Any other learner is probed on all (j-1)^(j-1)
    ordered tuples, each bounded at confidence R(j-1)/4.  A dataset is a row
    of support indices; past the mode's budget, allow_sampling draws that many
    rows with rng.integers.  probe_stats records the mode of every level.
    """
    _check_count("construction depth", depth, least=2)
    probe = probe or ProbeConfig()
    rate = monotone_envelope(phi, depth)
    points = [0.0]
    tails = [1.0]
    bounds: list[float] = []
    probe_stats: dict = {"levels": []}
    counted = learner.decide_counts is not None  # probed by multisets (see above)
    for j in range(2, depth + 1):
        r_prev = rate.R[j - 2]
        support = np.array(points)
        total = math.comb(2 * j - 3, j - 1) if counted else (j - 1) ** (j - 1)
        sampled = total > probe.max_datasets_per_level
        if sampled:
            if not probe.allow_sampling:
                raise BudgetExceededError(j, total, probe.max_datasets_per_level)
            if rng is None:
                raise ValueError("sampled probing needs an rng")
            rows = rng.integers(j - 1, size=(probe.max_datasets_per_level, j - 1))
        elif counted:
            rows = np.array(list(itertools.combinations_with_replacement(range(j - 1), j - 1)))
        else:
            rows = np.array(list(itertools.product(range(j - 1), repeat=j - 1)))
        if counted:
            c = max(0.0, float(np.max(learner.price_counts(support, tally(rows, j - 1), j - 1))))
        else:
            c = 0.0
            for row in rows:
                res = bound_learner_output(
                    learner, support[row], confidence_mass=r_prev / 4.0, trials=probe.trials_per_dataset, rng=rng
                )
                c = max(c, res.value)
        bounds.append(c)
        probe_stats["levels"].append(
            {
                "level": j,
                "mode": "multiset" if counted else "ordered",
                "datasets_probed": len(rows),
                "datasets_total": total,
                "sampled": sampled,
            }
        )
        p_max = min(tails[-1] / 2.0, r_prev / (2.0 * (j - 1)))
        # tolerance-aware ceil: the ratio lands on exact integers (e.g. 30 at
        # phi = 1/j) up to float dust, and the smallest feasible integer wins
        i_j = max(
            math.ceil(points[-1]) + 1,
            math.ceil(c) + 1,
            math.ceil((2.0 - r_prev) / p_max - 1e-9),
        )
        points.append(float(i_j))
        tails.append((2.0 - r_prev) / i_j)
    masses = [tails[j] - tails[j + 1] for j in range(depth - 1)] + [tails[-1]]
    pmf = FinitePMF(values=np.array(points), masses=np.array(masses))
    label = f"slow_rate[{learner.name},J={depth}]"
    construction = SlowRateConstruction(
        depth=depth,
        R=rate.R,
        points=tuple(points),
        tails=tuple(tails),
        bounds=tuple(bounds),
        trials_per_dataset=probe.trials_per_dataset,
        probe_stats=probe_stats,
    )
    construction.check_invariants()
    return Distribution(label=label, variant=pmf), construction


def validate_slow_rate(
    dist: Distribution,
    construction: SlowRateConstruction,
    learner: Learner,
    trials: int,
    base_seed: int,
    levels: Sequence[int] | None = None,
) -> list[dict]:
    """Monte Carlo gap at n = j against the R(j)/4 target, one row per level:
    each of `levels` (every level 2..depth when None)."""
    levels = range(2, construction.depth + 1) if levels is None else list(levels)
    outside = [j for j in levels if not 2 <= j <= construction.depth]
    if outside:
        raise ValueError(f"levels {outside} lie outside 2..{construction.depth}")
    rows = []
    for j in levels:
        point = estimate_gap(learner, dist, n=j, trials=trials, base_seed=base_seed)
        target = construction.R[j - 1] / 4.0
        rows.append(
            {
                "level": j,
                "mean_gap": point.mean_gap,
                "std_err": point.std_err,
                "target_quarter_R": target,
                "meets_target": bool(point.mean_gap >= target),
            }
        )
    return rows


# -- uniform two-family gadget ------------------------------------------------


@dataclass(frozen=True)
class GadgetParams:
    """Geometry of the two-family gadget around x_pq = q*x/(p+q)."""

    x: float
    q: float
    p: float
    gamma: float
    x_pq: float
    midpoint: float


def uniform_gadget(x: float, q: float, p: float, gamma: Optional[float] = None) -> GadgetParams:
    """Validate and derive the gadget geometry; gamma=None picks min(p, x-x_pq)/50."""
    if not (0.5 < x <= 1.0):
        raise InfeasibleParametersError(f"x = {x!r} outside (1/2, 1]")
    if not q >= 0.5:  # written so that NaN fails, as below
        raise InfeasibleParametersError(f"q = {q!r} must be at least 1/2")
    if not p > 0.0:
        raise InfeasibleParametersError(f"p = {p!r} must be positive")
    x_pq = q * x / (p + q)
    if x_pq <= 0.5:
        raise InfeasibleParametersError(f"x_pq = {x_pq!r} <= 1/2 (p too large for this x, q)")
    if gamma is None:
        gamma = min(p, x - x_pq) / 50.0
    if not gamma > 0.0:
        raise InfeasibleParametersError(f"gamma must be positive, got {gamma!r}")
    if gamma > min(p, x - x_pq) / 20.0:
        raise InfeasibleParametersError(
            f"gamma = {gamma!r} fails the smallness check gamma <= min(p, x - x_pq)/20"
        )
    if x - gamma**2 == x or x_pq - gamma**2 == x_pq or x_pq + gamma**2 == x_pq:
        raise InfeasibleParametersError(f"gamma = {gamma!r} is too small: x - gamma^2 or x_pq -/+ gamma^2 rounds to its centre")
    if q + p + gamma >= 1.0:
        raise InfeasibleParametersError("q + p + gamma must stay below 1 to leave anchor mass")
    return GadgetParams(x=x, q=q, p=p, gamma=gamma, x_pq=x_pq, midpoint=(x_pq + x) / 2.0)


def gadget_member(gp: GadgetParams, sigma: int) -> Distribution:
    """Canonical three-atom member of the sigma family: mass q at x, p + sigma*gamma
    at x_pq, and the remainder on a low anchor at x_pq/2.

    The mass-transport condition (move the x_pq mass to zero, demand that the
    optimum lands in [x - gamma^2, x] and that the restriction to prices below
    x_pq - gamma^2 peaks exactly there) is verified numerically; parameters
    failing it are rejected rather than assumed away.
    """
    _check_sigma(sigma)
    mid_mass = gp.p + sigma * gp.gamma
    anchor = gp.x_pq / 2.0
    anchor_mass = 1.0 - gp.q - mid_mass
    if mid_mass <= 0.0 or anchor_mass <= 0.0:
        raise InfeasibleParametersError("gadget member has a nonpositive atom mass")
    g2 = gp.gamma**2
    if not anchor < gp.x_pq - g2:
        raise InfeasibleParametersError("anchor price collides with the x_pq bracket")
    # transported law: x_pq mass moved to 0; optimum must sit at x and the
    # restriction to [0, x_pq - gamma^2] must peak at the bracket edge
    rev_anchor = anchor * (1.0 - mid_mass)
    rev_x = gp.x * gp.q
    rev_edge = (gp.x_pq - g2) * gp.q
    if not (rev_x > rev_anchor and rev_x > 0.0):
        raise InfeasibleParametersError("no feasible anchor: transported optimum leaves [x - gamma^2, x]")
    if not rev_edge > rev_anchor:
        raise InfeasibleParametersError(
            "no feasible anchor: restricted transported optimum below x_pq - gamma^2"
        )
    pmf = FinitePMF(
        values=np.array([anchor, gp.x_pq, gp.x]),
        masses=np.array([anchor_mass, mid_mass, gp.q]),
    )
    return Distribution(label=f"gadget[sigma={sigma:+d},x={gp.x:g},q={gp.q:g},p={gp.p:g}]", variant=pmf)


class GadgetStructureError(ValueError):
    """The distribution fails one of the family's mass conditions (named)."""


@dataclass(frozen=True)
class GadgetReport:
    sigma: int
    side: str  # which side of the midpoint was swept
    margin: float  # max revenue minus best revenue on the swept side
    passed: bool  # margin > gamma/4
    worst_price: float  # the swept price attaining the minimum margin


def verify_gadget(gp: GadgetParams, dist: Distribution, sigma: int, sweep_side: Optional[str] = None) -> GadgetReport:
    """Check family membership, then sweep the claimed-bad side of the midpoint.

    Membership (the three mass conditions) is checked against sigma.  The sweep prices
    the side's atoms and the midpoint, exact on finite support (ValueError on any other
    law); it returns the minimum margin max_t rev - rev(t') and whether it clears gamma/4.
    `sweep_side` ("low"/"high") overrides the side implied by sigma, which is
    how the deliberate wrong-side test is run.
    """
    _check_sigma(sigma)
    if not isinstance(dist.variant, FinitePMF):
        raise ValueError("verify_gadget's sweep is exact only on finite support")
    g2 = gp.gamma**2
    top = dist.survival_strict(gp.x - g2)  # D((x - gamma^2, 1])
    if not (gp.q - 1e-12 <= top <= gp.q + g2 + 1e-12):
        raise GadgetStructureError(f"condition 1 violated: D((x-gamma^2, 1]) = {top!r} not in [q, q+gamma^2]")
    mid = dist.survival(gp.x_pq - g2) - dist.survival(gp.x_pq + g2)  # D([x_pq - gamma^2, x_pq + gamma^2))
    want = gp.p + sigma * gp.gamma
    if not (want - g2 - 1e-12 <= mid <= want + g2 + 1e-12):
        raise GadgetStructureError(
            f"condition 2 violated: D([x_pq-gamma^2, x_pq+gamma^2)) = {mid!r} not within gamma^2 of p + sigma*gamma"
        )
    dead = dist.survival(gp.x_pq + g2) - dist.survival_strict(gp.x - g2)
    if dead > 1e-12:
        raise GadgetStructureError(f"condition 3 violated: D([x_pq+gamma^2, x-gamma^2]) = {dead!r} != 0")

    opt = dist.optimal_revenue().value
    side = sweep_side or ("low" if sigma == -1 else "high")
    if side not in ("low", "high"):
        raise ValueError("sweep_side must be 'low' or 'high'")
    atoms = dist.variant.values
    # on (v_i, v_{i+1}] revenue is p * Pr[v >= v_{i+1}], which rises with p: atoms and midpoint hold the max
    cand = np.append(atoms[(atoms <= gp.midpoint) if side == "low" else (atoms >= gp.midpoint)], gp.midpoint)
    revs = dist.revenue(cand)
    worst = int(np.argmax(revs))
    margin = opt - float(revs[worst])
    return GadgetReport(
        sigma=sigma,
        side=side,
        margin=margin,
        passed=bool(margin > gp.gamma / 4.0 - 1e-12),
        worst_price=float(cand[worst]),
    )


# -- coin-distinguishing game --------------------------------------------------


@dataclass(frozen=True)
class CoinGameResult:
    p: float
    gamma: float
    c: float
    n: int
    trials: int
    error_rate: float
    std_err: float


def coin_game(p: float, gamma: float, c: float, trials: int, rng: np.random.Generator) -> CoinGameResult:
    """Estimate the error of the count-threshold test between Bernoulli(p +/- gamma).

    n = ceil(c*p/gamma^2) samples per trial; the estimator says +1 iff the
    success count is at least n*p (ties go up, matching the likelihood-ratio
    test's knife edge).  Only the count matters, so trials draw the binomial
    sufficient statistic directly.
    """
    if not (0.0 < gamma < p) or p + gamma >= 1.0 or gamma**2 == 0.0:
        raise ValueError(f"need 0 < gamma < p, p + gamma < 1 and gamma^2 > 0 (no underflow), got gamma = {gamma!r}")
    _check_count("trials", trials)
    size = c * p / gamma**2
    if not 0.0 < size < 2.0**63:  # n = ceil(size) must be >= 1 and fit in an int64
        raise ValueError(f"c = {c!r} makes c*p/gamma^2 = {size!r}, but the sample size must be >= 1 and below 2^63")
    n = math.ceil(size)
    sigma = np.where(rng.random(trials) < 0.5, -1, 1)
    counts = rng.binomial(n, p + sigma * gamma)
    guesses = np.where(counts >= n * p, 1, -1)
    errors = guesses != sigma
    rate = float(np.mean(errors))
    return CoinGameResult(
        p=p,
        gamma=gamma,
        c=c,
        n=n,
        trials=trials,
        error_rate=rate,
        std_err=math.sqrt(max(rate * (1.0 - rate), 1e-300) / trials),
    )


# -- exponential-rate witness pair ---------------------------------------------


@dataclass(frozen=True)
class WitnessPoint:
    n: int
    a_n: float  # Pr[learner outputs p on the all-p dataset]
    witness: str  # which of the two distributions exhibits the bound
    gap: float  # the implied revenue gap at this n


def exp_lb_witness(
    learner: Learner,
    p: float,
    p_prime: float,
    c: float,
    n_grid: Sequence[int],
    trials: int,
    rng: Optional[np.random.Generator] = None,
) -> list[WitnessPoint]:
    """For each n: estimate a_n on the all-p dataset and report which member of
    the two-point pair witnesses the lower bound.  A randomized learner is
    probed `trials` times, a deterministic one once; trials must be >= 1 for both.

    a_n <= 1/2: the point mass at p already loses p/2.  Otherwise the mixed
    distribution loses q^n * (c-1) * p / 2 through the all-p sample event,
    q = 1 - c*p/p_prime.
    """
    if not (0 < p < p_prime and c > 1.0 and c * p < p_prime):
        raise ValueError(f"need 0 < p < p_prime, c > 1, and c*p < p_prime, got p={p!r}, p_prime={p_prime!r}, c={c!r}")
    q = 1.0 - c * p / p_prime
    out = []
    for n in _sample_sizes(n_grid):
        a_n = float(np.mean(_outputs(learner, np.full(n, p), trials, rng) == p))
        if a_n <= 0.5:
            out.append(WitnessPoint(n=n, a_n=a_n, witness="point_mass", gap=p / 2.0))
        else:
            out.append(WitnessPoint(n=n, a_n=a_n, witness="two_point", gap=q**n * (c - 1.0) * p / 2.0))
    return out
