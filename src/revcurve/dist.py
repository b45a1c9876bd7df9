"""Valuation distributions: exact survival mass, true and optimal revenue, sampling.

Conventions (used by every module downstream):
  survival(p) = Pr[v >= p]      an atom exactly at the posted price sells
  cdf(p)      = Pr[v <  p]
  revenue(p)  = p * survival(p)
  optimal revenue = sup_p revenue(p), which may be a limit attained by no price

Three variants sit behind one `Distribution` wrapper:
  FinitePMF       exact atoms; optimum by enumeration
  TailRuleDist    countable support given by index rules k -> (value, survival);
                  materialized to a finite depth for sampling, with the residual
                  tail lumped onto one extra atom
  ContinuousDist  CDF/quantile pair; optimum by bracketing grid plus
                  golden-section refinement
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .empirical import Sample

__all__ = [
    "InfeasibleParametersError",
    "SearchBudgetError",
    "OptResult",
    "FinitePMF",
    "TailRuleDist",
    "ContinuousDist",
    "Distribution",
    "zoo",
    "zoo_names",
    "parse_dist",
]

_MASS_TOL = 1e-12
# budget of the continuous optimum search
_OPT_GRID_POINTS = 4096
_OPT_TOL = 1e-9
_OPT_MAX_EXPANSIONS = 60


class InfeasibleParametersError(ValueError):
    """Constructor parameters violate a feasibility constraint (named in the message)."""


class SearchBudgetError(RuntimeError):
    """Optimum search exhausted its budget; carries the best bracket found."""

    def __init__(self, message: str, bracket: tuple[float, float], best_value: float):
        super().__init__(f"{message} (best bracket [{bracket[0]!r}, {bracket[1]!r}], value {best_value!r})")
        self.bracket = bracket
        self.best_value = best_value


class OptResult(NamedTuple):
    value: float
    price: Optional[float]  # None when the supremum is a limit attained by no price


@dataclass(frozen=True)
class FinitePMF:
    """Atoms (value, mass), values strictly increasing, masses summing to one."""

    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        m = np.asarray(self.masses, dtype=np.float64)
        if v.ndim != 1 or m.ndim != 1 or v.size != m.size or v.size == 0:
            raise InfeasibleParametersError("values and masses must be matching nonempty 1-D arrays")
        if float(v[0]) < 0.0:
            raise InfeasibleParametersError("atom values must be nonnegative")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise InfeasibleParametersError("atom values must be strictly increasing")
        if not np.all(m > 0):
            raise InfeasibleParametersError("atom masses must be strictly positive")
        if abs(float(m.sum()) - 1.0) > _MASS_TOL:
            raise InfeasibleParametersError(f"atom masses must sum to 1 within {_MASS_TOL}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "masses", m)

    @cached_property
    def _tail(self) -> np.ndarray:
        # _tail[i] = Pr[v >= values[i]]; one trailing zero for searchsorted overflow
        t = np.concatenate([np.cumsum(self.masses[::-1])[::-1], [0.0]])
        t[0] = 1.0
        return t

    @cached_property
    def _cum(self) -> np.ndarray:
        c = np.cumsum(self.masses)
        c[-1] = 1.0
        return c

    def survival(self, p: float, strict: bool = False) -> float:
        side = "right" if strict else "left"
        return float(self._tail[np.searchsorted(self.values, p, side=side)])

    def survival_many(self, p: np.ndarray, strict: bool = False) -> np.ndarray:
        side = "right" if strict else "left"
        return self._tail[np.searchsorted(self.values, p, side=side)]

    def optimal_revenue(self) -> OptResult:
        rev = self.values * self._tail[: self.values.size]
        i = int(np.argmax(rev))  # first maximizer = smallest optimal atom
        return OptResult(float(rev[i]), float(self.values[i]))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = np.searchsorted(self._cum, rng.random(n), side="right")
        return self.values[idx]

    def atom_points(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class TailRuleDist:
    """Countable support via index rules, truncated to a finite depth for sampling.

    value_fn(k) is strictly increasing, survival_fn(k) = Pr[v >= value_fn(k)]
    with survival_fn(0) = 1.  `revenue_limit` is the limiting tail revenue when
    the rule admits one (math.inf is allowed); the supremum over the whole rule
    is assumed to be max(best atom up to the truncation depth, revenue_limit),
    which holds for every rule shipped here because the tail revenue is
    monotone.  Sampling draws from the materialized atoms, with the residual
    tail mass lumped onto one extra atom at value_fn(depth + 1).
    """

    rule_name: str
    value_fn: Callable[[int], float]
    survival_fn: Callable[[int], float]
    truncation_depth: int
    revenue_limit: Optional[float] = None
    params: dict = field(default_factory=dict)

    @cached_property
    def _materialized(self) -> FinitePMF:
        k_range = np.arange(self.truncation_depth + 1)
        vals = np.array([self.value_fn(int(k)) for k in k_range], dtype=np.float64)
        surv = np.array([self.survival_fn(int(k)) for k in k_range], dtype=np.float64)
        tail = self.survival_fn(self.truncation_depth + 1)
        masses = np.append(surv[:-1] - surv[1:], surv[-1] - tail)
        vals = np.append(vals, self.value_fn(self.truncation_depth + 1))
        masses = np.append(masses, tail)
        masses = masses / masses.sum()
        return FinitePMF(values=vals, masses=masses)

    def _index_at(self, p: float, strict: bool) -> Optional[int]:
        """Smallest k with value_fn(k) >= p (> p when strict), or None below the support."""
        cmp = (lambda v: v > p) if strict else (lambda v: v >= p)
        if cmp(self.value_fn(0)):
            return None
        hi = 1
        while not cmp(self.value_fn(hi)):
            hi *= 2
            if hi > 1 << 60:
                raise RuntimeError("tail rule support search failed to bracket the price")
        lo = hi // 2  # value_fn(lo) fails cmp
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if cmp(self.value_fn(mid)):
                hi = mid
            else:
                lo = mid
        return hi

    def survival(self, p: float, strict: bool = False) -> float:
        k = self._index_at(p, strict)
        return 1.0 if k is None else float(self.survival_fn(k))

    def survival_many(self, p: np.ndarray, strict: bool = False) -> np.ndarray:
        # exact on [0, value_fn(depth + 1)] because the lump atom carries the
        # whole residual tail; sample values never land beyond it
        return self._materialized.survival_many(p, strict)

    def optimal_revenue(self) -> OptResult:
        k_range = range(self.truncation_depth + 1)
        revs = [self.value_fn(k) * self.survival_fn(k) for k in k_range]
        best = int(np.argmax(revs))
        atom_best = revs[best]
        if self.revenue_limit is not None and self.revenue_limit > atom_best:
            return OptResult(float(self.revenue_limit), None)
        return OptResult(float(atom_best), float(self.value_fn(best)))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._materialized.draw(rng, n)

    def atom_points(self) -> np.ndarray:
        return self._materialized.values


@dataclass(frozen=True)
class ContinuousDist:
    """Atomless law given by a CDF/quantile pair.

    cdf_fn(p) = Pr[v < p] (vectorized), quantile_fn the inverse used for
    sampling.  `revenue_sup` declares an analytic supremum that no price
    attains (e.g. revenue increasing toward a limit); when absent the optimum
    is located numerically.
    """

    rule_name: str
    cdf_fn: Callable
    quantile_fn: Callable
    support_upper: Optional[float] = None
    revenue_sup: Optional[float] = None
    params: dict = field(default_factory=dict)

    def survival(self, p: float, strict: bool = False) -> float:
        return 1.0 - float(self.cdf_fn(p))

    def survival_many(self, p: np.ndarray, strict: bool = False) -> np.ndarray:
        return 1.0 - np.asarray(self.cdf_fn(p), dtype=np.float64)

    def _revenue_grid(self, p: np.ndarray) -> np.ndarray:
        return p * self.survival_many(p)

    def optimal_revenue(self) -> OptResult:
        if self.revenue_sup is not None:
            return OptResult(float(self.revenue_sup), None)
        hi = self.support_upper if self.support_upper is not None else 1.0
        expansions = 0
        while True:
            grid = np.linspace(0.0, hi, _OPT_GRID_POINTS)
            rev = self._revenue_grid(grid)
            i = int(np.argmax(rev))
            if self.support_upper is not None or i < _OPT_GRID_POINTS - 2:
                break
            expansions += 1
            if expansions > _OPT_MAX_EXPANSIONS:
                raise SearchBudgetError(
                    "optimum search did not converge within the expansion budget",
                    bracket=(float(grid[i - 1]), float(grid[i])),
                    best_value=float(rev[i]),
                )
            hi *= 2.0
        lo_b = float(grid[max(i - 1, 0)])
        hi_b = float(grid[min(i + 1, _OPT_GRID_POINTS - 1)])
        p_star, v_star = _golden_max(lambda p: float(self._revenue_grid(np.array([p]))[0]), lo_b, hi_b, _OPT_TOL)
        interior = 0 < i < _OPT_GRID_POINTS - 1
        exceeds_edges = v_star > float(rev[0]) + 1e-9 and v_star > float(rev[-1]) + 1e-9
        if interior and exceeds_edges:
            return OptResult(v_star, p_star)
        return OptResult(max(v_star, float(rev[i])), None)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.quantile_fn(rng.random(n)), dtype=np.float64)

    def atom_points(self) -> np.ndarray:
        return np.empty(0, dtype=np.float64)


def _golden_max(f: Callable[[float], float], a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [a, b]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


@dataclass(frozen=True)
class Distribution:
    """One valuation distribution: a labelled variant plus the shared query API."""

    label: str
    variant: FinitePMF | TailRuleDist | ContinuousDist

    def survival(self, p: float) -> float:
        """Pr[v >= p]; an atom exactly at p counts toward the mass."""
        if p < 0.0:
            raise ValueError("price must be nonnegative")
        return self.variant.survival(p, strict=False)

    def survival_strict(self, p: float) -> float:
        """Pr[v > p]."""
        if p < 0.0:
            raise ValueError("price must be nonnegative")
        return self.variant.survival(p, strict=True)

    def cdf(self, p: float) -> float:
        """Pr[v < p]."""
        return 1.0 - self.variant.survival(p, strict=False) if p > 0.0 else 0.0

    def cdf_right(self, p: float) -> float:
        """Pr[v <= p]."""
        if p < 0.0:
            return 0.0
        return 1.0 - self.variant.survival(p, strict=True)

    def cdf_many(self, p: np.ndarray) -> np.ndarray:
        """Vectorized Pr[v < p]."""
        p = np.asarray(p, dtype=np.float64)
        return np.where(p > 0.0, 1.0 - self.variant.survival_many(np.maximum(p, 0.0), strict=False), 0.0)

    def cdf_right_many(self, p: np.ndarray) -> np.ndarray:
        """Vectorized Pr[v <= p]."""
        p = np.asarray(p, dtype=np.float64)
        return np.where(p >= 0.0, 1.0 - self.variant.survival_many(np.maximum(p, 0.0), strict=True), 0.0)

    def revenue(self, p: float) -> float:
        """Expected payment p * Pr[v >= p] of posting price p."""
        if not 0.0 <= p < math.inf:
            raise ValueError(f"price must be finite and nonnegative, got {p!r}")
        return p * self.variant.survival(p, strict=False)

    def optimal_revenue(self) -> OptResult:
        """sup_p revenue(p); price is None when the sup is attained by no price."""
        return self.variant.optimal_revenue()

    def sample(self, rng: np.random.Generator, n: int) -> Sample:
        """n i.i.d. draws; identical generator state gives identical output."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        return Sample(values=self.variant.draw(rng, n))

    def candidate_points(self) -> np.ndarray:
        """Atom locations (empty for continuous laws); used by CDF-deviation scans."""
        return self.variant.atom_points()

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        v = self.variant
        if isinstance(v, FinitePMF):
            return {
                "label": self.label,
                "variant": "finite_pmf",
                "atoms": [[float(a), float(m)] for a, m in zip(v.values, v.masses)],
            }
        if v.rule_name not in zoo_names():
            raise ValueError(f"{self.label}: rule {v.rule_name!r} is not in the zoo, so from_dict could not rebuild it")
        doc = {"label": self.label, "variant": "continuous", "rule_name": v.rule_name, "params": dict(v.params)}
        if isinstance(v, TailRuleDist):
            doc.update(variant="tail_rule", truncation_depth=v.truncation_depth)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "Distribution":
        variant = doc["variant"]
        if variant == "finite_pmf":
            atoms = doc["atoms"]
            pmf = FinitePMF(
                values=np.array([a[0] for a in atoms], dtype=np.float64),
                masses=np.array([a[1] for a in atoms], dtype=np.float64),
            )
            return Distribution(label=doc.get("label", "finite_pmf"), variant=pmf)
        if variant in ("tail_rule", "continuous"):
            return zoo(doc["rule_name"], truncation_depth=doc.get("truncation_depth"), **doc.get("params", {}))
        raise ValueError(f"unknown distribution variant {variant!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Distribution":
        return Distribution.from_dict(json.loads(text))


# -- the zoo ---------------------------------------------------------------
#
# Rule functions live at module level so distributions stay picklable for
# parallel Monte Carlo workers.


def _erm_hard_value(k: int) -> float:
    return float(4.0**k)


def _erm_hard_survival(k: int) -> float:
    # Pr[v >= 4^k] = 1/(2*4^k) for k >= 1; the whole mass sits at >= 1
    return 1.0 if k == 0 else 0.5 * 4.0 ** (-k)


def _discrete_no_opt_value(k: int) -> float:
    return float(k + 1)


def _discrete_no_opt_survival(k: int) -> float:
    # support {1, 2, 3, ...} with Pr[v >= m] = 2/(m+1)
    return 2.0 / (k + 2)


def _uniform01_cdf(p):
    return np.clip(p, 0.0, 1.0)


def _uniform01_quantile(u):
    return u


def _regular_no_opt_cdf(p):
    p = np.maximum(np.asarray(p, dtype=np.float64), 0.0)
    return 1.0 - 1.0 / (p + 1.0)


def _regular_no_opt_quantile(u):
    u = np.asarray(u, dtype=np.float64)
    return u / (1.0 - u)


def _regular_no_opt2_cdf(p):
    p = np.maximum(np.asarray(p, dtype=np.float64), 0.0)
    w = 1.0 / (p + 1.0)
    return 1.0 - 0.5 * (w + w * w)


def _regular_no_opt2_quantile(u):
    u = np.asarray(u, dtype=np.float64)
    w = (-1.0 + np.sqrt(1.0 + 8.0 * (1.0 - u))) / 2.0
    return 1.0 / w - 1.0


_DEFAULT_DEPTH = {"erm_hard": 20, "discrete_no_opt": 10_000}


def zoo(name: str, truncation_depth: int | None = None, **params) -> Distribution:
    """Named distributions used throughout; see zoo_names() for the catalogue."""
    if name == "erm_hard":
        depth = truncation_depth or _DEFAULT_DEPTH[name]
        return Distribution(
            label=f"erm_hard(trunc={depth})",
            variant=TailRuleDist(
                rule_name="erm_hard",
                value_fn=_erm_hard_value,
                survival_fn=_erm_hard_survival,
                truncation_depth=depth,
                revenue_limit=0.5,  # rev(4^k) = 1/2 along the whole tail
            ),
        )
    if name == "discrete_no_opt":
        depth = truncation_depth or _DEFAULT_DEPTH[name]
        return Distribution(
            label=f"discrete_no_opt(trunc={depth})",
            variant=TailRuleDist(
                rule_name="discrete_no_opt",
                value_fn=_discrete_no_opt_value,
                survival_fn=_discrete_no_opt_survival,
                truncation_depth=depth,
                revenue_limit=2.0,  # rev(m) = 2m/(m+1) increases toward 2, never attained
            ),
        )
    if name == "uniform01":
        return Distribution(
            label="uniform01",
            variant=ContinuousDist(
                rule_name="uniform01",
                cdf_fn=_uniform01_cdf,
                quantile_fn=_uniform01_quantile,
                support_upper=1.0,
            ),
        )
    if name == "regular_no_opt":
        return Distribution(
            label="regular_no_opt",
            variant=ContinuousDist(
                rule_name="regular_no_opt",
                cdf_fn=_regular_no_opt_cdf,
                quantile_fn=_regular_no_opt_quantile,
                revenue_sup=1.0,
            ),
        )
    if name == "regular_no_opt2":
        return Distribution(
            label="regular_no_opt2",
            variant=ContinuousDist(
                rule_name="regular_no_opt2",
                cdf_fn=_regular_no_opt2_cdf,
                quantile_fn=_regular_no_opt2_quantile,
                revenue_sup=0.5,
            ),
        )
    if name == "two_point":
        return two_point(**params)
    if name == "finite":
        pts = params.get("points")
        if not pts:
            raise InfeasibleParametersError("finite requires points=[(value, mass), ...]")
        vals = np.array([p[0] for p in pts], dtype=np.float64)
        masses = np.array([p[1] for p in pts], dtype=np.float64)
        return Distribution(label=params.get("label", "finite"), variant=FinitePMF(vals, masses))
    raise ValueError(f"unknown zoo distribution {name!r}")


def two_point(p: float, p_prime: float, c: float) -> Distribution:
    """Two-atom pair with mass q at the low price, solving p'(1-q) = c*p.

    The high price then carries revenue c*p while the low price keeps revenue
    p, so c > 1 separates them by a factor c.
    """
    if not (0 < p < p_prime):
        raise InfeasibleParametersError("two_point requires 0 < p < p_prime")
    if c * p >= p_prime:
        raise InfeasibleParametersError("two_point requires c*p < p_prime (else q = 1 - c*p/p_prime <= 0)")
    q = 1.0 - c * p / p_prime
    if not (0.0 < q < 1.0):
        raise InfeasibleParametersError(f"two_point solved q = {q!r} outside (0, 1)")
    return Distribution(
        label=f"two_point(p={p:g},p'={p_prime:g},c={c:g})",
        variant=FinitePMF(values=np.array([p, p_prime]), masses=np.array([q, 1.0 - q])),
    )


def zoo_names() -> list[str]:
    return ["erm_hard", "discrete_no_opt", "regular_no_opt", "regular_no_opt2", "two_point", "finite", "uniform01"]


def parse_dist(spec: str) -> Distribution:
    """Parse a CLI distribution spec.

    Forms: "erm_hard", "uniform01", "two_point:p=1,p_prime=3,c=2",
    "finite:1@0.2,10@0.79,1000@0.01", "erm_hard:truncation_depth=12",
    or a path to a JSON document produced by Distribution.to_json().
    """
    if spec.endswith(".json"):
        with open(spec) as fh:
            return Distribution.from_dict(json.load(fh))
    name, _, arg_str = spec.partition(":")
    if name == "finite" and arg_str:
        pts = []
        for item in arg_str.split(","):
            v, _, m = item.partition("@")
            pts.append((float(v), float(m)))
        return zoo("finite", points=pts)
    kwargs = {}
    if arg_str:
        for item in arg_str.split(","):
            k, _, v = item.partition("=")
            k = {"pp": "p_prime"}.get(k.strip(), k.strip())
            kwargs[k] = int(v) if k == "truncation_depth" else float(v)
    return zoo(name, **kwargs)
