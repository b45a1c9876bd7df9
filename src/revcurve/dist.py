"""Valuation distributions: exact survival mass, true and optimal revenue, sampling.

Conventions (used by every module downstream):
  survival(p) = Pr[v >= p]      an atom exactly at the posted price sells
  cdf(p)      = Pr[v <  p]
  revenue(p)  = p * survival(p)
  optimal revenue = sup_p revenue(p), which may be a limit attained by no price

Three variants sit behind one `Distribution` wrapper:
  FinitePMF       exact atoms; optimum by enumeration
  TailRuleDist    countable support given by index rules k -> (value, survival);
                  queries answer on the rule, draws come from its table to a
                  finite depth, with the residual tail lumped onto one extra atom
  ContinuousDist  CDF/quantile pair; optimum by bracketing grid plus
                  golden-section refinement
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .empirical import Sample

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
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(m))):
            raise InfeasibleParametersError("atom values and masses must be finite")
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

    def survival(self, p, strict: bool = False):
        side = "right" if strict else "left"
        return self._tail[np.searchsorted(self.values, p, side=side)]

    @cached_property
    def atom_revenues(self) -> np.ndarray:
        """revenue(values[i]) = values[i] * Pr[v >= values[i]] for every atom."""
        return self.values * self._tail[: self.values.size]

    def optimal_revenue(self) -> OptResult:
        rev = self.atom_revenues
        i = int(np.argmax(rev))  # first maximizer = smallest optimal atom
        return OptResult(float(rev[i]), float(self.values[i]))

    def _atoms_hit(self, u: np.ndarray) -> np.ndarray:
        """The atom index each uniform in u draws: the first whose cumulative mass exceeds it."""
        return np.searchsorted(self._cum, u, side="right")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.values[self._atoms_hit(rng.random(n))]

    def draw_counts(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """How many of n i.i.d. draws land on each atom: one multinomial draw."""
        return rng.multinomial(n, self.masses)

    def count_rows(self, rngs, n: int) -> np.ndarray:
        """One count row per stream, shape (rows, K): its draw_counts when
        K <= n, else the tally of the n values its draw returns."""
        k = self.values.size
        if k <= n:
            return np.array([self.draw_counts(rng, n) for rng in rngs])
        return tally(self._atoms_hit(np.array([rng.random(n) for rng in rngs])), k)


def tally(idx: np.ndarray, k: int) -> np.ndarray:
    """Count rows of shape (rows, k) from atom-index rows: row r counts each index 0..k-1 in idx[r]."""
    rows = len(idx)
    cells = idx + k * np.arange(rows)[:, None]  # row r tallies into cells r*k .. r*k + k-1
    return np.bincount(cells.ravel(), minlength=rows * k).reshape(rows, k)


@dataclass(frozen=True)
class TailRuleDist:
    """Countable support via index rules, truncated to a finite depth for sampling.

    value_fn(k) is strictly increasing, survival_fn(k) = Pr[v >= value_fn(k)]
    with survival_fn(0) = 1.  Every query (survival, revenue, optimum) answers
    on the rule itself at every price, +inf included.  Draws come from the
    table of the first depth + 2 atoms (depth >= 0, value_fn(depth + 1) a
    finite float), with the tail past value_fn(depth + 1) lumped onto that
    last atom and the masses renormalised; the two laws agree on
    [0, value_fn(depth + 1)].
    `revenue_limit` is the limiting tail revenue when the rule admits one
    (math.inf is allowed); the supremum over the whole rule is assumed to be
    max(best atom in the table, revenue_limit), which holds for every rule
    shipped here because the tail revenue is monotone.
    """

    rule_name: str
    value_fn: Callable[[int], float]
    survival_fn: Callable[[int], float]
    truncation_depth: int
    revenue_limit: Optional[float] = None

    def __post_init__(self):
        depth = self.truncation_depth
        if not isinstance(depth, numbers.Integral) or isinstance(depth, bool):
            raise ValueError(f"{self.rule_name}: truncation_depth must be an integer, got {depth!r}")
        if depth < 0:
            raise InfeasibleParametersError(f"{self.rule_name}: truncation_depth {depth!r} is below 0")
        try:  # value_fn increases, so value_fn(depth + 1) is the table's largest atom
            finite = math.isfinite(self.value_fn(depth + 1))
        except OverflowError:
            finite = False
        if not finite:
            raise InfeasibleParametersError(
                f"{self.rule_name}: truncation_depth {depth!r} tables value_fn({depth + 1}) past the float range"
            )

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """value_fn(k) and survival_fn(k) for k = 0..depth+1, read straight
        from the rule (a cumsum of masses would drift from it in the last bit)."""
        k_range = range(self.truncation_depth + 2)
        vals = np.array([self.value_fn(k) for k in k_range], dtype=np.float64)
        surv = np.array([self.survival_fn(k) for k in k_range], dtype=np.float64)
        return vals, surv

    @cached_property
    def _materialized(self) -> FinitePMF:
        vals, surv = self._table
        masses = np.append(surv[:-1] - surv[1:], surv[-1])  # the lump atom carries the tail
        return FinitePMF(values=vals, masses=masses / masses.sum())

    def _rule_survival(self, p: float, strict: bool) -> float:
        """survival_fn at the smallest k with value_fn(k) >= p (> p when strict),
        for a price past the table; a value_fn that overflows counts as +inf."""
        if p == math.inf:
            return 0.0

        def reaches(k: int) -> bool:
            try:
                return self.value_fn(k) > p if strict else self.value_fn(k) >= p
            except OverflowError:  # a value past every float
                return True

        lo = hi = self.truncation_depth + 1  # value_fn(lo) falls short of p
        while not reaches(hi):
            if self.survival_fn(hi) == 0.0:  # Pr[v >= p] <= Pr[v >= value_fn(hi)] = 0
                return 0.0
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
        return self.survival_fn(hi)

    def survival(self, p, strict: bool = False):
        vals, surv = self._table
        p = np.asarray(p, dtype=np.float64)
        idx = np.searchsorted(vals, p, side="right" if strict else "left")
        s = np.asarray(surv[np.minimum(idx, vals.size - 1)])
        for i in np.flatnonzero(idx == vals.size):  # past the lump atom: ask the rule
            s.flat[i] = self._rule_survival(float(p.flat[i]), strict)
        return s

    def optimal_revenue(self) -> OptResult:
        vals, surv = self._table
        rev = vals * surv
        best = int(np.argmax(rev))
        if self.revenue_limit is not None and self.revenue_limit > rev[best]:
            return OptResult(float(self.revenue_limit), None)
        return OptResult(float(rev[best]), float(vals[best]))

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._materialized.draw(rng, n)


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

    def survival(self, p, strict: bool = False):
        return 1.0 - np.asarray(self.cdf_fn(p), dtype=np.float64)

    def optimal_revenue(self) -> OptResult:
        if self.revenue_sup is not None:
            return OptResult(float(self.revenue_sup), None)
        hi = self.support_upper if self.support_upper is not None else 1.0
        expansions = 0
        while True:
            grid = np.linspace(0.0, hi, _OPT_GRID_POINTS)
            rev = grid * self.survival(grid)
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
        p_star, v_star = _golden_max(lambda p: float(p * self.survival(p)), lo_b, hi_b, _OPT_TOL)
        interior = 0 < i < _OPT_GRID_POINTS - 1
        exceeds_edges = v_star > float(rev[0]) + 1e-9 and v_star > float(rev[-1]) + 1e-9
        if interior and exceeds_edges:
            return OptResult(v_star, p_star)
        return OptResult(max(v_star, float(rev[i])), None)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.asarray(self.quantile_fn(rng.random(n)), dtype=np.float64)


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
    """One valuation distribution: a labelled variant plus the shared query API.

    Each price query takes a price or an array of prices and answers in kind:
    a float for a float, an array of the same shape for an array, element by
    element the same bits as the floats one at a time.
    """

    label: str
    variant: FinitePMF | TailRuleDist | ContinuousDist

    def _survival(self, p, strict: bool):
        x = np.asarray(p, dtype=np.float64)
        bad = ~(x >= 0.0)  # negative or NaN
        if bad.any():
            raise ValueError(f"price must be nonnegative, got {float(x[bad][0])!r}")
        s = self.variant.survival(x, strict=strict)
        return float(s) if x.ndim == 0 else s

    def survival(self, p):
        """Pr[v >= p], a float for a float; an atom exactly at p counts toward the
        mass, and a NaN or negative price raises."""
        return self._survival(p, strict=False)

    def survival_strict(self, p):
        """Pr[v > p], a float for a float."""
        return self._survival(p, strict=True)

    def _cdf(self, p, strict: bool):
        x = np.asarray(p, dtype=np.float64)
        f = np.where(x >= 0.0 if strict else x > 0.0, 1.0 - self._survival(np.maximum(x, 0.0), strict=strict), 0.0)
        return float(f) if x.ndim == 0 else f

    def cdf(self, p):
        """Pr[v < p], a float for a float; 0 at every p <= 0."""
        return self._cdf(p, strict=False)

    def cdf_right(self, p):
        """Pr[v <= p], a float for a float; 0 at every p < 0."""
        return self._cdf(p, strict=True)

    def revenue(self, p):
        """Expected payment p * Pr[v >= p] of posting price p, a float for a
        float; a NaN, infinite or negative price raises, named in the message."""
        x = np.asarray(p, dtype=np.float64)
        bad = ~((x >= 0.0) & (x < math.inf))
        if bad.any():
            raise ValueError(f"price must be finite and nonnegative, got {float(x[bad][0])!r}")
        rev = x * self.variant.survival(x, strict=False)
        return float(rev) if x.ndim == 0 else rev

    def optimal_revenue(self) -> OptResult:
        """sup_p revenue(p); price is None when the sup is attained by no price."""
        return self.variant.optimal_revenue()

    def sample(self, rng: np.random.Generator, n: int) -> Sample:
        """n i.i.d. draws; identical generator state gives identical output."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        return Sample(values=self.variant.draw(rng, n))

    @property
    def atom_table(self) -> Optional[FinitePMF]:
        """The finite table that draws come from: the FinitePMF itself, a tail
        rule's materialized atoms (lump atom included), or None for a continuous law."""
        v = self.variant
        if isinstance(v, TailRuleDist):
            return v._materialized
        return v if isinstance(v, FinitePMF) else None

    def candidate_points(self) -> np.ndarray:
        """Atom locations (empty for continuous laws); used by CDF-deviation scans."""
        table = self.atom_table
        return np.empty(0, dtype=np.float64) if table is None else table.values

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        v = self.variant
        if isinstance(v, FinitePMF):
            return {
                "label": self.label,
                "variant": "finite_pmf",
                "atoms": [[float(a), float(m)] for a, m in zip(v.values, v.masses)],
            }
        if v.rule_name not in _ZOO:
            raise ValueError(f"{self.label}: rule {v.rule_name!r} is not in the zoo, so from_dict could not rebuild it")
        doc = {"label": self.label, "variant": "continuous", "rule_name": v.rule_name, "params": {}}
        if isinstance(v, TailRuleDist):
            doc.update(variant="tail_rule", truncation_depth=v.truncation_depth)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "Distribution":
        def typed(key: str, value, ok: Callable[[object], bool], kind: str):
            if not ok(value):
                raise ValueError(f"distribution document key {key!r} must be {kind}, got {value!r}")
            return value

        def need(key: str, ok: Callable[[object], bool] = lambda v: True, kind: str = ""):
            if not (isinstance(doc, dict) and key in doc):
                raise ValueError(f"distribution document has no {key!r} key")
            return typed(key, doc[key], ok, kind)

        def pair(a) -> bool:
            return isinstance(a, list) and len(a) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in a
            )

        variant = need("variant")
        label = typed("label", doc.get("label", "finite_pmf"), lambda v: isinstance(v, str), "a string")
        if variant == "finite_pmf":
            atoms = need("atoms", lambda v: isinstance(v, list) and all(map(pair, v)), "a list of [value, mass] pairs")
            return zoo("finite", points=atoms, label=label)
        if variant not in ("tail_rule", "continuous"):
            raise ValueError(f"unknown distribution variant {variant!r}")
        params = dict(typed("params", doc.get("params", {}), lambda v: isinstance(v, dict), "an object"))
        if variant == "tail_rule" and doc.get("truncation_depth") is not None:
            params["truncation_depth"] = doc["truncation_depth"]
        return zoo(need("rule_name", lambda v: isinstance(v, str), "a string"), **params)

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


def _discrete_no_opt_value(k: int) -> int:
    # the exact int: a float rounds past 2^53 and could fall short of the price it is compared with
    return k + 1


def _discrete_no_opt_survival(k: int) -> float:
    # support {1, 2, 3, ...} with Pr[v >= m] = 2/(m+1); int / int cannot overflow for k past the float range
    return 2 / (k + 2)


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


def _tail_law(rule_name: str, value_fn, survival_fn, revenue_limit: float, truncation_depth: int) -> Distribution:
    rule = TailRuleDist(rule_name, value_fn, survival_fn, truncation_depth, revenue_limit)
    return Distribution(label=f"{rule_name}(trunc={truncation_depth})", variant=rule)


def _continuous_law(rule_name: str, cdf_fn, quantile_fn, **bounds) -> Distribution:
    return Distribution(label=rule_name, variant=ContinuousDist(rule_name, cdf_fn, quantile_fn, **bounds))


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


def _finite(points, label: str = "finite") -> Distribution:
    values = np.array([a[0] for a in points], dtype=np.float64)
    masses = np.array([a[1] for a in points], dtype=np.float64)
    return Distribution(label=label, variant=FinitePMF(values, masses))


# The catalogue, in `revcurve zoo list` order.  A builder's signature is its
# law's spec schema: the keys it takes and the default of each optional one.
_ZOO: dict[str, Callable[..., Distribution]] = {
    # rev(4^k) = 1/2 along the whole tail
    "erm_hard": lambda truncation_depth=20: _tail_law(
        "erm_hard", _erm_hard_value, _erm_hard_survival, 0.5, truncation_depth
    ),
    # rev(m) = 2m/(m+1) increases toward 2, never attained
    "discrete_no_opt": lambda truncation_depth=10_000: _tail_law(
        "discrete_no_opt", _discrete_no_opt_value, _discrete_no_opt_survival, 2.0, truncation_depth
    ),
    "regular_no_opt": lambda: _continuous_law(
        "regular_no_opt", _regular_no_opt_cdf, _regular_no_opt_quantile, revenue_sup=1.0
    ),
    "regular_no_opt2": lambda: _continuous_law(
        "regular_no_opt2", _regular_no_opt2_cdf, _regular_no_opt2_quantile, revenue_sup=0.5
    ),
    "two_point": two_point,
    "finite": _finite,
    "uniform01": lambda: _continuous_law("uniform01", _uniform01_cdf, _uniform01_quantile, support_upper=1.0),
}


def zoo(name: str, **params) -> Distribution:
    """The named law built from its spec keys; zoo_names() lists the catalogue.

    A law takes exactly the keywords of its builder in `_ZOO`, and a real
    number for each one annotated float.  An unknown name, an unknown key, a
    missing one or a value of the wrong type raises ValueError naming the law
    and the key; a value the law cannot take raises InfeasibleParametersError.
    """
    builder = _ZOO.get(name)
    if builder is None:
        raise ValueError(f"unknown zoo distribution {name!r}")
    schema = inspect.signature(builder)
    try:
        schema.bind(**params)
    except TypeError as exc:
        keys = ", ".join(schema.parameters) or "no keys"
        raise ValueError(f"zoo law {name!r} takes {keys}: {exc}") from None
    for key, value in params.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if schema.parameters[key].annotation == "float" and not real:  # a string under the __future__ import
            raise ValueError(f"zoo law {name!r}: key {key!r} must be a real number, got {value!r}")
    return builder(**params)


def zoo_names() -> list[str]:
    return list(_ZOO)


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
            if k in kwargs:
                raise ValueError(f"zoo law {name!r}: key {k!r} given twice")
            kwargs[k] = int(v) if k == "truncation_depth" else float(v)
    return zoo(name, **kwargs)
