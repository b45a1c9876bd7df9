"""Pricing algorithms: plain, truncated, capped and structural empirical
revenue maximization, all exposed through one Learner record.

All four read the sample through one revenue kernel: ascending values u with
their empirical revenues u * left / n, where left[j] counts the sample values
>= u[j].  The rules work row by row along the last axis.  There are two front
doors onto them: a sorted sample of size m is one row as it is, its values
with left[i] = m - i (read-only, cached for the latest m), and count vectors c
over ascending atoms give a row per vector, left = m - (cumsum(c) - c), with
the undrawn atoms masked out.  In a sorted sample a later copy of a value
never scores above its first copy (same value, fewer values left, and float
multiply and divide are monotone), so every rule below picks a first copy,
and both doors price the same multiset with the same float expression, bit
for bit.  ERM takes the first maximum, capped ERM (truncated ERM is capped at
max(ln n, 1)) adds the cap itself as a candidate column, and structural ERM
scans the same revenues with its margin, a running maximum along the row.

Every variant breaks ties toward the smaller price; tail events inflate
large prices, so the bias is the safe direction.  A learner's decide() is a
pure function of (sample values, n, rng), which is what makes the Monte Carlo
machinery reproducible and parallelizable.
"""

from __future__ import annotations

import functools
import math
import shlex
import subprocess
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .empirical import EmpiricalDist

__all__ = [
    "GrowthFns",
    "Learner",
    "LearnerProcessError",
    "candidate_set",
    "erm",
    "truncated_erm",
    "capped_erm",
    "structural_erm",
    "make_erm",
    "make_truncated",
    "make_capped",
    "make_structural",
    "make_constant",
    "make_subprocess",
    "parse_learner",
]


class LearnerProcessError(RuntimeError):
    """A subprocess learner failed or produced unparseable output."""


@dataclass(frozen=True)
class GrowthFns:
    """Price-cap growth g(n) and confidence scale f(n), with f(n)^2 * n >= g(n) for n >= n0.

    An omitted name is taken from the function itself (its __name__, else its repr).
    """

    g: Callable[[int], float]
    f: Callable[[int], float]
    g_name: Optional[str] = None
    f_name: Optional[str] = None
    n0: int = 1

    def __post_init__(self):
        for attr, fn in (("g_name", self.g), ("f_name", self.f)):
            if getattr(self, attr) is None:
                object.__setattr__(self, attr, getattr(fn, "__name__", None) or repr(fn))


def default_growth() -> GrowthFns:
    # g = sqrt(n), f = n^-1/4 satisfies f^2 * n = g with equality from n0 = 1
    return GrowthFns(g=_g_sqrt, f=_f_quarter, g_name="sqrt", f_name="n^-0.25")


def _g_sqrt(n: int) -> float:
    return math.sqrt(n)


def _g_log(n: int) -> float:
    return max(math.log(n), 1.0)


def _f_quarter(n: int) -> float:
    return n ** -0.25


@dataclass(frozen=True)
class Learner:
    """A pricing rule: decide(values, n, rng) -> posted price.

    decide_counts(values, counts, n) -> prices, when set, declares the rule
    symmetric and deterministic.  It works row by row: counts has shape
    (..., K) and each row counts[r] describes the sample holding counts[r][i]
    copies of values[i] (K atoms strictly increasing, finite and nonnegative;
    counts nonnegative integers, each row summing to n).  It returns one price
    per row, shape (...), and prices[r] is exactly the float that
    decide(np.repeat(values, counts[r]), n, rng) returns, for any order of that
    sample and any rng.  Monte Carlo curves on atomic laws then draw only the
    count of each atom and price a block of trials in one call; on a sample
    they call decide with rng=None and build no learner stream.  Leave it
    None for any other rule.
    """

    name: str
    decide: Callable[[np.ndarray, int, Optional[np.random.Generator]], float]
    deterministic: bool = True
    config: Optional[GrowthFns] = None
    decide_counts: Optional[Callable[[np.ndarray, np.ndarray, int], float]] = None


@functools.lru_cache(maxsize=1)
def _left(m: int) -> np.ndarray:
    """left[i] = m - i, the number of values >= the i-th of m sorted values (read-only)."""
    left = np.arange(m, 0, -1)
    left.flags.writeable = False
    return left


def _sorted_view(e: EmpiricalDist) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-sample front door: the sorted values themselves and left."""
    return e.sorted_values, _left(e.n)


def _count_view(counts: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Count-vector front door: left = m - (cumsum(c) - c) along the last axis
    (the number of values >= each atom, drawn or not) and the mask of drawn atoms."""
    return m - (np.cumsum(counts, axis=-1) - counts), counts > 0


def _revenues(u: np.ndarray, left: np.ndarray, m: int) -> np.ndarray:
    """Empirical revenues u * #{v >= u} / m of a sample of size m."""
    rev = u * left
    rev /= m
    return rev


def _mask(x: np.ndarray, drawn: Optional[np.ndarray]) -> np.ndarray:
    """x with undrawn values set to -inf, in place."""
    if drawn is not None:
        x[~drawn] = -np.inf
    return x


def candidate_set(e: EmpiricalDist, cap: float) -> np.ndarray:
    """Sample values at most cap, plus the cap itself; the empirical-revenue
    maximum over [0, cap] is attained on this set."""
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    vals = e.sorted_values
    kept = vals[vals <= cap]
    return np.unique(np.append(kept, cap))


def erm(e: EmpiricalDist) -> float:
    """Smallest sample value maximizing empirical revenue."""
    return float(_erm_price(*_sorted_view(e), None, e.n))


def truncated_erm(e: EmpiricalDist, n: int) -> float:
    """ERM restricted to prices at most max(ln n, 1)."""
    return capped_erm(e, n, _g_log)


def capped_erm(e: EmpiricalDist, n: int, g: Callable[[int], float]) -> float:
    """ERM restricted to prices at most g(n): the best of the sample values
    below the cap and the cap itself, the smaller price winning a tie."""
    return float(_capped_price(*_sorted_view(e), None, e.n, g(n)))


def structural_erm(e: EmpiricalDist, n: int, f: Callable[[int], float]) -> float:
    """Largest sorted sample price that beats every earlier one by the shrinking
    margin (p_j + p_i) * f(n); the first price qualifies vacuously.

    Duplicate values can never beat their own copies by a positive margin, so
    only the first occurrence of each distinct value can win, and the scan over
    the full sorted multiset picks the same price as one over distinct values.
    """
    return float(_structural_price(*_sorted_view(e), None, e.n, f(n)))


# -- the rules, row by row along the last axis --------------------------------
#
# Each rule reads ascending values (shape (K,)), left (shape (..., K)) and the
# mask of drawn values (None when every value was drawn) of samples of size m,
# and returns one price per row (shape (...)).  Undrawn values never compete.


def _erm_price(values: np.ndarray, left: np.ndarray, drawn: Optional[np.ndarray], m: int):
    rev = _mask(_revenues(values, left, m), drawn)
    return values[np.argmax(rev, axis=-1)]  # argmax returns the first maximum


def _capped_price(values: np.ndarray, left: np.ndarray, drawn: Optional[np.ndarray], m: int, cap: float):
    if not 0.0 < cap < math.inf:
        raise ValueError(f"growth function must be positive and finite at n, got {cap!r}")
    k = int(np.searchsorted(values, cap, side="right"))
    at_cap = int(np.searchsorted(values, cap, side="left"))  # first value >= cap, drawn or not
    count_geq = left[..., at_cap] if at_cap < values.size else np.zeros_like(left[..., 0])
    cap_rev = cap * count_geq / m
    if k == 0:
        return np.full(cap_rev.shape, float(cap))[()]
    rev = _mask(_revenues(values[:k], left[..., :k], m), None if drawn is None else drawn[..., :k])
    best = np.argmax(rev, axis=-1)
    # a value at most the cap wins unless the cap itself earns strictly more
    return np.where(np.take_along_axis(rev, best[..., None], axis=-1)[..., 0] >= cap_rev, values[best], cap)[()]


def _structural_price(values: np.ndarray, left: np.ndarray, drawn: Optional[np.ndarray], m: int, fn: float):
    if not 0.0 <= fn < math.inf:
        raise ValueError(f"confidence scale must be nonnegative and finite at n, got {fn!r}")
    rev = _revenues(values, left, m)
    # handicap[j] = max over drawn values up to j of rev + u*f(n); value j wins
    # iff its revenue clears the handicap before it plus its own u_j*f(n).  The
    # first drawn value (left == m) wins vacuously; the last winner is the price.
    margin = values * fn
    handicap = _mask(rev + margin, drawn)
    np.maximum.accumulate(handicap, axis=-1, out=handicap)
    handicap[..., :-1] += margin[1:]
    wins = left == m
    wins[..., 1:] |= rev[..., 1:] > handicap[..., :-1]
    if drawn is not None:
        wins &= drawn
    return values[values.size - 1 - np.argmax(wins[..., ::-1], axis=-1)]


# -- learner records ---------------------------------------------------------


@dataclass(frozen=True)
class _ErmDecide:
    """Plain ERM, capped at cap(n), or structural with confidence scale(n),
    priced from a sample."""

    cap: Optional[Callable[[int], float]] = None
    scale: Optional[Callable[[int], float]] = None

    def __call__(self, values, n, rng):
        e = EmpiricalDist.from_values(values)
        return float(self.price(*_sorted_view(e), None, e.n, n))

    def price(self, values, left, drawn, m, n):
        if self.scale is not None:
            return _structural_price(values, left, drawn, m, self.scale(n))
        if self.cap is not None:
            return _capped_price(values, left, drawn, m, self.cap(n))
        return _erm_price(values, left, drawn, m)


@dataclass(frozen=True)
class _ErmCounts(_ErmDecide):
    """The same rule priced from count vectors, one price per row."""

    def __call__(self, values, counts, n):
        return self.price(np.asarray(values, dtype=np.float64), *_count_view(np.asarray(counts), n), n, n)


@dataclass(frozen=True)
class _ConstantDecide:
    """A constant price ignores its data."""

    price: float

    def __call__(self, values, n, rng):
        return self.price


@dataclass(frozen=True)
class _ConstantCounts(_ConstantDecide):
    def __call__(self, values, counts, n):
        return np.full(np.shape(counts)[:-1], self.price)[()]


def _erm_learner(name: str, config: GrowthFns | None = None, **rule) -> Learner:
    return Learner(name=name, decide=_ErmDecide(**rule), config=config, decide_counts=_ErmCounts(**rule))


def make_erm() -> Learner:
    return _erm_learner("erm")


def make_truncated() -> Learner:
    return _erm_learner("truncated", cap=_g_log)


def make_capped(growth: GrowthFns | None = None) -> Learner:
    growth = growth or default_growth()
    return _erm_learner(f"capped[g={growth.g_name}]", growth, cap=growth.g)


def make_structural(growth: GrowthFns | None = None) -> Learner:
    growth = growth or default_growth()
    return _erm_learner(f"structural[f={growth.f_name}]", growth, scale=growth.f)


def make_constant(price: float) -> Learner:
    return Learner(name=f"const[{price:g}]", decide=_ConstantDecide(price), decide_counts=_ConstantCounts(price))


@dataclass(frozen=True)
class _SubprocessDecide:
    """Black-box protocol: write n, then n whitespace-separated values, read one price."""

    command: tuple[str, ...]

    def __call__(self, values, n, rng):
        payload = f"{n}\n" + " ".join(repr(float(v)) for v in values) + "\n"
        try:
            out = subprocess.run(
                list(self.command), input=payload, capture_output=True, text=True, check=True
            ).stdout
        except (OSError, subprocess.CalledProcessError) as exc:
            raise LearnerProcessError(f"subprocess learner {self.command} failed: {exc}") from exc
        try:
            return float(out.split()[0])
        except (IndexError, ValueError) as exc:
            raise LearnerProcessError(f"subprocess learner produced no price: {out!r}") from exc


def make_subprocess(command: list[str] | tuple[str, ...], deterministic: bool = False) -> Learner:
    cmd = tuple(command)
    return Learner(name=f"cmd[{shlex.join(cmd)}]", decide=_SubprocessDecide(cmd), deterministic=deterministic)


def _parse_growth(expr: str, kind: str) -> tuple[Callable[[int], float], str]:
    expr = expr.strip()
    if expr == "sqrt":
        return _g_sqrt, "sqrt"
    if expr == "log":
        return _g_log, "log"
    for prefix, fn in (("n^", _PowerFn), ("const:", _ConstFn)):
        if expr.startswith(prefix):
            x = float(expr[len(prefix) :])
            if not math.isfinite(x):
                raise ValueError(f"{kind} function spec {expr!r} needs a finite number")
            return fn(x), expr
    raise ValueError(f"cannot parse {kind} function spec {expr!r}")


@dataclass(frozen=True)
class _PowerFn:
    exponent: float

    def __call__(self, n: int) -> float:
        try:
            return float(n) ** self.exponent
        except OverflowError:  # past the float range; the rules refuse a non-finite scale
            return math.inf


@dataclass(frozen=True)
class _ConstFn:
    value: float

    def __call__(self, n: int) -> float:
        return self.value


def parse_learner(spec: str) -> Learner:
    """Parse a CLI learner spec.

    Forms: "erm", "truncated", "capped", "capped:g=sqrt", "structural",
    "structural:f=n^-0.25", "const:7", "cmd:python prog.py arg"; a cmd: line is
    split as a POSIX shell would (shlex), so quoted arguments stay whole.
    """
    name, _, arg = spec.partition(":")
    if name == "erm":
        return make_erm()
    if name == "truncated":
        return make_truncated()
    if name in ("capped", "structural"):
        key, kind, make = ("g", "growth", make_capped) if name == "capped" else ("f", "confidence", make_structural)
        growth = default_growth()
        if arg:
            got, _, expr = arg.partition("=")
            if got != key:
                raise ValueError(f"{name} learner takes {key}=<fn>, got {arg!r}")
            fn, fn_name = _parse_growth(expr, kind)
            growth = replace(growth, **{key: fn, f"{key}_name": fn_name})
        return make(growth)
    if name == "const":
        return make_constant(float(arg))
    if name == "cmd":
        if not arg:
            raise ValueError("cmd learner needs a command line")
        return make_subprocess(shlex.split(arg))
    raise ValueError(f"unknown learner spec {spec!r}")
