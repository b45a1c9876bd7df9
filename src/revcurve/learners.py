"""Pricing algorithms: plain, truncated, capped and structural empirical
revenue maximization, all exposed through one Learner record.

Every variant ties broken prices toward the smaller one; tail events inflate
large prices, so the bias is the safe direction.  A learner's decide() is a
pure function of (sample values, n, rng), which is what makes the Monte Carlo
machinery reproducible and parallelizable.
"""

from __future__ import annotations

import math
import subprocess
from dataclasses import dataclass
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
    """Price-cap growth g(n) and confidence scale f(n), with f(n)^2 * n >= g(n) for n >= n0."""

    g: Callable[[int], float]
    f: Callable[[int], float]
    g_name: str = "sqrt"
    f_name: str = "n^-0.25"
    n0: int = 1


def default_growth() -> GrowthFns:
    # g = sqrt(n), f = n^-1/4 satisfies f^2 * n = g with equality from n0 = 1
    return GrowthFns(g=_g_sqrt, f=_f_quarter)


def _g_sqrt(n: int) -> float:
    return math.sqrt(n)


def _g_log(n: int) -> float:
    return max(math.log(n), 1.0)


def _f_quarter(n: int) -> float:
    return n ** -0.25


@dataclass(frozen=True)
class Learner:
    """A pricing rule: decide(values, n, rng) -> posted price."""

    name: str
    decide: Callable[[np.ndarray, int, Optional[np.random.Generator]], float]
    deterministic: bool = True
    config: Optional[GrowthFns] = None
    spec: Optional[str] = None  # CLI-style description; parse_learner(spec) may differ for a custom GrowthFns


def _unique_revenues(e: EmpiricalDist) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sample values with their empirical revenues, ascending."""
    u, counts = np.unique(e.sorted_values, return_counts=True)
    c_geq = counts[::-1].cumsum()[::-1]  # suffix counts: #{v_i >= u_j}
    return u, u * c_geq / e.n


def candidate_set(e: EmpiricalDist, cap: float) -> np.ndarray:
    """Sample values at most cap, plus the cap itself; the empirical-revenue
    maximum over [0, cap] is attained on this set."""
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    vals = e.sorted_values
    kept = vals[vals <= cap]
    return np.unique(np.append(kept, cap))


def _argmax_low(prices: np.ndarray, revenues: np.ndarray) -> float:
    """Smallest price among the empirical-revenue maximizers."""
    return float(prices[int(np.argmax(revenues))])  # argmax returns the first maximum


def erm(e: EmpiricalDist) -> float:
    """Smallest sample value maximizing empirical revenue."""
    u, rev = _unique_revenues(e)
    return _argmax_low(u, rev)


def _best_on(e: EmpiricalDist, cap: float) -> float:
    cands = candidate_set(e, cap)
    counts = e.n - np.searchsorted(e.sorted_values, cands, side="left")
    return _argmax_low(cands, cands * counts / e.n)


def truncated_erm(e: EmpiricalDist, n: int) -> float:
    """ERM restricted to prices at most max(ln n, 1)."""
    return _best_on(e, max(math.log(n), 1.0))


def capped_erm(e: EmpiricalDist, n: int, g: Callable[[int], float]) -> float:
    """ERM restricted to prices at most g(n)."""
    cap = g(n)
    if cap <= 0.0:
        raise ValueError("growth function must be positive at n")
    return _best_on(e, cap)


def structural_erm(e: EmpiricalDist, n: int, f: Callable[[int], float]) -> float:
    """Largest sorted sample price that beats every earlier one by the shrinking
    margin (p_j + p_i) * f(n); the first price qualifies vacuously.

    Duplicate values can never beat their own copies by a positive margin, so
    only the first occurrence of each distinct value can win; the scan below
    therefore runs over distinct values, which is equivalent to indexing the
    full sorted multiset.
    """
    fn = f(n)
    if fn < 0.0:
        raise ValueError("confidence scale must be nonnegative")
    u, rev = _unique_revenues(e)
    if u.size == 1:
        return float(u[0])
    # handicap[j] = max over values before j of rev + u*f(n); value j wins iff
    # its revenue clears handicap plus its own u_j*f(n)
    handicap = np.maximum.accumulate(rev + u * fn)
    wins = np.flatnonzero(rev[1:] > handicap[:-1] + u[1:] * fn)
    return float(u[wins[-1] + 1]) if wins.size else float(u[0])


# -- learner records ---------------------------------------------------------


def _decide_erm(values, n, rng):
    return erm(EmpiricalDist.from_values(values))


def _decide_truncated(values, n, rng):
    return truncated_erm(EmpiricalDist.from_values(values), n)


def make_erm() -> Learner:
    return Learner(name="erm", decide=_decide_erm, spec="erm")


def make_truncated() -> Learner:
    return Learner(name="truncated", decide=_decide_truncated, spec="truncated")


@dataclass(frozen=True)
class _CappedDecide:
    growth: GrowthFns

    def __call__(self, values, n, rng):
        return capped_erm(EmpiricalDist.from_values(values), n, self.growth.g)


@dataclass(frozen=True)
class _StructuralDecide:
    growth: GrowthFns

    def __call__(self, values, n, rng):
        return structural_erm(EmpiricalDist.from_values(values), n, self.growth.f)


@dataclass(frozen=True)
class _ConstantDecide:
    price: float

    def __call__(self, values, n, rng):
        return self.price


def make_capped(growth: GrowthFns | None = None, spec: str | None = None) -> Learner:
    growth = growth or default_growth()
    return Learner(
        name=f"capped[g={growth.g_name}]",
        decide=_CappedDecide(growth),
        config=growth,
        spec=spec or f"capped:g={growth.g_name}",
    )


def make_structural(growth: GrowthFns | None = None, spec: str | None = None) -> Learner:
    growth = growth or default_growth()
    return Learner(
        name=f"structural[f={growth.f_name}]",
        decide=_StructuralDecide(growth),
        config=growth,
        spec=spec or f"structural:f={growth.f_name}",
    )


def make_constant(price: float) -> Learner:
    return Learner(name=f"const[{price:g}]", decide=_ConstantDecide(price), spec=f"const:{price!r}")


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
    return Learner(
        name=f"cmd[{' '.join(cmd)}]",
        decide=_SubprocessDecide(cmd),
        deterministic=deterministic,
        spec="cmd:" + " ".join(cmd),
    )


def _parse_growth(expr: str, kind: str) -> tuple[Callable[[int], float], str]:
    expr = expr.strip()
    if expr == "sqrt":
        return _g_sqrt, "sqrt"
    if expr == "log":
        return _g_log, "log"
    if expr.startswith("n^"):
        return _PowerFn(float(expr[2:])), expr
    if expr.startswith("const:"):
        return _ConstFn(float(expr[6:])), expr
    raise ValueError(f"cannot parse {kind} function spec {expr!r}")


@dataclass(frozen=True)
class _PowerFn:
    exponent: float

    def __call__(self, n: int) -> float:
        return float(n) ** self.exponent


@dataclass(frozen=True)
class _ConstFn:
    value: float

    def __call__(self, n: int) -> float:
        return self.value


def parse_learner(spec: str) -> Learner:
    """Parse a CLI learner spec.

    Forms: "erm", "truncated", "capped", "capped:g=sqrt", "structural",
    "structural:f=n^-0.25", "const:7", "cmd:python prog.py arg".
    """
    name, _, arg = spec.partition(":")
    if name == "erm":
        return make_erm()
    if name == "truncated":
        return make_truncated()
    if name == "capped":
        growth = default_growth()
        if arg:
            key, _, expr = arg.partition("=")
            if key != "g":
                raise ValueError(f"capped learner takes g=<fn>, got {arg!r}")
            g, g_name = _parse_growth(expr, "growth")
            growth = GrowthFns(g=g, f=growth.f, g_name=g_name, f_name=growth.f_name)
        return make_capped(growth, spec=spec)
    if name == "structural":
        growth = default_growth()
        if arg:
            key, _, expr = arg.partition("=")
            if key != "f":
                raise ValueError(f"structural learner takes f=<fn>, got {arg!r}")
            f, f_name = _parse_growth(expr, "confidence")
            growth = GrowthFns(g=growth.g, f=f, g_name=growth.g_name, f_name=f_name)
        return make_structural(growth, spec=spec)
    if name == "const":
        return make_constant(float(arg))
    if name == "cmd":
        if not arg:
            raise ValueError("cmd learner needs a command line")
        return make_subprocess(arg.split())
    raise ValueError(f"unknown learner spec {spec!r}")
