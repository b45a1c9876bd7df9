"""Empirical valuation distributions and DKW-style concentration utilities.

The empirical CDF convention here is strict: F_n(x) counts sample values < x.
Where a two-sided quantity is needed (e.g. the sup-deviation statistic), both
one-sided limits are evaluated at every step point, which makes the result
independent of the strict-vs-weak convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sample:
    """An observed valuation multiset, kept in draw order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("sample values must form a 1-D array")
        if v.size and float(v.min()) < 0.0:
            raise ValueError("valuations must be nonnegative")
        if v.size and not math.isfinite(float(v.max())):  # max is NaN if any value is
            raise ValueError("valuations must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EmpiricalDist:
    """Sorted copy of a sample; revenue queries are O(log n) binary searches."""

    sorted_values: np.ndarray
    n: int

    @classmethod
    def from_values(cls, values) -> "EmpiricalDist":
        v = np.sort(np.asarray(values, dtype=np.float64))
        if v.size == 0:
            raise ValueError("cannot build an empirical distribution from an empty sample")
        if float(v[0]) < 0.0:
            raise ValueError("valuations must be nonnegative")
        if not math.isfinite(float(v[-1])):  # NaN sorts last
            raise ValueError("valuations must be finite")
        return cls(sorted_values=v, n=int(v.size))

    def count_geq(self, p: float) -> int:
        """Number of sample values >= p."""
        return self.n - int(np.searchsorted(self.sorted_values, p, side="left"))

    def revenue(self, p: float) -> float:
        """Empirical revenue p * #{v_i >= p} / n; a NaN, infinite or negative
        price raises, named in the message."""
        _check_prices(p)
        return p * self.count_geq(p) / self.n


def _check_prices(p) -> np.ndarray:
    """p as a float array, refusing a NaN, infinite or negative price by its value."""
    x = np.asarray(p, dtype=np.float64)
    bad = ~((x >= 0.0) & (x < math.inf))
    if bad.any():
        raise ValueError(f"price must be finite and nonnegative, got {float(x[bad][0])!r}")
    return x


def dkw_bound(n: int, eps: float) -> float:
    """DKW tail bound min(1, 2 exp(-2 n eps^2)) on Pr[sup_x |F_n - F| > eps]."""
    if not n >= 1:  # NaN fails these checks too
        raise ValueError("n must be >= 1")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return min(1.0, 2.0 * math.exp(-2.0 * n * eps * eps))


def sup_cdf_deviation(e: EmpiricalDist, dist) -> float:
    """Exact sup_x |F_n(x) - F(x)| against a distribution with exact survival queries.

    `dist` must expose survival(xs) = Pr[v >= x] and survival_strict(xs) =
    Pr[v > x], each taking an array and answering element by element, and
    atom_table (the finite table its draws come from, whose values are its
    atom locations; None for a continuous law).  F(x) = Pr[v < x] is read as
    1 - survival(x) and Pr[v <= x] as 1 - survival_strict(x).
    Both step functions only move at sample values and atoms, and between those
    points F is monotone, so evaluating both one-sided limits at every
    candidate point captures the supremum exactly.  A tail-rule law is
    compared as the rule, not as its sampling table, so the tail mass the
    table lumps onto its last atom shows as a deviation there.
    """
    table = dist.atom_table
    pts = np.unique(e.sorted_values if table is None else np.concatenate([e.sorted_values, table.values]))
    fn_left = np.searchsorted(e.sorted_values, pts, side="left") / e.n
    fn_right = np.searchsorted(e.sorted_values, pts, side="right") / e.n
    dev = np.maximum(
        np.abs(fn_left - (1.0 - dist.survival(pts))),
        np.abs(fn_right - (1.0 - dist.survival_strict(pts))),
    )
    return float(dev.max())
