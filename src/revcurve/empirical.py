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

    def to_csv(self, path) -> None:
        """Dump one value per line, full double precision (debugging aid)."""
        with open(path, "w") as fh:
            for v in self.values:
                fh.write(f"{float(v)!r}\n")


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
        """Empirical revenue p * #{v_i >= p} / n."""
        if p < 0.0:
            raise ValueError("price must be nonnegative")
        return p * self.count_geq(p) / self.n


def empirical_dist(sample: Sample) -> EmpiricalDist:
    """Sorted empirical distribution of a sample; invariant under permutation."""
    return EmpiricalDist.from_values(sample.values)


def dkw_bound(n: int, eps: float) -> float:
    """DKW tail bound min(1, 2 exp(-2 n eps^2)) on Pr[sup_x |F_n - F| > eps]."""
    if not n >= 1:  # NaN fails these checks too
        raise ValueError("n must be >= 1")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return min(1.0, 2.0 * math.exp(-2.0 * n * eps * eps))


def sup_cdf_deviation(e: EmpiricalDist, dist) -> float:
    """Exact sup_x |F_n(x) - F(x)| against a distribution with exact CDF queries.

    `dist` must expose cdf(xs) = Pr[v < x] and cdf_right(xs) = Pr[v <= x],
    each taking an array and answering element by element, and
    candidate_points() (its atom locations, empty for continuous laws).
    Both step functions only move at sample values and atoms, and between those
    points F is monotone, so evaluating both one-sided limits at every
    candidate point captures the supremum exactly.  A tail-rule law is
    compared as the rule, not as its sampling table, so the tail mass the
    table lumps onto its last atom shows as a deviation there.
    """
    pts = np.unique(np.concatenate([e.sorted_values, np.asarray(dist.candidate_points(), dtype=np.float64)]))
    fn_left = np.searchsorted(e.sorted_values, pts, side="left") / e.n
    fn_right = np.searchsorted(e.sorted_values, pts, side="right") / e.n
    dev = np.maximum(
        np.abs(fn_left - dist.cdf(pts)),
        np.abs(fn_right - dist.cdf_right(pts)),
    )
    return float(dev.max())
