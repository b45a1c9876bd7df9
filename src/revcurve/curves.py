"""Monte Carlo learning-curve estimation, rate fitting, and the diagnostics
for the set of near-optimal prices.

Reproducibility contract: trial t of a curve point at sample size n is driven
by Generator(Philox(SeedSequence((base_seed, n, t)))) (see streams.py).  The
per-trial seeding is counter-based, so results are bit-identical regardless of
how trials are scheduled across parallel workers.  On an atomic law with
K <= max(n, 128) atoms and a symmetric learner (one with decide_counts), a
trial is priced as a count row from its sample stream: with K <= n, the count
of each atom in one multinomial draw instead of n values; with n < K, the
tally of the very n values the sample path would draw, so such a trial keeps
the sample path's bits.  Every other trial draws the sample (with more than
128 atoms, tallying n < K draws costs more than the sample path).  A learner
with decide_counts is deterministic (see Learner), so its decide gets
rng=None; any other learner gets its trial's own learner stream.

The loop keeps that contract bit for bit while working on a range of trials
at once: the sample streams' keys are derived in a batch, count vectors are
drawn into blocks of rows that decide_counts prices in one call, and the
range's prices are scored against the law in one call.  A learner stream,
when one is needed, is still a fresh SeedSequence-backed Generator per trial.
Each grid point's trials are cut into one job per worker, with no more workers
than trials.  One worker runs the jobs in process; more run them on one pool
for the whole grid, forked on Linux and spawned elsewhere, one message per job,
each worker given the caller's learner, distribution and base seed once,
pickled and checked before any process starts.
"""

from __future__ import annotations

import ctypes
import json
import math
import pickle
import sys
from dataclasses import asdict, dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .dist import Distribution, FinitePMF
from .empirical import _check_count
from .learners import Learner
from .streams import learner_stream, sample_streams
# bench/tracing.py imports trial_streams from revcurve.curves
from .streams import trial_streams  # noqa: F401

SIGNAL_SIGMA = 3.0  # positive-signal filter: keep points with mean_gap > 3*std_err


class GapUndefinedError(ValueError):
    """Raised when the optimal revenue is infinite and the gap of Definition-style
    curves is undefined; track expected_revenue_curve() growth instead."""


class InsufficientDataError(ValueError):
    """Fewer than three distinct sample sizes among the positive-signal points left after filtering."""


@dataclass(frozen=True)
class CurvePoint:
    n: int
    mean_gap: float
    std_err: float
    trials: int


@dataclass(frozen=True)
class LearningCurve:
    learner_name: str
    dist_label: str
    points: tuple[CurvePoint, ...]
    base_seed: int

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("n,trials,mean_gap,std_err,seed\n")
            for p in self.points:
                fh.write(f"{p.n},{p.trials},{p.mean_gap!r},{p.std_err!r},{self.base_seed}\n")

    @staticmethod
    def from_csv(path) -> "LearningCurve":
        points, seed = [], 0
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "n,trials,mean_gap,std_err,seed":
                raise ValueError(f"unexpected curve CSV header: {header!r}")
            for line_no, line in enumerate(fh, 2):
                try:
                    n, trials, gap, err, seed_s = line.strip().split(",")
                    points.append(CurvePoint(n=int(n), mean_gap=float(gap), std_err=float(err), trials=int(trials)))
                    seed = int(seed_s)
                except ValueError as exc:
                    raise ValueError(f"curve CSV {path}, line {line_no}: {exc}") from None
        return LearningCurve("?", "?", tuple(points), seed)

    def to_json(self) -> str:
        doc = {
            "learner": self.learner_name,
            "distribution": self.dist_label,
            "base_seed": self.base_seed,
            "points": [asdict(p) for p in self.points],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


@dataclass(frozen=True)
class RateFit:
    model: str  # "power" (log gap vs log n) or "exponential" (log gap vs n)
    slope_or_rate: float
    intercept: float
    r_squared: float
    points_used: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# glibc gives a block at or above its mmap threshold its own mapping, unmapped
# when freed, and trims free memory past its trim threshold off the heap top.
# Both start at 128 KiB and grow only to the largest single block freed (0.8 MB
# for a sample of 1e5), so each large continuous trial loop trimmed its sample and
# sorted copy off on return and the next loop faulted them back in.  Pin them once
# per process (forked pool workers inherit them, spawned ones import this module)
# at the ceilings glibc's dynamic thresholds reach anyway.  -3 and -1 are glibc's
# M_MMAP_THRESHOLD and M_TRIM_THRESHOLD; where there is no mallopt nothing is set.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt(-3, 32 << 20)
    _mallopt(-1, 64 << 20)

_BLOCK_ROWS = 128  # count vectors priced per decide_counts call ...
_BLOCK_CELLS = 1 << 14  # ... and at most this many counts in one block


def _trial_revenues(learner: Learner, dist: Distribution, n: int, trial_range, base_seed: int) -> np.ndarray:
    """True revenue of each trial's price."""
    prices = np.empty(len(trial_range))
    streams = sample_streams(base_seed, n, trial_range)
    table = dist.atom_table
    counted = learner.decide_counts is not None
    # tallying n < K draws beats the sample path only while a full block of rows fits (K <= 128)
    if counted and table is not None and table.values.size <= max(n, _BLOCK_CELLS // _BLOCK_ROWS):
        rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // table.values.size))
        for lo in range(0, len(trial_range), rows):
            counts = table.count_rows(islice(streams, rows), n)
            prices[lo : lo + len(counts)] = learner.price_counts(table.values, counts, n)
        return dist.revenue(prices)
    for i, (t, rng) in enumerate(zip(trial_range, streams)):
        # s lives until the next sample is drawn; this matters only where the heap
        # thresholds above could not be set, as freeing a large sample first
        # lets malloc trim the heap and fault its pages back in (~1 ms at n=1e5)
        s = dist.sample(rng, n)
        # a count-form rule is deterministic and reads no stream (see Learner)
        prices[i] = learner.decide(s.values, n, None if counted else learner_stream(base_seed, n, t))
    return dist.revenue(prices)


# A forked worker starts in milliseconds with the modules and heap thresholds
# already in place; a spawned one starts a fresh interpreter and imports NumPy
# (~0.35 s).  Forking is safe here: workers run no BLAS routine (the loop sorts,
# draws, cumsums, argmaxes and searchsorts), so no lock held by NumPy's idle
# BLAS thread is needed in the child.  macOS keeps spawn, as its system
# frameworks are unsafe after fork.
_START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"

_worker_inputs: tuple[Learner, Distribution, int] | None = None  # set once in each pool worker


def _init_worker(payload: bytes) -> None:
    global _worker_inputs
    _worker_inputs = pickle.loads(payload)


def _worker_revenues(n: int, start: int, stop: int) -> np.ndarray:
    learner, dist, base_seed = _worker_inputs
    return _trial_revenues(learner, dist, n, range(start, stop), base_seed)


def estimate_gap(
    learner: Learner,
    dist: Distribution,
    n: int,
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> CurvePoint:
    """Mean revenue gap opt - E[rev(price)] over seeded independent trials.

    The gap is evaluated against the true distribution (exact revenue of the
    returned price), never against a held-out empirical estimate.
    """
    return learning_curve(learner, dist, [n], trials, base_seed, workers).points[0]


def learning_curve(
    learner: Learner,
    dist: Distribution,
    grid: Sequence[int],
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> LearningCurve:
    opt = dist.optimal_revenue()
    if not math.isfinite(opt.value):
        raise GapUndefinedError(
            f"optimal revenue of {dist.label} is infinite; use expected_revenue_curve() "
            "to track revenue growth instead"
        )
    stats = expected_revenue_curve(learner, dist, grid, trials, base_seed, workers)
    points = tuple(CurvePoint(n=n, mean_gap=opt.value - mean, std_err=se, trials=trials) for n, mean, se in stats)
    return LearningCurve(learner.name, dist.label, points, base_seed)


def expected_revenue_curve(
    learner: Learner,
    dist: Distribution,
    grid: Sequence[int],
    trials: int,
    base_seed: int,
    workers: int = 1,
) -> list[tuple[int, float, float]]:
    """(n, mean revenue, std err) per grid point, all points in one pool when
    workers > 1; the consistency harness for distributions whose optimal
    revenue is infinite."""
    grid = _sample_sizes(grid)
    if any(b <= a for a, b in zip(grid, grid[1:])) or not grid:
        raise ValueError("sample-size grid must be nonempty and strictly increasing")
    _check_count("trials", trials, least=2)  # a standard error needs 2 trials
    _check_count("base seed", base_seed, least=0)
    _check_count("workers", workers)
    size = min(workers, trials)
    cuts = [trials * i // size for i in range(size + 1)]
    jobs = [(n, start, stop) for n in grid for start, stop in zip(cuts, cuts[1:])]
    if size == 1:
        parts = [_trial_revenues(learner, dist, n, range(start, stop), base_seed) for n, start, stop in jobs]
    else:
        try:
            payload = pickle.dumps((learner, dist, base_seed))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(f"workers > 1 needs a picklable learner and distribution ({exc}); use workers=1") from exc
        # here, so an in-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        context = get_context(_START_METHOD)
        with ProcessPoolExecutor(size, context, initializer=_init_worker, initargs=(payload,)) as pool:
            parts = list(pool.map(_worker_revenues, *zip(*jobs)))
    revs = [np.concatenate(parts[i : i + size]) for i in range(0, len(parts), size)]
    return [(n, *_mean_se(r)) for n, r in zip(grid, revs)]


def _sample_sizes(grid: Sequence[int]) -> list[int]:
    """The grid as ints, refusing a sample size that is a bool, not a whole
    number >= 1 (2.0 is one) or does not fit an int64."""
    for n in grid:
        if isinstance(n, bool) or not (n >= 1 and n % 1 == 0):
            raise ValueError(f"sample size {n!r} in the grid is not a whole number >= 1")
        if n >= 2**63:
            raise ValueError(f"sample size {n!r} in the grid does not fit an int64 (it must be below 2^63)")
    return [int(n) for n in grid]


def _mean_se(revs: np.ndarray) -> tuple[float, float]:
    """Mean revenue and its standard error; trials that all earn one revenue
    report it exactly with SE 0, where np.mean and np.std would leave float dust."""
    if np.all(revs == revs[0]):
        return float(revs[0]), 0.0
    return float(np.mean(revs)), float(np.std(revs, ddof=1) / math.sqrt(revs.size))


# -- rate fits ---------------------------------------------------------------


def _fit(curve: LearningCurve, model: str) -> RateFit:
    """OLS of log mean_gap on log n ("power") or n ("exponential") over the
    positive-signal points, which must hold at least three distinct n."""
    pts = [p for p in curve.points if p.mean_gap > SIGNAL_SIGMA * p.std_err]
    if (sizes := len({p.n for p in pts})) < 3:
        raise InsufficientDataError(f"{model} fit needs positive-signal points at >= 3 distinct sample sizes, have {sizes}")
    x = np.array([p.n for p in pts], dtype=np.float64)
    x = np.log(x) if model == "power" else x
    y = np.log(np.array([p.mean_gap for p in pts]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return RateFit(model, float(slope), float(intercept), r2, len(pts))


def fit_power(curve: LearningCurve) -> RateFit:
    """OLS of log mean_gap on log n over the positive-signal points."""
    return _fit(curve, "power")


def fit_exponential(curve: LearningCurve) -> RateFit:
    """OLS of log mean_gap on n over the positive-signal points."""
    return _fit(curve, "exponential")


# -- near-optimal-price diagnostics (finite support) --------------------------


@dataclass(frozen=True)
class TEpsResult:
    """Prices within eps of optimal: the qualifying atoms plus closed intervals.

    Revenue is linear on each inter-atom interval, so the interval boundaries
    (opt - eps) / survival are closed-form.
    """

    atoms: np.ndarray
    intervals: tuple[tuple[float, float], ...]

    def contains(self, t: float) -> bool:
        return any(lo - 1e-12 <= t <= hi + 1e-12 for lo, hi in self.intervals)


def _pmf_of(dist: Distribution) -> FinitePMF:
    """The law's finite PMF, for the checks that are exact only on finite support."""
    if not isinstance(dist.variant, FinitePMF):
        raise ValueError(f"{dist.label}: this check is exact only on finite support")
    return dist.variant


def _teps_pieces(pmf: FinitePMF, opt: float, eps: float) -> list[tuple[float, float]]:
    """Maximal-resolution decomposition of T(eps) into closed pieces [lo, v_i],
    one per support interval, each free of interior atoms."""
    if not eps >= 0.0:  # NaN fails too
        raise ValueError("eps must be nonnegative")
    thr = opt - eps
    if thr <= 0.0:
        raise ValueError("eps >= optimal revenue: every large price qualifies and the set is unbounded")
    tol = 1e-12 * max(1.0, opt)
    vals = pmf.values
    tails = pmf.survival(vals)
    pieces = []
    prev = 0.0
    for v, s in zip(vals, tails):
        lo = max((thr - tol) / s, prev)
        if lo <= v + tol:
            pieces.append((float(min(lo, v)), float(v)))
        prev = float(v)
    return pieces


def t_eps(dist: Distribution, eps: float) -> TEpsResult:
    """The set T(eps) of prices with revenue >= opt - eps, boundary-exact."""
    pmf = _pmf_of(dist)
    opt = pmf.optimal_revenue().value
    pieces = _teps_pieces(pmf, opt, eps)
    merged: list[list[float]] = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    tol = 1e-12 * max(1.0, opt)
    atoms = pmf.values[pmf.atom_revenues >= opt - eps - tol]
    return TEpsResult(atoms=atoms, intervals=tuple((lo, hi) for lo, hi in merged))


def delta_eps(dist: Distribution, eps: float) -> float:
    """Localization radius of eps-optimal prices around the optimal-price set:

        sup_{t in T(eps)} min_{t* in T*} max(|t - t*|, crossing_mass(t, t*))

    where crossing_mass(t, t') = min(t, t') * D([min, max)), the upper end open
    so a point mass at the far price does not count.  Exact for finite support:
    within each atom-free piece of T(eps) the two branches are linear in t, so
    the supremum is attained at piece endpoints, branch vertices, or pairwise
    branch crossings, all enumerated below.
    """
    pmf = _pmf_of(dist)
    opt = pmf.optimal_revenue().value
    tol = 1e-12 * max(1.0, opt)
    t_star = pmf.values[pmf.atom_revenues >= opt - tol]

    def crossing_mass(a: float, b: float) -> float:
        lo, hi = (a, b) if a <= b else (b, a)
        return lo * (pmf.survival(lo) - pmf.survival(hi))

    def h(t: float) -> float:
        return min(max(abs(t - ts), crossing_mass(t, float(ts))) for ts in t_star)

    best = 0.0
    for lo, hi in _teps_pieces(pmf, opt, eps):
        cands = {lo, hi}
        # per optimal price, the two active linear branches on the open piece
        # interior: (slope, intercept) pairs of t -> slope*t + intercept
        lines: list[tuple[float, float]] = []
        for ts in t_star:
            ts = float(ts)
            if ts >= hi:  # piece sits below ts
                m = pmf.survival(hi) - pmf.survival(ts)  # mass of [t, ts) for t in (lo, hi)
                lines += [(-1.0, ts), (m, 0.0)]
            elif ts <= lo:  # piece sits above ts
                c = ts * (pmf.survival(ts) - pmf.survival(lo, strict=True))
                lines += [(1.0, -ts), (0.0, c)]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                a1, b1 = lines[i]
                a2, b2 = lines[j]
                if a1 != a2:
                    cands.add((b2 - b1) / (a1 - a2))
        for t in cands:
            if lo <= t <= hi:
                best = max(best, h(float(t)))
    return best
