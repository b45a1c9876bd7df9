"""Pricing algorithms: plain, truncated, capped and structural empirical
revenue maximization, all exposed through one Learner record.

All four read the sample through one revenue kernel: ascending values u with
their empirical revenues u * left / n, where left[j] counts the sample values
>= u[j].  The rules work row by row along the last axis.  There are two front
doors onto them: a sorted sample of size m is one row, its values with
left[i] = m - i (read-only, cached for the latest m), and count vectors c
over ascending atoms give a row per vector, left = m - (cumsum(c) - c), with
the undrawn atoms masked out.  The sorted door prices only a window of its
row.  Cut into blocks, the row bounds every revenue in a block by the revenue
of the block's last value at the block's first left count, because rounded
multiply and divide are monotone, and the exact revenues at block ends bound
the best revenue from below.  The window keeps every block whose bound can
reach what the rule picks, so the kernel picks the same value from it as from
the whole row, bit for bit.  In a sorted sample a later copy of a value
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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .empirical import EmpiricalDist


class LearnerProcessError(RuntimeError):
    """A subprocess learner failed or produced unparseable output."""


def _g_sqrt(n: int) -> float:
    return math.sqrt(n)


def _g_log(n: int) -> float:
    return max(math.log(n), 1.0)


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
    sample and any rng, so callers may pass rng=None to its decide.  Leave it
    None for any other rule.
    """

    name: str
    decide: Callable[[np.ndarray, int, Optional[np.random.Generator]], float]
    deterministic: bool = True
    decide_counts: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None

    def __post_init__(self):
        if self.decide_counts is not None and not self.deterministic:
            raise ValueError(f"learner {self.name!r}: a count form declares the rule deterministic, not deterministic=False")

    def price_counts(self, values: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
        """decide_counts on a block of count rows (shape (rows, K)), one price per row."""
        prices = np.asarray(self.decide_counts(values, counts, n))
        if prices.shape != counts.shape[:-1]:
            raise ValueError(f"decide_counts returned shape {prices.shape} for {len(counts)} rows; it prices each row")
        return prices


@functools.lru_cache(maxsize=1)
def _left(m: int) -> np.ndarray:
    """left[i] = m - i, the number of values >= the i-th of m sorted values (read-only)."""
    left = np.arange(m, 0, -1)
    left.flags.writeable = False
    return left


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


# -- the rules, row by row along the last axis --------------------------------
#
# Each rule reads ascending values (shape (K,)), left (shape (..., K)) and the
# mask of drawn values (None when every value was drawn) of samples of size m,
# and returns one price per row (shape (...)).  Undrawn values never compete.
# A cap or scale arrives checked by _Rule.at, as do the windows' below.


def _erm_price(values: np.ndarray, left: np.ndarray, drawn: Optional[np.ndarray], m: int):
    rev = _mask(_revenues(values, left, m), drawn)
    return values[np.argmax(rev, axis=-1)]  # argmax returns the first maximum


def _capped_price(values: np.ndarray, left: np.ndarray, drawn: Optional[np.ndarray], m: int, cap: float):
    # ERM over the values at most the cap and the cap itself, last, so a value wins a tie;
    # the cap's left count is that of the first value >= cap, drawn or not (0 past the row)
    k, at_cap = int(np.searchsorted(values, cap, side="right")), int(np.searchsorted(values, cap, side="left"))
    cap_left = left[..., at_cap : at_cap + 1] if at_cap < values.size else np.zeros_like(left[..., :1])
    if drawn is not None:
        drawn = np.concatenate([drawn[..., :k], np.ones_like(drawn[..., :1])], axis=-1)
    return _erm_price(np.append(values[:k], cap), np.concatenate([left[..., :k], cap_left], axis=-1), drawn, m)


def _structural_price(values: np.ndarray, left: np.ndarray, drawn: Optional[np.ndarray], m: int, fn: float):
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


# -- the sorted door's window --------------------------------------------------
#
# The first k values of a sorted row are cut into blocks of _BLOCK that end at
# index k - 1; the first block may be shorter.  In a block from index s to
# index e every revenue is at most _revenues(u[e], m - s, m): u rises, left
# falls, and rounded multiply and divide are monotone.  Each window below holds
# every value its rule can pick, so the row kernel prices it to the bits of the
# whole row.  The windows count left[i] = m - i rather than read it, as a
# strided read of left costs more than the arithmetic; the block bounds count
# it in floats, which hold it exactly, to spare NumPy's cast of an int array.

_BLOCK = 256  # sorted values per block; no price depends on it
_MIN_BLOCKS = 32  # rows of at most this many blocks are priced whole: bounding them costs more than it saves


def _block_bounds(u: np.ndarray, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per block of the first k sorted values: the revenue at its end, and a
    bound on every revenue in it."""
    end = (k - 1) % _BLOCK  # of the first block
    at_end = np.arange(float(m - end), m - k, -_BLOCK)
    ends = u[end:k:_BLOCK]
    # left at a block's start is at most left at its end + _BLOCK - 1
    return _revenues(ends, at_end, m), _revenues(ends, at_end + (_BLOCK - 1), m)


def _erm_span(u: np.ndarray, m: int, k: int) -> slice:
    """The span of blocks of the first k sorted values whose bound reaches the
    best block-end revenue: no value before it reaches the maximum, so it
    holds the first maximiser."""
    at_end, upper = _block_bounds(u, m, k)
    keep = upper >= at_end.max()
    first, last = int(keep.argmax()), keep.size - 1 - int(keep[::-1].argmax())
    end = (k - 1) % _BLOCK  # of the first block
    return slice(max(end + 1 + (first - 1) * _BLOCK, 0), end + 1 + last * _BLOCK)


def _capped_window(u: np.ndarray, m: int, cap: float) -> slice:
    """ERM's span below the cap, stretched to the first value >= cap, whose left
    count the kernel reads as the cap's own."""
    k, at_cap = int(u.searchsorted(cap, "right")), int(u.searchsorted(cap, "left"))
    span = _erm_span(u, m, k) if k else slice(0, 0)
    if at_cap == m:
        return span
    return slice(min(span.start, at_cap), max(span.stop, at_cap + 1))


def _structural_end(u: np.ndarray, m: int, fn: float) -> int:
    """Length of the sorted prefix that holds every winner of the structural scan.

    Value j > 0 wins only if rev[j] > fl(H + margin[j]), where H, the running
    maximum of rev + margin before j, is at least lb, the largest rev + margin
    at the ends of earlier blocks; so j must pass rev[j] > fl(lb + margin[j]).
    A later block can hold such a value only if its bound beats lb plus the
    margin at the end of the block before it, which is at most margin[j].
    Those blocks are tested from the end, 1, 2, 4, ... at a time, so a late
    winner costs one block.  Every value of the first block passes, as no
    block precedes it.
    """
    end = (m - 1) % _BLOCK  # of the first block
    at_end, upper = _block_bounds(u, m, m)
    margin = u[end::_BLOCK] * fn
    lb = np.maximum.accumulate(at_end + margin)
    candidates = np.flatnonzero(upper[1:] > lb[:-1] + margin[:-1])
    size = 1
    while candidates.size:
        candidates, chunk = candidates[:-size], candidates[-size:]
        # block chunk + 1 holds the indices after the end of block chunk
        j = chunk[:, None] * _BLOCK + (end + 1) + np.arange(_BLOCK)
        v = u[j]
        passing = np.flatnonzero(_revenues(v, m - j, m) > lb[chunk, None] + v * fn)
        if passing.size:
            return int(j.flat[passing[-1]]) + 1
        size *= 2
    return end + 1


# -- learner records ---------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    """Plain ERM, capped at cap(n), or structural with confidence scale(n),
    priced from a sample (called as decide) or from count vectors (on_counts)."""

    cap: Optional[Callable[[int], float]] = None
    scale: Optional[Callable[[int], float]] = None

    def at(self, n: int) -> Optional[float]:
        """cap(n) or scale(n), None for plain ERM: read once per price, for the window and the kernel both."""
        if self.scale is not None:
            if not 0.0 <= (fn := self.scale(n)) < math.inf:
                raise ValueError(f"confidence scale must be nonnegative and finite at n, got {fn!r}")
            return fn
        if self.cap is not None:
            if not 0.0 < (cap := self.cap(n)) < math.inf:
                raise ValueError(f"growth function must be positive and finite at n, got {cap!r}")
            return cap
        return None

    def price(self, values, left, drawn, m, x):
        if self.scale is not None:
            return _structural_price(values, left, drawn, m, x)
        if self.cap is not None:
            return _capped_price(values, left, drawn, m, x)
        return _erm_price(values, left, drawn, m)

    def __call__(self, values, n, rng):
        e = EmpiricalDist.from_values(values)  # looked up on the class at each call, so a wrapper of it sees every sort
        u, m, x = e.sorted_values, e.n, self.at(n)
        if m <= _MIN_BLOCKS * _BLOCK:
            window = slice(None)
        elif self.scale is not None:
            window = slice(0, _structural_end(u, m, x))
        elif self.cap is not None:
            window = _capped_window(u, m, x)
        else:
            window = _erm_span(u, m, m)
        return float(self.price(u[window], _left(m)[window], None, m, x))

    def on_counts(self, values, counts, n):
        return self.price(np.asarray(values, dtype=np.float64), *_count_view(np.asarray(counts), n), n, self.at(n))


@dataclass(frozen=True)
class _Constant:
    """A constant price ignores its data."""

    price: float

    def __call__(self, values, n, rng):
        return self.price

    def on_counts(self, values, counts, n):
        return np.full(np.shape(counts)[:-1], self.price)[()]


@dataclass(frozen=True)
class _Counts:
    """A rule's count door as a record: a bound method compares its owner by identity, so a pickled copy would differ."""

    rule: _Rule | _Constant

    def __call__(self, values, counts, n):
        return self.rule.on_counts(values, counts, n)


def _learner(name: str, rule: _Rule | _Constant) -> Learner:
    return Learner(name=name, decide=rule, decide_counts=_Counts(rule))


def make_erm() -> Learner:
    """ERM: the smallest sample value maximizing empirical revenue."""
    return _learner("erm", _Rule())


def make_truncated() -> Learner:
    """Truncated ERM: ERM restricted to prices at most max(ln n, 1)."""
    return _learner("truncated", _Rule(cap=_g_log))


def _named(fn, name, default, default_name) -> tuple[Callable[[int], float], str]:
    """fn, else the default, and the name its learner shows: name, else the default's, else __name__, else repr."""
    if fn is None:
        fn, name = default, default_name if name is None else name
    return fn, name if name is not None else getattr(fn, "__name__", None) or repr(fn)


def make_capped(g: Optional[Callable[[int], float]] = None, g_name: Optional[str] = None) -> Learner:
    """Capped ERM at the price cap g(n), sqrt(n) by default: ERM restricted to
    prices at most g(n), the best of the sample values below the cap and the
    cap itself, the smaller price winning a tie."""
    g, g_name = _named(g, g_name, _g_sqrt, "sqrt")
    return _learner(f"capped[g={g_name}]", _Rule(cap=g))


def make_structural(f: Optional[Callable[[int], float]] = None, f_name: Optional[str] = None) -> Learner:
    """Structural ERM with the confidence scale f(n), n^-1/4 by default, so that
    f(n)^2 n = sqrt(n): the largest sorted sample price that beats every earlier
    one by the shrinking margin (p_j + p_i) * f(n); the first price qualifies
    vacuously, and only a first copy of a value can win."""
    f, f_name = _named(f, f_name, _PowerFn(-0.25), "n^-0.25")
    return _learner(f"structural[f={f_name}]", _Rule(scale=f))


def make_constant(price: float) -> Learner:
    return _learner(f"const[{price:g}]", _Constant(price))


SUBPROCESS_TIMEOUT_S = 60.0  # wall time one cmd: learner call may take before it counts as hung


@dataclass(frozen=True)
class _SubprocessDecide:
    """Black-box protocol: write n, then n whitespace-separated values, read one
    price within SUBPROCESS_TIMEOUT_S seconds."""

    command: tuple[str, ...]

    def __call__(self, values, n, rng):
        import subprocess  # here, so a process that runs no cmd: learner skips its import

        payload = f"{n}\n" + " ".join(repr(float(v)) for v in values) + "\n"
        try:
            out = subprocess.run(
                list(self.command),
                input=payload,
                capture_output=True,
                text=True,
                check=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            ).stdout
        except subprocess.TimeoutExpired as exc:
            raise LearnerProcessError(
                f"subprocess learner {self.command} gave no price within {exc.timeout:g} s"
            ) from exc
        except (OSError, subprocess.CalledProcessError) as exc:
            raise LearnerProcessError(f"subprocess learner {self.command} failed: {exc}") from exc
        try:
            return float(out.split()[0])
        except (IndexError, ValueError) as exc:
            raise LearnerProcessError(f"subprocess learner produced no price: {out!r}") from exc


def make_subprocess(command: list[str] | tuple[str, ...], deterministic: bool = False) -> Learner:
    import shlex

    cmd = tuple(command)
    return Learner(name=f"cmd[{shlex.join(cmd)}]", decide=_SubprocessDecide(cmd), deterministic=deterministic)


def _parse_growth(name: str, key: str, expr: str) -> tuple[Callable[[int], float], str]:
    """The function the {key}=<fn> argument of a capped or structural spec names, and its label."""
    expr = expr.strip()
    if expr == "sqrt":
        return _g_sqrt, "sqrt"
    if expr == "log":
        return _g_log, "log"
    for prefix, fn in (("n^", _PowerFn), ("const:", _ConstFn)):
        if expr.startswith(prefix):
            try:
                x = float(expr[len(prefix) :])
            except ValueError:
                x = math.nan  # refused below with the non-finite numbers
            if not math.isfinite(x):
                raise ValueError(f"{name} learner: {key}={expr!r} needs a finite number after {prefix!r}")
            return fn(x), expr
    raise ValueError(f"{name} learner: cannot parse {key}={expr!r} (use sqrt, log, n^<a> or const:<v>)")


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
    split as a POSIX shell would (shlex), so quoted arguments stay whole.  Any
    other spec, an argument to erm or truncated included, raises ValueError.
    """
    name, _, arg = spec.partition(":")
    if name in ("erm", "truncated") and not arg:
        return make_erm() if name == "erm" else make_truncated()
    if name in ("capped", "structural"):
        key, make = ("g", make_capped) if name == "capped" else ("f", make_structural)
        if not arg:
            return make()
        got, _, expr = arg.partition("=")
        if got != key:
            raise ValueError(f"{name} learner takes {key}=<fn>, got {arg!r}")
        return make(*_parse_growth(name, key, expr))
    if name == "const":
        try:
            price = float(arg)
        except ValueError:
            raise ValueError(f"const learner: price {arg!r} is not a number") from None
        return make_constant(price)
    if name == "cmd":
        if not arg:
            raise ValueError("cmd learner needs a command line")
        import shlex

        try:
            argv = shlex.split(arg)
        except ValueError as exc:
            raise ValueError(f"cmd learner: cannot split {arg!r} as a shell would: {exc}") from None
        return make_subprocess(argv)
    raise ValueError(f"unknown learner spec {spec!r}")
