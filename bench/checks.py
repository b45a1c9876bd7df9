"""Correctness checks made in the untimed part of every benchmark run.

Each check returns a list of failure messages; an operation with any message
counts as failed.  The checks are statistical where the output is random, so
they keep passing when the seeding contract changes:

- every point: 0 <= mean_gap <= opt and a finite standard error;
- every point agrees with the committed reference curve within
  `Z_REFERENCE` combined standard errors;
- erm_hard + ERM: the gap clears the exact floor Pr[Bin(n, 1/(2n)) >= 2]/2
  by no less than -3 sigma;
- two_point + ERM: the number of wrong prices is inside the central
  1 - 2 * `TAIL_PROB` mass of Bin(trials, Pr[Bin(n, 2/3) <= n/3]);
- the adversary transcript satisfies the criterion-6 identities.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import TWO_POINT

Z_REFERENCE = 5.0
Z_FLOOR = 3.0
TAIL_PROB = 1e-6
IDENTITY_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def point_key(learner: str, dist: str, n: int) -> str:
    return f"{learner}|{dist}|{n}"


def level_key(learner: str, depth: int, level: int) -> str:
    return f"adversary|{learner}|J={depth}|{level}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["points"]


def _binom_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_cdf(k: int, n: int, p: float) -> float:
    """Pr[Bin(n, p) <= k], summed term by term so small tails keep their digits."""
    return min(1.0, math.fsum(_binom_pmf(i, n, p) for i in range(0, min(k, n) + 1)))


def binom_sf(k: int, n: int, p: float) -> float:
    """Pr[Bin(n, p) >= k]."""
    return min(1.0, math.fsum(_binom_pmf(i, n, p) for i in range(max(k, 0), n + 1)))


def erm_hard_floor(n: int) -> float:
    """Pr[Bin(n, 1/(2n)) >= 2] / 2: ERM's exact gap floor on erm_hard at n = 4^k."""
    p = 1.0 / (2.0 * n)
    return 0.5 * (1.0 - (1.0 - p) ** n - n * p * (1.0 - p) ** (n - 1))


def two_point_error(n: int) -> float:
    """Pr[Bin(n, 2/3) <= n/3]: the chance ERM posts the low price on two_point(1,3,2)."""
    return binom_cdf(n // 3, n, 2.0 / 3.0)


def check_point(key: str, n: int, trials: int, mean_gap: float, std_err: float, opt: float, reference: dict) -> list[str]:
    """Range, finiteness and reference agreement of one curve point."""
    tol = 1e-12 * max(1.0, abs(opt))
    if not (math.isfinite(mean_gap) and math.isfinite(std_err) and std_err >= 0.0):
        return [f"{key}: non-finite gap {mean_gap!r} or std err {std_err!r}"]
    errors = []
    if not (-tol <= mean_gap <= opt + tol):
        errors.append(f"{key}: gap {mean_gap!r} outside [0, opt={opt!r}]")
    ref = reference.get(key)
    if ref is None:
        errors.append(f"{key}: no reference point")
    else:
        allowed = Z_REFERENCE * math.hypot(std_err, ref["std_err"]) + tol
        if abs(mean_gap - ref["mean_gap"]) > allowed:
            errors.append(
                f"{key}: gap {mean_gap!r} differs from reference {ref['mean_gap']!r} by more than {allowed!r}"
            )
    return errors


def check_oracles(learner: str, dist_spec: str, dist, n: int, trials: int, mean_gap: float, std_err: float) -> list[str]:
    """Exact-binomial checks for the two laws whose ERM gap has a closed form."""
    if learner != "erm":
        return []
    if dist_spec == "erm_hard":
        floor = erm_hard_floor(n)
        if mean_gap < floor - Z_FLOOR * std_err:
            return [f"erm|erm_hard|{n}: gap {mean_gap!r} below floor {floor!r} - {Z_FLOOR} sigma"]
    if dist_spec == TWO_POINT:
        per_error = dist.optimal_revenue().value - dist.revenue(1.0)
        errors_seen = mean_gap * trials / per_error
        k = round(errors_seen)
        if abs(errors_seen - k) > 1e-6 * max(1.0, k):
            return [f"erm|two_point|{n}: gap {mean_gap!r} is not a whole number of wrong prices"]
        p = two_point_error(n)
        if binom_cdf(k, trials, p) < TAIL_PROB or binom_sf(k, trials, p) < TAIL_PROB:
            return [f"erm|two_point|{n}: {k} wrong prices in {trials} trials, error probability {p!r}"]
    return []


def check_construction(doc: dict) -> list[str]:
    """Criterion-6 identities on a construction.json document."""
    R, i_pts, P, c = doc["R"], doc["i"], doc["P"], doc["c"]
    errors = []
    for j in range(2, doc["depth"] + 1):
        if abs(i_pts[j - 1] * P[j - 1] - (2.0 - R[j - 2])) > IDENTITY_TOL:
            errors.append(f"construction level {j}: i_j * P_j != 2 - R(j-1)")
        if P[j - 1] > min(P[j - 2] / 2.0, R[j - 2] / (2.0 * (j - 1))) + IDENTITY_TOL:
            errors.append(f"construction level {j}: tail cap violated")
        if not i_pts[j - 1] > max(i_pts[j - 2], c[j - 2]):
            errors.append(f"construction level {j}: support point not above the learner's bound")
    return errors
