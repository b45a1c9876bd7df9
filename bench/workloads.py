"""Workload definitions for the revcurve benchmark: plain data, no revcurve import.

Every workload runs operations of three kinds so that every end-to-end metric
exists on every workload:

- light: cheap curve points (or, on cli_mixed, the pool-bound CLI curve);
- heavy: expensive curve points (or the compute-bound CLI curve);
- adversary: the slow-rate construction against ERM plus its validation.

An operation is one curve point (in process) or one CLI invocation.  The
specs are the ones the library and the CLI parse, so set-up time covers
exactly the parsing a user pays.
"""

from __future__ import annotations

from dataclasses import dataclass

TWO_POINT = "two_point:p=1,p_prime=3,c=2"
PINNED_PMF = "finite:1@0.2,10@0.79,1000@0.01"


@dataclass(frozen=True)
class Curve:
    learner: str
    dist: str
    grid: tuple[int, ...]
    trials: int


@dataclass(frozen=True)
class Adversary:
    learner: str = "erm"
    depth: int = 6
    trials: int = 500  # Monte Carlo trials per validated level


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # operations run as `revcurve` processes rather than library calls
    light: tuple[Curve, ...]
    heavy: tuple[Curve, ...]
    adversary: Adversary

    def curves(self) -> tuple[Curve, ...]:
        return self.light + self.heavy

    def dists(self) -> list[str]:
        return sorted({c.dist for c in self.curves()})

    def learners(self) -> list[str]:
        return sorted({c.learner for c in self.curves()} | {self.adversary.learner})


WORKLOADS = {
    # Cheap trials on atomic laws (criteria 2, 3 and 5): seeding and drawing
    # dominate, so seeding v2 and sufficient-statistic sampling show here.
    "atomic_mc": Workload(
        name="atomic_mc",
        cli=False,
        light=tuple(Curve(lr, "erm_hard", (64, 256, 1024, 4096), 1000) for lr in ("erm", "structural")),
        heavy=tuple(Curve(lr, PINNED_PMF, (1000, 10_000), 1000) for lr in ("capped", "truncated")),
        adversary=Adversary(),
    ),
    # Continuous laws at large n (criterion 4): the sort and np.unique inside
    # decide dominate, so the sorted-prefix and batched kernels show here and
    # sufficient-statistic sampling (atomic laws only) must change nothing.
    "continuous_mc": Workload(
        name="continuous_mc",
        cli=False,
        light=(
            Curve("erm", "uniform01", (10_000,), 100),
            Curve("structural", "uniform01", (10_000,), 100),
            Curve("capped", "regular_no_opt", (10_000,), 100),
        ),
        heavy=(
            Curve("erm", "uniform01", (100_000,), 100),
            Curve("structural", "uniform01", (100_000,), 100),
            Curve("capped", "regular_no_opt", (100_000,), 100),
        ),
        adversary=Adversary(),
    ),
    # Fresh `revcurve` processes with the default worker count: the only
    # workload covering process start, the pool and file output.  The light
    # curve is pool-bound and the heavy one compute-bound, one on each side of
    # any future worker-count threshold.
    "cli_mixed": Workload(
        name="cli_mixed",
        cli=True,
        light=(Curve("erm", TWO_POINT, tuple(range(20, 201, 20)), 2000),),
        heavy=(Curve("erm", "uniform01", (10_000, 100_000), 600),),
        adversary=Adversary(),
    ),
}
