"""Child process that does a workload's set-up and prints when it is ready.

Run as `python3 bench/setup_probe.py <workload>` with `src` on PYTHONPATH.
It imports revcurve, parses every learner and distribution spec of the
workload and computes each distribution's optimal revenue: the work that must
finish before the first trial can start.  It prints `time.monotonic()` at that
point; the parent subtracts its own launch time on the same clock.
"""

import sys
import time

from workloads import WORKLOADS


def main() -> int:
    workload = WORKLOADS[sys.argv[1]]
    import revcurve

    if workload.cli:
        import revcurve.cli  # noqa: F401  (the CLI process imports its front end too)
    for spec in workload.learners():
        revcurve.parse_learner(spec)
    for spec in workload.dists():
        revcurve.parse_dist(spec).optimal_revenue()
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
