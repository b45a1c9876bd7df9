"""Regenerate bench/reference.json, the curves every benchmark run is checked against.

    python3 bench/make_reference.py

Each point of every workload, and each validated level of the adversary, is
estimated in process with `REFERENCE_FACTOR` times the workload's trials at a
seed no benchmark round uses.  Regenerate only when a deliberate change to the
program's statistics makes the old curves wrong, and say so in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_FACTOR = 5
REFERENCE_SEED = 2**62 + 12345


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import ops
    from workloads import WORKLOADS, Curve

    points = {}
    for workload in WORKLOADS.values():
        inputs = ops.Inputs.parse(workload)
        for curve in workload.curves():
            more = Curve(curve.learner, curve.dist, curve.grid, curve.trials * REFERENCE_FACTOR)
            for n in curve.grid:
                key = checks.point_key(curve.learner, curve.dist, n)
                if key not in points:
                    point, _ = ops.timed_point(inputs, more, n, REFERENCE_SEED)
                    points[key] = {"mean_gap": point.mean_gap, "std_err": point.std_err, "trials": point.trials}
        adv = workload.adversary
        if checks.level_key(adv.learner, adv.depth, 2) not in points:
            more = type(adv)(adv.learner, adv.depth, adv.trials * REFERENCE_FACTOR)
            run = ops.run_adversary(more, inputs.learners[adv.learner], REFERENCE_SEED)
            for row in run.levels:
                points[checks.level_key(adv.learner, adv.depth, row["level"])] = {
                    "mean_gap": row["mean_gap"], "std_err": row["std_err"], "trials": more.trials,
                }
    doc = {"seed": REFERENCE_SEED, "factor": REFERENCE_FACTOR, "points": dict(sorted(points.items()))}
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(points)} reference points to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
