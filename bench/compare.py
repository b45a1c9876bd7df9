"""Compare two sweep files (see sweep.py) metric by metric.

    python3 bench/compare.py before.json after.json

For every workload and end-to-end metric it prints both medians, how much
worse the second is as a share of the first (negative when better), both
spreads, and the metric's bound from BENCHMARK.json.  A row is flagged when
the second median is worse by more than the bound, or a spread (setup_s
excepted) exceeds it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    direction = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    print(f"{'workload':14s} {'metric':28s} {'median 1':>12s} {'median 2':>12s} {'worse':>8s} "
          f"{'spread 1':>8s} {'spread 2':>8s} {'bound':>6s}")
    for workload, doc in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        for name, a in doc["summary"].items():
            b = other["summary"][name]
            sign = 1.0 if direction[name] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else float("nan")
            bound = a["bound"]
            bad = bound is not None and (
                worse > bound or (name != "setup_s" and max(a["spread"], b["spread"]) > bound)
            )
            flagged += bad
            print(f"{workload:14s} {name:28s} {a['median']:12.6g} {b['median']:12.6g} {worse:8.4f} "
                  f"{a['spread']:8.4f} {b['spread']:8.4f} {'' if bound is None else bound:>6}" + ("  <-" if bad else ""))
    print(f"{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
