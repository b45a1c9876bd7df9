"""Loading revcurve.curves pins glibc's heap thresholds, so the arrays a large
continuous trial frees stay mapped and the next trial reuses them instead of
faulting fresh pages in.

Each count runs in a fresh interpreter: a long test session may already have
raised glibc's dynamic thresholds by freeing some larger block, which would
hide a process that never set them.  The per-decide count reads 0 with or
without the thresholds; the per-trial count over estimate_gap runs is the
one that needs them (about 18 to 38 faults per trial in steady state
without, none with).
"""

import json
import os
import subprocess
import sys

import pytest

FAULTS_PER_DECIDE = """
import resource, sys
import numpy as np
from revcurve import parse_dist, parse_learner
rule = parse_learner(sys.argv[1])
values = parse_dist("uniform01").sample(np.random.default_rng(7), 100_000).values
for _ in range(3):
    rule.decide(values, values.size, None)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    rule.decide(values, values.size, None)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""

# identical 20-trial loops.  The first places every array afresh.  The heap
# then grows once more by about one sample array, in a loop that depends on
# what the imports and the environment left on it (the second when the
# modules were read from bytecode caches, the fourth under pytest); every
# other loop from the third on counts the steady state
FAULTS_PER_TRIAL_BY_LOOP = """
import json, resource, sys
from revcurve import parse_dist, parse_learner
from revcurve.curves import estimate_gap
learner, dist = parse_learner(sys.argv[1]), parse_dist(sys.argv[2])
per_trial = []
for _ in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_gap(learner, dist, n=100_000, trials=20, base_seed=2)
    per_trial.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
print(json.dumps(per_trial))
"""


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not on_glibc(), reason="the heap thresholds are set on glibc only")
@pytest.mark.parametrize("learner", ["erm", "structural", "capped"])
def test_decide_on_a_large_sample_does_not_fault_its_arrays_back_in(learner):
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_DECIDE, learner],
                         capture_output=True, text=True, check=True, timeout=120)
    faults = float(out.stdout)
    assert faults < 5, f"{learner}: {faults} minor page faults per decide at n = 1e5"


@pytest.mark.skipif(not on_glibc(), reason="the heap thresholds are set on glibc only")
@pytest.mark.parametrize("learner,dist", [("erm", "uniform01"), ("structural", "uniform01"), ("capped", "regular_no_opt")])
def test_trials_on_a_large_sample_do_not_fault_their_arrays_back_in(learner, dist):
    out = subprocess.run([sys.executable, "-c", FAULTS_PER_TRIAL_BY_LOOP, learner, dist],
                         capture_output=True, text=True, check=True, timeout=120)
    per_trial = json.loads(out.stdout)
    steady = sorted(per_trial[2:])[:-1]  # all but the loop the heap's one growth may land in
    assert max(steady) < 1, f"{learner} on {dist}: {per_trial} minor page faults per trial by loop at n = 1e5"


# CDLL replaced by a recorder, so the calls show on every platform; the module
# that runs trials sets both thresholds when it is loaded
MALLOPT_CALLS = """
import ctypes, json
calls = []

class Library:
    def __init__(self, name, *args, **kwargs):
        self.mallopt = lambda *values: calls.append(values) or 1

ctypes.CDLL = Library
import revcurve.curves
print(json.dumps(calls))
"""


def test_loading_the_curve_module_sets_both_heap_thresholds():
    out = subprocess.run([sys.executable, "-c", MALLOPT_CALLS], capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == [[-3, 32 << 20], [-1, 64 << 20]]
