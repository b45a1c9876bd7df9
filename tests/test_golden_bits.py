"""Pinned bits of estimate_gap: the seeding contract as numbers.

Each row is (learner, law, n, trials, base_seed, mean_gap, std_err), the gap
and its standard error written with float.hex.  The rows cover the count path
(K <= n), the tallied count path (n < K <= 128) and the sample path, one run
longer than a stream_keys chunk and base seeds of 2^32 and more.  A change
that moves any of these bits changes the seeding contract or the pricing, and
must say so; it is never absorbed by editing a row.
"""

import pytest

from revcurve import streams
from revcurve.curves import estimate_gap
from revcurve.dist import parse_dist
from revcurve.learners import parse_learner

GOLDEN = [
    ("erm", "erm_hard", 64, 1500, 2**32 + 5, "0x1.9f0fb38a94d28p-4", "0x1.5438668026fd5p-8"),
    ("structural", "erm_hard", 64, 300, 7, "0x0.0p+0", "0x0.0p+0"),
    ("erm", "finite:1@0.2,10@0.79,1000@0.01", 1000, 300, 11, "0x1.0a3d70a3d70a0p-1", "0x1.9f9c60cd9caeap-5"),
    ("capped", "finite:1@0.2,10@0.79,1000@0.01", 1000, 300, 11, "0x1.0000000000000p+1", "0x0.0p+0"),
    ("structural", "finite:1@0.2,10@0.79,1000@0.01", 1000, 300, 11, "0x1.0000000000000p+1", "0x0.0p+0"),
    ("erm", "erm_hard", 8, 400, 3, "0x1.0000000000000p-3", "0x1.632b1201d39eep-7"),
    ("capped", "erm_hard", 8, 400, 3, "0x1.a7a7be75ca690p-5", "0x1.1fb26290a72eap-7"),
    ("erm", "finite:1@0.1,2@0.2,3@0.3,5@0.2,8@0.1,13@0.1", 3, 400, 5, "0x1.6e147ae147adcp-2", "0x1.e1e55462ff335p-7"),
    ("structural", "finite:1@0.1,2@0.2,3@0.3,5@0.2,8@0.1,13@0.1", 3, 400, 5, "0x1.a83126e978d4cp-2", "0x1.6131d0f9e3226p-6"),
    ("erm", "uniform01", 1000, 200, 13, "0x1.13c13881b2880p-10", "0x1.a524ea82c3c40p-14"),
    ("structural", "uniform01", 1000, 200, 13, "0x1.f1f9c77aa8132p-3", "0x1.0b1228ae8a2f8p-12"),
    ("erm", "discrete_no_opt:truncation_depth=200", 100, 200, 17, "0x1.aa35e75b31000p-5", "0x1.45a273ea3e3b8p-8"),
    ("truncated", "discrete_no_opt:truncation_depth=200", 100, 200, 2**40 + 1, "0x1.bfdfa904e393cp-2", "0x1.efe4397d569e5p-9"),
]


@pytest.mark.parametrize("spec,law,n,trials,seed,mean_gap,std_err", GOLDEN)
def test_gap_bits_are_pinned(spec, law, n, trials, seed, mean_gap, std_err):
    p = estimate_gap(parse_learner(spec), parse_dist(law), n, trials, seed)
    assert (p.mean_gap.hex(), p.std_err.hex()) == (mean_gap, std_err)


def test_rows_cover_a_long_run_and_wide_seeds():
    assert any(trials > streams._KEY_CHUNK for _, _, _, trials, *_ in GOLDEN)
    assert any(seed >= 2**32 for *_, seed, _, _ in GOLDEN)
