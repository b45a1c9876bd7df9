"""The batched trial loop against the per-trial loop it replaced.

`streams.stream_keys` derives many trials' Philox keys in one NumPy pass and
must equal SeedSequence's own; `_trial_revenues` draws count vectors in blocks
and prices each block with one row call, and must return the bits of
`reference_trial_revenues`, a copy of the earlier one-trial-at-a-time loop.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revcurve import curves, streams
from revcurve.curves import _trial_revenues
from revcurve.dist import parse_dist
from revcurve.learners import Learner, make_erm, parse_learner
from revcurve.curves import estimate_gap
from revcurve.streams import learner_stream, sample_stream, sample_streams, stream_keys, trial_streams


def reference_trial_revenues(learner, dist, n, trial_range, base_seed):
    """The per-trial loop of the earlier revision: one SeedSequence per stream,
    one decide_counts or decide call and one revenue call per trial."""
    revs = np.empty(len(trial_range))
    table = dist.atom_table
    if learner.decide_counts is not None and table is not None and table.values.size <= n:
        for i, t in enumerate(trial_range):
            counts = table.draw_counts(sample_stream(base_seed, n, t), n)
            revs[i] = dist.revenue(float(learner.decide_counts(table.values, counts, n)))
        return revs
    for i, t in enumerate(trial_range):
        sample_rng, learner_rng = trial_streams(base_seed, n, t)
        s = dist.sample(sample_rng, n)
        price = learner.decide(s.values, n, learner_rng)
        revs[i] = dist.revenue(float(price))
    return revs


def reference_keys(base_seed, n, trials, spawn):
    return np.array(
        [np.random.SeedSequence((base_seed, n, t), spawn_key=(spawn,)).generate_state(2, np.uint64) for t in trials]
    )


class TestStreamKeys:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**70),
        st.integers(1, 2**33 + 5),
        st.integers(1, 2**33),
        st.integers(1, 5),
        st.sampled_from([0, 1]),
    )
    @example(0, 1, 1, 3, 0)
    @example(2**32 - 1, 2**32 - 1, 2**32 - 2, 4, 1)  # trial words go from one to two mid-range
    @example(2**32, 2**32, 1, 2, 0)
    @example(2**64 - 1, 7, 5, 2, 0)
    @example(2**64, 2**64 + 1, 9, 2, 1)
    def test_equal_seed_sequence(self, base_seed, n, start, length, spawn):
        trials = range(start, start + length)
        keys = stream_keys(base_seed, n, trials, spawn)
        assert keys.dtype == np.uint64 and keys.shape == (length, 2)
        assert np.array_equal(keys, reference_keys(base_seed, n, trials, spawn))

    def test_keys_of_trial_streams(self):
        for spawn in (0, 1):
            keys = stream_keys(2024, 64, range(3, 9), spawn)
            for t, key in zip(range(3, 9), keys):
                assert np.array_equal(trial_streams(2024, 64, t)[spawn].bit_generator.state["state"]["key"], key)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError):
            stream_keys(-1, 5, range(2))

    def test_reused_generator_is_a_fresh_sample_stream(self):
        # the state set per trial restarts the counter and empties the buffer,
        # even after the previous trial drew an odd number of 32-bit words
        for t, rng in zip(range(40, 45), sample_streams(7, 100, range(40, 45))):
            fresh = sample_stream(7, 100, t)
            got, want = rng.bit_generator.state, fresh.bit_generator.state
            for word in ("key", "counter"):
                assert np.array_equal(got["state"][word], want["state"][word])
            assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
                want[k] for k in ("buffer_pos", "has_uint32", "uinteger")
            ]
            odd = rng.integers(0, 2**32, size=3, dtype=np.uint32)
            assert np.array_equal(odd, fresh.integers(0, 2**32, size=3, dtype=np.uint32))
            assert np.array_equal(rng.random(5), fresh.random(5))


def _rng_price(values, n, rng):
    """A hand-built learner that posts a sample value picked by its stream and by a child of it."""
    pick = int(rng.integers(0, values.size)) + int(rng.spawn(1)[0].integers(0, values.size))
    return float(np.sort(values)[pick % values.size])


COUNT_SPECS = [
    "erm",
    "truncated",
    "capped",
    "capped:g=log",
    "capped:g=n^0.3",
    "capped:g=const:1",
    "structural",
    "structural:f=n^-0.4",
    "structural:f=const:0.05",
    "structural:f=const:0",
    "const:7",
]

LAWS = [
    ("erm_hard", 64),  # K = 22 atoms <= n: count path
    ("two_point:p=1,p_prime=3,c=2", 5),
    ("finite:1@0.2,10@0.79,1000@0.01", 300),
    ("finite:1@0.5,1.0000000000000002@0.5", 9),  # near-tie atoms
    ("discrete_no_opt:truncation_depth=200", 100),  # K = 202 > n: sample path
    ("discrete_no_opt:truncation_depth=200", 300),  # K = 202 <= n: count path
    ("uniform01", 40),
]


def _learner(spec):
    if spec == "hand":
        return Learner("hand", decide=make_erm().decide)  # sample only
    if spec == "rng":
        return Learner("rng", decide=_rng_price, deterministic=False)
    return parse_learner(spec)


class TestBatchedLoopMatchesReference:
    @pytest.mark.parametrize("law,n", LAWS)
    @pytest.mark.parametrize("spec", COUNT_SPECS + ["hand", "rng"])
    def test_bits_equal(self, spec, law, n):
        lr, dist = _learner(spec), parse_dist(law)
        trials = range(100, 300)  # starts above 0; crosses a 128-row block
        got = _trial_revenues(lr, dist, n, trials, 4294967311)  # base seed above 2^32
        assert np.array_equal(got, reference_trial_revenues(lr, dist, n, trials, 4294967311))

    @pytest.mark.parametrize("spec", ["structural", "hand"])
    def test_bits_equal_across_a_key_chunk(self, spec):
        lr, dist = _learner(spec), parse_dist("erm_hard")
        trials = range(3, 3 + streams._KEY_CHUNK + 77)
        got = _trial_revenues(lr, dist, 256, trials, 12)
        assert np.array_equal(got, reference_trial_revenues(lr, dist, 256, trials, 12))

    @pytest.mark.parametrize("rows,cells,chunk", [(1, 1 << 14, 1), (3, 1 << 14, 5), (128, 50, 7)])
    @pytest.mark.parametrize("law,n", [("erm_hard", 64), ("discrete_no_opt:truncation_depth=200", 300)])
    def test_block_and_chunk_sizes_change_nothing(self, monkeypatch, rows, cells, chunk, law, n):
        dist = parse_dist(law)
        trials = range(11, 60)
        expected = {spec: _trial_revenues(_learner(spec), dist, n, trials, 99) for spec in ("capped", "structural")}
        monkeypatch.setattr(curves, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(curves, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(streams, "_KEY_CHUNK", chunk)
        for spec, revs in expected.items():
            assert np.array_equal(_trial_revenues(_learner(spec), dist, n, trials, 99), revs), spec

    def test_a_count_form_must_price_every_row(self):
        one_price = Learner("scalar", decide=make_erm().decide, decide_counts=lambda values, counts, n: 1.0)
        with pytest.raises(ValueError, match="each row"):
            _trial_revenues(one_price, parse_dist("erm_hard"), 64, range(5), 1)


class TestLearnerStreamOnTheSamplePath:
    """A count-form rule is deterministic, so the sample path hands it no
    stream; any other learner gets its trial's own learner stream."""

    @pytest.mark.parametrize("law", ["uniform01", "discrete_no_opt:truncation_depth=200"])  # K = 202 > n
    def test_count_form_gets_none_and_others_their_stream(self, law):
        seen = []

        def decide(values, n, rng):
            seen.append(rng)
            return make_erm().decide(values, n, None)

        dist = parse_dist(law)
        counted = estimate_gap(Learner("rec", decide=decide, decide_counts=make_erm().decide_counts), dist, 100, 5, 21)
        assert seen == [None] * 5
        seen.clear()
        plain = estimate_gap(Learner("rec", decide=decide), dist, 100, 5, 21)
        assert len(seen) == 5 and plain == counted
        for t, rng in enumerate(seen):
            assert np.array_equal(rng.random(4), learner_stream(21, 100, t).random(4))
