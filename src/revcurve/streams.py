"""The random streams of Monte Carlo trials.

Reproducibility contract: trial t of a curve point at sample size n is driven
by SeedSequence((base_seed, n, t)), whose two spawned children seed the
trial's sample stream and its learner's stream, each a Generator over Philox
(trial_streams).  The seeding is counter-based, so a trial's draws do not
depend on how trials are scheduled across workers.  The Monte Carlo loop
builds the learner stream only for a learner that may read it (one without
decide_counts); a count-form learner is deterministic and gets rng=None.

stream_keys derives many trials' Philox keys in one NumPy pass of
SeedSequence's own mixing, bit for bit, and sample_streams sets one reused
Philox to each key in turn, so a range of trials gets its sample streams
without building a SeedSequence per trial.
"""

from __future__ import annotations

import numpy as np

_KEY_CHUNK = 1024  # trials keyed per stream_keys call


def trial_streams(base_seed: int, n: int, trial: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (sample, learner) streams for one trial, from a counter-based key."""
    seq = np.random.SeedSequence((base_seed, n, trial))
    s1, s2 = seq.spawn(2)
    return np.random.Generator(np.random.Philox(s1)), np.random.Generator(np.random.Philox(s2))


def sample_stream(base_seed: int, n: int, trial: int) -> np.random.Generator:
    """The sample stream of trial_streams alone, bit for bit, without the learner's."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, n, trial), spawn_key=(0,))))


def learner_stream(base_seed: int, n: int, trial: int) -> np.random.Generator:
    """The learner stream of trial_streams alone; its seed_seq backs rng.spawn."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, n, trial), spawn_key=(1,))))


# -- SeedSequence's mixing over an array of trials ----------------------------
# NumPy's SeedSequence hashes the 32-bit words of its entropy into a pool of
# four words and hashes the pool into output words.  The hash constants step
# the same way whatever the data, so the whole computation runs on arrays, one
# lane per trial; a Python int stands for a word every lane shares.  Lanes are
# int64 and every step keeps the low 32 bits (& _M32), which is uint32
# arithmetic: a product that wraps past 2^63 keeps its low bits.

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # pool mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(x: int) -> list[int]:
    """SeedSequence's split of a nonnegative int into 32-bit words, low first."""
    x = int(x)
    if x < 0:
        raise ValueError("expected non-negative integer")
    words = [x & _M32]
    while x >> 32:
        x >>= 32
        words.append(x & _M32)
    return words


def _xorshift(v):
    return v ^ (v >> 16)


def _pool_keys(entropy: list, spawn: int) -> np.ndarray:
    """(T, 2) Philox keys: SeedSequence(entropy, spawn_key=(spawn,)).generate_state(2, uint64) per lane."""
    entropy = entropy + [0] * (_POOL - len(entropy)) + [spawn]
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = (h * _MULT_A) & _M32
        return _xorshift((v * h) & _M32)

    def mix(x, y):
        return _xorshift((((_MIX_L * x) & _M32) - ((_MIX_R * y) & _M32)) & _M32)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    out, h = [], _INIT_B
    for v in pool:
        v = v ^ h
        h = (h * _MULT_B) & _M32
        out.append(_xorshift((v * h) & _M32))
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1).view(np.uint64)


def stream_keys(base_seed: int, n: int, trials, spawn: int = 0) -> np.ndarray:
    """The Philox keys of many trials' streams in one pass: row i equals
    SeedSequence((base_seed, n, trials[i]), spawn_key=(spawn,)).generate_state(2, np.uint64),
    the key of trial_streams(base_seed, n, trials[i])[spawn]."""
    t = np.asarray(trials, dtype=np.int64).reshape(-1)
    keys = np.empty((t.size, 2), dtype=np.uint64)
    prefix = _words(base_seed) + _words(n)
    wide = t > _M32  # a trial index of 2^32 or more is two entropy words
    for lanes, width in ((~wide, 1), (wide, 2)):
        if lanes.any():
            words = [t[lanes] >> 32 * i & _M32 for i in range(width)]
            keys[lanes] = _pool_keys(prefix + words, spawn)
    return keys


def sample_streams(base_seed: int, n: int, trial_range):
    """Each trial's sample stream in turn: one reused Generator whose Philox
    state is set to that of sample_stream(base_seed, n, t)."""
    gen = np.random.Generator(np.random.Philox(0))
    state = gen.bit_generator.state  # counter 0, empty buffer: a fresh Philox's
    for lo in range(0, len(trial_range), _KEY_CHUNK):
        for key in stream_keys(base_seed, n, trial_range[lo : lo + _KEY_CHUNK]):
            state["state"]["key"] = key
            gen.bit_generator.state = state
            yield gen
