"""Deterministic random-stream derivation.

Every stochastic component draws from a counter-based Philox generator whose
seed is derived from a single user-facing integer seed through a named spawn
key. This keeps streams independent by construction: policy tie-break draws
never perturb workload draws, replications never overlap, and rerunning with
the same seed is bit-identical regardless of which components happen to
consume randomness.

Spawn-key layout (arbitrary fixed tags, never reused across purposes):

    (REPLICATION, r)   derive per-replication seeds from an experiment seed
    (WORKLOAD,)        arrival gaps and service sizes for one workload
    (POLICY, stage)    dispatch tie-breaking for stage 0 (or the only stage)
                       and stage 1 of a two-stage system
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

_REPLICATION_TAG = 0x5EED
_WORKLOAD_TAG = 0x1001
_POLICY_TAG = 0x2002


def replication_seed(base_seed: int, replication: int) -> int:
    """Derive an independent integer seed for one replication.

    Distinct (base_seed, replication) pairs map to distinct 64-bit seeds with
    overwhelming probability; the mapping itself is deterministic.
    """
    if replication < 0:
        raise ValueError("replication index must be >= 0")
    seq = np.random.SeedSequence(
        entropy=int(base_seed), spawn_key=(_REPLICATION_TAG, int(replication))
    )
    return int(seq.generate_state(1, np.uint64)[0])


def workload_rng(seed: int) -> np.random.Generator:
    """Generator for workload draws (arrival gaps, service sizes)."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(_WORKLOAD_TAG,))
    return np.random.Generator(np.random.Philox(seq))


def policy_rng(seed: int, stage: int = 0) -> np.random.Generator:
    """Generator for policy tie-break draws at one dispatch stage.

    Stage 0 of a two-stage system uses the same stream as the only stage of a
    single-stage system, so configurations that never exercise stage 1 stay
    bit-identical to their single-stage counterparts.
    """
    if stage not in (0, 1):
        raise ValueError("stage must be 0 or 1")
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(_POLICY_TAG, int(stage)))
    return np.random.Generator(np.random.Philox(seq))


def halves(rng: np.random.Generator, words: int) -> np.ndarray:
    """The next `words` 64-bit words of rng's bit generator as 2*words uint32
    halves, each word's low half first: the order in which the generator
    hands out its own 32-bit draws."""
    raw = rng.bit_generator.random_raw(words)
    return raw.astype("<u8", copy=False).view("<u4").astype(np.uint32, copy=False)


class UniformIndex:
    """Stream-exact buffered `rng.integers(k)` for 1 <= k < 2**32.

    `draw(k)` returns exactly what `rng.integers(k)` would have returned on
    the same generator, at a fraction of the per-call cost. It reads 64-bit
    words from the bit generator 1024 at a time and consumes their `halves`,
    each mapped to [0, k) by Lemire's multiply-and-reject method (Lemire,
    ACM TOMACS 2019), as numpy does; k == 1 draws nothing. The words are
    read ahead, so after the first call `rng` itself must not be drawn from
    again.
    """

    __slots__ = ("_next",)

    def __init__(self, rng: np.random.Generator) -> None:
        chunks = map(lambda words: halves(rng, words).tolist(), repeat(1024))
        self._next = chain.from_iterable(chunks).__next__

    def draw(self, k: int) -> int:
        if k <= 1:
            if k == 1:
                return 0
            raise ValueError(f"k must be >= 1, got {k}")
        m = self._next() * k
        if m & 0xFFFFFFFF < k:
            if k > 0xFFFFFFFF:
                raise ValueError(f"k must be < 2**32, got {k}")
            floor = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < floor:
                m = self._next() * k
        return m >> 32
