import random

import numpy as np
import pytest

from dispatchsim.randomness import UniformIndex, policy_rng, replication_seed, workload_rng


def test_replication_seeds_distinct_and_deterministic():
    seeds = [replication_seed(42, r) for r in range(100)]
    assert len(set(seeds)) == 100
    assert seeds == [replication_seed(42, r) for r in range(100)]


def test_replication_seed_varies_with_base():
    assert replication_seed(1, 0) != replication_seed(2, 0)


def test_replication_seed_rejects_negative_rep():
    with pytest.raises(ValueError):
        replication_seed(1, -1)


def test_workload_and_policy_streams_are_independent():
    seed = 777
    w = workload_rng(seed).random(8)
    p0 = policy_rng(seed, 0).random(8)
    p1 = policy_rng(seed, 1).random(8)
    assert not np.allclose(w, p0)
    assert not np.allclose(w, p1)
    assert not np.allclose(p0, p1)


def test_streams_are_reproducible():
    assert np.array_equal(workload_rng(5).random(16), workload_rng(5).random(16))
    assert np.array_equal(policy_rng(5, 0).random(16), policy_rng(5, 0).random(16))


def test_policy_stage_must_be_binary():
    with pytest.raises(ValueError):
        policy_rng(1, 2)


# k where Lemire's method redraws often (about half of the draws for
# 2**31 + 1), the edges of the 32-bit range, and k == 1, which draws nothing
_KS = (1, 2, 3, 7, 10, 100, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1)


@pytest.mark.parametrize("seed", range(6))
def test_uniform_index_matches_generator_integers(seed):
    # 6000 mixed-k draws, some redrawn, cross at least two refills of the
    # read-ahead buffer (2048 32-bit draws each); the reference is a fresh
    # generator
    pick = random.Random(seed)
    ks = [pick.choice(_KS) if pick.random() < 0.7 else pick.randrange(1, 2**32)
          for _ in range(6000)]
    draw = UniformIndex(policy_rng(seed, 0)).draw
    ref = policy_rng(seed, 0)
    assert [draw(k) for k in ks] == [int(ref.integers(k)) for k in ks]


def test_uniform_index_rejects_k_outside_32_bits():
    draw = UniformIndex(policy_rng(0, 0)).draw
    for k in (0, -3, 2**32, 2**40):
        with pytest.raises(ValueError):
            draw(k)
