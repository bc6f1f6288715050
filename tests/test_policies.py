import copy
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim.analysis import CardThresholds
from dispatchsim.engine import run
from dispatchsim.policies import (
    JoinIdleQueue,
    least_work_left,
    multi_band_card,
    parse_label,
    parse_policy,
)
from dispatchsim.randomness import policy_rng
from dispatchsim.workload import ClusterConfig, Workload


def _jiq(n, seed=0):
    return JoinIdleQueue(n, policy_rng(seed, 0))


def _lwl(n, seed=0, speed=1.0):
    clear = [0.0] * n
    return least_work_left(clear, 0, n, speed, policy_rng(seed, 0)), clear


# ---------------------------------------------------------------------------
# Join idle queue


def test_jiq_starts_all_idle_then_tracks_bits():
    pol = _jiq(4, seed=3)
    seen = set()
    for _ in range(4):
        j = pol.choose()
        assert j not in seen  # a cleared bit cannot be chosen again
        seen.add(j)
        assert pol.on_assign(j)  # it leaves the idle table
    assert seen == {0, 1, 2, 3}
    assert not pol.on_assign(pol.choose())  # drawn from the all-busy branch


def test_jiq_single_idle_is_forced():
    pol = _jiq(3, seed=1)
    for j in (0, 2):
        pol.on_assign(j)
    assert pol.choose() == 1


def test_jiq_all_busy_falls_back_to_uniform():
    pol = _jiq(3, seed=9)
    for j in range(3):
        pol.on_assign(j)
    counts = Counter(pol.choose() for _ in range(3000))
    assert set(counts) == {0, 1, 2}
    for c in counts.values():
        assert abs(c - 1000) < 150  # ~4 sigma for multinomial(3000, 1/3)


def test_jiq_idle_message_restores_bit():
    pol = _jiq(2, seed=4)
    pol.on_assign(0)
    pol.on_assign(1)
    pol.on_server_idle(0)
    assert pol.choose() == 0
    assert not pol.on_assign(1) and pol.on_assign(0)  # only the drained one was idle


def test_jiq_rejects_double_idle_message():
    pol = _jiq(2)
    pol.on_assign(0)
    pol.on_server_idle(0)
    with pytest.raises(RuntimeError, match="idle twice"):
        pol.on_server_idle(0)


def test_jiq_check_state_flags_idle_table_drift():
    pol = _jiq(3)
    pol.on_assign(1)
    pol.check_state([False, True, False])
    with pytest.raises(AssertionError, match="out of sync"):
        pol.check_state([False, False, False])  # server 1 drained unreported
    with pytest.raises(AssertionError, match="out of sync"):
        pol.check_state([True, True, False])  # server 0 busy but marked idle


def test_jiq_uniform_over_idle_set():
    counts = Counter()
    for seed in range(2000):
        pol = _jiq(4, seed=seed)
        pol.on_assign(2)  # idle set becomes {0, 1, 3}
        counts[pol.choose()] += 1
    assert set(counts) == {0, 1, 3}
    for c in counts.values():
        assert abs(c - 2000 / 3) < 120


# ---------------------------------------------------------------------------
# Least work left


def test_lwl_picks_unique_minimum():
    choose, clear = _lwl(3)
    clear[0] = 5.0
    clear[1] = 2.0
    clear[2] = 9.0
    assert choose(1.0, None) == 1
    # at t=8: works are (0, 0, 1) -> tie between 0 and 1, either is valid
    assert choose(8.0, None) in (0, 1)


def test_lwl_tie_break_uniform():
    counts = Counter()
    for seed in range(3000):
        choose, clear = _lwl(3, seed=seed)
        clear[2] = 4.0  # servers 0,1 idle -> tied at zero
        counts[choose(0.0, None)] += 1
    assert set(counts) == {0, 1}
    assert abs(counts[0] - 1500) < 140


def test_lwl_sees_work_at_decision_time():
    choose, clear = _lwl(2)
    clear[0] = 10.0
    clear[1] = 3.0
    assert choose(0.0, None) == 1
    # by t=9.5 server 0 has 0.5 left, server 1 drained long ago
    assert choose(9.5, None) == 1


# ---------------------------------------------------------------------------
# Multi-band card


def _card(seed=0, n=4, rho=0.75, m=(1.0, 2.0, 4.0, 8.0)):
    scale = 1.0 / math.sqrt(1.0 - rho)
    th = CardThresholds(m=m, c=tuple(x * scale for x in m[:-1]))
    clear = [0.0] * n
    return multi_band_card(clear, 0, n, 1.0, policy_rng(seed, 0), th), clear


def test_card_small_task_goes_to_least_loaded():
    choose, clear = _card(seed=2)
    clear[:] = (3.0, 1.0, 7.0, 5.0)
    assert choose(0.0, 0.5) == 1  # size < m1 -> least loaded


def test_card_huge_task_goes_to_most_loaded():
    choose, clear = _card(seed=2)
    clear[:] = (3.0, 1.0, 7.0, 5.0)
    assert choose(0.0, 8.0) == 2  # size >= m_n -> most loaded
    assert choose(0.0, 50.0) == 2


def test_card_band_prefers_rank_then_spills():
    # m = (1,2,4,8); c = m/sqrt(0.25) = (2,4,8)
    choose, clear = _card(seed=2)
    clear[:] = (0.0, 3.0, 6.0, 20.0)
    # size 1.5 falls in band 1 [m1, m2); rank-1 server is 0 with W=0 <= c1=2
    assert choose(0.0, 1.5) == 0
    # size 2.5 -> band 2 [m2, m3); rank-2 server is 1 with W=3 <= c2=4
    assert choose(0.0, 2.5) == 1
    # now overload rank-2: W=5 > c2=4 spills to rank-3 (server 2)
    clear[1] = 5.0
    assert choose(0.0, 2.5) == 2


def test_card_every_size_maps_to_valid_server():
    choose, clear = _card(seed=11)
    rng = np.random.default_rng(0)
    for _ in range(500):
        clear[:] = rng.uniform(0, 10, 4).tolist()
        size = float(rng.lognormal(0, 2))
        assert 0 <= choose(float(rng.uniform(0, 5)), size) < 4


def test_card_ties_randomized_by_permutation():
    # all servers tied at zero work: rank order is the random permutation,
    # so the bottom rank should be uniform over servers
    counts = Counter()
    for seed in range(2000):
        choose, _ = _card(seed=seed)
        counts[choose(0.0, 0.5)] += 1
    assert set(counts) == {0, 1, 2, 3}
    for c in counts.values():
        assert abs(c - 500) < 110


def test_card_requires_size():
    choose, _ = _card()
    with pytest.raises(RuntimeError, match="without a size"):
        choose(0.0, None)


def test_card_thresholds_must_match_stage_width():
    # a card stage is the whole cluster, so run's cluster check guards the
    # stage width before any chooser is built
    th = CardThresholds(m=(1.0, 2.0, 4.0, 8.0), c=(2.0, 4.0, 8.0))
    wl = Workload.from_tasks([0], [0.0], [0], [1.0])
    with pytest.raises(ValueError, match="thresholds are for 4 servers, cluster has 3"):
        run(wl, ClusterConfig.synthetic(3, 0.5), parse_policy("card", thresholds=th), 0)


# ---------------------------------------------------------------------------
# Reference oracles: the pre-flat-state algorithms, written out here so they
# share no code with the policies under test. Each dispatch is replayed on a
# clone of the policy's generator taken just before choose().


def _ref_work(clear, offset, n, speed, now):
    out = []
    for c in clear[offset:offset + n]:
        gap = c - now
        out.append(gap * speed if gap > 0.0 else 0.0)
    return out


def _ref_card(work, tie, m, c, size):
    order = sorted(range(len(work)), key=lambda j: (work[j], tie[j]))
    if size < m[0]:
        return order[0]
    if size >= m[-1]:
        return order[-1]
    band = sum(1 for x in m if x <= size)
    preferred = order[band - 1]
    return preferred if work[preferred] <= c[band - 1] else order[band]


def _same_stream_position(a, b):
    # Philox state holds small arrays, so compare the printed states
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def _ref_lwl(work, rng):
    best = min(work)
    ties = [j for j, w in enumerate(work) if w == best]
    return ties[0] if len(ties) == 1 else ties[int(rng.integers(len(ties)))]


@st.composite
def _backlog_states(draw):
    """A stage inside a larger cluster whose clear times come from a pool of
    at most four values, so duplicated clear times and zero-backlog ties
    (clear time at or before `now`) are the common case."""
    n = draw(st.integers(min_value=2, max_value=12))
    offset = draw(st.integers(min_value=0, max_value=3))
    now = draw(st.sampled_from([0.0, 1.0, 2.5]))
    pool = draw(st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=4))
    clear = draw(st.lists(st.sampled_from(pool + [now]), min_size=offset + n + 2,
                          max_size=offset + n + 2))
    speed = draw(st.sampled_from([0.1, 1.0, 1.5]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, offset, now, clear, speed, seed


@given(_backlog_states(), st.data())
@settings(max_examples=200, deadline=None)
def test_card_matches_sorted_reference(state, data):
    n, offset, now, clear, speed, seed = state
    m = sorted(data.draw(st.lists(st.floats(min_value=0.01, max_value=10.0),
                                  min_size=n, max_size=n)))
    c = data.draw(st.lists(st.floats(min_value=0.01, max_value=10.0),
                           min_size=n - 1, max_size=n - 1))
    sizes = data.draw(st.lists(st.floats(min_value=0.0, max_value=12.0),
                               min_size=1, max_size=5))
    rng = policy_rng(seed, 0)
    choose = multi_band_card(clear, offset, n, speed, rng, CardThresholds(m=tuple(m), c=tuple(c)))
    for size in sizes:
        clone = copy.deepcopy(rng)
        got = choose(now, size)
        tie = clone.permutation(n)
        assert type(got) is int
        assert got == _ref_card(_ref_work(clear, offset, n, speed, now), tie, m, c, size)
        assert _same_stream_position(rng, clone)  # exactly one permutation draw


@given(_backlog_states())
@settings(max_examples=200, deadline=None)
def test_lwl_matches_reference(state):
    # tie-breaks read the generator ahead in chunks of 2048 draws, so its
    # position says nothing; a run of choices long enough to cross a refill
    # must equal the reference drawing from a copy of the fresh generator
    n, offset, now, clear, speed, seed = state
    rng = policy_rng(seed, 0)
    clone = copy.deepcopy(rng)
    choose = least_work_left(clear, offset, n, speed, rng)
    work = _ref_work(clear, offset, n, speed, now)
    got = [choose(now, None) for _ in range(2100)]
    assert got == [_ref_lwl(work, clone) for _ in range(2100)]


def test_lwl_ties_on_equal_products_not_equal_clear_times():
    # two distinct clear times whose backlogs (c - now) * speed round to the
    # same float: both are minimizers, so both must be drawn; an argmin over
    # clear times would always pick server 1
    now, speed = 0.25, 1.5
    c_late = float.fromhex("0x1.c000000000003p+0")
    c_early = float.fromhex("0x1.c000000000002p+0")
    assert c_early < c_late
    assert (c_early - now) * speed == (c_late - now) * speed
    picks = set()
    for seed in range(200):
        choose, clear = _lwl(3, seed=seed, speed=speed)
        clear[:] = [c_late, c_early, 5.0]
        picks.add(choose(now, None))
    assert picks == {0, 1}


# ---------------------------------------------------------------------------
# PolicySpec parsing and validation


def test_parse_single_stage_labels():
    for kind in ("rr", "jiq", "lwl"):
        spec = parse_policy(kind)
        assert spec.kind == kind and not spec.two_stage
        assert spec.label == kind


def test_parse_two_stage_labels():
    spec = parse_policy("two_stage:lwl", n1=3, theta=2.5)
    assert spec.two_stage and spec.kind == "lwl"
    assert spec.n1 == 3 and spec.theta == 2.5
    assert spec.label == "two_stage:lwl"


def test_parse_accepts_infinite_theta():
    spec = parse_policy("two_stage:rr", n1=2, theta=math.inf)
    assert math.isinf(spec.theta)


def test_parse_rejects_bad_specs():
    with pytest.raises(ValueError):
        parse_policy("nonsense")
    with pytest.raises(ValueError):
        parse_policy("two_stage:card", n1=1, theta=1.0)
    with pytest.raises(ValueError):
        parse_policy("two_stage:rr")  # missing n1/theta
    with pytest.raises(ValueError):
        parse_policy("two_stage:rr", n1=1, theta=0.0)
    with pytest.raises(ValueError):
        parse_policy("rr", n1=1)  # stray two-stage params
    with pytest.raises(ValueError):
        parse_policy("card")  # thresholds required
    th = CardThresholds(m=(1.0,), c=())
    with pytest.raises(ValueError):
        parse_policy("rr", thresholds=th)


def test_parse_label_splits_kind_and_stage():
    assert parse_label("card") == ("card", False)
    assert parse_label("two_stage:jiq") == ("jiq", True)
    assert parse_label("  Two_Stage:LWL ") == ("lwl", True)
    with pytest.raises(ValueError, match="unknown policy label"):
        parse_label("two_stage:")
    with pytest.raises(ValueError, match="unknown policy label"):
        parse_label("rr:two_stage")
    with pytest.raises(ValueError, match="does not compose with card"):
        parse_label("two_stage:card")


def test_validate_for_cluster():
    spec = parse_policy("two_stage:rr", n1=3, theta=1.0)
    spec.validate_for(4)
    with pytest.raises(ValueError):
        spec.validate_for(3)
    th = CardThresholds(m=(1.0, 2.0), c=(1.5,))
    card = parse_policy("card", thresholds=th)
    card.validate_for(2)
    with pytest.raises(ValueError):
        card.validate_for(3)
