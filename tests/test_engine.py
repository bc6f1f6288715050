import math
from contextlib import contextmanager
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import run_reference

from dispatchsim import engine, kernel
from dispatchsim.analysis import CardThresholds, WeibullDistribution, card_thresholds
from dispatchsim.engine import run
from dispatchsim.policies import JoinIdleQueue, least_work_left, parse_policy
from dispatchsim.workload import (
    ClusterConfig,
    Workload,
    fit_weibull,
    generate_poisson_weibull,
)


def _wl(entries, horizon=None):
    """entries: list of (job_id, arrival, [sizes])."""
    rows = [(jid, t, k, s) for jid, t, sizes in entries for k, s in enumerate(sizes)]
    return Workload.from_tasks(*zip(*rows), horizon=horizon)


def _cfg(n, mu, rho=0.5, rate=None, mean=None):
    rate = rate if rate is not None else rho * n * mu
    mean = mean if mean is not None else 1.0
    rho = rate * mean / (n * mu)
    return ClusterConfig(n, mu, n * mu, rho, rate, mean)


def _policy(label, **kw):
    return parse_policy(label, **kw)


# ---------------------------------------------------------------------------
# Hand-traced oracles


def test_single_server_fcfs_hand_trace():
    # speed 1; arrivals 0,1,2 with sizes 5,1,1: strict FCFS backlog
    wl = _wl([(0, 0.0, [5.0]), (1, 1.0, [1.0]), (2, 2.0, [1.0])])
    log = run(wl, _cfg(1, 1.0), _policy("rr"), seed=0)
    assert list(log.completion) == [5.0, 6.0, 7.0]
    assert list(log.job_responses()) == [5.0, 5.0, 5.0]
    assert log.transfers == 0
    assert list(log.completed_stage) == [1, 1, 1]


def test_round_robin_two_servers_hand_trace():
    # rr sends task k to server k mod 2; speed 0.5 doubles durations
    wl = _wl([(0, 0.0, [1.0]), (1, 0.5, [1.0]), (2, 1.0, [2.0])])
    log = run(wl, _cfg(2, 0.5), _policy("rr"), seed=0)
    # server 0: task0 [0,2], task2 arrives 1.0 queues, runs [2,6]
    # server 1: task1 [0.5,2.5]
    assert list(log.completion) == [2.0, 2.5, 6.0]
    assert list(log.stage1_server) == [0, 1, 0]


def test_multi_task_job_response_is_last_completion():
    # one job with two tasks on two idle servers: response = max completion
    wl = _wl([(5, 1.0, [4.0, 1.0])])
    log = run(wl, _cfg(2, 1.0), _policy("rr"), seed=0)
    assert list(log.completion) == [5.0, 2.0]
    assert log.job_responses()[0] == 4.0


def test_arrival_beats_completion_at_same_instant():
    # server 0 completes its task at exactly t=1.0; a job arriving at 1.0 is
    # dispatched first, while the idle bit is still down, so JIQ must route
    # it to server 1 (the only set bit) deterministically.
    wl = _wl([(0, 0.0, [1.0]), (1, 1.0, [1.0])])
    for seed in range(20):
        log = run(wl, _cfg(2, 1.0), _policy("jiq"), seed=seed)
        first = log.stage1_server[0]
        assert log.stage1_server[1] == 1 - first


def test_lwl_sees_pending_completion_as_zero_work():
    # same tie: LWL sees W=0 on both servers at t=1.0 (backlog clears exactly
    # then) so the choice is a coin flip, but queueing semantics still hold:
    # if it picks server 0 the task starts only after the completion event.
    wl = _wl([(0, 0.0, [1.0]), (1, 1.0, [1.0])])
    for seed in range(20):
        log = run(wl, _cfg(2, 1.0), _policy("lwl"), seed=seed)
        assert log.completion[1] == 2.0  # starts at 1.0 either way


# ---------------------------------------------------------------------------
# Conservation and ordering invariants


def _invariant_run(label, cov, n, seed=123, jobs=1000, **policy_kw):
    # the run must equal the event-calendar reference, which re-derives every
    # backlog and each stage's policy state by brute force after each event
    params = fit_weibull(1.0, cov)
    cfg = ClusterConfig.synthetic(n, 0.8)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, jobs, seed)
    if label == "card":
        policy_kw["thresholds"] = card_thresholds(WeibullDistribution(params), n, 0.8)
    log = run(wl, cfg, _policy(label, **policy_kw), seed)
    _assert_same_log(log, _event_loop(wl, cfg, _policy(label, **policy_kw), seed))
    return wl, log


@pytest.mark.parametrize("label,cov", [
    ("rr", 1.0), ("jiq", 1.0), ("lwl", 1.0), ("card", 10.0), ("jiq", 10.0),
])
def test_no_task_loss_and_work_conservation(label, cov):
    wl, log = _invariant_run(label, cov, n=4)
    assert log.unfinished_tasks == 0
    assert np.all(log.completed_stage == 1)
    # every unit of offered work is served somewhere, none invented
    assert log.served_work.sum() == pytest.approx(wl.total_work, rel=1e-12)
    # a server's busy time equals its served work over its speed
    for j in range(4):
        assert log.busy_integral[j] == pytest.approx(
            log.served_work[j] / log.config.mu, rel=1e-9
        )


def test_fcfs_order_per_server():
    wl, log = _invariant_run("jiq", 1.0, n=3)
    order = {}
    for t in range(log.task_count):
        order.setdefault(int(log.stage1_server[t]), []).append(log.completion[t])
    for comps in order.values():
        assert all(b > a for a, b in zip(comps, comps[1:]))


def test_completion_never_before_service_time():
    wl, log = _invariant_run("lwl", 1.0, n=4)
    t_arr, t_size, _ = wl.task_arrays()
    min_complete = t_arr + t_size / log.config.mu
    assert np.all(log.completion >= min_complete - 1e-9)


def test_sojourn_positive_and_matches_response_definition():
    wl, log = _invariant_run("rr", 1.0, n=2)
    resp = log.job_responses()
    assert np.all(resp > 0)
    # recompute a few responses by brute force from the per-task columns
    task_job_id = wl.job_ids[wl.task_arrays()[2]]
    for i in (0, 7, 42):
        mine = max(
            c for c, jid in zip(log.completion, task_job_id) if jid == wl.job_ids[i]
        ) - wl.arrivals[i]
        assert resp[i] == pytest.approx(mine, rel=0, abs=0)


# ---------------------------------------------------------------------------
# Determinism


@pytest.mark.parametrize("label,kw", [
    ("rr", {}), ("jiq", {}), ("lwl", {}),
    ("two_stage:lwl", {"n1": 2, "theta": 0.8}),
])
def test_bit_identical_reruns(label, kw):
    params = fit_weibull(1.0, 10.0)
    cfg = ClusterConfig.synthetic(4, 0.7)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, 2000, seed=5)
    a = run(wl, cfg, _policy(label, **kw), seed=99)
    b = run(wl, cfg, _policy(label, **kw), seed=99)
    assert np.array_equal(a.completion, b.completion)
    assert np.array_equal(a.stage1_server, b.stage1_server)
    assert np.array_equal(a.stage2_server, b.stage2_server)


def test_seed_changes_tie_breaks_not_workload():
    cfg = ClusterConfig.synthetic(4, 0.7)
    params = fit_weibull(1.0, 1.0)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, 2000, seed=5)
    a = run(wl, cfg, _policy("jiq"), seed=1)
    b = run(wl, cfg, _policy("jiq"), seed=2)
    assert not np.array_equal(a.stage1_server, b.stage1_server)


# ---------------------------------------------------------------------------
# Stopping rules


def test_max_jobs_truncates():
    cfg = ClusterConfig.synthetic(2, 0.5)
    params = fit_weibull(1.0, 1.0)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, 100, seed=8)
    log = run(wl, cfg, _policy("rr"), seed=0, max_jobs=10)
    assert log.task_count == 10
    assert log.workload.job_count == 10


def test_horizon_leaves_late_tasks_unfinished():
    wl = _wl([(0, 0.0, [1.0]), (1, 5.0, [1.0])], horizon=10.0)
    log = run(wl, _cfg(1, 1.0), _policy("rr"), seed=0, horizon=3.0)
    assert log.completion[0] == 1.0
    assert math.isnan(log.completion[1])
    assert log.completed_stage[1] == 0
    assert log.unfinished_tasks == 1
    assert math.isnan(log.job_responses()[1])


# ---------------------------------------------------------------------------
# Two-stage mechanics


def test_two_stage_transfer_restarts_from_scratch():
    # n=2, n1=1, theta=2: a size-5 task runs 2 units on stage 0 (truncated),
    # transfers, and restarts for the full 5 on stage 1.
    wl = _wl([(0, 0.0, [5.0])])
    log = run(wl, _cfg(2, 1.0), _policy("two_stage:rr", n1=1, theta=2.0), seed=0)
    assert log.transfers == 1
    assert log.transfer_time[0] == 2.0
    assert log.completion[0] == 7.0  # 2 (truncated) + 5 (full restart)
    assert log.stage1_server[0] == 0
    assert log.stage2_server[0] == 1
    assert log.completed_stage[0] == 2


def test_two_stage_exact_theta_completes_in_stage_one():
    wl = _wl([(0, 0.0, [2.0])])
    log = run(wl, _cfg(2, 1.0), _policy("two_stage:rr", n1=1, theta=2.0), seed=0)
    assert log.transfers == 0
    assert log.completion[0] == 2.0
    assert log.completed_stage[0] == 1
    assert log.stage2_server[0] == -1


def test_two_stage_short_tasks_never_transfer():
    params = fit_weibull(1.0, 10.0)
    cfg = ClusterConfig.synthetic(4, 0.6)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, 3000, seed=2)
    theta = 5.0
    log = run(wl, cfg, _policy("two_stage:jiq", n1=2, theta=theta), seed=2)
    _assert_same_log(log, _event_loop(wl, cfg, _policy("two_stage:jiq", n1=2, theta=theta), 2))
    _, t_size, _ = wl.task_arrays()
    moved = t_size > theta
    assert np.array_equal(log.stage2_server >= 0, moved)
    assert log.transfers == int(moved.sum())
    # transferred tasks pay exactly theta/mu on stage 0 before moving
    starts = log.transfer_time[moved] - theta / cfg.mu
    assert np.all(starts >= wl.task_arrays()[0][moved] - 1e-12)
    # stage bookkeeping: all completions on the right side of the split
    assert np.all(log.completed_stage[moved] == 2)
    assert np.all(log.completed_stage[~moved] == 1)
    assert np.all(log.stage1_server[moved] < 2)
    assert np.all(log.stage2_server[moved] >= 2)


def test_two_stage_work_conservation_counts_discarded_prefix():
    # the truncated stage-0 prefix is real served work: size-5 task with
    # theta=2 consumes 2 units on stage 0 plus 5 on stage 1
    wl = _wl([(0, 0.0, [5.0])])
    log = run(wl, _cfg(2, 1.0), _policy("two_stage:rr", n1=1, theta=2.0), seed=0)
    assert log.served_work.sum() == pytest.approx(7.0)


def test_infinite_theta_matches_single_stage_bit_for_bit():
    params = fit_weibull(1.0, 10.0)
    n, n1 = 6, 4
    mu = 0.25
    rate = 0.5  # keeps stage 0 stable on its own
    cfg_full = _cfg(n, mu, rate=rate)
    cfg_small = _cfg(n1, mu, rate=rate)
    wl = generate_poisson_weibull(rate, params, 5000, seed=77)
    for label in ("rr", "jiq", "lwl"):
        two = run(wl, cfg_full, _policy(f"two_stage:{label}", n1=n1, theta=math.inf), seed=31)
        one = run(wl, cfg_small, _policy(label), seed=31)
        assert two.transfers == 0
        assert np.array_equal(two.completion, one.completion)
        assert np.array_equal(two.stage1_server, one.stage1_server)


def test_out_of_range_policy_choice_is_an_engine_error(monkeypatch):
    # the Python recursion calls choose() per dispatch and checks its answer;
    # rr's precomputed servers never are out of range. The compiled kernel
    # never calls least_work_left, so it is unloaded here
    wl = _wl([(0, 0.0, [1.0])])
    monkeypatch.setattr(kernel, "load", lambda: None)
    monkeypatch.setattr(engine, "least_work_left", lambda *stage: lambda now, size: 5)
    with pytest.raises(RuntimeError, match="outside stage"):
        run(wl, _cfg(2, 1.0), _policy("lwl"), seed=0)


def test_out_of_range_stage1_choice_is_an_engine_error(monkeypatch):
    # only the stage-1 chooser (offset n1 = 1) answers out of range; the
    # recursion's stage-1 pass checks it (the Python path, as above)
    wl = _wl([(0, 0.0, [3.0])])
    monkeypatch.setattr(kernel, "load", lambda: None)
    monkeypatch.setattr(engine, "least_work_left", lambda clear, offset, *rest: (
        (lambda now, size: 5) if offset else least_work_left(clear, offset, *rest)))
    with pytest.raises(RuntimeError, match="outside stage of size 1"):
        run(wl, _cfg(2, 1.0), _policy("two_stage:lwl", n1=1, theta=1.0), seed=0)


def test_out_of_range_jiq_choice_is_an_engine_error(monkeypatch):
    # jiq's chooser, which replays the drains before each choice, goes
    # through the same check (the Python path: the kernel never calls
    # JoinIdleQueue)
    wl = _wl([(0, 0.0, [1.0])])
    monkeypatch.setattr(kernel, "load", lambda: None)
    monkeypatch.setattr(JoinIdleQueue, "choose", lambda self: -1)
    with pytest.raises(RuntimeError, match="outside stage of size 2"):
        run(wl, _cfg(2, 1.0), _policy("jiq"), seed=0)


def test_out_of_range_jiq_stage1_choice_is_an_engine_error(monkeypatch):
    # ... on stage 1 as well: the second idle table built is stage 1's
    wl = _wl([(0, 0.0, [3.0])])
    built = []

    def jiq(count, rng):
        table = JoinIdleQueue(count, rng)
        if built:
            table.choose = lambda: 1
        built.append(table)
        return table
    monkeypatch.setattr(kernel, "load", lambda: None)
    monkeypatch.setattr(engine, "JoinIdleQueue", jiq)
    with pytest.raises(RuntimeError, match="outside stage of size 1"):
        run(wl, _cfg(2, 1.0), _policy("two_stage:jiq", n1=1, theta=1.0), seed=0)


# ---------------------------------------------------------------------------
# The FCFS recursion against the event-calendar reference


def _event_loop(*args, **kw):
    """The event-calendar reference (tests/reference_engine.py), with its
    brute-force check after every event."""
    return run_reference(*args, check=True, **kw)


def _assert_same_log(a, b):
    for name in ("completion", "completed_stage", "stage1_server", "stage2_server",
                 "transfer_time", "served_work", "busy_integral"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert a.end_time == b.end_time
    assert a.transfers == b.transfers


@st.composite
def _recursion_cases(draw, labels):
    """A small multi-task workload (integer times and sizes, so arrivals,
    completions and transfers tie, or continuous ones), a policy with one of
    `labels` (rr, jiq, lwl or card; all but card also as two_stage) with
    theta possibly equal to a task size or inf, and optional max_jobs and
    horizon. Sizes of 1e-300 and 2e-300 take no time once added to a
    positive instant, so zero-length services tie with their start; with
    theta=1e-300 such a task also transfers at that instant."""
    quantized = draw(st.booleans())
    jobs = draw(st.integers(min_value=1, max_value=40))
    if quantized:
        gaps = draw(st.lists(st.integers(0, 3), min_size=jobs, max_size=jobs))
        size = st.integers(1, 8).map(float)
        speed = draw(st.sampled_from([0.5, 1.0, 2.0]))
    else:
        gaps = draw(st.lists(st.floats(0.0, 3.0), min_size=jobs, max_size=jobs))
        size = st.floats(0.01, 8.0)
        speed = draw(st.sampled_from([0.3, 1.0, 1.7]))
    entries = []
    t = 0.0
    for jid, gap in enumerate(gaps):
        t += gap
        tiny = st.sampled_from([1e-300, 2e-300])
        tasks = st.lists(size | size | size | tiny, min_size=1, max_size=4)
        entries.append((jid, t, draw(tasks)))
    n = draw(st.integers(min_value=1, max_value=12))
    kw = {}
    label = draw(st.sampled_from(labels))
    if label == "card":
        bound = st.floats(0.01, 9.0)
        m = sorted(draw(st.lists(bound, min_size=n, max_size=n)))
        kw = {"thresholds": CardThresholds(
            m=tuple(m), c=tuple(draw(st.lists(bound, min_size=n - 1, max_size=n - 1))))}
    elif n >= 2 and draw(st.booleans()):
        label = "two_stage:" + label
        sizes = [s for _, _, ss in entries for s in ss]
        kw = {"n1": draw(st.integers(1, n - 1)),
              "theta": draw(st.sampled_from(sizes + [math.inf, 0.5]))}
    max_jobs = draw(st.none() | st.integers(1, jobs))
    horizon = draw(st.none() | st.integers(0, int(t) + 20).map(float)
                   | st.floats(0.0, t + 20.0))
    return _wl(entries), _cfg(n, speed), _policy(label, **kw), max_jobs, horizon


def _check_against_event_loop(case, seed):
    wl, cfg, policy, max_jobs, horizon = case
    fast = run(wl, cfg, policy, seed, max_jobs=max_jobs, horizon=horizon)
    loop = _event_loop(wl, cfg, policy, seed, max_jobs=max_jobs, horizon=horizon)
    _assert_same_log(fast, loop)


@pytest.fixture(scope="module", params=["kernel", "python"])
def recursion_path(request):
    """The path `run` takes: the compiled kernel, or the Python loop with the
    kernel unloaded. Enter it with `_on_path`."""
    if request.param == "kernel" and kernel.load() is None:
        pytest.skip("no C compiler to build the kernel")
    return request.param


@contextmanager
def _on_path(path):
    with pytest.MonkeyPatch.context() as patch:
        if path == "python":
            patch.setattr(kernel, "load", lambda: None)
        yield


@given(_recursion_cases(["rr"]), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_rr_recursion_matches_event_loop(recursion_path, case, seed):
    with _on_path(recursion_path):
        _check_against_event_loop(case, seed)


@given(_recursion_cases(["lwl", "card"]), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_lwl_and_card_recursion_matches_event_loop(recursion_path, case, seed):
    with _on_path(recursion_path):
        _check_against_event_loop(case, seed)


@given(_recursion_cases(["jiq"]), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_jiq_recursion_matches_event_loop(recursion_path, case, seed):
    with _on_path(recursion_path):
        _check_against_event_loop(case, seed)


def test_two_stage_jiq_transfer_pops_before_a_zero_length_completion():
    # theta=1e-300 truncates both tasks at t=1 with no time spent, so both
    # transfer at t=1, task 0 first. Task 0's stage-1 service also takes no
    # time, yet its completion was scheduled when its transfer popped, after
    # task 1's transfer was scheduled: task 1's transfer pops first and finds
    # task 0's server still busy. The plain rule "a completion at the
    # transfer instant pops first" would pick between two idle servers.
    wl = _wl([(0, 1.0, [2e-300, 5.0])])
    policy = _policy("two_stage:jiq", n1=1, theta=1e-300)
    for seed in range(40):
        log = run(wl, _cfg(3, 1.0), policy, seed)
        assert list(log.transfer_time) == [1.0, 1.0]
        assert log.stage2_server[0] != log.stage2_server[1]
        _assert_same_log(log, _event_loop(wl, _cfg(3, 1.0), policy, seed))


def _check_continuous_and_stage1_collision(kind):
    cfg = ClusterConfig.synthetic(10, 0.8)
    wl = generate_poisson_weibull(cfg.arrival_rate, fit_weibull(1.0, 10.0), 2000, seed=4)
    policy = _policy(f"two_stage:{kind}", n1=3, theta=1.0)
    log = run(wl, cfg, policy, 4)
    assert log.transfers > 0
    _assert_same_log(log, _event_loop(wl, cfg, policy, 4))
    # a transfer reaching its stage-1 server exactly at its last completion:
    # the completion pops first, so the server's busy period splits in two
    back = _wl([(0, 0.0, [1.0]), (1, 1.0, [1.0])])
    policy = _policy(f"two_stage:{kind}", n1=1, theta=0.5)
    log = run(back, _cfg(2, 1.0), policy, 0)
    assert list(log.transfer_time) == [0.5, 1.5] and list(log.completion) == [1.5, 2.5]
    _assert_same_log(log, _event_loop(back, _cfg(2, 1.0), policy, 0))


def test_rr_recursion_runs_continuous_and_declines_stage1_collisions():
    _check_continuous_and_stage1_collision("rr")


def test_lwl_recursion_runs_continuous_and_declines_stage1_collisions():
    _check_continuous_and_stage1_collision("lwl")


def test_jiq_recursion_runs_continuous_and_declines_stage1_collisions():
    _check_continuous_and_stage1_collision("jiq")


def test_rr_tied_transfers_pop_in_service_start_order():
    policy = _policy("two_stage:rr", n1=2, theta=1.0)
    # two size-3 tasks of one job start on arrival at idle servers and both
    # transfer at t=1: dispatch order
    tied = _wl([(0, 0.0, [3.0, 3.0])])
    log = run(tied, _cfg(4, 1.0), policy, 0)
    assert list(log.stage2_server) == [2, 3]
    _assert_same_log(log, _event_loop(tied, _cfg(4, 1.0), policy, 0))
    # tasks 4 and 5 both start at the t=3 completions and transfer at 5.5;
    # task 3 (fresh at 1) started before task 2 (queued until 2), so its
    # completion pops first and task 5 transfers before task 4
    policy = _policy("two_stage:rr", n1=2, theta=2.5)
    chained = _wl([(0, 0.0, [2.0, 0.5]), (1, 1.0, [1.0, 2.0]), (2, 1.5, [5.0, 5.0])])
    log = run(chained, _cfg(4, 1.0), policy, 0)
    assert list(log.transfer_time[4:]) == [5.5, 5.5]
    assert list(log.stage2_server[4:]) == [3, 2]
    _assert_same_log(log, _event_loop(chained, _cfg(4, 1.0), policy, 0))
    # task 2 arrives at t=1 exactly as server 0 completes task 0, so it
    # queues and starts at that completion, after task 3 starts on arrival
    policy = _policy("two_stage:rr", n1=2, theta=1.0)
    at_done = _wl([(0, 0.0, [1.0]), (1, 0.0, [0.5]), (2, 1.0, [3.0, 3.0])])
    log = run(at_done, _cfg(4, 1.0), policy, 0)
    assert list(log.stage2_server[2:]) == [3, 2]
    _assert_same_log(log, _event_loop(at_done, _cfg(4, 1.0), policy, 0))


@pytest.mark.parametrize("kind", ["rr", "lwl", "jiq"])
def test_tied_transfers_of_multi_task_jobs_stay_on_the_recursion(monkeypatch, kind):
    # a job's tasks share its arrival instant, so those that start at once
    # on idle stage-0 servers transfer together: about 270 of 800 transfers
    # tie here, and each tied group must reach stage 1 in pop order. Under
    # jiq those servers also drain together at a+theta, a tie that only the
    # pop order settles: the kernel, when built, hands it to the Python tie
    # handler
    settled = []
    real = engine._settle
    monkeypatch.setattr(engine, "_settle", lambda order, s, *rest: (
        settled.append(s), real(order, s, *rest))[1])
    rng = np.random.default_rng(5)
    arrivals = np.cumsum(rng.exponential(1.0, 400))
    counts = rng.integers(1, 7, 400)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    wl = Workload(np.arange(400), arrivals, offsets, rng.weibull(0.5, offsets[-1]),
                  np.concatenate([np.arange(c) for c in counts]), arrivals[-1], "multi")
    cfg = ClusterConfig.for_workload(10, 0.8, wl)
    policy = _policy(f"two_stage:{kind}", n1=4, theta=0.3)
    log = run(wl, cfg, policy, 3)
    at = log.transfer_time[log.stage2_server >= 0]
    assert len(at) - len(np.unique(at)) > 200
    _assert_same_log(log, _event_loop(wl, cfg, policy, 3))
    assert (0 in settled) == (kind == "jiq")


def test_rr_arrival_at_a_completion_extends_the_busy_period():
    # each job arrives exactly when the previous one completes: the server
    # never idles, so its busy integral is one subtraction, not a sum of
    # per-task pieces that round differently
    sizes = np.random.default_rng(3).uniform(0.1, 1.0, 50).tolist()
    entries, t = [], 0.1
    for jid, size in enumerate(sizes):
        entries.append((jid, t, [size]))
        t = t + size / 0.7
    wl = _wl(entries)
    for horizon in (None, entries[30][1]):
        log = run(wl, _cfg(1, 0.7), _policy("rr"), 0, horizon=horizon)
        _assert_same_log(log, _event_loop(wl, _cfg(1, 0.7), _policy("rr"), 0,
                                          horizon=horizon))
        assert log.busy_integral[0] == log.end_time - 0.1


@pytest.mark.parametrize("label,kw", [("rr", {}), ("two_stage:rr", {"n1": 3, "theta": 2.0})])
def test_rr_completions_match_prefix_sum_oracle(label, kw):
    # c_k = max(a_k, c_{k-1}) + s_k unrolls to P_k + max_{j<=k}(a_j - P_{j-1})
    # with P the running sum of service times on one server: vectorized,
    # shares no code with the engine and rounds differently
    cfg = ClusterConfig.synthetic(10, 0.8)
    wl = generate_poisson_weibull(cfg.arrival_rate, fit_weibull(1.0, 10.0), 20_000, seed=6)
    log = run(wl, cfg, _policy(label, **kw), seed=6)
    arrival, size, _ = wl.task_arrays()
    n1, theta = kw.get("n1", cfg.n), kw.get("theta", math.inf)

    def lindley(ready, work, count):
        out = np.empty(len(ready))
        for g in range(count):
            svc = work[g::count] / cfg.mu
            p = np.cumsum(svc)
            prev = np.concatenate(([0.0], p[:-1]))
            out[g::count] = p + np.maximum.accumulate(ready[g::count] - prev)
        return out

    first = lindley(arrival, np.minimum(size, theta), n1)
    moved = size > theta
    assert np.array_equal(log.stage1_server, np.arange(len(size)) % n1)
    np.testing.assert_allclose(np.where(moved, log.transfer_time, log.completion), first,
                               rtol=1e-9, atol=0)
    order = np.argsort(first[moved], kind="stable")
    assert np.array_equal(log.stage2_server[moved][order],
                          n1 + np.arange(order.size) % (cfg.n - n1))
    second = np.empty(order.size)
    second[order] = lindley(first[moved][order], size[moved][order], cfg.n - n1)
    np.testing.assert_allclose(log.completion[moved], second, rtol=1e-9, atol=0)
    assert log.transfers == moved.sum() and np.all(log.completed_stage == 1 + moved)


def _central_queue(arrival, size, n, speed):
    """Completions of the n-server central-queue FCFS system: each task
    starts when the earliest server frees, c = max(a, free) + s/speed. None
    if some dispatch sees an equal-product tie between distinct clear times,
    where LWL may pick the later one and the systems part."""
    free = [0.0] * n
    out = []
    for a, s in zip(arrival, size):
        best = (free[0] - a) * speed
        if best > 0.0 and len({c for c in free if (c - a) * speed == best}) > 1:
            return None
        c = max(a, heappop(free)) + s / speed
        heappush(free, c)
        out.append(c)
    return out


@pytest.mark.parametrize("n", [1, 3, 10])
def test_lwl_completions_match_central_queue_oracle(n):
    # LWL with exact backlogs sends each task to the server that frees
    # earliest (Harchol-Balter, Crovella & Murta, JPDC 1999); the oracle
    # keeps a heap of free instants and shares no code with the engine.
    # Only completions are compared: idle-server ties pick any server.
    cfg = ClusterConfig.synthetic(n, 0.8)
    compared = 0
    for seed in range(8):
        wl = generate_poisson_weibull(cfg.arrival_rate, fit_weibull(1.0, 10.0), 3000, seed)
        arrival, size, _ = wl.task_arrays()
        want = _central_queue(arrival.tolist(), size.tolist(), n, cfg.mu)
        if want is None:
            continue
        compared += 1
        assert np.array_equal(run(wl, cfg, _policy("lwl"), seed).completion, want)
    assert compared >= 6


def test_task_log_round_trip(tmp_path):
    wl, log = _invariant_run("rr", 1.0, n=2, jobs=50)
    path = tmp_path / "tasks.csv"
    log.write_task_log(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("job_id,task_index,")
    assert len(lines) == 1 + log.task_count
    # rewriting must be byte-identical
    path2 = tmp_path / "tasks2.csv"
    log.write_task_log(path2)
    assert path.read_bytes() == path2.read_bytes()
