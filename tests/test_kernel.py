"""The compiled kernel against `engine.run`'s Python path, and its loader."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dispatchsim import engine, kernel
from dispatchsim.analysis import WeibullDistribution, card_thresholds
from dispatchsim.engine import run
from dispatchsim.policies import least_work_left, parse_policy
from dispatchsim.randomness import policy_rng
from dispatchsim.workload import ClusterConfig, Workload, fit_weibull, generate_poisson_weibull

_FIELDS = ("completion", "completed_stage", "stage1_server", "stage2_server", "transfer_time",
           "served_work", "busy_integral")
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")


def _assert_same_log(a, b):
    for name in _FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.end_time, a.transfers) == (b.end_time, b.transfers)


def _case(label, n=100, jobs=20_000):
    cfg = ClusterConfig.synthetic(n, 0.8)
    params = fit_weibull(1.0, 10.0)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, jobs, 9)
    kw = {}
    if label == "card":
        kw["thresholds"] = card_thresholds(WeibullDistribution(params), n, 0.8)
    elif label.startswith("two_stage:"):
        kw = {"n1": 3 * n // 10, "theta": 2.0}
    return wl, cfg, parse_policy(label, **kw)


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """The kernel unloaded in this process, cached only in an empty directory."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setattr(kernel, "cache_dirs", lambda: [str(cache)])
    return cache


@pytest.mark.parametrize("label", ["rr", "jiq", "lwl", "card", "two_stage:rr", "two_stage:jiq",
                                   "two_stage:lwl"])
def test_kernel_matches_python_path_bit_for_bit(monkeypatch, label):
    # 20k continuous jobs at n=100 have no ties, but card draws a permutation
    # at every dispatch, so any slip in the stream position shows
    if kernel.load() is None:
        pytest.skip("no C compiler to build the kernel")
    wl, cfg, policy = _case(label)
    fast = run(wl, cfg, policy, seed=3)
    monkeypatch.setattr(kernel, "load", lambda: None)
    slow = run(wl, cfg, policy, seed=3)
    assert fast.transfers > 0 or not policy.two_stage
    _assert_same_log(fast, slow)


def _contract_run(impl, kind, stage1, arr, size, thresholds):
    """One call of a stage implementation on stage servers 2..5 of 6, with a
    recording `settle`: it drains the fresh entries off a's instant, in
    descending server order within an instant, and holds those at a."""
    state = np.zeros((3, 6))
    state[:, :2] = 7.0  # the other stage's servers, which no call may touch
    calls = []

    def settle(k, fresh, done, where):
        calls.append((k, fresh, np.asarray(done[:k]).tolist(), np.asarray(where[:k]).tolist()))
        out = sorted((e for e in fresh if e[0] != arr[k]), key=lambda e: (e[0], -e[1]))
        return out, [e for e in fresh if e[0] == arr[k]]
    done, where = impl(kind, arr, size, size, 2, 4, 1.0, *state, policy_rng(5, int(stage1)),
                       thresholds, stage1, settle)
    return done.tolist(), where.tolist(), state.tolist(), calls


@pytest.mark.parametrize("kind,stage1", [("rr", False), ("lwl", False), ("card", False),
                                         ("jiq", False), ("jiq", True)])
def test_python_stage_keeps_the_kernel_contract(kind, stage1):
    # arrivals and sizes on a grid of quarters: lwl and card tie on backlogs,
    # and jiq's servers drain together and at arrival instants, so its tie
    # handler runs; both implementations must call it with the same
    # arguments and obey its answer the same way
    lib = kernel.load()
    if lib is None:
        pytest.skip("no C compiler to build the kernel")
    rng = np.random.default_rng(11)
    arr = np.round(np.cumsum(rng.exponential(0.4, 1500)) * 4) / 4
    size = rng.choice([0.5, 1.0, 2.0], 1500)  # load about 0.73
    thresholds = card_thresholds(WeibullDistribution(fit_weibull(1.0, 10.0)), 4, 0.8)
    fast = _contract_run(lib.stage, kind, stage1, arr, size, thresholds)
    slow = _contract_run(engine._stage, kind, stage1, arr, size, thresholds)
    assert fast[:3] == slow[:3]  # done, where, then clear, busy and since
    assert fast[3] == slow[3]
    assert (len(fast[3]) > 50) == (kind == "jiq")
    if stage1:
        assert any(arr[k] in [c for c, _g in fresh] for k, fresh, *_ in fast[3])


class _Halves:
    """A generator stand-in whose 32-bit draws are `halves`, then a filler
    that every draw below accepts. It hands out at most `chunk` words a read
    and counts its reads."""

    def __init__(self, halves, chunk=None):
        h = np.array(halves, dtype=np.uint64)
        self.words = (h[0::2] | h[1::2] << np.uint64(32)).tolist()
        self.bit_generator, self.chunk, self.reads = self, chunk, 0

    def random_raw(self, count):
        self.reads += 1
        count = min(count, self.chunk or count)
        out, self.words = self.words[:count], self.words[count:]
        return np.array(out + [0xAAAAAAAB_55555555] * (count - len(out)), dtype=np.uint64)


def test_kernel_lwl_draws_reject_like_uniform_index():
    # three idle servers tie at every dispatch. For k=3 Lemire's method
    # rejects a half h with (3h mod 2**32) < 1, here h=0, and accepts
    # h=0xAAAAAAAB (3h mod 2**32 = 1); random data almost never hits either
    lib = kernel.load()
    if lib is None:
        pytest.skip("no C compiler to build the kernel")
    halves = [0, 0xAAAAAAAB, 0xAAAAAAAB, 0, 0, 0x55555555, 7, 0xFFFFFFFF]
    choose = least_work_left([0.0] * 3, 0, 3, 1.0, _Halves(halves))
    expected = [choose(10.0 * k, None) for k in range(6)]
    assert expected[:5] == [2, 2, 0, 0, 2]
    clear, busy, since = np.zeros((3, 3))
    arr = 10.0 * np.arange(6)
    _done, where = lib.stage("lwl", arr, np.ones(6), np.ones(6), 0, 3, 1.0, clear, busy, since,
                             _Halves(halves))
    assert where.tolist() == expected


def _on_halves(monkeypatch, wl, cfg, policy, halves, chunk=None):
    """`run` on the kernel and on the Python path (`JoinIdleQueue` over
    `UniformIndex`), every stage's policy stream a fresh `_Halves`. Returns
    both logs and the streams each path read."""
    logs, streams = [], []
    for load in (kernel.load, lambda: None):
        made = []
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "load", load)
            patch.setattr(engine, "policy_rng", lambda seed, s: made.append(
                _Halves(halves, chunk)) or made[-1])
            logs.append(run(wl, cfg, policy, seed=0))
        streams.append(made)
    return logs, streams


def test_kernel_jiq_draws_replay_join_idle_queue(monkeypatch):
    # 3 servers at speed 1: five tasks at t=0, then one at t=20. Reading one
    # word (two halves) at a time, the first draw, over 3 idle servers,
    # rejects both halves 0 and resumes mid-dispatch to accept 0xAAAAAAAB
    # (server 2). Then 2 idle servers (server 1), a single idle one (server
    # 0, no draw), and twice none idle, drawn over the stage's 3 servers. At
    # t=20 all three drain before a draw that finds no halves left and
    # resumes without draining again. A draw at the single idle server would
    # turn the last two choices into servers 2 and 0
    if kernel.load() is None:
        pytest.skip("no C compiler to build the kernel")
    a = 0xAAAAAAAB
    halves = [0, 0, a, a, 0x55555555, 0x55555555, 0xFFFFFFFF, a]
    wl = Workload.from_tasks([0] * 5 + [1], [0.0] * 5 + [20.0], [0, 1, 2, 3, 4, 0],
                             [1.0, 2.0, 3.0, 4.0, 5.0, 1.0])
    cfg = ClusterConfig(3, 1.0, 3.0, 0.5, 1.5, 1.0)
    (fast, slow), _streams = _on_halves(monkeypatch, wl, cfg, parse_policy("jiq"), halves, 1)
    assert slow.stage1_server.tolist() == [2, 1, 0, 0, 0, 0]
    _assert_same_log(fast, slow)


def test_kernel_jiq_on_single_server_stages_draws_nothing(monkeypatch):
    # both stages hold one server, so every choice, idle or not, is that
    # server and neither path reads its policy stream
    if kernel.load() is None:
        pytest.skip("no C compiler to build the kernel")
    wl = Workload.from_tasks([0, 1, 2, 2], [0.0, 0.2, 3.0, 3.0], [0, 0, 0, 1],
                             [1.0, 2.0, 0.3, 4.0])
    cfg = ClusterConfig(2, 1.0, 2.0, 0.5, 1.0, 1.0)
    policy = parse_policy("two_stage:jiq", n1=1, theta=0.5)
    (fast, slow), streams = _on_halves(monkeypatch, wl, cfg, policy, [])
    assert fast.transfers == 3
    assert [[h.reads for h in made] for made in streams] == [[0, 0], [0, 0]]
    _assert_same_log(fast, slow)


def test_run_without_a_compiler_takes_the_python_path(fresh, monkeypatch, tmp_path):
    wl, cfg, policy = _case("lwl", n=10, jobs=2000)
    expected = run(wl, cfg, policy, seed=1)
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    monkeypatch.setattr(kernel, "_loaded", None)
    assert kernel.load() is None
    _assert_same_log(run(wl, cfg, policy, seed=1), expected)


@needs_gcc
def test_run_with_a_source_that_fails_to_build_takes_the_python_path(fresh, monkeypatch,
                                                                      tmp_path):
    wl, cfg, policy = _case("card", n=10, jobs=2000)
    expected = run(wl, cfg, policy, seed=1)
    built = sorted(fresh.iterdir())
    bad = tmp_path / "bad.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(kernel, "SOURCE", bad)
    monkeypatch.setattr(kernel, "_loaded", None)
    assert kernel.load() is None
    assert sorted(fresh.iterdir()) == built  # the failed build left no temp file
    _assert_same_log(run(wl, cfg, policy, seed=1), expected)


@needs_gcc
def test_second_load_makes_no_compiler_call(fresh, monkeypatch):
    calls = []
    real = subprocess.run

    def spy(args, *rest, **kw):
        calls.append(args)
        return real(args, *rest, **kw)
    monkeypatch.setattr(subprocess, "run", spy)
    first = kernel.load()
    assert first is not None and any("-o" in c for c in calls)
    assert [p.suffix for p in fresh.iterdir()] == [".so"]
    assert oct(fresh.stat().st_mode & 0o777) == oct(0o700)
    calls.clear()
    assert kernel.load() is first and calls == []  # loaded once per process
    monkeypatch.setattr(kernel, "_loaded", None)  # as a new process would start
    assert kernel.load() is not None
    assert [c[1:] for c in calls] == [["-dumpfullversion"]]  # the cache key, no build


@needs_gcc
def test_unusable_cache_falls_back_to_the_next_directory(fresh, monkeypatch, tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("")  # a directory cannot be made under a file
    shared = tmp_path / "shared"
    shared.mkdir(mode=0o777)
    shared.chmod(0o777)  # others may write: never load from or build into it
    monkeypatch.setattr(kernel, "cache_dirs", lambda: [str(blocked / "cache"), str(shared),
                                                       str(fresh)])
    assert kernel.load() is not None
    assert list(shared.iterdir()) == []
    assert [p.suffix for p in fresh.iterdir()] == [".so"]


@needs_gcc
def test_concurrent_builds_into_one_cache_both_load(tmp_path):
    cache = tmp_path / "cache"
    code = textwrap.dedent(f"""
        import numpy as np
        from dispatchsim import kernel
        from dispatchsim.engine import run
        from dispatchsim.policies import parse_policy
        from dispatchsim.workload import ClusterConfig, fit_weibull, generate_poisson_weibull

        kernel.cache_dirs = lambda: [{str(cache)!r}]
        assert kernel.load() is not None
        cfg = ClusterConfig.synthetic(10, 0.8)
        wl = generate_poisson_weibull(cfg.arrival_rate, fit_weibull(1.0, 10.0), 3000, 2)
        fast = run(wl, cfg, parse_policy("lwl"), 4)
        kernel._loaded = False
        slow = run(wl, cfg, parse_policy("lwl"), 4)
        assert np.array_equal(fast.completion, slow.completion)
        print("ok")
    """)
    src = str(Path(kernel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    children = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        outs = [child.communicate(timeout=120) for child in children]
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert [(child.returncode, out) for child, (out, _err) in zip(children, outs)] == [
        (0, "ok\n"), (0, "ok\n")], [err for _out, err in outs]
    assert [p.suffix for p in cache.iterdir()] == [".so"]
