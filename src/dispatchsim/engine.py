"""Deterministic simulation of FCFS server clusters.

The simulated system is an event calendar of task arrivals, service
completions and stage transfers, but `run` never builds one. Each policy
decides from what is known at a dispatch (the servers' backlogs and, for
jiq, which servers are idle), and an FCFS server fixes a task's completion
when the task is dispatched. So `run` computes completions in dispatch order
with the FCFS recursion (Lindley, 1952) on the chosen server: c += r/speed
if the task joins the busy period, else c = a + r/speed. Stage 0 dispatches
arrivals in arrival order, stage 1 transfers in the calendar's pop order.

Pop order. An event pops by its instant. At a tied instant arrivals pop
first, in arrival order, and every other event in the pop order of the
event that scheduled it; a completion schedules its server's next service
before its task's transfer. A stage-0 completion is scheduled by its arrival
or by the previous completion on its server, a transfer by its stage-0
completion, and a stage-1 completion by its transfer or by the previous
stage-1 completion. `_PopOrder` walks these chains back to settle each tie:

  * an arrival at a joins a busy period that ends at c iff a <= c;
  * a transfer joins iff a < c, or a == c and the server's last completion
    does not pop first. The completion instant is the same float either
    way, so the recursion joins and re-sums a split server's busy integral;
  * transfers at one instant reach stage 1 in pop order;
  * a jiq server drains at its `clear` instant unless its next dispatch pops
    first; a lazy heap replays the drains before each choice.

One stage contract, two implementations, the same bytes. `run` hands each
stage to `Kernel.stage`, the compiled kernel (`kernel.py` builds `_kernel.c`
with gcc on first use), or, without a compiler, to `_stage`, which runs the
recursion `_fcfs` over a chooser from `policies.py`; the tests use `_stage`
as the kernel's oracle. Both take the same arguments, draw the same
tie-breaks from the same policy stream and return the stage's completions
and servers. The pop-order ties above stay in Python: on both, jiq hands
drains that tie to one `settle` callback in `run`, which calls `_settle`.

`clear[g]`, in an engine-owned array over global servers, is the instant
server g's backlog empties (`_stage` works on a list copy); lwl and card read
each stage's slice of it at every choice. Two-stage: a task of size s first
occupies a stage-0 server for min(s, theta); if s > theta it transfers at the
truncation instant and restarts from scratch, needing the full s, on a
stage-1 server chosen by an independent instance of the same policy kind.
Under a horizon, `clear` keeps chaining past it and only completions at or
before it are recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from heapq import heappop, heappush
from itertools import cycle, repeat

import numpy as np

from . import kernel
from .policies import JoinIdleQueue, PolicySpec, least_work_left, multi_band_card
from .randomness import policy_rng
from .workload import ClusterConfig, Workload


@dataclass(eq=False)
class CompletionLog:
    """Raw per-task outcome of one run plus per-server counters.

    Arrays are indexed by flat task ordinal (the dispatch order of
    `Workload.task_arrays`). Unfinished tasks (horizon-stopped runs) carry
    NaN completion times and stage 0.
    """

    workload: Workload
    config: ClusterConfig
    policy: PolicySpec
    seed: int
    completion: np.ndarray
    completed_stage: np.ndarray
    stage1_server: np.ndarray
    stage2_server: np.ndarray
    transfer_time: np.ndarray
    served_work: np.ndarray
    busy_integral: np.ndarray
    end_time: float
    transfers: int

    @property
    def task_count(self) -> int:
        return len(self.completion)

    @property
    def unfinished_tasks(self) -> int:
        return int(np.isnan(self.completion).sum())

    def job_completions(self) -> np.ndarray:
        """Completion time of each job: the max over its tasks (NaN if any
        task is unfinished)."""
        offsets = self.workload.task_offsets
        return np.maximum.reduceat(self.completion, offsets[:-1])

    def job_responses(self) -> np.ndarray:
        """Response time of each job in arrival order (NaN if unfinished)."""
        return self.job_completions() - self.workload.arrivals

    def write_task_log(self, path) -> None:
        """Write one CSV row per task (repr floats, stable field order)."""
        with open(path, "w", newline="") as fh:
            fh.write(
                "job_id,task_index,arrival_time,size,stage1_server,"
                "stage2_server,transfer_time,completion_time,completed_stage\n"
            )
            wl = self.workload
            task_arrival, task_size, task_job = wl.task_arrays()
            columns = (wl.job_ids[task_job], wl.task_indices, task_arrival, task_size,
                       self.stage1_server, self.stage2_server, self.transfer_time,
                       self.completion, self.completed_stage)
            for job, k, arr, size, s1, s2, tt, done, stage in zip(
                *(c.tolist() for c in columns)
            ):
                fh.write(f"{job},{k},{arr!r},{size!r},{s1},{s2},{tt!r},{done!r},{stage}\n")


def _fcfs(arr, req, picks, clear, busy, since, speed):
    """FCFS recursion in dispatch order: dispatch k, ready at arr[k] needing
    req[k], joins the k-th server of `picks` (a cycle for rr, else a lazy
    `map` over a policy's choices that read `clear` as this loop writes it).
    Yields each completion; updates `clear`, `busy` (closed busy periods) and
    `since` (open period start) in place."""
    for a, r, g in zip(arr, req, picks):
        c = clear[g]
        if a <= c:  # joins; a stage-1 tie that splits is re-summed in `run`
            c += r / speed
        else:  # the previous busy period closed at c
            busy[g] += c - since[g]
            since[g] = a
            c = a + r / speed
        clear[g] = c
        yield c


def _previous(where):
    """Per dispatch, the index of the previous dispatch on its server, or -1."""
    order = np.argsort(where, kind="stable")
    prev = np.full(len(where), -1)
    same = where[order[1:]] == where[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    return prev


class _PopOrder:
    """The calendar's pop order at a tied instant. Event (0, s, i) is the
    arrival or transfer of stage s's dispatch i, at ready[s][i]; (1, s, i) is
    its completion, at done[s][i] on server where[s][i]. Transfer i comes
    from stage-0 dispatch moved[i]. jiq's `settle` `take`s `done` and `where`
    up to a tie from either stage implementation; other kinds `fill` them
    once a tie needs them."""

    def __init__(self, arrival) -> None:
        self.ready, self.done, self.where, self.prev = [arrival, []], [[], []], [[], []], [[], []]
        self.moved = []
        self._opened, self._last = [], {}  # stage-1 decisions; server -> last dispatch

    def fill(self, s, done, where) -> None:
        """Take stage s's completions and servers from the recursion, as lists."""
        if len(self.prev[s]) < len(done):
            self.done[s], self.where[s] = done.tolist(), where.tolist()
            self.ready[s], self.prev[s] = np.asarray(self.ready[s]).tolist(), _previous(where).tolist()

    def take(self, s, done, where, d) -> None:
        """Extend stage s's completions and servers to its first d dispatches
        from the recursion's lists or arrays, converting only what is new."""
        have = len(self.done[s])
        if have < d:
            self.done[s] += np.asarray(done[have:d]).tolist()
            self.where[s] += np.asarray(where[have:d]).tolist()

    def last(self, s, d, g=None):
        """The completion of the last dispatch before d of stage s on server
        g, deriving `prev` that far from `where` (jiq's lists grow as it runs)."""
        prev, where, last = self.prev[s], self.where[s], self._last
        while len(prev) < d:
            k = len(prev)
            prev.append(last.get(where[k], -1))
            last[where[k]] = k
        return 1, s, last.get(g)

    def opens(self, i) -> bool:
        """Whether stage-1 dispatch i opened a busy period on its server."""
        opened, prev, ready, done = self._opened, self.prev[1], self.ready[1], self.done[1]
        while len(opened) <= i:  # a tie depends on earlier dispatches' decisions
            k = len(opened)
            p = prev[k]
            opened.append(p < 0 or ready[k] > done[p]
                          or ready[k] == done[p] and self.first((1, 1, p), (0, 1, k)))
        return opened[i]

    def _parent(self, e):
        """The event that scheduled e, and e's rank among the events it scheduled."""
        kind, s, i = e
        if not kind:  # a transfer, scheduled after the next stage-0 service
            return (1, 0, self.moved[i]), 1
        if len(self.prev[s]) <= i:  # jiq, mid-run
            self.last(s, i + 1)
        p = self.prev[s][i]
        if s:
            opened = self.opens(i)
        else:  # an arrival pops before a same-instant completion
            opened = p < 0 or self.ready[0][i] > self.done[0][p]
        return ((0, s, i) if opened else (1, s, p)), 0

    def first(self, e, f) -> bool:
        """Whether event e pops before f, a distinct event at the same instant."""
        done, ready = self.done, self.ready
        while True:
            (ke, se, ie), (kf, sf, i_f) = e, f
            te, tf = (done if ke else ready)[se][ie], (done if kf else ready)[sf][i_f]
            if te != tf:
                return te < tf
            if not (ke or se):  # arrivals pop first, in arrival order
                return bool(kf or sf) or ie < i_f
            if not (kf or sf):
                return False
            (e, rank_e), (f, rank_f) = self._parent(e), self._parent(f)
            if e == f:
                return rank_e < rank_f


def _settle(order, s, a, fresh):
    """jiq's drains at a tie: `fresh` holds the (clear, server) pairs of stage
    s, popped in heap order, that drain at or before instant a of dispatch
    d = len(order.where[s]). Returns those that drain before d pops, in pop
    order, and those held busy: on stage 1 a completion at a drains only if
    it pops before the transfer."""
    d = len(order.where[s])
    out, held = [], []
    for c, g in fresh:
        first = c < a or order.first(order.last(s, d, g), (0, 1, d))
        (out if first else held).append((c, g))
    in_pop_order = cmp_to_key(lambda x, y: -1 if x[0] < y[0] or x[0] == y[0] and order.first(
        order.last(s, d, x[1]), order.last(s, d, y[1])) else 1)
    return sorted(out, key=in_pop_order), held


def _jiq_choose(pol, offset, count, clear, where, stage1, settle):
    """`choose(a)`: the global server of a stage's next dispatch under JIQ,
    checked to lie in the stage and appended to `where`, as `dispatch_jiq`
    picks it. A lazy heap holds (clear, server) per busy server, as of its
    push; a stale entry is pushed again at its server's `clear`. Before each
    choice the previous dispatch leaves the idle table, and the servers that
    drain before the dispatch pops (clear < a; on stage 1 also clear == a when
    the last completion pops first) join it in heap order, unless two tie or
    one is at a: then `settle(k, fresh, done, where)` returns those that
    drain, in pop order, and those held busy."""
    done, heap = [], []
    assign, idle, choose_idle = pol.on_assign, pol.on_server_idle, pol.choose

    def choose(a):
        if where:  # the previous dispatch has completed its recursion step
            g = where[-1]
            done.append(c := clear[g])
            if assign(g - offset):  # it left the idle table: a busy server has one entry
                heappush(heap, (c, g))
        fresh, last, tied = [], None, False
        while heap and (heap[0][0] < a or stage1 and heap[0][0] == a):
            c, g = e = heappop(heap)
            if clear[g] != c:  # more work since the push
                heappush(heap, (clear[g], g))
                continue
            if c == last:  # pops never decrease: a tie is two in a row, a drain at a the last
                tied = True
            last = c
            fresh.append(e)
        if tied or last == a:
            fresh, held = settle(len(where), fresh, done, where)
            for e in held:
                heappush(heap, e)
        for c, g in fresh:
            idle(g - offset)
        j = choose_idle()
        if not 0 <= j < count:
            raise RuntimeError(f"policy chose server {j} outside stage of size {count}")
        where.append(g := offset + j)
        return g
    return choose


def _stage(kind, arr, req, size, offset, count, speed, clear, busy, since, rng, thresholds=None,
           stage1=False, settle=None):
    """`Kernel.stage` in Python, with its arguments, return value and `settle`
    calls: the fallback without a compiler and the kernel's oracle. It runs
    `_fcfs` on list copies of `clear`, `busy` and `since` and writes them back."""
    arr, req, state = arr.tolist(), req.tolist(), [x.tolist() for x in (clear, busy, since)]
    where = []
    if kind == "rr":
        picks, where = cycle(range(offset, offset + count)), offset + np.arange(len(arr)) % count
    elif kind == "jiq":
        pol = JoinIdleQueue(count, rng)
        picks = map(_jiq_choose(pol, offset, count, state[0], where, stage1, settle), arr)
    else:
        choose = (least_work_left(state[0], offset, count, speed, rng) if kind == "lwl" else
                  multi_band_card(state[0], offset, count, speed, rng, thresholds))

        def pick(a, s):
            j = choose(a, s)
            if not 0 <= j < count:
                raise RuntimeError(f"policy chose server {j} outside stage of size {count}")
            where.append(g := offset + j)
            return g
        picks = map(pick, arr, size.tolist() if kind == "card" else repeat(None))
    done = np.fromiter(_fcfs(arr, req, picks, *state, speed), np.float64, len(arr))
    clear[:], busy[:], since[:] = state
    return done, np.asarray(where, dtype=np.intp)


def run(
    workload: Workload,
    config: ClusterConfig,
    policy: PolicySpec,
    seed: int,
    *,
    max_jobs: int | None = None,
    horizon: float | None = None,
) -> CompletionLog:
    """Simulate one workload on one cluster under one policy.

    Runs until every task completes (after `max_jobs` jobs if given, else the
    whole workload) or, if `horizon` is given, stops before the first event
    past it; tasks still in the system then stay unfinished. Deterministic in
    (workload, config, policy, seed): reruns are bit-identical.
    """
    policy.validate_for(config.n)
    if max_jobs is not None:
        workload = workload.truncated(max_jobs)
    task_arrival, task_size, _task_job = workload.task_arrays()
    n, speed = config.n, float(config.mu)
    n1 = policy.n1 if policy.two_stage else n
    theta = policy.theta if policy.two_stage else math.inf
    stop = math.inf if horizon is None else horizon
    T = len(task_size)
    D = int(np.searchsorted(task_arrival, stop, side="right"))  # dispatched
    stage_impl = lib.stage if (lib := kernel.load()) else _stage
    clear, busy, since = np.zeros((3, n))
    order = _PopOrder(task_arrival[:D])  # an array: a list held to the end slowed rr ~5%

    def stage(arr, sizes, req, offset, count, s):
        """Stage s's completions and global servers, in dispatch order."""
        def settle(k, fresh, done, where):
            if s:  # a transfer's pop order runs back through stage 0
                order.take(0, done0, where0, len(done0))
            order.take(s, done, where, k)
            return _settle(order, s, arr[k], fresh)
        return stage_impl(policy.kind, arr, req, sizes, offset, count, speed, clear, busy, since,
                          policy_rng(seed, s), policy.thresholds, s, settle)

    size = task_size[:D]
    req = np.minimum(size, theta)
    done0, where0 = stage(task_arrival[:D], size, req, 0, n1, 0)
    moved = np.flatnonzero((size > theta) & (done0 <= stop))
    moved = moved[np.argsort(done0[moved], kind="stable")]
    at = done0[moved]  # transfer instants; stage-1 dispatch order once ties are sorted
    edge = np.diff(np.concatenate(([False], at[1:] == at[:-1], [False])).view(np.int8))
    if edge.any():
        order.fill(0, done0, where0)
        key = cmp_to_key(lambda i, j: -1 if order.first((1, 0, i), (1, 0, j)) else 1)
        for lo, hi in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1) + 1):
            moved[lo:hi] = sorted(moved[lo:hi].tolist(), key=key)
    done1, where1 = done0[:0], where0[:0]
    if len(moved):
        order.ready[1], order.moved = at, moved
        done1, where1 = stage(at, task_size[moved], task_size[moved], n1, n - n1, 1)
        prev = _previous(where1)
        tied = np.flatnonzero((prev >= 0) & (at == done1[prev]))
        if len(tied):  # re-sum the busy integral of every server a tie splits
            order.fill(0, done0, where0)
            order.fill(1, done1, where1)
            for g in {where1[i] for i in tied.tolist() if order.opens(i)}:
                b = start = c = 0.0
                for i in np.flatnonzero(where1 == g).tolist():
                    if order.opens(i):
                        b, start = b + (c - start), order.ready[1][i]
                    c = order.done[1][i]
                busy[g], since[g] = b, start

    done = np.concatenate((done0, done1))
    where = np.concatenate((where0, where1))
    late = done > stop
    pend = np.full(n, math.inf)
    np.minimum.at(pend, where[late], done[late])
    # the first event past stop, else the last completion (which no late one exceeds)
    end_time = float(min(pend.min(), task_arrival[D] if D < T else clear.max()))
    busy = busy + (np.where(pend < math.inf, end_time, clear) - since)
    work = np.bincount(where, np.where(late, 0.0, np.concatenate((req, task_size[moved]))), n)

    completion = np.full(T, math.nan)
    completion[:D] = np.where(done0 > stop, math.nan, done0)
    completion[moved] = np.where(done1 > stop, math.nan, done1)
    completed_stage = np.zeros(T, dtype=np.int8)
    completed_stage[:D] = done0 <= stop
    completed_stage[moved] = np.where(done1 > stop, 0, 2)
    stage1_server = np.full(T, -1, dtype=np.int32)
    stage1_server[:D] = where0
    stage2_server = np.full(T, -1, dtype=np.int32)
    stage2_server[moved] = where1
    transfer_time = np.full(T, math.nan)
    transfer_time[moved] = at
    return CompletionLog(
        workload, config, policy, seed, completion, completed_stage, stage1_server,
        stage2_server, transfer_time, work, busy, end_time, len(moved))
