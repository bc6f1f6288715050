"""Deterministic event-driven simulation of FCFS server clusters.

Event ordering. The calendar is totally ordered by (time, sequence). All task
arrivals are known up front and occupy sequence numbers 0..T-1 in arrival
order; dynamic events (service completions, stage transfers) take increasing
sequence numbers from T upward as they are scheduled. Consequences:

  * at equal timestamps, an arrival is handled before any completion or
    transfer scheduled during the run;
  * a transfer scheduled at the same instant as events already in the
    calendar fires after them;
  * two runs with the same inputs pop events in the same order, bit for bit.

Work bookkeeping. The engine owns one flat list `clear`, indexed by global
server, holding the absolute instant at which each server's backlog empties;
both stages' policies read it through their `StageView` offset. Enqueueing a
requirement r on server g advances clear[g] by r / speed; unfinished work at
time t is max(0, clear[g] - t) * speed, in size units. Because busy servers
only ever extend clear[g] by the same float additions that determine
completion times, this stays bit-identical to summing remaining
requirements. Idleness is tracked explicitly via the task in service:
`clear[g] <= now` is not a safe idle test at the exact instant a completion
event is still pending.

Two-stage operation. With a two-stage policy a task of size s first occupies
a stage-0 server for min(s, theta) (its precomputed stage requirement). If
s > theta (strictly), a transfer event fires at the truncation instant; the
partial work is discarded and the task restarts from scratch, requiring the
full s, on a stage-1 server chosen by an independent instance of the same
policy kind. Tasks with s == theta complete at stage 0.

Calendar-free runs. rr, lwl and card (single- and two-stage) choose a
server from `clear` alone, and a completion never changes `clear`. So each
task's completion is fixed when it is dispatched, and `run` computes them in
dispatch order with the FCFS recursion (Lindley, 1952) on the chosen server:
c = c + r/speed if a <= c else a + r/speed, the calendar's float operations
(`<=` because an arrival precedes a same-instant completion). rr takes its
servers from a cycle; lwl and card call `choose` on a `StageView` of the
recursion's own `clear`. Stage 1 dispatches the transfers in the calendar's
pop order: by instant, ties as their stage-0 services started
(`_start_order`). jiq stays on the calendar: its idle table changes when a
server drains, so its choices depend on how completions interleave with
dispatches. The recursion also declines, and the calendar runs, when a
transfer reaches its stage-1 server exactly at that server's `clear`: the
completion may pop first there, which splits the busy integral in two. Under
a horizon, `clear` keeps chaining past it (lwl's backlog counts work that
finishes later) and only completions at or before it are recorded.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import cycle, repeat
from typing import Iterator

import numpy as np

from .policies import PolicySpec, StageView, build_policy
from .randomness import policy_rng
from .workload import ClusterConfig, Workload

# Event kinds. A calendar entry is the tuple
#   (time, sequence, kind, server, task)
# with `server` the global server index (-1 when not yet chosen) and `task`
# the flat task ordinal. Arrivals are implicit: they live in the workload's
# sorted arrival array and conceptually occupy sequences 0..T-1.
TASK_ARRIVAL = 0
SERVICE_COMPLETION = 1
STAGE_TRANSFER = 2


class ServerState:
    """One FCFS server: the task in service plus a queue of waiting tasks."""

    __slots__ = (
        "fcfs_queue",
        "in_service_task",
        "in_service_req",
        "in_service_done",
        "busy_since",
        "busy_integral",
        "served_work",
    )

    def __init__(self) -> None:
        self.fcfs_queue: deque = deque()  # (task ordinal, requirement)
        self.in_service_task = -1
        self.in_service_req = 0.0
        self.in_service_done = 0.0
        self.busy_since = 0.0
        self.busy_integral = 0.0
        self.served_work = 0.0


@dataclass(frozen=True)
class TaskInstance:
    """Fully resolved life of one task, for logs and debugging."""

    job_id: int
    task_index: int
    size: float
    arrival_time: float
    stage1_server: int
    stage2_server: int  # -1 unless the task transferred
    transfer_time: float  # nan unless the task transferred
    completion_time: float  # nan if unfinished at the horizon
    completed_stage: int  # 1 or 2; 0 if unfinished


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

    def iter_task_instances(self) -> Iterator[TaskInstance]:
        wl = self.workload
        task_arrival, task_size, task_job = wl.task_arrays()
        for t in range(self.task_count):
            j = int(task_job[t])
            yield TaskInstance(
                job_id=int(wl.job_ids[j]),
                task_index=int(wl.task_indices[t]),
                size=float(task_size[t]),
                arrival_time=float(task_arrival[t]),
                stage1_server=int(self.stage1_server[t]),
                stage2_server=int(self.stage2_server[t]),
                transfer_time=float(self.transfer_time[t]),
                completion_time=float(self.completion[t]),
                completed_stage=int(self.completed_stage[t]),
            )

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


def _check_bookkeeping(servers, now: float, stage_policies) -> None:
    """Debug invariants, re-derived by brute force after every event:

      * tracked backlog (read through each stage's view of `clear`) equals
        remaining in-service work plus the sum of queued requirements;
      * an idle server has an empty queue and zero tracked work;
      * each stage's policy state agrees with its servers' busy flags.
    """
    speed = stage_policies[0].view.speed
    tracked_work = [w for pol in stage_policies for w in pol.view.unfinished_work(now)]
    for g, (s, tracked) in enumerate(zip(servers, tracked_work)):
        if s.in_service_task >= 0:
            left = s.in_service_done - now
            brute = (left if left > 0.0 else 0.0) * speed
            brute += sum(r for (_t, r) in s.fcfs_queue)
        else:
            if s.fcfs_queue:
                raise AssertionError(f"server {g} idle with queued tasks")
            brute = 0.0
        if abs(brute - tracked) > 1e-9 * max(1.0, abs(brute)):
            raise AssertionError(
                f"server {g} backlog drift: tracked {tracked!r} vs "
                f"brute-force {brute!r} at t={now!r}"
            )
    busy = [s.in_service_task >= 0 for s in servers]
    for pol in stage_policies:
        view = pol.view
        pol.check_state(busy[view.offset:view.offset + view.count])


def _fcfs(arr, req, picks, clear, busy, since, speed):
    """FCFS recursion (Lindley, 1952) in dispatch order: dispatch k, ready at
    arr[k] with requirement req[k], joins the k-th global server of `picks`
    (a cycle for rr, or a lazy `map` over a policy's choices reading `clear`
    as this loop writes it). Yields each dispatch's completion and updates
    the per-server lists `clear`, `busy` (closed busy periods) and `since`
    (open period start) in place."""
    for a, r, g in zip(arr, req, picks):
        c = clear[g]
        if a <= c:  # an arrival precedes a same-instant completion
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


def _start_order(arrival, done, prev):
    """Sort key of stage-0 dispatches in the order the calendar started their
    services: by instant, arrivals (in dispatch order) before completions,
    and starts at same-instant completions as those completions' starts."""
    def start(k):
        p = prev[k]
        return (arrival[k], 0) if p < 0 or arrival[k] > done[p] else (done[p], 1)

    def cmp(i, j):
        while (si := start(i)) == (sj := start(j)) and si[1]:
            i, j = prev[i], prev[j]
        return (-1 if si < sj else 1) if si != sj else i - j
    return functools.cmp_to_key(cmp)


def _run_fcfs(workload, config, policy, seed, horizon) -> CompletionLog | None:
    """`run` without the calendar for every kind but jiq: one `_fcfs` per
    stage, or None where it declines (see "Calendar-free runs" above)."""
    task_arrival, task_size, _task_job = workload.task_arrays()
    n, speed = config.n, float(config.mu)
    n1 = policy.n1 if policy.two_stage else n
    theta = policy.theta if policy.two_stage else math.inf
    stop = math.inf if horizon is None else horizon
    T = len(task_size)
    D = int(np.searchsorted(task_arrival, stop, side="right"))  # dispatched
    clear, busy, since = [0.0] * n, [0.0] * n, [0.0] * n

    def stage(arr, sizes, req, offset, count, stream):
        """One stage's completions and global servers, in dispatch order."""
        if policy.kind == "rr":
            picks = cycle(range(offset, offset + count))
            done = _fcfs(arr, req.tolist(), picks, clear, busy, since, speed)
            return np.fromiter(done, np.float64, len(arr)), offset + np.arange(len(arr)) % count
        pol = build_policy(policy.kind, policy.thresholds)
        pol.bind(StageView(clear, offset, count, speed), policy_rng(seed, stream))
        choose, where = pol.choose, []

        def pick(a, s):
            j = choose(a, s)
            if not 0 <= j < count:
                raise RuntimeError(f"policy chose server {j} outside stage of size {count}")
            where.append(g := offset + j)
            return g
        sizes = sizes.tolist() if pol.needs_size else repeat(None)
        done = _fcfs(arr, req.tolist(), map(pick, arr, sizes), clear, busy, since, speed)
        return np.fromiter(done, np.float64, len(arr)), np.array(where, dtype=np.intp)

    size = task_size[:D]
    req = np.minimum(size, theta)
    done0, where0 = stage(task_arrival[:D].tolist(), size, req, 0, n1, 0)
    moved = np.flatnonzero((size > theta) & (done0 <= stop))
    moved = moved[np.argsort(done0[moved], kind="stable")]
    at = done0[moved]  # transfer instants; stage-1 dispatch order once ties are sorted
    edge = np.diff(np.concatenate(([False], at[1:] == at[:-1], [False])).view(np.int8))
    if edge.any():
        key = _start_order(task_arrival, done0, _previous(where0))
        for lo, hi in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1) + 1):
            moved[lo:hi] = sorted(moved[lo:hi].tolist(), key=key)
    done1, where1 = done0[:0], where0[:0]
    if len(moved):
        done1, where1 = stage(at.tolist(), task_size[moved], task_size[moved], n1, n - n1, 1)
        prev = _previous(where1)
        if np.any(at[prev >= 0] == done1[prev[prev >= 0]]):
            return None  # a transfer reaches its server exactly at its clear instant

    done = np.concatenate((done0, done1))
    where = np.concatenate((where0, where1))
    late = done > stop
    pend = np.full(n, math.inf)
    np.minimum.at(pend, where[late], done[late])
    end_time = min(pend.min(), task_arrival[D] if D < T else math.inf)  # first event past stop
    if end_time == math.inf:  # drained: the last event is the last completion
        end_time = max(clear)
    end_time = float(end_time)
    busy = [b + ((end_time if p < math.inf else c) - s)
            for b, s, p, c in zip(busy, since, pend.tolist(), clear)]
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
        stage2_server, transfer_time, work, np.asarray(busy), end_time, len(moved))


def run(
    workload: Workload,
    config: ClusterConfig,
    policy: PolicySpec,
    seed: int,
    *,
    max_jobs: int | None = None,
    horizon: float | None = None,
    debug_invariants: bool = False,
) -> CompletionLog:
    """Simulate one workload on one cluster under one policy.

    Stops when the calendar drains (after `max_jobs` jobs if given, else the
    whole workload) or, if `horizon` is given, before the first event past
    it; tasks still in the system then stay unfinished. Deterministic in
    (workload, config, policy, seed): reruns are bit-identical.

    `debug_invariants` re-derives every server's backlog by brute force after
    each event and cross-checks each stage's policy state (slow; for tests).
    The calendar-free recursion (every kind but jiq) keeps no queues, so it
    has nothing to check.
    """
    policy.validate_for(config.n)
    if max_jobs is not None:
        workload = workload.truncated(max_jobs)
    if policy.kind != "jiq":
        log = _run_fcfs(workload, config, policy, seed, horizon)
        if log is not None:
            return log
    task_arrival, task_size, _task_job = workload.task_arrays()
    arr_l = task_arrival.tolist()
    size_l = task_size.tolist()
    T = len(arr_l)

    n = config.n
    speed = config.mu
    two_stage = policy.two_stage
    n1 = policy.n1 if two_stage else n
    theta = policy.theta if two_stage else None
    if theta is not None and math.isinf(theta):
        theta = None  # stage 1 unreachable; skip the per-arrival comparison

    servers = [ServerState() for _ in range(n)]
    clear = [0.0] * n  # instant each server's backlog empties
    pol1 = build_policy(policy.kind, policy.thresholds)
    pol1.bind(StageView(clear, 0, n1, speed), policy_rng(seed, 0))
    pol2 = None
    if two_stage:
        pol2 = build_policy(policy.kind, None)
        pol2.bind(StageView(clear, n1, n - n1, speed), policy_rng(seed, 1))

    completion = [math.nan] * T
    completed_stage = [0] * T
    stage1_server = [-1] * T
    stage2_server = [-1] * T
    transfer_time = [math.nan] * T
    transfers = 0

    heap: list[tuple] = []  # (time, sequence, kind, global server, task)
    seq = T  # arrivals hold sequences 0..T-1; dynamic events follow
    i = 0  # next arrival
    now = 0.0
    pol1_needs_size = pol1.needs_size

    while True:
        take_arrival = i < T and (not heap or arr_l[i] <= heap[0][0])
        if take_arrival:
            now = arr_l[i]
            if horizon is not None and now > horizon:
                break
            task = i
            i += 1
            size = size_l[task]
            req = theta if (theta is not None and size > theta) else size
            local = pol1.choose(now, size if pol1_needs_size else None)
            if not 0 <= local < n1:
                raise RuntimeError(
                    f"policy chose server {local} outside stage of size {n1}"
                )
            stage1_server[task] = local
            srv = servers[local]
            if srv.in_service_task < 0:
                srv.in_service_task = task
                srv.in_service_req = req
                done = now + req / speed
                srv.in_service_done = done
                clear[local] = done
                srv.busy_since = now
                seq += 1
                heappush(heap, (done, seq, SERVICE_COMPLETION, local, task))
            else:
                clear[local] += req / speed
                srv.fcfs_queue.append((task, req))
            pol1.on_assign(local, req)
        elif heap:
            ev = heappop(heap)
            now = ev[0]
            if horizon is not None and now > horizon:
                break
            kind = ev[2]
            if kind == SERVICE_COMPLETION:
                g = ev[3]
                srv = servers[g]
                task = srv.in_service_task
                srv.served_work += srv.in_service_req
                q = srv.fcfs_queue
                if q:
                    task2, req2 = q.popleft()
                    srv.in_service_task = task2
                    srv.in_service_req = req2
                    done = now + req2 / speed
                    srv.in_service_done = done
                    seq += 1
                    heappush(heap, (done, seq, SERVICE_COMPLETION, g, task2))
                else:
                    srv.in_service_task = -1
                    srv.busy_integral += now - srv.busy_since
                    if g >= n1:
                        pol2.on_server_idle(g - n1)
                    else:
                        pol1.on_server_idle(g)
                if theta is not None and g < n1 and size_l[task] > theta:
                    transfer_time[task] = now
                    seq += 1
                    heappush(heap, (now, seq, STAGE_TRANSFER, -1, task))
                else:
                    completion[task] = now
                    completed_stage[task] = 2 if (two_stage and g >= n1) else 1
            else:  # STAGE_TRANSFER
                task = ev[4]
                size = size_l[task]
                transfers += 1
                local = pol2.choose(now, size if pol2.needs_size else None)
                if not 0 <= local < n - n1:
                    raise RuntimeError(
                        f"policy chose server {local} outside stage of size {n - n1}"
                    )
                g = n1 + local
                stage2_server[task] = g
                srv = servers[g]
                if srv.in_service_task < 0:
                    srv.in_service_task = task
                    srv.in_service_req = size
                    done = now + size / speed
                    srv.in_service_done = done
                    clear[g] = done
                    srv.busy_since = now
                    seq += 1
                    heappush(heap, (done, seq, SERVICE_COMPLETION, g, task))
                else:
                    clear[g] += size / speed
                    srv.fcfs_queue.append((task, size))
                pol2.on_assign(local, size)
        else:
            break
        if debug_invariants:
            _check_bookkeeping(servers, now, (pol1, pol2) if two_stage else (pol1,))

    for s in servers:
        if s.in_service_task >= 0:
            s.busy_integral += now - s.busy_since

    return CompletionLog(
        workload=workload,
        config=config,
        policy=policy,
        seed=seed,
        completion=np.asarray(completion, dtype=np.float64),
        completed_stage=np.asarray(completed_stage, dtype=np.int8),
        stage1_server=np.asarray(stage1_server, dtype=np.int32),
        stage2_server=np.asarray(stage2_server, dtype=np.int32),
        transfer_time=np.asarray(transfer_time, dtype=np.float64),
        served_work=np.asarray([s.served_work for s in servers], dtype=np.float64),
        busy_integral=np.asarray([s.busy_integral for s in servers], dtype=np.float64),
        end_time=now,
        transfers=transfers,
    )
