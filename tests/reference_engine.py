"""Reference engine: the simulation as an event calendar.

It pops arrivals, service completions and stage transfers from one calendar
and keeps every server's FCFS queue explicitly, so it shares no code with
`dispatchsim.engine.run`, which computes the same run as a dispatch-order
recursion. The equality tests compare `engine.run` against it array for
array. With `check=True` it re-derives every server's backlog by brute force
after each event and cross-checks each stage's policy state against the
servers' busy flags.

Event ordering. The calendar is totally ordered by (time, sequence). All task
arrivals are known up front and occupy sequence numbers 0..T-1 in arrival
order; service completions and stage transfers take increasing sequence
numbers from T upward as they are scheduled. So at equal timestamps an
arrival is handled before any scheduled event, and scheduled events pop in
the order they were scheduled.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush

import numpy as np

from dispatchsim.engine import CompletionLog
from dispatchsim.policies import StageView, build_policy
from dispatchsim.randomness import policy_rng

# A calendar entry is (time, sequence, kind, global server, task); arrivals
# are implicit: they live in the workload's sorted arrival array.
SERVICE_COMPLETION = 1
STAGE_TRANSFER = 2


class ServerState:
    """One FCFS server: the task in service plus a queue of waiting tasks."""

    __slots__ = ("fcfs_queue", "in_service_task", "in_service_req", "in_service_done",
                 "busy_since", "busy_integral", "served_work")

    def __init__(self) -> None:
        self.fcfs_queue: deque = deque()  # (task ordinal, requirement)
        self.in_service_task = -1
        self.in_service_req = 0.0
        self.in_service_done = 0.0
        self.busy_since = 0.0
        self.busy_integral = 0.0
        self.served_work = 0.0


def check_bookkeeping(servers, now: float, stage_policies) -> None:
    """Brute-force invariants after an event:

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


def run_reference(workload, config, policy, seed, *, max_jobs=None, horizon=None,
                  check=True) -> CompletionLog:
    """Simulate like `engine.run`, on the event calendar."""
    policy.validate_for(config.n)
    if max_jobs is not None:
        workload = workload.truncated(max_jobs)
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
        theta = None  # stage 1 unreachable

    servers = [ServerState() for _ in range(n)]
    clear = [0.0] * n  # instant each server's backlog empties
    pol1 = build_policy(policy.kind, policy.thresholds)
    pol1.bind(StageView(clear, 0, n1, speed), policy_rng(seed, 0))
    pol2 = None
    if two_stage:
        pol2 = build_policy(policy.kind, None)
        pol2.bind(StageView(clear, n1, n - n1, speed), policy_rng(seed, 1))
    stage_policies = (pol1, pol2) if two_stage else (pol1,)

    completion = [math.nan] * T
    completed_stage = [0] * T
    stage1_server = [-1] * T
    stage2_server = [-1] * T
    transfer_time = [math.nan] * T
    transfers = 0

    heap: list[tuple] = []
    seq = T  # arrivals hold sequences 0..T-1; scheduled events follow
    i = 0  # next arrival
    now = 0.0

    def enqueue(g, task, req):
        nonlocal seq
        srv = servers[g]
        if srv.in_service_task < 0:
            srv.in_service_task = task
            srv.in_service_req = req
            srv.in_service_done = clear[g] = now + req / speed
            srv.busy_since = now
            seq += 1
            heappush(heap, (clear[g], seq, SERVICE_COMPLETION, g, task))
        else:
            clear[g] += req / speed
            srv.fcfs_queue.append((task, req))

    def dispatch(pol, offset, count, task, req):
        local = pol.choose(now, size_l[task] if pol.needs_size else None)
        if not 0 <= local < count:
            raise RuntimeError(f"policy chose server {local} outside stage of size {count}")
        enqueue(offset + local, task, req)
        pol.on_assign(local, req)
        return offset + local

    while True:
        if i < T and (not heap or arr_l[i] <= heap[0][0]):
            now = arr_l[i]
            if horizon is not None and now > horizon:
                break
            task = i
            i += 1
            size = size_l[task]
            req = theta if (theta is not None and size > theta) else size
            stage1_server[task] = dispatch(pol1, 0, n1, task, req)
        elif heap:
            now, _seq, kind, g, task = heappop(heap)
            if horizon is not None and now > horizon:
                break
            if kind == SERVICE_COMPLETION:
                srv = servers[g]
                srv.served_work += srv.in_service_req
                if srv.fcfs_queue:
                    task2, req2 = srv.fcfs_queue.popleft()
                    srv.in_service_task = task2
                    srv.in_service_req = req2
                    srv.in_service_done = now + req2 / speed
                    seq += 1
                    heappush(heap, (srv.in_service_done, seq, SERVICE_COMPLETION, g, task2))
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
                transfers += 1
                stage2_server[task] = dispatch(pol2, n1, n - n1, task, size_l[task])
        else:
            break
        if check:
            check_bookkeeping(servers, now, stage_policies)

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
