"""
Replaying a task trace through the dispatcher
=============================================

Real workloads arrive as traces: jobs made of one or more tasks, each task
with an arrival time and a size. This walk-through builds a small multi-task
trace, writes it to CSV, reads it back, calibrates the per-server speed to
hit a target load, and replays it under two policies. A job finishes when
its last task does.
"""

import tempfile
from pathlib import Path

import numpy as np

from dispatchsim.engine import run
from dispatchsim.metrics import summarize_run
from dispatchsim.policies import parse_policy
from dispatchsim.workload import (
    Workload,
    calibrate_mu,
    fit_weibull,
    generate_poisson_weibull,
    ingest_trace,
    write_trace_csv,
)

# fabricate a trace: Poisson arrivals, mildly heavy-tailed sizes, then merge
# every pair of consecutive jobs into one 2-task job so the
# last-task-finishes rule actually matters
base = generate_poisson_weibull(2.0, fit_weibull(1.0, 2.0), 3000, seed=5)
pair = np.arange(base.job_count) // 2  # rows 2j and 2j+1 form job j
trace = Workload.from_tasks(pair, base.arrivals[2 * pair], np.arange(base.job_count) % 2,
                            base.task_sizes, horizon=base.horizon, source="demo")

with tempfile.TemporaryDirectory() as folder:  # removed, with the CSV, on exit
    trace_path = Path(folder) / "demo_trace.csv"
    write_trace_csv(trace, trace_path)
    print(f"wrote {trace.job_count} jobs / {trace.task_count} tasks to {trace_path}")
    wl = ingest_trace(trace_path)
assert wl == trace  # the CSV round trip is exact, not approximate

# choose the server speed so the trace loads 8 servers at rho = 0.7
n, rho = 8, 0.7
config = calibrate_mu(wl, n, rho)
print(f"calibrated mu={config.mu:.4f} -> offered load {config.target_rho:.3f}")

for label in ("rr", "lwl"):
    log = run(wl, config, parse_policy(label), seed=3)
    res = summarize_run(log)
    responses = log.job_responses()
    print(f"{label}: mean response {res.mrt_seconds:.2f}  "
          f"p95 {np.nanpercentile(responses, 95):.2f}  "
          f"unfinished tasks {log.unfinished_tasks}")
