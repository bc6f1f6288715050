"""
Comparing the single-stage dispatching policies
===============================================

Round robin ignores server state entirely; join-idle-queue tracks one bit
per server; least-work-left sees exact backlogs; the size-banded policy
additionally reads each task's size and keeps size classes apart. The gap
between them widens dramatically once task sizes become heavy-tailed.
"""

from dispatchsim.metrics import DEFAULT_WARMUP_FRACTION, replicate_and_summarize
from dispatchsim.sweep import SyntheticSource, single_stage_spec

n, rho = 10, 0.8
jobs, reps = 300_000, 2
labels = ("rr", "jiq", "lwl", "card")

for cov in (1.0, 10.0):
    src = SyntheticSource(cov)
    print(f"\nn={n}, rho={rho}, task size cov={cov:g} (normalized to M/G/1 on pooled capacity)")
    print(f"{'policy':>8} {'mrt':>10} {'normalized':>11}")
    # common random numbers: every replication builds one workload (arrivals
    # and sizes) and runs every policy in the table on it
    specs = [single_stage_spec(label, src.distribution(), n, rho) for label in labels]
    summaries = replicate_and_summarize(src, src.config(n, rho), specs, rho, jobs, 11, reps,
                                        DEFAULT_WARMUP_FRACTION)
    for label, s in zip(labels, summaries):
        print(f"{label:>8} {s.mean_mrt_seconds:>10.2f} {s.mean_normalized_mrt:>11.4f}")
