"""
Two-stage dispatching: cap service, then retry on a second tier
===============================================================

Splitting the cluster into a small first tier that serves every task for at
most theta, plus a second tier that restarts the survivors from scratch,
insulates short tasks from the heavy tail even when both tiers run plain
round robin. A coarse grid over (theta, first-tier size) is enough to see
the effect; theta is parameterized by quantiles of the size law so the grid
is meaningful at any tail weight.
"""

from dispatchsim.metrics import DEFAULT_WARMUP_FRACTION, replicate_and_summarize
from dispatchsim.policies import parse_policy
from dispatchsim.sweep import SyntheticSource, optimize_two_stage

n, rho, cov = 10, 0.8, 10.0
jobs, reps, base_seed = 200_000, 2, 11

src = SyntheticSource(cov)

# single-stage round robin as the baseline to beat
[single] = replicate_and_summarize(src, src.config(n, rho), [parse_policy("rr")], rho, jobs,
                                   base_seed, reps, DEFAULT_WARMUP_FRACTION)
print(f"single-stage rr: mrt={single.mean_mrt_seconds:.1f}")

# grid-search the truncation point and the first-tier size with paired seeds
opt = optimize_two_stage(
    "rr", n, rho, src,
    theta_quantiles=(0.5, 0.8, 0.9, 0.95),
    n1_candidates=(1, 2, 3, 5),
    replications=reps, jobs=jobs, base_seed=base_seed,
)

print(f"\n{'quantile':>9} {'theta':>8} {'n1':>3} {'mrt':>9}")
for row in opt.table:
    print(f"{row['theta_quantile']:>9} {row['theta']:>8.3f} {row['n1']:>3} "
          f"{row['mrt_seconds']:>9.1f}")

best = opt.summary.mean_mrt_seconds
gain = 1.0 - best / single.mean_mrt_seconds
print(f"\noptimum: theta={opt.theta:.3f} (q={opt.theta_quantile}), n1={opt.n1}, "
      f"mrt={best:.1f}  ({gain:.0%} below single-stage rr)")
