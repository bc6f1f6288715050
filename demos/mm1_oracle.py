"""
Checking the simulator against the M/G/1 closed form
====================================================

A single FCFS server fed by Poisson arrivals has a known mean response
time. Simulating that system and dividing by the closed-form value should
give 1.0 up to sampling noise, which makes it the standard smoke test for
the whole event loop. Expect the heavier tail at high load to sit a few
percent off at this modest sample size; the mean converges at a rate set
by E[S^2], so the cov=4, rho=0.9 cell needs millions of jobs to settle.
"""

from dispatchsim.analysis import mg1_mean_response
from dispatchsim.metrics import DEFAULT_WARMUP_FRACTION, replicate_and_summarize
from dispatchsim.policies import parse_policy
from dispatchsim.sweep import SyntheticSource

# one server, unit-speed, unit mean size; vary the load and the tail weight
jobs = 200_000
policy = parse_policy("lwl")  # every policy is identical when n = 1

print(f"{'rho':>5} {'cov':>5} {'analytic':>10} {'simulated':>10} {'ratio':>7}")
for cov in (1.0, 4.0):
    src = SyntheticSource(cov)
    for rho in (0.5, 0.7, 0.9):
        config = src.config(1, rho)
        analytic = mg1_mean_response(src.distribution(), config.arrival_rate,
                                     config.total_capacity)

        # a few replications, each with its own derived seed
        [summary] = replicate_and_summarize(src, config, [policy], rho, jobs, 7, 3,
                                            DEFAULT_WARMUP_FRACTION)
        sim = summary.mean_mrt_seconds
        print(f"{rho:>5.1f} {cov:>5.1f} {analytic:>10.3f} {sim:>10.3f} {sim / analytic:>7.3f}")
