"""End-to-end acceptance gate.

Each test prints exactly one `[criterion NN] PASS/FAIL: ...` line summarizing
the measured values against the stated tolerances. Run

    pytest tests/test_acceptance.py -v -s

to see the lines for passing criteria too (pytest always shows them for
failures). These are statistical end-to-end checks at fixed seeds; the heavy
ones simulate tens of millions of task events and take a minute or two each
on a single core.

Criteria 5 and 7 assert published qualitative closeness claims ("almost the
same mean response times") at hard numeric tolerances. Faithful
implementations of the policies measurably violate the closeness clauses at
rho = 0.8 (see notes in the repository history); the assertions are kept as
stated rather than loosened, so those two tests document the discrepancy by
failing.
"""

import json
import math
import time

import numpy as np
import pytest
from reference_engine import run_reference

from dispatchsim.analysis import WeibullDistribution, card_thresholds
from dispatchsim.cli import main as cli_main
from dispatchsim.engine import run
from dispatchsim.metrics import (
    DEFAULT_WARMUP_FRACTION,
    replicate_and_summarize,
    summarize_replications,
    summarize_run,
)
from dispatchsim.policies import parse_policy
from dispatchsim.randomness import replication_seed
from dispatchsim.sweep import SyntheticSource, optimize_two_stage, single_stage_spec
from dispatchsim.workload import (
    ClusterConfig,
    _open_uniform,
    fit_weibull,
    generate_poisson_weibull,
    ingest_trace,
    weibull_inverse,
)
from dispatchsim.randomness import workload_rng


def _report(num, checks):
    """checks: list of (ok, detail). Prints the one-line verdict, then asserts."""
    ok = all(c for c, _ in checks)
    parts = [d if c else d + " [VIOLATED]" for c, d in checks]
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: " + "; ".join(parts)
    print("\n" + line, flush=True)
    assert ok, line


def _single_stage_means(labels, n, rho, cov, jobs, reps, base_seed):
    """Mean MRT per policy label, common random numbers across labels."""
    src = SyntheticSource(cov)
    specs = [single_stage_spec(label, src.distribution(), n, rho) for label in labels]
    summaries = replicate_and_summarize(src, src.config(n, rho), specs, rho, jobs, base_seed,
                                        reps, DEFAULT_WARMUP_FRACTION)
    return {label: s.mean_mrt_seconds for label, s in zip(labels, summaries)}


# ---------------------------------------------------------------------------


def test_criterion_01_mm1_oracle():
    # n=1, COV=1, rho=0.8: MRT must match the M/M/1 value 5*E[S] within 3%
    # over 10 replications of 1e6 post-warm-up jobs, under a minute each.
    n, rho, jobs, reps, base = 1, 0.8, 1_111_112, 10, 101
    src = SyntheticSource(1.0)
    config = src.config(n, rho)
    spec = parse_policy("lwl")
    results, walls = [], []
    for rep in range(reps):  # its own loop: each replication is timed
        seed = replication_seed(base, rep)
        t0 = time.perf_counter()
        wl = src.workload(n, rho, jobs, seed)
        res = summarize_run(run(wl, config, spec, seed), baseline=src.baseline())
        walls.append(time.perf_counter() - t0)
        assert res.job_count >= 1_000_000
        results.append(res)
    norm = summarize_replications(results).mean_normalized_mrt

    # all four policies must route identically when there is only one server
    wl = src.workload(n, rho, 50_000, replication_seed(base, 0))
    seed = replication_seed(base, 0)
    th1 = card_thresholds(src.distribution(), 1, rho)
    logs = {
        label: run(wl, config, parse_policy(label, **kw), seed)
        for label, kw in [("rr", {}), ("jiq", {}), ("lwl", {}), ("card", {"thresholds": th1})]
    }
    ref = logs["rr"].completion
    identical = all(np.array_equal(ref, lg.completion) for lg in logs.values())

    _report(1, [
        (abs(norm - 1.0) <= 0.03, f"normalized M/M/1 MRT {norm:.4f} = 1.00 +/- 0.03"),
        (identical, "rr/jiq/lwl/card per-job completions identical at n=1"),
        (max(walls) < 60.0, f"max replication wall {max(walls):.1f}s < 60s"),
    ])


def test_criterion_02_pk_heavy_tail_oracle():
    # n=1, COV=10, rho=0.8: with >=1e7 jobs aggregated the normalized MRT
    # must sit within the wide 1.00 +/- 0.10 band (E[S^2]=101 converges slowly).
    n, rho, jobs, reps, base = 1, 0.8, 1_111_112, 10, 2024
    src = SyntheticSource(10.0)
    [summary] = replicate_and_summarize(src, src.config(n, rho), [parse_policy("lwl")], rho, jobs,
                                        base, reps, DEFAULT_WARMUP_FRACTION)
    measured = sum(r.job_count for r in summary.results)
    norm = summary.mean_normalized_mrt
    _report(2, [
        (measured >= 10_000_000, f"{measured} jobs aggregated >= 1e7"),
        (abs(norm - 1.0) <= 0.10, f"normalized heavy-tail MRT {norm:.4f} = 1.00 +/- 0.10"),
    ])


def test_criterion_03_weibull_fit_moments():
    params = fit_weibull(1.0, 10.0)
    x = weibull_inverse(params, _open_uniform(workload_rng(0), 10_000_000))
    mean = float(x.mean())
    cov = float(x.std() / mean)
    unit = fit_weibull(1.0, 1.0)
    exact = abs(unit.scale_a - 1.0) <= 1e-10 and abs(unit.shape_b - 1.0) <= 1e-10
    _report(3, [
        (abs(mean - 1.0) <= 0.01, f"fit(1,10) sample mean {mean:.5f} = 1 +/- 1%"),
        (abs(cov - 10.0) <= 1.0, f"sample COV {cov:.4f} = 10 +/- 10%"),
        (exact, f"fit(1,1) = ({unit.scale_a!r}, {unit.shape_b!r}) within 1e-10 of (1, 1)"),
    ])


def test_criterion_04_card_threshold_bands():
    rho = 0.8
    dists = {
        "exp": WeibullDistribution(fit_weibull(1.0, 1.0)),
        "heavy": WeibullDistribution(fit_weibull(1.0, 10.0)),
    }
    checks = []
    worst = 0.0
    exact_c = True
    for name, dist in dists.items():
        for n in (2, 10, 50):
            th = card_thresholds(dist, n, rho)
            targets = (np.arange(1, n + 1) - 0.5) / n
            err = max(abs(dist.partial_load(m) - t) for m, t in zip(th.m, targets))
            worst = max(worst, err)
            scale = 1.0 / math.sqrt(1.0 - rho)
            exact_c &= all(c == m * scale for m, c in zip(th.m[:-1], th.c))
    checks.append((worst <= 2e-9, f"max |partial_load(m_i) - (i-1/2)/n| = {worst:.2e} <= 2e-9"))
    checks.append((exact_c, "c_i == m_i / sqrt(1 - rho) exactly"))

    # independent oracle for the exponential n=2 bands: bisection on the
    # closed-form partial load 1 - (1+m) e^{-m}
    def exp_band_root(target):
        lo, hi = 0.0, 60.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - (1.0 + mid) * math.exp(-mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    th2 = card_thresholds(dists["exp"], 2, rho)
    oracle = (exp_band_root(0.25), exp_band_root(0.75))
    frozen = (0.961, 2.693)
    agree = max(abs(a - b) for a, b in zip(th2.m, oracle)) <= 1e-6
    near = max(abs(a - b) for a, b in zip(th2.m, frozen)) <= 1e-3
    checks.append((agree and near,
                   f"exp n=2 m = ({th2.m[0]:.5f}, {th2.m[1]:.5f}) matches bisection oracle"
                   f" and (0.961, 2.693) +/- 1e-3"))
    _report(4, checks)


def test_criterion_05_policy_ordering_n10():
    n, rho, jobs, reps, base = 10, 0.8, 1_000_000, 3, 5
    lo = _single_stage_means(("rr", "jiq", "lwl"), n, rho, 1.0, jobs, reps, base)
    hi = _single_stage_means(("rr", "jiq", "lwl"), n, rho, 10.0, jobs, reps, base)
    gap = abs(lo["jiq"] - lo["lwl"]) / min(lo["jiq"], lo["lwl"])
    _report(5, [
        (lo["lwl"] <= lo["jiq"] < lo["rr"],
         f"cov=1 ordering lwl<=jiq<rr ({lo['lwl']:.2f}, {lo['jiq']:.2f}, {lo['rr']:.2f})"),
        (gap <= 0.10, f"cov=1 lwl/jiq within 10% (measured gap {gap:.1%})"),
        (hi["lwl"] < hi["jiq"] < hi["rr"],
         f"cov=10 ordering lwl<jiq<rr ({hi['lwl']:.2f}, {hi['jiq']:.2f}, {hi['rr']:.2f})"),
        (hi["rr"] >= 2.0 * hi["lwl"],
         f"cov=10 rr at least 2x lwl (ratio {hi['rr'] / hi['lwl']:.1f})"),
    ])


def test_criterion_06_two_stage_gain():
    # COV=10, n=10, rho=0.8: grid-optimized two-stage variants must beat
    # their single-stage counterparts (rr by >= 30%), and single-stage card
    # must be the best single-stage policy. Coarse grid, paired seeds.
    n, rho, cov, jobs, reps, base = 10, 0.8, 10.0, 300_000, 2, 11
    quantiles = (0.5, 0.8, 0.9, 0.95)
    n1s = (1, 2, 3, 5)
    singles = _single_stage_means(("rr", "jiq", "lwl", "card"), n, rho, cov, jobs, reps, base)
    src = SyntheticSource(cov)
    opt = {
        inner: optimize_two_stage(inner, n, rho, src, theta_quantiles=quantiles,
                                  n1_candidates=n1s, replications=reps, jobs=jobs,
                                  base_seed=base).summary.mean_mrt_seconds
        for inner in ("rr", "jiq", "lwl")
    }
    rr_gain = 1.0 - opt["rr"] / singles["rr"]
    best_other = min(v for k, v in singles.items() if k != "card")
    _report(6, [
        (rr_gain >= 0.30, f"two-stage rr gain {rr_gain:.1%} >= 30% "
                          f"({opt['rr']:.1f} vs {singles['rr']:.1f})"),
        (opt["jiq"] < singles["jiq"],
         f"two-stage jiq {opt['jiq']:.1f} < single {singles['jiq']:.1f}"),
        (opt["lwl"] < singles["lwl"],
         f"two-stage lwl {opt['lwl']:.1f} < single {singles['lwl']:.1f}"),
        (singles["card"] <= best_other,
         f"single card {singles['card']:.1f} <= best other single {best_other:.1f}"),
    ])


def test_criterion_07_large_n_convergence():
    n, rho, jobs, reps, base = 100, 0.8, 1_000_000, 3, 7
    means = _single_stage_means(("rr", "jiq", "lwl"), n, rho, 10.0, jobs, reps, base)
    gap = abs(means["jiq"] - means["lwl"]) / min(means["jiq"], means["lwl"])
    _report(7, [
        (gap <= 0.15, f"n=100 jiq/lwl within 15% (measured gap {gap:.1%}; "
                      f"jiq {means['jiq']:.1f}, lwl {means['lwl']:.1f})"),
        (means["jiq"] < 0.5 * means["rr"] and means["lwl"] < 0.5 * means["rr"],
         f"both below 50% of rr (jiq {means['jiq'] / means['rr']:.1%}, "
         f"lwl {means['lwl'] / means['rr']:.1%})"),
    ])


def test_criterion_08_engine_invariants():
    src = SyntheticSource(2.0)
    n, rho, jobs = 4, 0.7, 1000
    config = src.config(n, rho)
    seed = replication_seed(3, 0)
    wl = src.workload(n, rho, jobs, seed)
    checks = []

    specs = {
        "rr": parse_policy("rr"),
        "jiq": parse_policy("jiq"),
        "lwl": parse_policy("lwl"),
        "card": parse_policy("card", thresholds=card_thresholds(src.distribution(), n, rho)),
        "two_stage:lwl": parse_policy("two_stage:lwl", theta=src.distribution().quantile(0.9), n1=2),
    }
    conserved = fcfs = lossless = matched = True
    task_arrival = wl.task_arrays()[0]
    for label, spec in specs.items():
        log = run(wl, config, spec, seed)
        # the event-calendar reference recomputes every server's backlog by
        # brute force at each event and compares it to the tracked clear-time
        # value; the engine's recursion must reproduce its arrays exactly
        ref = run_reference(wl, config, spec, seed, check=True)
        matched &= all(np.array_equal(getattr(log, f), getattr(ref, f), equal_nan=True) for f in (
            "completion", "completed_stage", "stage1_server", "stage2_server",
            "transfer_time", "served_work", "busy_integral"))
        matched &= log.end_time == ref.end_time and log.transfers == ref.transfers
        lossless &= log.unfinished_tasks == 0 and np.isfinite(log.completion).all()
        expected = sum(
            min(sz, spec.theta) + (sz if sz > spec.theta else 0.0)
            for sz in wl.task_sizes
        ) if spec.two_stage else wl.total_work
        conserved &= math.isclose(float(log.served_work.sum()), expected, rel_tol=1e-12)
        # completions on each server must come out in assignment order
        # (arrival order for stage 1, transfer order for stage 2)
        by_server = {}
        for stage, s1, s2, tt, arr, done in zip(
            log.completed_stage.tolist(), log.stage1_server.tolist(),
            log.stage2_server.tolist(), log.transfer_time.tolist(),
            task_arrival.tolist(), log.completion.tolist(),
        ):
            if stage == 2:
                by_server.setdefault(s2, []).append((tt, done))
            else:
                by_server.setdefault(s1, []).append((arr, done))
        for entries in by_server.values():
            entries.sort(key=lambda e: e[0])
            comps = [c for _, c in entries]
            fcfs &= comps == sorted(comps)
    checks.append((lossless, "no task loss across rr/jiq/lwl/card/two-stage"))
    checks.append((conserved, "served work equals offered work (incl. discarded prefixes)"))
    checks.append((fcfs, "per-server completions in FCFS order"))
    checks.append((matched, "clear-time bookkeeping matched brute-force recomputation "
                            "(engine == event-calendar reference checked at every event)"))

    # theta=inf two-stage must reduce to the single-stage policy bit for bit
    identical = True
    for label in ("rr", "jiq", "lwl"):
        two = run(wl, config, parse_policy(f"two_stage:{label}", theta=math.inf, n1=3), seed)
        one = run(wl, ClusterConfig(3, config.mu, 3 * config.mu, rho,
                                    rho * 3 * config.mu / src.mean_size, src.mean_size),
                  parse_policy(label), seed)
        identical &= np.array_equal(two.completion, one.completion)
    checks.append((identical, "theta=inf two-stage == single stage on n1 servers, bit-identical"))
    _report(8, checks)


def test_criterion_09_command_determinism(tmp_path):
    def run_twice(args, outputs):
        blobs = []
        for tag in ("x", "y"):
            argv = [a.format(tag=tag) for a in args]
            assert cli_main(argv) == 0
            blobs.append(tuple((tmp_path / o.format(tag=tag)).read_bytes() for o in outputs))
        return blobs[0] == blobs[1]

    gen_ok = run_twice(
        ["gen-workload", "--jobs", "500", "--cov", "2", "--rho", "0.7",
         "--seed", "4", "--out", str(tmp_path / "w{tag}.csv")],
        ["w{tag}.csv"])
    sim_ok = run_twice(
        ["simulate", "--policy", "two_stage:jiq", "--n", "3", "--rho", "0.6",
         "--cov", "2", "--jobs", "2000", "--seed", "6", "--replications", "2",
         "--theta-quantile", "0.9", "--n1", "1", "--out", str(tmp_path / "r{tag}")],
        ["r{tag}.csv", "r{tag}.json"])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "policies": ["rr", "lwl"], "n_values": [2], "rho_values": [0.5],
        "cov_values": [1.0], "jobs": 1000, "replications": 2, "base_seed": 2,
    }))
    sweep_ok = run_twice(
        ["sweep", "--plan", str(plan), "--out", str(tmp_path / "s{tag}")],
        ["s{tag}_runs.csv", "s{tag}_summary.csv", "s{tag}_summary.json"])
    _report(9, [
        (gen_ok, "gen-workload byte-identical on rerun"),
        (sim_ok, "simulate (.csv + .json) byte-identical on rerun"),
        (sweep_ok, "sweep output triplet byte-identical on rerun"),
    ])


def test_criterion_10_trace_pipeline_hand_oracle(tmp_path):
    # Six tasks, three jobs, two unit-speed servers, round robin. Hand event
    # trace: tasks in arrival order alternate servers; each server is FCFS.
    #   server 0: job0/t0 [0,3), job1/t0 [3,5), job2/t1 [5,5.5)
    #   server 1: job0/t1 [0,1), job2/t0 [1,5),  job2/t2 [5,5.5)
    # Job completions are the max over tasks: 3.0, 5.0, 5.5; responses
    # 3.0, 4.5, 4.5. Job 0 has two tasks and its response is the later task
    # completion (3.0) minus its arrival (0.0).
    trace = tmp_path / "hand.csv"
    trace.write_text(
        "job_id,arrival_time,task_index,size\n"
        "0,0.0,0,3.0\n"
        "0,0.0,1,1.0\n"
        "1,0.5,0,2.0\n"
        "2,1.0,0,4.0\n"
        "2,1.0,1,0.5\n"
        "2,1.0,2,0.5\n"
    )
    wl = ingest_trace(trace)
    config = ClusterConfig(2, 1.0, 2.0, 0.5, 1.0, 1.0)  # nominal rates; finite trace
    log = run(wl, config, parse_policy("rr"), seed=0)
    responses = log.job_responses()
    expected = np.array([3.0, 4.5, 4.5])
    completions = log.job_completions()
    _report(10, [
        (np.array_equal(completions, [3.0, 5.0, 5.5]),
         f"job completions {completions.tolist()} == [3.0, 5.0, 5.5] exactly"),
        (np.array_equal(responses, expected),
         f"job responses {responses.tolist()} == [3.0, 4.5, 4.5] exactly"),
        (responses[0] == max(log.completion[0], log.completion[1]) - wl.arrivals[0],
         "two-task job response is max task completion minus arrival"),
    ])
