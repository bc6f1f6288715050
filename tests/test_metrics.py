import json
import math
from unittest import mock

import numpy as np
import pytest
from scipy.stats import t as student_t

from dispatchsim.analysis import WeibullDistribution, mg1_mean_response
from dispatchsim.engine import run
from dispatchsim.metrics import (
    RESULT_FIELDS,
    ReplicationSummary,
    RunResult,
    read_results_csv,
    replicate_and_summarize,
    result_row,
    summarize_replications,
    summarize_run,
    warmup_job_count,
    write_results_csv,
    write_results_json,
)
from dispatchsim.policies import parse_policy
from dispatchsim.randomness import replication_seed
from dispatchsim.sweep import SyntheticSource
from dispatchsim.workload import ClusterConfig, fit_weibull, generate_poisson_weibull


def _tiny_log(jobs=200, seed=4, cov=1.0, policy="rr"):
    params = fit_weibull(1.0, cov)
    cfg = ClusterConfig.synthetic(2, 0.6)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, jobs, seed)
    return run(wl, cfg, parse_policy(policy), seed), params


# ---------------------------------------------------------------------------
# warm-up


def test_warmup_job_count_defaults_to_ten_percent():
    assert warmup_job_count(1000) == 100
    assert warmup_job_count(1005) == 100  # floor
    assert warmup_job_count(9) == 0
    assert warmup_job_count(1000, 0.25) == 250
    with pytest.raises(ValueError):
        warmup_job_count(10, 1.0)
    with pytest.raises(ValueError):
        warmup_job_count(10, -0.1)


def test_warmup_is_policy_independent():
    # the same leading jobs are dropped whatever the policy chose
    log_a, _ = _tiny_log(policy="rr")
    log_b, _ = _tiny_log(policy="lwl")
    ra = summarize_run(log_a)
    rb = summarize_run(log_b)
    assert ra.warmup_jobs == rb.warmup_jobs == 20


# ---------------------------------------------------------------------------
# summarize_run


def test_summarize_run_matches_manual_mean():
    log, params = _tiny_log()
    res = summarize_run(log)
    resp = log.job_responses()[20:]
    assert res.mrt_seconds == pytest.approx(float(resp.mean()), rel=0, abs=0)
    assert res.job_count == 180
    assert res.incomplete_jobs == 0
    assert res.normalized_mrt is None
    assert res.policy == "rr"


def test_summarize_run_normalizes_against_baseline():
    log, params = _tiny_log()
    dist = WeibullDistribution(params)
    res = summarize_run(log, baseline=dist, cov=1.0)
    base = mg1_mean_response(dist, log.config.arrival_rate, log.config.total_capacity)
    assert res.normalized_mrt == pytest.approx(res.mrt_seconds / base)
    assert res.cov == 1.0


def test_summarize_run_skips_unfinished_jobs():
    params = fit_weibull(1.0, 1.0)
    cfg = ClusterConfig.synthetic(1, 0.5)
    wl = generate_poisson_weibull(cfg.arrival_rate, params, 50, 3)
    log = run(wl, cfg, parse_policy("rr"), 3, horizon=float(wl.arrivals[30]))
    res = summarize_run(log, warmup_fraction=0.0)
    assert res.incomplete_jobs > 0
    assert res.job_count + res.incomplete_jobs == 50


# ---------------------------------------------------------------------------
# replication summaries


def _fake_result(mrt, seed=0, norm=None):
    cfg = ClusterConfig.synthetic(2, 0.5)
    return RunResult(
        policy="rr", config=cfg, seed=seed, job_count=100, warmup_jobs=10,
        incomplete_jobs=0, mrt_seconds=mrt, normalized_mrt=norm,
    )


def test_summary_mean_and_student_t_interval():
    mrts = [4.0, 5.0, 6.0, 7.0]
    s = summarize_replications([_fake_result(m) for m in mrts])
    assert s.mean_mrt_seconds == pytest.approx(5.5)
    se = np.std(mrts, ddof=1) / math.sqrt(4)
    expected = float(student_t.ppf(0.975, 3)) * se
    assert s.ci_half_width == pytest.approx(expected, rel=1e-12)
    assert s.mean_normalized_mrt is None


def test_summary_is_permutation_invariant():
    results = [_fake_result(m, seed=i) for i, m in enumerate([3.0, 9.0, 6.0])]
    a = summarize_replications(results)
    b = summarize_replications(reversed(results))
    assert a.mean_mrt_seconds == b.mean_mrt_seconds
    assert a.ci_half_width == b.ci_half_width


def test_summary_single_replication_has_no_interval():
    s = summarize_replications([_fake_result(5.0)])
    assert s.ci_half_width is None
    assert s.mean_mrt_seconds == 5.0


def test_summary_normalized_mean_when_all_present():
    s = summarize_replications(
        [_fake_result(4.0, norm=2.0), _fake_result(6.0, norm=3.0)]
    )
    assert s.mean_normalized_mrt == pytest.approx(2.5)


def test_replicate_and_summarize_derives_distinct_seeds():
    src = SyntheticSource(1.0)
    with mock.patch.object(src, "workload", wraps=src.workload) as spy:
        [s] = replicate_and_summarize(src, src.config(2, 0.6), [parse_policy("rr")], 0.6, 200,
                                      base_seed=42, replications=4, warmup_fraction=0.1)
    seeds = [c.args[3] for c in spy.call_args_list]
    assert len(set(seeds)) == 4
    assert seeds == [replication_seed(42, r) for r in range(4)]
    assert [r.seed for r in s.results] == seeds
    assert s.replications == 4


def test_replicate_and_summarize_specs_match_one_spec_calls():
    # the specs of one call share each replication's workload; that must not
    # change any summary against evaluating each spec on its own
    src = SyntheticSource(2.0)
    cfg = src.config(3, 0.7)
    specs = [parse_policy("lwl"),
             parse_policy("two_stage:rr", theta=src.distribution().quantile(0.9), n1=1)]
    point = (0.7, 600, 9, 3, 0.1)
    both = replicate_and_summarize(src, cfg, specs, *point)
    alone = [replicate_and_summarize(src, cfg, [spec], *point)[0] for spec in specs]
    assert both == alone
    assert both[0].mean_mrt_seconds != both[1].mean_mrt_seconds


# ---------------------------------------------------------------------------
# serialization


def _rows():
    r1 = result_row(_fake_result(5.25, seed=11))
    r2 = result_row(_fake_result(6.5, seed=12, norm=1.3), ci_half_width=0.25)
    r2["theta"] = 2.5
    r2["n1"] = 1
    r2["cov"] = 10.0
    return [r1, r2]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "results.csv"
    rows = _rows()
    write_results_csv(path, rows, {"command": "test", "jobs": 100})
    back, echo = read_results_csv(path)
    assert echo == {"command": "test", "jobs": "100"}
    assert back == rows
    # rewrite must be byte-identical
    path2 = tmp_path / "again.csv"
    write_results_csv(path2, rows, {"command": "test", "jobs": 100})
    assert path.read_bytes() == path2.read_bytes()


def test_csv_empty_cells_for_inapplicable_fields(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(path, _rows())
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS)
    first = lines[1].split(",")
    # theta, n1, cov, normalized, ci are all empty on the plain row
    assert first[3] == "" and first[4] == "" and first[5] == ""
    assert first[8] == "" and first[9] == ""


def test_json_round_trip(tmp_path):
    path = tmp_path / "results.json"
    write_results_json(path, _rows(), {"command": "test"})
    data = json.loads(path.read_text())
    assert data["config"] == {"command": "test"}
    assert len(data["results"]) == 2
    assert data["results"][0]["normalized_mrt"] is None
    assert data["results"][1]["theta"] == 2.5


def test_json_serializes_infinite_theta(tmp_path):
    row = result_row(_fake_result(5.0))
    row["theta"] = math.inf
    path = tmp_path / "results.json"
    write_results_json(path, [row])
    assert json.loads(path.read_text())["results"][0]["theta"] == "inf"
