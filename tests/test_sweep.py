import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchsim import sweep
from dispatchsim.cli import main

from dispatchsim.metrics import read_results_csv
from dispatchsim.sweep import (
    DEFAULT_THETA_QUANTILES,
    SweepPlan,
    SyntheticSource,
    TraceSource,
    default_n1_candidates,
    make_source,
    optimize_two_stage,
    pivot_summary,
    run_sweep,
    write_pivot_csv,
    write_sweep_outputs,
)
from dispatchsim.workload import Workload, write_trace_csv


def _plan(**overrides):
    base = dict(
        policies=("rr", "jiq"),
        n_values=(2,),
        rho_values=(0.5,),
        cov_values=(1.0,),
        jobs=3000,
        replications=2,
        base_seed=7,
    )
    base.update(overrides)
    return SweepPlan(**base)


# ---------------------------------------------------------------------------
# plan


def test_plan_json_round_trip():
    plan = _plan()
    again = SweepPlan.from_json(plan.to_json())
    assert again == plan


def test_plan_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown plan keys"):
        SweepPlan.from_json('{"policies": ["rr"], "n_values": [2], '
                            '"rho_values": [0.5], "cov_values": [1], "bogus": 1}')


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(policies=())
    with pytest.raises(ValueError):
        _plan(policies=("nope",))
    with pytest.raises(ValueError):
        _plan(policies=("two_stage:card",))
    with pytest.raises(ValueError):
        _plan(rho_values=(1.5,))
    with pytest.raises(ValueError):
        _plan(cov_values=(), trace=None)
    with pytest.raises(ValueError):
        _plan(trace="x.csv")  # both cov and trace
    with pytest.raises(ValueError):
        _plan(theta_quantiles=(0.0,))


@pytest.mark.parametrize("text,key", [
    ('{"policies": ["rr"]}', "n_values"),
    ('{"policies": ["rr"], "n_values": [2], "rho_values": ["x"], "cov_values": [1]}',
     "rho_values"),
    ('{"policies": "rr", "n_values": [2], "rho_values": [0.5], "cov_values": [1]}',
     "policies"),
    ('{"policies": ["rr"], "n_values": [2.5], "rho_values": [0.5], "cov_values": [1]}',
     "n_values"),
    ('{"policies": ["rr"], "n_values": [2], "rho_values": [0.5], "cov_values": [1], '
     '"jobs": true}', "jobs"),
])
def test_plan_json_shape_errors_name_the_key(text, key):
    with pytest.raises(ValueError, match=key):
        SweepPlan.from_json(text)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=8)
    | st.sampled_from(["rr", "lwl", "two_stage:rr", "card", "x.csv"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)
_PLAN_KEYS = st.sampled_from(["policies", "n_values", "rho_values", "cov_values", "trace",
                              "jobs", "replications", "base_seed", "warmup_fraction",
                              "mean_size", "total_capacity", "theta_quantiles",
                              "n1_candidates"]) | st.text(max_size=6)


@given(st.dictionaries(_PLAN_KEYS, _JSON, max_size=8))
@settings(max_examples=300, deadline=None)
def test_any_json_object_parses_or_fails_with_a_message(data):
    text = json.dumps(data)
    try:
        SweepPlan.from_json(text)
    except ValueError:
        pass
    else:
        return  # a valid plan; running it is out of scope here
    fd, path = tempfile.mkstemp(suffix=".json")
    err = io.StringIO()
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err):
            assert main(["sweep", "--plan", path]) == 1
    finally:
        os.unlink(path)
    assert err.getvalue().startswith("error: ")


def test_plan_labels_ignore_case_and_whitespace():
    plan = _plan(policies=(" RR", "Two_Stage:RR "), jobs=800, theta_quantiles=(0.5,))
    assert run_sweep(plan) == run_sweep(_plan(policies=("rr", "two_stage:rr"), jobs=800,
                                              theta_quantiles=(0.5,)))


def test_default_n1_candidates():
    assert default_n1_candidates(1) == []
    assert default_n1_candidates(2) == [1]
    assert default_n1_candidates(10) == list(range(1, 10))
    coarse = default_n1_candidates(64)
    assert coarse[0] == 1 and coarse[-1] == 63
    assert coarse == sorted(set(coarse))
    assert len(coarse) <= 10


# ---------------------------------------------------------------------------
# sweep execution


def test_run_sweep_shape_and_canonical_order():
    plan = _plan()
    runs, summaries = run_sweep(plan)
    assert len(runs) == 2 * 2  # 2 policies x 2 replications
    assert len(summaries) == 2
    assert [r["policy"] for r in summaries] == ["jiq", "rr"]  # sorted
    for row in summaries:
        assert row["ci_half_width"] is not None
        assert row["seed"] == 7
        assert row["normalized_mrt"] is not None
    for row in runs:
        assert row["ci_half_width"] is None


def test_run_sweep_uses_common_random_numbers():
    runs, _ = run_sweep(_plan())
    by_policy = {}
    for row in runs:
        by_policy.setdefault(row["policy"], []).append(row["seed"])
    assert by_policy["rr"] == by_policy["jiq"]  # same workloads per rep


def test_run_sweep_is_deterministic():
    a = run_sweep(_plan())
    b = run_sweep(_plan())
    assert a == b


def test_run_sweep_parallel_matches_serial():
    plan = _plan(n_values=(2, 3))
    assert run_sweep(plan, workers=1) == run_sweep(plan, workers=2)


def test_run_sweep_parallel_matches_serial_on_a_trace(tmp_path):
    # the pool receives the ingested trace pickled instead of re-reading it
    path, _ = _trace_file(tmp_path)
    plan = SweepPlan(
        policies=("card", "two_stage:jiq", "two_stage:lwl"), n_values=(2, 3),
        rho_values=(0.6,), trace=str(path), jobs=40, replications=2, base_seed=1,
        theta_quantiles=(0.5, 0.9),
    )
    serial = run_sweep(plan, workers=1)
    assert serial == run_sweep(plan, workers=2)
    assert {row["policy"] for row in serial[1]} == set(plan.policies)


def test_serial_trace_sweep_ingests_the_trace_once(tmp_path, monkeypatch):
    path, _ = _trace_file(tmp_path)
    calls = []
    ingest = sweep.ingest_trace
    monkeypatch.setattr(sweep, "ingest_trace", lambda p: calls.append(p) or ingest(p))
    plan = SweepPlan(
        policies=("rr", "lwl", "two_stage:rr"), n_values=(2, 3), rho_values=(0.5, 0.7),
        trace=str(path), jobs=40, replications=1, base_seed=1, theta_quantiles=(0.5,),
    )
    _, summaries = run_sweep(plan)
    assert len(summaries) == 3 * 2 * 2
    assert calls == [str(path)]


def test_run_sweep_two_stage_label_emits_optimum_only():
    plan = _plan(
        policies=("two_stage:rr",),
        cov_values=(2.0,),
        jobs=1500,
        theta_quantiles=(0.5, 0.9),
        n1_candidates=(1,),
    )
    runs, summaries = run_sweep(plan)
    assert len(summaries) == 1
    row = summaries[0]
    assert row["policy"] == "two_stage:rr"
    assert row["theta"] is not None and row["n1"] == 1
    assert len(runs) == plan.replications


def test_write_sweep_outputs_round_trip(tmp_path):
    plan = _plan()
    runs, summaries = run_sweep(plan)
    prefix = tmp_path / "out"
    paths = write_sweep_outputs(plan, runs, summaries, prefix)
    rows, echo = read_results_csv(paths[0])
    assert rows == runs
    assert echo["policies"] == "rr,jiq"
    data = json.loads((tmp_path / "out_summary.json").read_text())
    assert len(data["results"]) == 2
    # rerun writes byte-identical files
    paths2 = write_sweep_outputs(plan, runs, summaries, tmp_path / "again")
    assert (tmp_path / "out_runs.csv").read_bytes() == (tmp_path / "again_runs.csv").read_bytes()


# ---------------------------------------------------------------------------
# sources


def test_synthetic_source_workload_depends_only_on_seed():
    src = SyntheticSource(1.0)
    a = src.workload(2, 0.5, 100, rep_seed=3)
    b = src.workload(4, 0.5, 100, rep_seed=3)  # n does not enter generation
    assert a == b
    c = src.workload(2, 0.5, 100, rep_seed=4)
    assert a != c


def _trace_file(tmp_path):
    ids = range(40)
    wl = Workload.from_tasks(ids, [i * 0.5 for i in ids], [0] * 40,
                             [0.5 + (i % 3) * 0.25 for i in ids], source="trace")
    path = tmp_path / "t.csv"
    write_trace_csv(wl, path)
    return path, wl


def test_trace_source_fixed_workload_and_calibration(tmp_path):
    path, wl = _trace_file(tmp_path)
    src = TraceSource.from_file(path)
    assert src.workload(2, 0.5, 10**6, rep_seed=1) == wl
    cfg = src.config(2, 0.5)
    assert cfg.target_rho == 0.5
    # offered load at calibrated speed equals the target
    offered = wl.total_work / wl.horizon / cfg.total_capacity
    assert offered == pytest.approx(0.5, rel=1e-12)
    assert src.baseline() is None


def test_make_source_picks_exactly_one_workload(tmp_path):
    path, wl = _trace_file(tmp_path)
    assert isinstance(make_source(2.0, None, 100), SyntheticSource)
    src = make_source(None, path, 10)
    assert isinstance(src, TraceSource)
    assert src.workload(2, 0.5, 10, rep_seed=1) == wl.truncated(10)
    assert make_source(None, path).workload(2, 0.5, 10, rep_seed=1) == wl
    with pytest.raises(ValueError, match="exactly one"):
        make_source(None, None, 10)
    with pytest.raises(ValueError, match="exactly one"):
        make_source(1.0, path, 10)
    with pytest.raises(ValueError, match="jobs"):
        make_source(1.0, None, 0)


def test_trace_sweep_has_no_normalized_column(tmp_path):
    path, _ = _trace_file(tmp_path)
    plan = SweepPlan(
        policies=("rr",), n_values=(2,), rho_values=(0.6,),
        trace=str(path), jobs=40, replications=2, base_seed=1,
    )
    runs, summaries = run_sweep(plan)
    assert all(r["normalized_mrt"] is None for r in runs + summaries)
    assert all(r["cov"] is None for r in runs + summaries)


# ---------------------------------------------------------------------------
# two-stage optimization


def test_optimizer_explores_full_grid_with_paired_workloads():
    src = SyntheticSource(2.0)
    opt = optimize_two_stage(
        "rr", 3, 0.5, src,
        theta_quantiles=(0.5, 0.9),
        n1_candidates=(1, 2),
        replications=2,
        jobs=1500,
        base_seed=3,
    )
    assert len(opt.table) == 4
    assert {(row["theta_quantile"], row["n1"]) for row in opt.table} == {
        (0.5, 1), (0.5, 2), (0.9, 1), (0.9, 2),
    }
    best = min(
        opt.table,
        key=lambda r: (r["mrt_seconds"], -r["theta"], -r["n1"]),
    )
    assert opt.theta == best["theta"] and opt.n1 == best["n1"]
    assert opt.summary.mean_mrt_seconds == best["mrt_seconds"]
    assert len(opt.summary.results) == 2


def test_optimizer_tie_break_prefers_larger_theta_then_larger_n1():
    # degenerate grid where all pairs see identical responses is hard to
    # build; instead check the deterministic key on the recorded table
    src = SyntheticSource(1.0)
    opt = optimize_two_stage(
        "rr", 3, 0.5, src,
        theta_quantiles=(0.5,),
        n1_candidates=(1, 2),
        replications=1,
        jobs=800,
        base_seed=5,
    )
    keys = [(r["mrt_seconds"], -r["theta"], -r["n1"]) for r in opt.table]
    assert min(keys) == (opt.summary.mean_mrt_seconds, -opt.theta, -opt.n1)


def test_optimizer_builds_each_replication_workload_once():
    src = SyntheticSource(2.0)
    with mock.patch.object(src, "workload", wraps=src.workload) as spy:
        opt = optimize_two_stage("rr", 4, 0.6, src, theta_quantiles=(0.5, 0.9, 0.99),
                                 n1_candidates=(1, 2, 3), replications=2, jobs=500,
                                 base_seed=8)
    assert len(opt.table) == 9
    assert spy.call_count == 2


def test_optimizer_validation():
    src = SyntheticSource(1.0)
    with pytest.raises(ValueError, match="n >= 2"):
        optimize_two_stage("rr", 1, 0.5, src)
    with pytest.raises(ValueError, match="outside"):
        optimize_two_stage("rr", 3, 0.5, src, n1_candidates=(3,))
    with pytest.raises(ValueError, match="theta quantiles"):
        optimize_two_stage("rr", 3, 0.5, src, theta_quantiles=())


# ---------------------------------------------------------------------------
# pivots


def _summary_rows():
    def row(policy, rho, norm):
        return {
            "policy": policy, "n": 10, "rho": rho, "theta": None, "n1": None,
            "cov": 1.0, "seed": 1, "mrt_seconds": norm * 5, "normalized_mrt": norm,
            "ci_half_width": 0.1,
        }
    return [
        row("rr", 0.5, 2.0), row("rr", 0.8, 5.0),
        row("lwl", 0.5, 1.1), row("lwl", 0.8, 2.2),
    ]


def test_pivot_by_rho():
    header, table = pivot_summary(_summary_rows(), "rho")
    assert header == ["rho", "lwl", "rr"]
    assert table == [[0.5, 1.1, 2.0], [0.8, 2.2, 5.0]]


def test_pivot_rejects_mixed_other_axis():
    rows = _summary_rows()
    rows[0]["n"] = 20
    with pytest.raises(ValueError, match="not single-valued"):
        pivot_summary(rows, "rho")


def test_pivot_rejects_missing_cells():
    rows = _summary_rows()[:3]
    with pytest.raises(ValueError, match="missing"):
        pivot_summary(rows, "rho")


def test_pivot_falls_back_to_seconds_without_baseline():
    rows = _summary_rows()
    for r in rows:
        r["normalized_mrt"] = None
    header, table = pivot_summary(rows, "rho")
    assert table[0][1] == pytest.approx(5.5)  # lwl mrt_seconds


def test_pivot_csv_write(tmp_path):
    header, table = pivot_summary(_summary_rows(), "rho")
    path = tmp_path / "fig.csv"
    write_pivot_csv(path, header, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,lwl,rr"
    assert lines[1] == "0.5,1.1,2.0"
