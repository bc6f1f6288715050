import json
import math

import pytest

from dispatchsim.cli import main
from dispatchsim.analysis import WeibullDistribution, card_thresholds
from dispatchsim.randomness import replication_seed
from dispatchsim.workload import fit_weibull


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.strip().count("\n") == 0


def _small_trace(tmp_path, capsys):
    trace = tmp_path / "w.csv"
    assert _run(capsys, "gen-workload", "--jobs", "50", "--cov", "1", "--rho", "0.5",
                "--seed", "2", "--out", str(trace))[0] == 0
    return str(trace)


def _parse_kv(line):
    out = {}
    for part in line.strip().split():
        k, v = part.split("=", 1)
        out[k] = v
    return out


# ---------------------------------------------------------------------------
# global behavior


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "dispatchsim" in capsys.readouterr().out


def test_errors_are_single_line_on_stderr(capsys):
    code, out, err = _run(capsys, "fit-weibull", "--mean", "0", "--cov", "1")
    assert code == 1
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0
    assert out == ""


# ---------------------------------------------------------------------------
# fit-weibull


def test_fit_weibull_output(capsys):
    code, out, _ = _run(capsys, "fit-weibull", "--mean", "1", "--cov", "10")
    assert code == 0
    kv = _parse_kv(out)
    params = fit_weibull(1.0, 10.0)
    assert float(kv["scale_a"]) == params.scale_a
    assert float(kv["shape_b"]) == params.shape_b


# ---------------------------------------------------------------------------
# gen-workload / ingest-trace


def test_gen_and_ingest_round_trip(tmp_path, capsys):
    trace = tmp_path / "w.csv"
    code, out, _ = _run(
        capsys, "gen-workload", "--jobs", "200", "--cov", "1", "--rho", "0.5",
        "--seed", "9", "--out", str(trace),
    )
    assert code == 0
    assert _parse_kv(out)["jobs"] == "200"

    code, out, _ = _run(capsys, "ingest-trace", "--trace", str(trace))
    assert code == 0
    kv = _parse_kv(out)
    assert kv["jobs"] == "200"
    assert kv["tasks"] == "200"
    assert kv["single_task_fraction"] == "1.0"


def test_gen_workload_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _run(capsys, "gen-workload", "--jobs", "100", "--cov", "2", "--rho", "0.7",
         "--seed", "3", "--out", str(a))
    _run(capsys, "gen-workload", "--jobs", "100", "--cov", "2", "--rho", "0.7",
         "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sizes_summing_past_float64_are_an_error(tmp_path, capsys):
    trace = tmp_path / "big.csv"
    trace.write_text("job_id,arrival_time,task_index,size\n1,0.0,0,1e308\n2,1.0,0,1e308\n")
    _assert_one_error_line(*_run(capsys, "ingest-trace", "--trace", str(trace)))
    _assert_one_error_line(*_run(capsys, "simulate", "--trace", str(trace), "--policy", "rr",
                                 "--n", "2", "--rho", "0.5", "--seed", "1"))


def test_non_finite_capacity_is_an_error(tmp_path, capsys):
    _assert_one_error_line(*_run(capsys, "simulate", "--policy", "lwl", "--n", "3", "--rho", "0.5",
                                 "--cov", "10", "--jobs", "50", "--seed", "1", "--capacity", "inf"))
    plan = tmp_path / "plan.json"
    plan.write_text('{"policies": ["rr"], "n_values": [2], "rho_values": [0.5], '
                    '"cov_values": [1.0], "jobs": 50, "replications": 1, '
                    '"total_capacity": 1e400}')
    _assert_one_error_line(*_run(capsys, "sweep", "--plan", str(plan)))
    out = tmp_path / "w.csv"
    _assert_one_error_line(*_run(capsys, "gen-workload", "--jobs", "50", "--cov", "1",
                                 "--rho", "0.5", "--seed", "1", "--capacity", "inf",
                                 "--out", str(out)))
    assert not out.exists()


def test_ingest_trace_reports_line_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("job_id,arrival_time,task_index,size\n1,0.0,0,-1\n")
    code, _, err = _run(capsys, "ingest-trace", "--trace", str(bad))
    assert code == 1
    assert "line 2" in err


# ---------------------------------------------------------------------------
# card-thresholds


def test_card_thresholds_json_matches_library(tmp_path, capsys):
    out_file = tmp_path / "th.json"
    code, out, _ = _run(
        capsys, "card-thresholds", "--n", "2", "--rho", "0.4", "--cov", "1",
        "--out", str(out_file),
    )
    assert code == 0
    payload = json.loads(out)
    th = card_thresholds(WeibullDistribution(fit_weibull(1.0, 1.0)), 2, 0.4)
    assert payload["m"] == list(th.m)
    assert payload["c"] == list(th.c)
    assert json.loads(out_file.read_text()) == payload


def test_card_thresholds_needs_cov_or_trace(capsys):
    _assert_one_error_line(*_run(capsys, "card-thresholds", "--n", "2", "--rho", "0.4"))


def test_card_thresholds_rejects_both_cov_and_trace(tmp_path, capsys):
    trace = _small_trace(tmp_path, capsys)
    _assert_one_error_line(*_run(capsys, "card-thresholds", "--n", "2", "--rho", "0.4",
                                 "--cov", "1", "--trace", trace))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_synthetic_prints_normalized(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "simulate", "--policy", "lwl", "--n", "2", "--rho", "0.5",
        "--cov", "1", "--jobs", "2000", "--seed", "5",
    )
    assert code == 0
    kv = _parse_kv(out)
    assert kv["policy"] == "lwl"
    assert float(kv["normalized_mrt"]) > 0
    assert "mrt_hours" not in kv


def test_simulate_writes_result_files(tmp_path, capsys):
    prefix = tmp_path / "res"
    code, _, _ = _run(
        capsys, "simulate", "--policy", "rr", "--n", "2", "--rho", "0.5",
        "--cov", "1", "--jobs", "2000", "--seed", "5",
        "--replications", "2", "--out", str(prefix),
    )
    assert code == 0
    csv_text = (tmp_path / "res.csv").read_text()
    assert csv_text.startswith("# capacity=")
    assert "policy,n,rho,theta,n1,cov,seed" in csv_text
    data = json.loads((tmp_path / "res.json").read_text())
    assert len(data["results"]) == 3  # 2 replications + summary


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    args = ["simulate", "--policy", "jiq", "--n", "3", "--rho", "0.6",
            "--cov", "2", "--jobs", "1500", "--seed", "8", "--replications", "2"]
    _run(capsys, *args, "--out", str(tmp_path / "a"))
    _run(capsys, *args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_two_stage_flags(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "simulate", "--policy", "two_stage:rr", "--n", "2", "--rho", "0.5",
        "--cov", "2", "--jobs", "1500", "--seed", "5",
        "--theta-quantile", "0.9", "--n1", "1",
    )
    assert code == 0
    kv = _parse_kv(out)
    dist = WeibullDistribution(fit_weibull(1.0, 2.0))
    assert float(kv["theta"]) == dist.quantile(0.9)
    assert kv["n1"] == "1"


def test_simulate_trace_with_mu_reproduces_synthetic_run(tmp_path, capsys):
    # generating a workload to CSV and replaying it through the trace path at
    # the synthetic per-server speed must give the identical mean response
    seed = 21
    rep0 = replication_seed(seed, 0)
    trace = tmp_path / "w.csv"
    _run(capsys, "gen-workload", "--jobs", "2000", "--cov", "1", "--rho", "0.5",
         "--seed", str(rep0), "--out", str(trace))
    code, out_syn, _ = _run(
        capsys, "simulate", "--policy", "rr", "--n", "4", "--rho", "0.5",
        "--cov", "1", "--jobs", "2000", "--seed", str(seed),
    )
    assert code == 0
    code, out_tr, _ = _run(
        capsys, "simulate", "--policy", "rr", "--n", "4", "--mu", "0.25",
        "--trace", str(trace), "--jobs", "2000", "--seed", str(seed),
    )
    assert code == 0
    assert _parse_kv(out_syn)["mrt_seconds"] == _parse_kv(out_tr)["mrt_seconds"]
    assert "mrt_hours" in _parse_kv(out_tr)


def test_simulate_trace_rejects_zero_jobs(tmp_path, capsys):
    trace = _small_trace(tmp_path, capsys)
    code, out, err = _run(capsys, "simulate", "--policy", "rr", "--n", "2", "--rho", "0.5",
                          "--trace", trace, "--jobs", "0", "--seed", "1")
    _assert_one_error_line(code, out, err)
    assert "jobs" in err


def test_simulate_flag_validation(tmp_path, capsys):
    base = ["simulate", "--policy", "rr", "--n", "2", "--jobs", "100", "--seed", "1"]
    # neither cov nor trace
    code, _, err = _run(capsys, *base, "--rho", "0.5")
    assert code == 1 and "error:" in err
    # both theta and quantile
    code, _, err = _run(
        capsys, "simulate", "--policy", "two_stage:rr", "--n", "2", "--rho", "0.5",
        "--cov", "1", "--jobs", "100", "--seed", "1",
        "--theta", "1", "--theta-quantile", "0.5", "--n1", "1",
    )
    assert code == 1 and "exactly one" in err
    # two-stage without n1
    code, _, err = _run(
        capsys, "simulate", "--policy", "two_stage:rr", "--n", "2", "--rho", "0.5",
        "--cov", "1", "--jobs", "100", "--seed", "1", "--theta", "1",
    )
    assert code == 1 and "--n1" in err
    # stray theta on single-stage
    code, _, err = _run(
        capsys, *base, "--rho", "0.5", "--cov", "1", "--theta", "1",
    )
    assert code == 1 and "two_stage" in err
    # mu with synthetic
    code, _, err = _run(
        capsys, *base, "--rho", "0.5", "--cov", "1", "--mu", "0.5",
    )
    assert code == 1 and "--mu" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_plan_execution_and_figure(tmp_path, capsys):
    plan = {
        "policies": ["rr", "jiq"],
        "n_values": [2],
        "rho_values": [0.4, 0.6],
        "cov_values": [1.0],
        "jobs": 1200,
        "replications": 2,
        "base_seed": 3,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, _ = _run(
        capsys, "sweep", "--plan", str(plan_path), "--out", str(tmp_path / "s"),
        "--figure", "rho-curve", "--figure-out", str(tmp_path / "fig.csv"),
    )
    assert code == 0
    assert (tmp_path / "s_runs.csv").exists()
    assert (tmp_path / "s_summary.csv").exists()
    assert (tmp_path / "s_summary.json").exists()
    fig = (tmp_path / "fig.csv").read_text().splitlines()
    assert fig[0] == "rho,jiq,rr"
    assert len(fig) == 3

    # byte-identical rerun
    code, _, _ = _run(
        capsys, "sweep", "--plan", str(plan_path), "--out", str(tmp_path / "t"),
    )
    assert code == 0
    assert (tmp_path / "s_runs.csv").read_bytes() == (tmp_path / "t_runs.csv").read_bytes()
    assert (tmp_path / "s_summary.csv").read_bytes() == (tmp_path / "t_summary.csv").read_bytes()


def _tiny_plan(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "policies": ["rr"], "n_values": [2], "rho_values": [0.5],
        "cov_values": [1.0], "jobs": 500, "replications": 1, "base_seed": 1,
    }))
    return str(plan_path)


@pytest.mark.parametrize("flag,value,needs", [
    ("--figure", "rho-curve", "--figure-out"),
    ("--figure-out", "fig.csv", "--figure"),
], ids=["figure-without-out", "out-without-figure"])
def test_sweep_figure_requires_out_path(tmp_path, capsys, monkeypatch, flag, value, needs):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, "sweep", "--plan", _tiny_plan(tmp_path), flag, value)
    _assert_one_error_line(code, out, err)
    assert err.endswith(f"needs {needs}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]  # nothing written


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    code, out, err = _run(capsys, "sweep", "--plan", _tiny_plan(tmp_path), "--workers", workers)
    _assert_one_error_line(code, out, err)
    assert "workers must be >= 1" in err


# ---------------------------------------------------------------------------
# optimize-two-stage


def test_optimize_two_stage_cli(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "optimize-two-stage", "--inner", "rr", "--n", "3", "--rho", "0.5",
        "--cov", "2", "--jobs", "1200", "--seed", "4", "--replications", "2",
        "--quantiles", "0.5,0.9", "--n1-candidates", "1,2",
        "--out", str(tmp_path / "opt"),
    )
    assert code == 0
    kv = _parse_kv(out)
    assert kv["inner"] == "rr"
    assert int(kv["n1"]) in (1, 2)
    table = (tmp_path / "opt_table.csv").read_text().splitlines()
    header = next(l for l in table if not l.startswith("#")).split(",")
    assert header[-1] == "theta_quantile"
    data_rows = [l for l in table if not l.startswith("#") and not l.startswith("policy")]
    assert len(data_rows) == 4
    optimum = json.loads((tmp_path / "opt_optimum.json").read_text())
    assert optimum["optimum"]["theta_quantile"] in (0.5, 0.9)


def test_optimize_two_stage_rejects_empty_grids(capsys):
    base = ["optimize-two-stage", "--inner", "rr", "--n", "3", "--rho", "0.5", "--cov", "2",
            "--jobs", "200", "--seed", "4"]
    code, out, err = _run(capsys, *base, "--quantiles", "")
    _assert_one_error_line(code, out, err)
    assert "theta quantiles" in err
    code, out, err = _run(capsys, *base, "--n1-candidates", "")
    _assert_one_error_line(code, out, err)
    assert "n1 candidates" in err
