import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dispatchsim.cli import main as cli_main
from dispatchsim.workload import (
    ClusterConfig,
    TraceFormatError,
    WeibullParams,
    Workload,
    calibrate_mu,
    fit_weibull,
    generate_poisson_weibull,
    ingest_trace,
    weibull_inverse,
    write_trace_csv,
)
from dispatchsim.randomness import workload_rng


# ---------------------------------------------------------------------------
# Weibull fitting


def _oracle_shape(cov: float) -> float:
    """Independent root-find for the moment-ratio equation using plain
    bisection on math.lgamma (no scipy, no shared code with the fit)."""
    target = math.log(1.0 + cov * cov)

    def gap(b):
        return math.lgamma(1.0 + 2.0 / b) - 2.0 * math.lgamma(1.0 + 1.0 / b) - target

    lo, hi = 1e-6, 1e9
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


@pytest.mark.parametrize("cov", [0.3, 0.5, 2.0, 5.0, 10.0])
def test_fit_matches_independent_bisection(cov):
    params = fit_weibull(1.0, cov)
    assert params.shape_b == pytest.approx(_oracle_shape(cov), rel=1e-9)


def test_fit_exponential_is_exact():
    params = fit_weibull(1.0, 1.0)
    assert abs(params.scale_a - 1.0) <= 1e-10
    assert abs(params.shape_b - 1.0) <= 1e-10


def test_fit_mean_scaling():
    params = fit_weibull(7.5, 3.0)
    assert params.mean == pytest.approx(7.5, rel=1e-12)
    assert params.cov == pytest.approx(3.0, rel=1e-10)


def test_fit_heavy_tail_reference_values():
    # frozen values for the cov=10 law used throughout the heavy-tail runs
    params = fit_weibull(1.0, 10.0)
    assert params.shape_b == pytest.approx(0.2332067589162967, rel=1e-12)
    assert params.scale_a == pytest.approx(0.026759401341532887, rel=1e-12)
    assert params.second_moment == pytest.approx(101.0, rel=1e-9)


def test_fit_rejects_bad_inputs():
    for mean, cov in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                      (math.inf, 1.0), (1.0, math.nan)]:
        with pytest.raises(ValueError):
            fit_weibull(mean, cov)


def test_weibull_moments_match_quadrature():
    # dual route: closed-form moments vs adaptive quadrature of x^k f(x)
    params = fit_weibull(1.0, 10.0)
    a, b = params.scale_a, params.shape_b

    def pdf(x):
        return (b / a) * (x / a) ** (b - 1.0) * math.exp(-((x / a) ** b))

    mean, _ = quad(lambda x: x * pdf(x), 0, np.inf, limit=200)
    second, _ = quad(lambda x: x * x * pdf(x), 0, np.inf, limit=200)
    assert params.mean == pytest.approx(mean, rel=1e-8)
    assert params.second_moment == pytest.approx(second, rel=1e-6)


# ---------------------------------------------------------------------------
# Sampling


def test_inversion_sampler_matches_ccdf_at_quantiles():
    params = fit_weibull(1.0, 2.0)
    rng = workload_rng(31)
    u = rng.random(1_000_000)
    u[u == 0.0] = 0.5
    x = weibull_inverse(params, u)
    for q in (0.5, 0.9, 0.99):
        cutoff = params.scale_a * (-math.log1p(-q)) ** (1.0 / params.shape_b)
        frac_above = float(np.mean(x > cutoff))
        # binomial 4-sigma band around 1-q
        tol = 4.0 * math.sqrt(q * (1.0 - q) / len(x))
        assert abs(frac_above - (1.0 - q)) < tol


def test_generate_poisson_weibull_shape_and_determinism():
    params = fit_weibull(1.0, 1.0)
    wl1 = generate_poisson_weibull(0.8, params, 5000, seed=3)
    wl2 = generate_poisson_weibull(0.8, params, 5000, seed=3)
    assert wl1 == wl2
    assert wl1.job_count == 5000
    assert wl1.task_count == 5000
    assert wl1.source == "synthetic"
    assert wl1.horizon == wl1.arrivals[-1]
    assert np.array_equal(wl1.job_ids, np.arange(5000))
    assert np.all(np.diff(wl1.arrivals) >= 0)
    gaps = np.diff(np.concatenate([[0.0], wl1.arrivals]))
    assert gaps.mean() == pytest.approx(1.0 / 0.8, rel=0.05)
    assert wl1.task_sizes.mean() == pytest.approx(1.0, rel=0.05)


def test_generate_different_seeds_differ():
    params = fit_weibull(1.0, 1.0)
    assert generate_poisson_weibull(0.8, params, 100, 1) != generate_poisson_weibull(
        0.8, params, 100, 2
    )


def test_generate_rejects_bad_args():
    params = fit_weibull(1.0, 1.0)
    with pytest.raises(ValueError):
        generate_poisson_weibull(0.0, params, 10, 1)
    with pytest.raises(ValueError):
        generate_poisson_weibull(1.0, params, 0, 1)


# ---------------------------------------------------------------------------
# Workload container


def _tasks_fixture():
    """Per-task columns (job_id, arrival, task_index, size) of three jobs."""
    return ([11, 11, 12, 13], [0.0, 0.0, 1.5, 1.5], [0, 1, 0, 0], [2.0, 1.0, 0.5, 3.0])


def _jobs(wl):
    """Each job as (job_id, arrival, [(task_index, size), ...])."""
    return [(int(wl.job_ids[i]), float(wl.arrivals[i]),
             list(zip(wl.task_indices[lo:hi].tolist(), wl.task_sizes[lo:hi].tolist())))
            for i, (lo, hi) in enumerate(zip(wl.task_offsets[:-1], wl.task_offsets[1:]))]


def test_from_tasks_round_trip():
    wl = Workload.from_tasks(*_tasks_fixture(), horizon=4.0, source="trace")
    assert wl.job_count == 3
    assert wl.task_count == 4
    assert wl.total_work == pytest.approx(6.5)
    assert wl.horizon == 4.0
    assert _jobs(wl) == [(11, 0.0, [(0, 2.0), (1, 1.0)]), (12, 1.5, [(0, 0.5)]),
                         (13, 1.5, [(0, 3.0)])]


def test_from_tasks_sorts_stably_by_arrival():
    wl = Workload.from_tasks([2, 3, 4], [5.0, 1.0, 5.0], [0, 0, 0], [1.0, 1.0, 1.0])
    assert list(wl.job_ids) == [3, 2, 4]  # ties keep list order
    assert wl.horizon == 5.0


def test_from_tasks_groups_rows_split_by_another_job():
    # job 7's rows are split by job 5's rows; job 5 arrives at the same
    # instant but appears later, so it sorts after job 7
    wl = Workload.from_tasks([7, 5, 7, 5, 9], [2.0, 2.0, 2.0, 2.0, 1.0], [1, 0, 0, 1, 0],
                             [1.0, 2.0, 3.0, 4.0, 5.0])
    assert _jobs(wl) == [(9, 1.0, [(0, 5.0)]), (7, 2.0, [(1, 1.0), (0, 3.0)]),
                         (5, 2.0, [(0, 2.0), (1, 4.0)])]
    assert list(wl.task_offsets) == [0, 1, 3, 5]


def test_from_tasks_rejects_bad_columns():
    with pytest.raises(ValueError, match="at least one job"):
        Workload.from_tasks([], [], [], [])
    with pytest.raises(ValueError, match="lengths"):
        Workload.from_tasks([1, 1], [0.0, 0.0], [0, 1], [1.0])
    with pytest.raises(ValueError, match="share its arrival"):
        Workload.from_tasks([1, 1], [0.0, 1.0], [0, 1], [1.0, 1.0])


def test_task_arrays_expand_multi_task_jobs():
    wl = Workload.from_tasks(*_tasks_fixture())
    t_arr, t_size, t_job = wl.task_arrays()
    assert list(t_arr) == [0.0, 0.0, 1.5, 1.5]
    assert list(t_size) == [2.0, 1.0, 0.5, 3.0]
    assert list(t_job) == [0, 0, 1, 2]


def test_truncated_keeps_prefix():
    wl = Workload.from_tasks(*_tasks_fixture())
    cut = wl.truncated(2)
    assert cut.job_count == 2
    assert cut.task_count == 3
    assert cut.horizon == 1.5
    assert wl.truncated(99) is wl
    with pytest.raises(ValueError):
        wl.truncated(0)


def test_workload_validation_errors():
    ids = np.array([0])
    offs = np.array([0, 1])
    idx = np.array([0])
    with pytest.raises(ValueError):
        Workload(ids, np.array([-1.0]), offs, np.array([1.0]), idx, 1.0, "x")
    with pytest.raises(ValueError):
        Workload(ids, np.array([0.0]), offs, np.array([0.0]), idx, 1.0, "x")
    with pytest.raises(ValueError):
        Workload(ids, np.array([2.0]), offs, np.array([1.0]), idx, 1.0, "x")
    with pytest.raises(ValueError):
        Workload(
            np.array([0, 1]),
            np.array([3.0, 1.0]),
            np.array([0, 1, 2]),
            np.array([1.0, 1.0]),
            np.array([0, 0]),
            5.0,
            "x",
        )
    with pytest.raises(ValueError, match="at least one task"):
        Workload(np.array([0, 1]), np.array([0.0, 1.0]), np.array([0, 0, 1]), np.array([1.0]),
                 idx, 1.0, "x")


def test_workload_rejects_sizes_summing_past_float64(tmp_path):
    # each size is finite, but the total overflows to inf
    ids, offs, idx = np.array([0, 1]), np.array([0, 1, 2]), np.array([0, 0])
    with pytest.raises(ValueError, match="finite total"):
        Workload(ids, np.array([0.0, 1.0]), offs, np.array([1e308, 1e308]), idx, 1.0, "x")
    # the total 2e200 is finite, but the second moment overflows
    with pytest.raises(ValueError, match="finite total"):
        Workload(np.array([0, 1, 2]), np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2, 3]),
                 np.array([1e200, 1e200, 1.0]), np.array([0, 0, 0]), 2.0, "x")
    for name, rows in [("big.csv", "1,0.0,0,1e308\n2,1.0,0,1e308\n"),
                       ("square.csv", "1,0.0,0,1e200\n2,1.0,0,1e200\n3,2.0,0,1\n")]:
        path = tmp_path / name
        path.write_text(HEADER + rows)
        with pytest.raises(TraceFormatError, match="finite total"):
            ingest_trace(path)
        for argv in (["ingest-trace"],
                     ["simulate", "--policy", "rr", "--n", "2", "--rho", "0.5", "--seed", "1"],
                     ["card-thresholds", "--n", "2", "--rho", "0.5"]):
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli_main(argv + ["--trace", str(path)])
            assert code == 1 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------------------
# Trace CSV round trip


def test_trace_round_trip_bit_exact(tmp_path):
    params = fit_weibull(1.0, 10.0)
    wl = generate_poisson_weibull(0.7, params, 500, seed=12)
    path = tmp_path / "trace.csv"
    write_trace_csv(wl, path)
    back = ingest_trace(path)
    assert back == wl


def test_trace_round_trip_multi_task(tmp_path):
    wl = Workload.from_tasks(*_tasks_fixture(), horizon=9.25, source="custom")
    path = tmp_path / "trace.csv"
    write_trace_csv(wl, path)
    back = ingest_trace(path)
    assert back == wl
    assert back.source == "custom"
    assert back.horizon == 9.25


def test_ingest_groups_scattered_tasks(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "job_id,arrival_time,task_index,size\n"
        "7,2.0,0,1.0\n"
        "8,1.0,0,2.0\n"
        "7,2.0,1,0.25\n"
    )
    wl = ingest_trace(path)
    assert wl.job_count == 2
    assert list(wl.job_ids) == [8, 7]
    assert _jobs(wl)[1] == (7, 2.0, [(0, 1.0), (1, 0.25)])
    assert wl.source == "trace"
    assert wl.horizon == 2.0


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ("7,xyz,0,1.0\n", "line 2"),
        ("7,1.0,0,0.0\n", "size"),
        ("7,1.0,0,-3.0\n", "size"),
        ("7,-1.0,0,1.0\n", "arrival_time"),
        ("7,1.0,0,1.0\n7,1.0,0,2.0\n", "duplicate"),
        ("7,1.0,0,1.0\n7,2.0,1,1.0\n", "conflicts"),
        ("7,1.0,0\n", "4 fields"),
    ],
)
def test_ingest_rejects_bad_rows(tmp_path, rows, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("job_id,arrival_time,task_index,size\n" + rows)
    with pytest.raises(TraceFormatError) as err:
        ingest_trace(path)
    assert fragment in str(err.value)


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("job,arrival,task,size\n1,0.0,0,1.0\n")
    with pytest.raises(TraceFormatError, match="header"):
        ingest_trace(path)


def test_ingest_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("job_id,arrival_time,task_index,size\n")
    with pytest.raises(TraceFormatError, match="no task rows"):
        ingest_trace(path)


def test_ingest_rejects_horizon_before_last_arrival(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# horizon=0.5\n"
        "job_id,arrival_time,task_index,size\n"
        "1,1.0,0,1.0\n"
    )
    with pytest.raises(TraceFormatError, match="horizon"):
        ingest_trace(path)


def test_ingest_honors_metadata(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(
        "# source=cluster-a\n"
        "# horizon=100.0\n"
        "job_id,arrival_time,task_index,size\n"
        "1,1.0,0,1.0\n"
    )
    wl = ingest_trace(path)
    assert wl.source == "cluster-a"
    assert wl.horizon == 100.0


HEADER = "job_id,arrival_time,task_index,size\n"


@pytest.mark.parametrize("text,message", [
    (HEADER + "9223372036854775808,1.0,0,1.0\n", "line 2: job_id"),
    (HEADER + "1,1.0,0,1.0\n-9223372036854775809,1.0,0,1.0\n", "line 3: job_id"),
    (HEADER + "1,1.0,9223372036854775808,1.0\n", "line 2: task_index"),
    ("# horizon=nan\n" + HEADER + "1,1.0,0,1.0\n", "line 1: horizon"),
    ("# source=x\n# horizon=inf\n" + HEADER + "1,1.0,0,1.0\n", "line 2: horizon"),
    ("# source=x\n# horizon=0.5\n" + HEADER + "1,1.0,0,1.0\n", "line 2: horizon"),
], ids=["job_id-above", "job_id-below", "task_index", "horizon-nan", "horizon-inf",
        "horizon-short"])
def test_ingest_names_the_line_of_out_of_range_values(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(TraceFormatError, match=message):
        ingest_trace(path)


def test_ingest_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(HEADER.encode() + b"1,1.0,0,1.0\n2,2.0,0,\xff\xfe\n")
    with pytest.raises(TraceFormatError, match="line 3: not UTF-8"):
        ingest_trace(path)


def test_ingest_names_the_line_of_a_field_past_the_csv_limit(tmp_path):
    # an unclosed quote swallows the rest of the file into one field
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + '1,"' + "x" * 200_000 + "\n")
    with pytest.raises(TraceFormatError, match="line 2: field larger than field limit"):
        ingest_trace(path)


_EDGE = st.one_of(
    st.sampled_from([str(2**63 - 1), str(2**63), str(-2**63 - 1), "nan", "-inf", "1e999",
                     "-0.0", "-1", "", " 1 ", '"1"', "#", "1_0"]),
    st.integers(-2**70, 2**70).map(str), st.floats().map(repr), st.text(max_size=6),
)
_VALID = st.tuples(st.integers(0, 10**6).map(str), st.sampled_from(["0.5", "1.0", "2.0"]),
                   st.sampled_from(["0", "1"]), st.sampled_from(["0.5", "1.0", "2.0"]))


def _with_field(row, i, value):
    return ",".join(row[:i] + (value,) + row[i + 1:])


_MUTATED = st.builds(_with_field, _VALID, st.integers(0, 3), _EDGE)
_ROW = st.one_of(_VALID.map(",".join), _MUTATED, _MUTATED, st.lists(_EDGE, max_size=6).map(",".join))
_COMMENT = st.tuples(st.sampled_from(["horizon", "source", "x"]),
                     st.sampled_from(["0.5", "3.0", "100.0"]) | _EDGE).map("# {0[0]}={0[1]}".format)
_TRACE_TEXT = st.text() | st.builds(
    lambda head, body: "\n".join(head + [HEADER.strip()] + body),
    st.lists(_COMMENT, max_size=3), st.lists(_ROW, min_size=1, max_size=8))


@given(_TRACE_TEXT)
@settings(max_examples=300, deadline=None)
def test_ingest_fuzz_accepts_or_names_the_error(tmp_path_factory, text):
    # any text either ingests or raises TraceFormatError; the CLI then prints
    # one `error:` line and exits 1, never a traceback
    path = tmp_path_factory.mktemp("fuzz") / "trace.csv"
    path.write_text(text, encoding="utf-8")
    try:
        wl = ingest_trace(path)
    except TraceFormatError:
        ok = False
    else:
        ok = True
        assert math.isfinite(wl.horizon) and wl.horizon >= wl.arrivals[-1]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(["ingest-trace", "--trace", str(path)])
    assert code == (0 if ok else 1)
    assert ok or err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# Cluster configuration


def test_synthetic_config_identities():
    cfg = ClusterConfig.synthetic(10, 0.8)
    assert cfg.total_capacity == 10 * cfg.mu
    assert cfg.arrival_rate * cfg.mean_job_size / cfg.total_capacity == pytest.approx(
        0.8, rel=1e-12
    )
    assert cfg.arrival_rate == pytest.approx(0.8, rel=1e-12)


def test_config_rejects_inconsistent_load():
    with pytest.raises(ValueError):
        ClusterConfig(2, 1.0, 2.0, 0.5, 4.0, 1.0)  # implied rho = 2.0
    with pytest.raises(ValueError):
        ClusterConfig(2, 1.0, 3.0, 0.5, 1.0, 1.0)  # capacity != n*mu


def test_calibrate_mu_hits_target_load():
    wl = Workload.from_tasks([0, 1], [0.0, 10.0], [0, 0], [4.0, 4.0])
    cfg = calibrate_mu(wl, n=2, target_rho=0.5)
    # offered work 8 over horizon 10 = 0.8; capacity must be 1.6
    assert cfg.mu == pytest.approx(0.8)
    assert cfg.total_capacity == pytest.approx(1.6)
    assert cfg.target_rho == 0.5


def test_calibrate_mu_rejects_zero_duration():
    wl = Workload.from_tasks([0], [0.0], [0], [1.0])
    with pytest.raises(ValueError, match="horizon"):
        calibrate_mu(wl, 1, 0.5)


def test_weibull_params_validation():
    with pytest.raises(ValueError):
        WeibullParams(0.0, 1.0)
    with pytest.raises(ValueError):
        WeibullParams(1.0, -1.0)


# ---------------------------------------------------------------------------
# property-based fuzz of the trace round trip


@st.composite
def _workloads(draw):
    job_count = draw(st.integers(min_value=1, max_value=12))
    columns = ([], [], [], [])
    t = 0.0
    for j in range(job_count):
        t += draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
        sizes = draw(st.lists(
            st.floats(min_value=1e-12, max_value=1e12, allow_nan=False,
                      allow_infinity=False),
            min_size=1, max_size=4))
        for k, s in enumerate(sizes):
            for column, value in zip(columns, (j, t, k, s)):
                column.append(value)
    horizon = t + draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    source = draw(st.sampled_from(["synthetic", "trace", "demo"]))
    return Workload.from_tasks(*columns, horizon=horizon, source=source)


@given(_workloads())
@settings(max_examples=60, deadline=None)
def test_trace_round_trip_property(tmp_path_factory, wl):
    path = tmp_path_factory.mktemp("prop") / "wl.csv"
    write_trace_csv(wl, path)
    again = ingest_trace(path)
    assert again == wl
    # a second write of the re-read workload is byte-identical
    path2 = path.with_suffix(".again.csv")
    write_trace_csv(again, path2)
    assert path.read_bytes() == path2.read_bytes()
