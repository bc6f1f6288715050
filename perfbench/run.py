"""dispatchsim benchmark: the CLI driven in-process on seeded inputs.

Run from the repository root:

    python3 perfbench/run.py --workload synth-n10 --seed 1 --seconds 30 --trace 0

One pass runs a fixed list of `dispatchsim` commands through
`dispatchsim.cli.main(argv)` (see WORKLOADS and README.md); the run repeats
passes until `--seconds` have elapsed and reports per-pass medians. With
`--trace 0` it prints the end-to-end metrics, with `--trace 1` one untraced
pass and then traced passes give the per-layer metrics. Every pass checks the
program's outputs; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path("perfbench") / "_work"  # relative, so outputs hash the same in any checkout

LABELS = ("rr", "jiq", "lwl", "card", "two_stage:rr", "two_stage:lwl")
RHO = "0.8"
COV = "10"
TRACE_N = 10  # cluster size of the trace commands in every workload
SWEEP_POLICIES = ("rr", "jiq", "two_stage:rr")
SWEEP_REPLICATIONS = 2
SETUP_RUNS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    """Input sizes of one workload.

    Every workload runs the same pass: ingest-trace, a trace simulate with a
    task log, a trace sweep, and one simulate per policy label. `label_jobs`
    set means the label simulates are synthetic at `n`; None means they
    replay the ingested trace.
    """

    n: int
    trace_jobs: int
    sweep_jobs: int
    label_jobs: dict | None


WORKLOADS = {
    # engine event loop: at n=10 choose() is cheap
    "synth-n10": WorkloadSpec(
        n=10, trace_jobs=1_000, sweep_jobs=300,
        label_jobs={"rr": 110_000, "jiq": 55_000, "lwl": 45_000, "card": 22_000,
                    "two_stage:rr": 90_000, "two_stage:lwl": 45_000},
    ),
    # policy layer: O(n) backlog scans in lwl and card, card's sort
    "synth-n100": WorkloadSpec(
        n=100, trace_jobs=1_000, sweep_jobs=300,
        label_jobs={"rr": 60_000, "jiq": 30_000, "lwl": 36_000, "card": 12_000,
                    "two_stage:rr": 60_000, "two_stage:lwl": 16_000},
    ),
    # trace read/write, task log, many short sweep simulations
    "trace-replay": WorkloadSpec(n=10, trace_jobs=3_500, sweep_jobs=800, label_jobs=None),
}

def metric_name(label: str) -> str:
    return label.replace(":", "-")


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    **{f"jobs_per_s.{metric_name(label)}": "jobs/s" for label in LABELS},
    "wall_s": "s",
    "ingest_trace_s": "s",
    "simulate_s": "s",
    "sweep_s": "s",
}


# ---------------------------------------------------------------- inputs


def weibull_shape(cov: float) -> float:
    """Weibull shape b whose coefficient of variation is `cov` (bisection)."""
    target = math.log1p(cov * cov)
    lo, hi = 0.01, 50.0  # cov falls as b grows
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gap = math.lgamma(1 + 2 / mid) - 2 * math.lgamma(1 + 1 / mid) - target
        lo, hi = (mid, hi) if gap > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def make_trace(seed: int, jobs: int, path: Path) -> dict:
    """Write a seeded multi-task trace CSV and return the workload that
    ingesting it must produce.

    Jobs have 1-8 tasks with Weibull(cov=10, mean 1) sizes; rows are shuffled
    within blocks of 32, so rows of one job interleave with other jobs' rows.
    Arrivals are strictly increasing, so the ingested job order is the
    generation order and each job's tasks keep their file order.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = weibull_shape(float(COV))
    scale = 1.0 / math.gamma(1 + 1 / shape)
    arrivals = np.cumsum(1e-3 + rng.exponential(1.0, jobs))
    counts = rng.integers(1, 9, jobs)
    offsets = np.zeros(jobs + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    sizes = scale * rng.weibull(shape, total)
    sizes = np.where(sizes > 0, sizes, np.finfo(np.float64).tiny)
    ids = rng.permutation(jobs).astype(np.int64) + 1
    job_of_row = np.repeat(np.arange(jobs), counts)
    task_index = np.arange(total) - np.repeat(offsets[:-1], counts)
    order = np.lexsort((rng.random(total), np.arange(total) // 32))
    file_job = job_of_row[order]
    horizon = float(arrivals[-1])
    lines = [
        f"{i},{a!r},{t},{s!r}\n"
        for i, a, t, s in zip(
            ids[file_job].tolist(), arrivals[file_job].tolist(),
            task_index[order].tolist(), sizes[order].tolist(),
        )
    ]
    with open(path, "w") as fh:
        fh.write(f"# source=perfbench\n# horizon={horizon!r}\n")
        fh.write("job_id,arrival_time,task_index,size\n")
        fh.writelines(lines)
    rows = order[np.argsort(file_job, kind="stable")]
    return {
        "job_ids": ids, "arrivals": arrivals, "task_offsets": offsets,
        "task_sizes": sizes[rows], "task_indices": task_index[rows],
        "horizon": horizon, "source": "perfbench",
    }


def sweep_plan(trace: str, jobs: int, seed: int) -> dict:
    return {
        "policies": list(SWEEP_POLICIES), "n_values": [TRACE_N], "rho_values": [float(RHO)],
        "trace": trace, "jobs": jobs, "replications": SWEEP_REPLICATIONS, "base_seed": seed,
        "theta_quantiles": [0.5, 0.9, 0.99], "n1_candidates": [1, 3, 5, 7, 9],
    }


# ---------------------------------------------------------------- checks


class Checks:
    """Counts correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


def kv_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        for part in line.split():
            key, sep, value = part.partition("=")
            if sep:
                out[key] = value
    return out


def finite_field(kv: dict, key: str) -> bool:
    try:
        return math.isfinite(float(kv[key]))
    except (KeyError, ValueError):
        return False


@dataclass
class Step:
    key: str
    argv: list
    outputs: list


class Bench:
    """One workload at one seed: its inputs, its steps and the checks on them."""

    def __init__(self, name: str, spec: WorkloadSpec, seed: int, scale: float) -> None:
        from dispatchsim import cli
        from dispatchsim.metrics import read_results_csv
        from dispatchsim.workload import ingest_trace

        self.cli = cli
        self.read_results_csv = read_results_csv
        self.ingest_trace = ingest_trace
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.checks = Checks()
        self.trace_jobs = self._scaled(spec.trace_jobs)
        self.expected = make_trace(seed, self.trace_jobs, self.dir / "in.csv")
        self.steps = self._steps()

    def _scaled(self, jobs: int) -> int:
        return max(50, int(jobs * self.scale))

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def label_jobs(self, label: str) -> int:
        if self.spec.label_jobs is None:
            return self.trace_jobs
        return self._scaled(self.spec.label_jobs[label])

    def _steps(self) -> list[Step]:
        seed = str(self.seed)
        canon = self._path("canon.csv")
        plan = self._path("plan.json")
        with open(plan, "w") as fh:
            json.dump(sweep_plan(canon, self._scaled(self.spec.sweep_jobs), self.seed), fh)
        steps = [
            Step("ingest", ["ingest-trace", "--trace", self._path("in.csv"), "--out", canon],
                 [canon]),
            Step("trace-simulate",
                 ["simulate", "--policy", "lwl", "--n", str(TRACE_N), "--rho", RHO,
                  "--trace", canon, "--seed", seed, "--task-log", self._path("log.csv"),
                  "--out", self._path("trace")],
                 [self._path("log.csv"), self._path("trace.csv"), self._path("trace.json")]),
            Step("sweep", ["sweep", "--workers", "1", "--plan", plan, "--out", self._path("sweep")],
                 [self._path(f"sweep{s}") for s in ("_runs.csv", "_summary.csv", "_summary.json")]),
        ]
        n = self.spec.n if self.spec.label_jobs is not None else TRACE_N
        for label in LABELS:
            out = self._path(f"sim_{metric_name(label)}")
            argv = ["simulate", "--policy", label, "--n", str(n), "--rho", RHO, "--seed", seed,
                    "--out", out]
            if self.spec.label_jobs is None:
                argv += ["--trace", canon]
            else:
                argv += ["--cov", COV, "--jobs", str(self.label_jobs(label))]
            if label.startswith("two_stage:"):
                argv += ["--theta-quantile", "0.95", "--n1", str(3 * n // 10)]
            steps.append(Step(f"label:{label}", argv, [f"{out}.csv", f"{out}.json"]))
        return steps

    # -- one pass

    def run_pass(self, check: bool, tracer=None) -> dict:
        """Run every step once. Exit codes and output files are checked on
        every pass, output contents only when `check` is set: later passes
        must reproduce the same digest, so they write the same bytes."""
        walls: dict[str, float] = {}
        digest = hashlib.sha256()
        for step in self.steps:
            for path in step.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.step = step.key
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    code = self.cli.main(list(step.argv))
                except Exception as exc:  # a crash is a failed operation, not a dead run
                    code = f"{type(exc).__name__}: {exc}"
                walls[step.key] = perf_counter() - start
            if tracer is not None:
                tracer.step = None
            self.checks(code == 0, f"{step.key}: exit {code!r}: {err.getvalue().strip()}")
            digest.update(f"{step.key}\n{out.getvalue()}".encode())
            for path in step.outputs:
                if self.checks(os.path.isfile(path), f"{step.key}: {path} written"):
                    with open(path, "rb") as fh:
                        digest.update(path.encode() + b"\n" + fh.read())
            if check and code == 0:
                try:
                    self._check_step(step, kv_lines(out.getvalue()))
                except Exception as exc:  # unreadable output fails the check, not the run
                    self.checks(False, f"{step.key}: checking outputs: {exc!r}")
        return {"walls": walls, "digest": digest.hexdigest()}

    # -- output checks

    def _check_step(self, step: Step, kv: dict) -> None:
        if step.key == "ingest":
            self._check_canon(kv)
        elif step.key == "trace-simulate":
            self._check_simulate(step, kv, self.trace_jobs)
            self._check_task_log(self._path("log.csv"))
        elif step.key == "sweep":
            rows = len(SWEEP_POLICIES) * SWEEP_REPLICATIONS
            self._check_results(f"{self._path('sweep')}_runs.csv", rows, step.key)
            self._check_results(f"{self._path('sweep')}_summary.csv", len(SWEEP_POLICIES),
                                step.key)
        else:
            self._check_simulate(step, kv, self.label_jobs(step.key.split(":", 1)[1]))

    def _check_canon(self, kv: dict) -> None:
        exp = self.expected
        wl = self.ingest_trace(self._path("canon.csv"))
        same = all(
            np.array_equal(getattr(wl, key), exp[key])
            for key in ("job_ids", "arrivals", "task_offsets", "task_sizes", "task_indices")
        ) and wl.horizon == exp["horizon"] and wl.source == exp["source"]
        self.checks(same, "ingest: canon.csv re-ingests bit-equal to the generated trace")
        self.checks(
            kv.get("jobs") == str(self.trace_jobs)
            and kv.get("tasks") == str(len(exp["task_sizes"])),
            "ingest: reported jobs/tasks",
        )

    def _check_simulate(self, step: Step, kv: dict, jobs: int) -> None:
        self.checks(kv.get("jobs_measured") == str(jobs - int(0.1 * jobs)),
                    f"{step.key}: jobs_measured {kv.get('jobs_measured')} for {jobs} jobs")
        self.checks(finite_field(kv, "mrt_seconds"), f"{step.key}: mrt_seconds finite")
        if self.spec.label_jobs is not None and step.key.startswith("label:"):
            self.checks(finite_field(kv, "normalized_mrt"), f"{step.key}: normalized_mrt finite")
        self._check_results(step.argv[step.argv.index("--out") + 1] + ".csv", 2, step.key)

    def _check_results(self, path: str, expected_rows: int, key: str) -> None:
        rows, _echo = self.read_results_csv(path)
        self.checks(len(rows) == expected_rows,
                    f"{key}: {path} has {len(rows)} rows, expected {expected_rows}")
        finite = all(
            row[f] is None or math.isfinite(row[f])
            for row in rows for f in ("mrt_seconds", "normalized_mrt")
        ) and all(row["mrt_seconds"] is not None for row in rows)
        self.checks(finite, f"{key}: {path} mrt_seconds/normalized_mrt finite")

    def _check_task_log(self, path: str) -> None:
        exp = self.expected
        log = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        sizes = exp["task_sizes"]
        if not self.checks(len(log) == len(sizes),
                           f"task log has {len(log)} rows for {len(sizes)} tasks"):
            return
        counts = np.diff(exp["task_offsets"])
        mu = float(sizes.sum()) / (exp["horizon"] * TRACE_N * float(RHO))
        arrival, size, completion, stage = log[:, 2], log[:, 3], log[:, 7], log[:, 8]
        self.checks(
            np.array_equal(log[:, 0], np.repeat(exp["job_ids"], counts))
            and np.array_equal(arrival, np.repeat(exp["arrivals"], counts))
            and np.array_equal(size, sizes),
            "task log rows match the trace tasks",
        )
        done = (stage >= 1) & np.isfinite(completion)
        self.checks(done.all(), f"task log: {int((~done).sum())} tasks unfinished")
        floor = arrival + size / mu
        self.checks(np.all(completion >= floor - 1e-9 * np.abs(floor)),
                    "task log: completion >= arrival + size/mu")


# ---------------------------------------------------------------- metrics


def measure_setup(runs: int) -> float:
    """Median time for a fresh interpreter to import dispatchsim.cli and
    build its parser (after one unmeasured warm-up that fills the bytecode
    cache)."""
    code = (
        "import time\nt = time.perf_counter()\nimport dispatchsim.cli as c\n"
        "c.build_parser()\nprint(repr(time.perf_counter() - t))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(bench: Bench, walls: dict) -> dict:
    out = {
        f"jobs_per_s.{metric_name(label)}": bench.label_jobs(label) / walls[f"label:{label}"]
        for label in LABELS
    }
    out["wall_s"] = sum(walls.values())
    out["ingest_trace_s"] = walls["ingest"]
    out["simulate_s"] = walls["trace-simulate"]
    out["sweep_s"] = walls["sweep"]
    return out


PER_LAYER_UNITS = {
    **{f"engine.run.{metric_name(label)}.{m}": u
       for label in LABELS for m, u in (("us_per_event", "us"), ("events", "count"))},
    **{f"policies.{k}.us_per_dispatch_over_rr": "us" for k in ("jiq", "lwl", "card")},
    "engine.run.peak_list_bytes": "B",
    "engine.write_task_log.rows_per_s": "rows/s",
    "engine.job_responses.s": "s",
    "workload.ingest_trace.rows_per_s": "rows/s",
    "workload.ingest_trace.calls": "count",
    "workload.write_trace_csv.rows_per_s": "rows/s",
    "analysis.empirical.s": "s",
    "analysis.card_thresholds.s": "s",
    "metrics.summarize_run.s": "s",
    "metrics.write_results.s": "s",
    "sweep.optimize_two_stage.self_s": "s",
    "sweep.runs": "count",
    **{f"cli.{c}.self_s": "s" for c in ("ingest-trace", "simulate", "sweep")},
    "trace_overhead_s": "s",
}


def per_layer(spans) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracing import self_times

    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    rows: dict[str, int] = {}
    calls: dict[str, int] = {}
    engine: dict[str, list] = {}  # label -> [seconds, tasks, transfers]
    sweep_runs = 0
    peak_tasks = 0
    for (name, start, end, _parent, step, attrs), own in zip(spans, selfs):
        if name == "cli.main":
            name = f"cli.{attrs['command']}"
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if attrs and "rows" in attrs:
            rows[name] = rows.get(name, 0) + attrs["rows"]
        if name == "engine.run":
            peak_tasks = max(peak_tasks, attrs["tasks"])
            if step == "sweep":
                sweep_runs += 1
            if step == f"label:{attrs['label']}":
                acc = engine.setdefault(attrs["label"], [0.0, 0, 0])
                acc[0] += end - start
                acc[1] += attrs["tasks"]
                acc[2] += attrs["transfers"]

    def rate(key):
        return rows.get(key, 0) / total[key] if total.get(key) else 0.0

    out = {}
    per_dispatch = {}
    for label in LABELS:
        secs, tasks, transfers = engine.get(label, (0.0, 0, 0))
        events = 2 * tasks + 2 * transfers
        out[f"engine.run.{metric_name(label)}.us_per_event"] = 1e6 * secs / events if events else 0.0
        out[f"engine.run.{metric_name(label)}.events"] = events
        per_dispatch[label] = 1e6 * secs / (tasks + transfers) if tasks else 0.0
    for kind in ("jiq", "lwl", "card"):
        out[f"policies.{kind}.us_per_dispatch_over_rr"] = per_dispatch[kind] - per_dispatch["rr"]
    out["engine.run.peak_list_bytes"] = 5 * peak_tasks * 8
    out["engine.write_task_log.rows_per_s"] = rate("engine.CompletionLog.write_task_log")
    out["engine.job_responses.s"] = total.get("engine.CompletionLog.job_responses", 0.0)
    out["workload.ingest_trace.rows_per_s"] = rate("workload.ingest_trace")
    out["workload.ingest_trace.calls"] = calls.get("workload.ingest_trace", 0)
    out["workload.write_trace_csv.rows_per_s"] = rate("workload.write_trace_csv")
    out["analysis.empirical.s"] = total.get("analysis.EmpiricalDistribution.from_workload", 0.0)
    out["analysis.card_thresholds.s"] = total.get("analysis.card_thresholds", 0.0)
    out["metrics.summarize_run.s"] = total.get("metrics.summarize_run", 0.0)
    out["metrics.write_results.s"] = (total.get("metrics.write_results_csv", 0.0)
                                      + total.get("metrics.write_results_json", 0.0))
    out["sweep.optimize_two_stage.self_s"] = self_total.get("sweep.optimize_two_stage", 0.0)
    out["sweep.runs"] = sweep_runs
    for command in ("ingest-trace", "simulate", "sweep"):
        out[f"cli.{command}.self_s"] = self_total.get(f"cli.{command}", 0.0)
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def median_dicts(dicts: list[dict]) -> dict:
    """Per-key median; counts stay whole numbers."""
    out = {}
    for key in dicts[0]:
        values = [d[key] for d in dicts]
        exact = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def run_passes(bench: Bench, seconds: float, tracer=None) -> list[dict]:
    """Repeat passes until `seconds` have elapsed. With a tracer, passes
    alternate untraced and traced (at least one of each), so the tracing
    overhead is measured under the same machine conditions."""
    passes: list[dict] = []
    start = perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            with tracer:
                result = bench.run_pass(check=False, tracer=tracer)
            result["spans"] = list(tracer.spans)
            tracer.spans.clear()
        else:
            result = bench.run_pass(check=not passes)
        passes.append(result)
        print("pass walls " + json.dumps({k: round(v, 3) for k, v in result["walls"].items()}),
              file=sys.stderr)
        if perf_counter() - start >= seconds and len(passes) >= (1 if tracer is None else 2):
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every job count (smoke tests use a small value)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "dispatchsim" / "cli.py").is_file():
        print(f"error: {SRC / 'dispatchsim'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dispatchsim

    if SRC.resolve() not in Path(dispatchsim.__file__).resolve().parents:
        print(f"error: imported dispatchsim from {dispatchsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = environment()
    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, args.scale)
    if args.trace == 0:
        setup_s = measure_setup(SETUP_RUNS)
        passes = run_passes(bench, args.seconds)
        values = median_dicts([end_to_end(bench, p["walls"]) for p in passes])
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    else:
        from tracing import Tracer

        tracer = Tracer()
        passes = run_passes(bench, args.seconds, tracer)
        if tracer.missing:
            print(f"warning: trace targets not found: {tracer.missing}", file=sys.stderr)
        layer = []
        for untraced, traced in zip(passes[::2], passes[1::2]):
            values = per_layer(traced["spans"])
            values["trace_overhead_s"] = (sum(traced["walls"].values())
                                          - sum(untraced["walls"].values()))
            layer.append(values)
        values = median_dicts(layer)
        units = PER_LAYER_UNITS
        with open(bench.dir / "spans.json", "w") as fh:
            json.dump([[
                {"name": n, "start": s, "end": e, "parent": par, "step": st, "attrs": a}
                for (n, s, e, par, st, a) in p["spans"]
            ] for p in passes[1::2]], fh)
    digests = [p["digest"] for p in passes]
    bench.checks(len(set(digests)) == 1,
                 f"sim_digest differs between passes: {sorted(set(digests))}")

    result = {
        "correct": bench.checks.failed == 0,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    with open(bench.dir / f"result-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": len(passes),
                   "sim_digest": digests[0], "environment": env, **result}, fh, indent=1)
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"sim_digest {args.workload} seed={args.seed} {digests[0]}")
    print(f"passes {len(passes)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
