"""Response-time metrics, warm-up handling, replications, serialization.

A job's response time is the span from its arrival to the completion of its
last task. Runs discard a warm-up prefix of jobs, counted by arrival ordinal
so the same jobs are excluded under every policy (paired comparisons stay
paired). Replication summaries report the mean of per-replication means with
a Student-t 95% confidence half-width. `replicate_and_summarize` is the one
replication loop: each replication's workload is built once and every spec
of a point runs on it (common random numbers).

Results serialize to a fixed CSV schema

    policy,n,rho,theta,n1,cov,seed,mrt_seconds,normalized_mrt,ci_half_width

with `# key=value` comment lines echoing the generating configuration, and to
an equivalent JSON form. Inapplicable fields are left empty ("" in CSV, null
in JSON): theta/n1 for single-stage rows, cov for trace-driven rows,
normalized_mrt when no analytic baseline exists, ci half-width for single
runs. Writers emit no timestamps or environment state, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .analysis import Distribution, normalized_mrt
from .engine import CompletionLog, run
from .randomness import replication_seed
from .workload import ClusterConfig

RESULT_FIELDS = (
    "policy",
    "n",
    "rho",
    "theta",
    "n1",
    "cov",
    "seed",
    "mrt_seconds",
    "normalized_mrt",
    "ci_half_width",
)

DEFAULT_WARMUP_FRACTION = 0.1


def warmup_job_count(job_count: int, warmup_fraction: float = DEFAULT_WARMUP_FRACTION) -> int:
    """Number of leading jobs (by arrival ordinal) excluded from metrics."""
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup_fraction must lie in [0, 1)")
    return int(warmup_fraction * job_count)


@dataclass(frozen=True)
class RunResult:
    """Aggregated outcome of one simulation run."""

    policy: str
    config: ClusterConfig
    seed: int
    job_count: int  # jobs measured (post warm-up, completed)
    warmup_jobs: int
    incomplete_jobs: int
    mrt_seconds: float
    normalized_mrt: float | None  # None when no analytic baseline applies
    theta: float | None = None
    n1: int | None = None
    cov: float | None = None  # size-law cov when known (synthetic runs)


def summarize_run(
    log: CompletionLog,
    *,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    baseline: Distribution | None = None,
    cov: float | None = None,
) -> RunResult:
    """Reduce a completion log to a RunResult.

    Warm-up jobs are dropped by arrival ordinal. Jobs unfinished at the
    horizon are excluded from the mean and counted in `incomplete_jobs`.
    When `baseline` is given (the size law of a synthetic workload), the mean
    response is also normalized by the M/G/1 mean response of a single server
    holding the cluster's entire capacity.
    """
    wl = log.workload
    responses = log.job_responses()
    w = warmup_job_count(wl.job_count, warmup_fraction)
    post = responses[w:]
    finite = post[~np.isnan(post)]
    if finite.size == 0:
        raise ValueError("no completed jobs after warm-up; nothing to summarize")
    mrt = float(finite.mean())
    norm = None
    if baseline is not None:
        norm = normalized_mrt(mrt, baseline, log.config.arrival_rate,
                              log.config.total_capacity)
    spec = log.policy
    return RunResult(
        policy=spec.label,
        config=log.config,
        seed=log.seed,
        job_count=int(finite.size),
        warmup_jobs=w,
        incomplete_jobs=int(post.size - finite.size),
        mrt_seconds=mrt,
        normalized_mrt=norm,
        theta=spec.theta,
        n1=spec.n1,
        cov=cov,
    )


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean of per-replication mean responses with a 95% Student-t interval."""

    results: tuple[RunResult, ...]
    mean_mrt_seconds: float
    ci_half_width: float | None  # None with fewer than 2 replications
    mean_normalized_mrt: float | None

    @property
    def replications(self) -> int:
        return len(self.results)


def summarize_replications(results) -> ReplicationSummary:
    """Combine per-replication RunResults; invariant under result order."""
    results = tuple(results)
    if not results:
        raise ValueError("need at least one replication")
    mrts = np.asarray([r.mrt_seconds for r in results], dtype=np.float64)
    mean = float(mrts.mean())
    half = None
    if len(results) >= 2:
        se = float(mrts.std(ddof=1)) / math.sqrt(len(results))
        half = float(stdtrit(len(results) - 1, 0.975) * se)
    norms = [r.normalized_mrt for r in results]
    mean_norm = None
    if all(v is not None for v in norms):
        mean_norm = float(np.mean(norms))
    return ReplicationSummary(
        results=results,
        mean_mrt_seconds=mean,
        ci_half_width=half,
        mean_normalized_mrt=mean_norm,
    )


def replicate_and_summarize(source, config: ClusterConfig, specs, rho, jobs: int,
                            base_seed: int, replications: int, warmup_fraction: float,
                            task_log=None) -> list[ReplicationSummary]:
    """One ReplicationSummary per spec, in spec order.

    Replication r derives `replication_seed(base_seed, r)`, builds the
    source's workload for that seed once, runs every spec on it and drops it,
    so the specs are compared under common random numbers while only one
    workload is held at a time. `task_log`, if given, receives the per-task
    log of the first spec's replication 0.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    baseline = source.baseline()
    results: list[list[RunResult]] = [[] for _ in specs]
    for r in range(replications):
        rep_seed = replication_seed(base_seed, r)
        wl = source.workload(config.n, rho, jobs, rep_seed)
        for i, spec in enumerate(specs):
            log = run(wl, config, spec, rep_seed)
            results[i].append(summarize_run(log, warmup_fraction=warmup_fraction,
                                            baseline=baseline, cov=source.cov_field))
            if task_log and r == i == 0:
                log.write_task_log(task_log)
            del log
        del wl
    return [summarize_replications(rs) for rs in results]


def _fmt(value) -> str:
    """Canonical CSV cell: repr for floats, str for ints, "" for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def result_row(result: RunResult, ci_half_width: float | None = None) -> dict:
    """One schema row from a RunResult."""
    cfg = result.config
    return {
        "policy": result.policy,
        "n": cfg.n,
        "rho": cfg.target_rho,
        "theta": result.theta,
        "n1": result.n1,
        "cov": result.cov,
        "seed": result.seed,
        "mrt_seconds": result.mrt_seconds,
        "normalized_mrt": result.normalized_mrt,
        "ci_half_width": ci_half_width,
    }


def summary_row(summary: ReplicationSummary, seed: int) -> dict:
    """The schema row of a replication summary: the first replication's
    configuration under the base `seed`, with the mean MRTs and the CI."""
    return {
        **result_row(summary.results[0], summary.ci_half_width),
        "seed": seed,
        "mrt_seconds": summary.mean_mrt_seconds,
        "normalized_mrt": summary.mean_normalized_mrt,
    }


def write_results_csv(path, rows, config_echo: dict | None = None, fields=RESULT_FIELDS) -> None:
    """Write schema rows with `# key=value` config-echo comment lines.

    Rows are written in the given order; cells use repr floats so reruns are
    byte-identical. `fields` defaults to the standard schema; search tables
    append extra columns.
    """
    with open(path, "w", newline="") as fh:
        if config_echo:
            for key in sorted(config_echo):
                fh.write(f"# {key}={_fmt(config_echo[key])}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row.get(f)) for f in fields])


def _json_value(value):
    # inf is valid as a theta but not in strict JSON; ship it as a string
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def write_results_json(path, rows, config_echo: dict | None = None) -> None:
    """JSON twin of the CSV writer: {"config": {...}, "results": [...]}."""
    payload = {
        "config": {k: _json_value(v) for k, v in sorted((config_echo or {}).items())},
        "results": [
            {f: _json_value(row.get(f)) for f in RESULT_FIELDS} for row in rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False, allow_nan=False)
        fh.write("\n")


def read_results_csv(path) -> tuple[list[dict], dict]:
    """Read back a results CSV into (rows, config_echo); floats re-parsed."""
    echo: dict[str, str] = {}
    rows: list[dict] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if row[0].startswith("#"):
                text = ",".join(row).lstrip("#").strip()
                if "=" in text:
                    k, v = text.split("=", 1)
                    echo[k.strip()] = v.strip()
                continue
            if row[0] == "policy":
                continue
            parsed: dict = {}
            for key, cell in zip(RESULT_FIELDS, row):
                if cell == "":
                    parsed[key] = None
                elif key in ("n", "n1", "seed"):
                    parsed[key] = int(cell)
                elif key == "policy":
                    parsed[key] = cell
                else:
                    parsed[key] = float(cell)
            rows.append(parsed)
    return rows, echo
