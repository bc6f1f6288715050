"""Parameter sweeps and two-stage configuration search.

A sweep plan names the axes (policies, cluster sizes, loads, size-law covs or
a trace) and the budget (jobs, replications, base seed). Execution uses
common random numbers: every policy and every two-stage candidate at the same
(rho, cov, replication) sees the identical workload, so comparisons are
paired. Output rows follow the fixed results schema and are emitted in a
canonical sort order, making whole sweep outputs byte-reproducible.

Two-stage search evaluates a grid of theta quantiles x stage-0 sizes under
the same paired workloads and returns the full grid plus the optimum; the
optimum tie-breaks deterministically toward larger theta, then larger n1.

Every command evaluates its points through `make_source` and
`metrics.replicate_and_summarize`, which builds each replication's workload
once and runs every spec of a point on it. Pass workers=k (`sweep --workers
k`) to spread sweep points over a process pool; results are identical to the
serial order.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import repeat

from .analysis import (
    Distribution,
    EmpiricalDistribution,
    WeibullDistribution,
    card_thresholds,
)
from .metrics import (
    DEFAULT_WARMUP_FRACTION,
    RESULT_FIELDS,
    ReplicationSummary,
    replicate_and_summarize,
    result_row,
    summary_row,
    write_results_csv,
    write_results_json,
)
from .policies import PolicySpec, parse_label
from .workload import (
    ClusterConfig,
    Workload,
    calibrate_mu,
    fit_weibull,
    generate_poisson_weibull,
    ingest_trace,
)

DEFAULT_THETA_QUANTILES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999)
RESULT_FIELDS_WITH_QUANTILE = (*RESULT_FIELDS, "theta_quantile")


def default_n1_candidates(n: int) -> list[int]:
    """Stage-0 sizes to search: every split for small clusters, a coarse
    eighth-spaced grid (always including 1 and n-1) for n > 20."""
    if n < 2:
        return []
    if n <= 20:
        return list(range(1, n))
    points = {1, n - 1}
    for k in range(1, 8):
        points.add(round(k * n / 8))
    return sorted(p for p in points if 1 <= p <= n - 1)


class SyntheticSource:
    """Workload factory for Poisson/Weibull experiments.

    The cluster convention holds total capacity fixed (so adding servers
    makes each slower) and unit mean size; the arrival rate then follows
    from the target load.
    """

    def __init__(self, cov: float, mean_size: float = 1.0, total_capacity: float = 1.0) -> None:
        self.cov = cov
        self.mean_size = mean_size
        self.total_capacity = total_capacity
        self.params = fit_weibull(mean_size, cov)
        self._dist = WeibullDistribution(self.params)

    def distribution(self) -> Distribution:
        return self._dist

    def config(self, n: int, rho: float) -> ClusterConfig:
        return ClusterConfig.synthetic(n, rho, self.mean_size, self.total_capacity)

    def workload(self, n: int, rho: float, jobs: int, rep_seed: int) -> Workload:
        rate = self.config(n, rho).arrival_rate
        return generate_poisson_weibull(rate, self.params, jobs, rep_seed)

    def baseline(self) -> Distribution | None:
        return self._dist

    @property
    def cov_field(self) -> float | None:
        return self.cov


class TraceSource:
    """Workload factory for trace-driven experiments.

    The trace is fixed; replications differ only in policy tie-break streams.
    Server speed is calibrated per (n, rho) so the trace offers the target
    load. Normalized responses are not reported: the empirical second moment
    is dominated by a handful of giant tasks, so an M/G/1 plug-in baseline is
    not a stable yardstick for a single finite trace.
    """

    def __init__(self, workload: Workload, jobs: int | None = None) -> None:
        self._workload = workload if jobs is None else workload.truncated(jobs)
        self._dist = EmpiricalDistribution.from_workload(self._workload)

    @classmethod
    def from_file(cls, path, jobs: int | None = None) -> "TraceSource":
        return cls(ingest_trace(path), jobs)

    def distribution(self) -> Distribution:
        return self._dist

    def config(self, n: int, rho: float) -> ClusterConfig:
        return calibrate_mu(self._workload, n, rho)

    def workload(self, n: int, rho: float, jobs: int, rep_seed: int) -> Workload:
        return self._workload

    def baseline(self) -> Distribution | None:
        return None

    @property
    def cov_field(self) -> float | None:
        return None


def make_source(cov: float | None, trace, jobs: int | None = None, mean_size: float = 1.0,
                total_capacity: float = 1.0) -> SyntheticSource | TraceSource:
    """Weibull jobs of coefficient of variation `cov`, or the first `jobs`
    jobs (None: all) of the trace file `trace`; exactly one of the two."""
    if (cov is None) == (trace is None):
        raise ValueError("exactly one of cov or trace must be given")
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be >= 1")
    if trace is not None:
        return TraceSource.from_file(trace, jobs)
    return SyntheticSource(cov, mean_size, total_capacity)


# JSON shape of each plan key: element type, whether it holds a list, and
# whether it may be null
_PLAN_SHAPES = {
    "policies": (str, True, False),
    "n_values": (int, True, False),
    "rho_values": (float, True, False),
    "cov_values": (float, True, False),
    "trace": (str, False, True),
    "jobs": (int, False, False),
    "replications": (int, False, False),
    "base_seed": (int, False, False),
    "warmup_fraction": (float, False, False),
    "mean_size": (float, False, False),
    "total_capacity": (float, False, False),
    "theta_quantiles": (float, True, False),
    "n1_candidates": (int, True, True),
}
_JSON_TYPES = {str: ((str,), "a string"), int: ((int,), "an integer"),
               float: ((int, float), "a number")}


def _check_plan_value(key: str, value) -> None:
    kind, is_list, nullable = _PLAN_SHAPES[key]
    types, what = _JSON_TYPES[kind]
    if value is None and nullable:
        return
    if is_list and not isinstance(value, list):
        raise ValueError(f"plan key {key!r} must be a list, got {value!r}")
    for item in value if is_list else [value]:
        if isinstance(item, bool) or not isinstance(item, types):
            raise ValueError(f"plan key {key!r} needs {what}, got {item!r}")


@dataclass(frozen=True)
class SweepPlan:
    """Declarative description of one sweep.

    Axes: policies (labels like "rr" or "two_stage:lwl"), n_values,
    rho_values, and either cov_values (synthetic) or trace (a canonical trace
    CSV path). Two-stage labels trigger a theta/n1 grid search at every
    point and contribute the optimum's rows.
    """

    policies: tuple[str, ...]
    n_values: tuple[int, ...]
    rho_values: tuple[float, ...]
    cov_values: tuple[float, ...] = ()
    trace: str | None = None
    jobs: int = 2_000_000
    replications: int = 5
    base_seed: int = 1
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    mean_size: float = 1.0
    total_capacity: float = 1.0
    theta_quantiles: tuple[float, ...] = DEFAULT_THETA_QUANTILES
    n1_candidates: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("plan needs at least one policy")
        for label in self.policies:
            parse_label(label)
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ValueError("n_values must be positive")
        if not self.rho_values or any(not 0 < r < 1 for r in self.rho_values):
            raise ValueError("rho_values must lie in (0, 1)")
        if bool(self.cov_values) == (self.trace is not None):
            raise ValueError("exactly one of cov_values or trace must be given")
        if self.jobs < 1 or self.replications < 1:
            raise ValueError("jobs and replications must be >= 1")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        for q in self.theta_quantiles:
            if not 0 < q < 1:
                raise ValueError("theta quantiles must lie in (0, 1)")

    @classmethod
    def from_json(cls, text: str) -> "SweepPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("plan JSON must be an object")
        unknown = set(data) - set(_PLAN_SHAPES)
        if unknown:
            raise ValueError(f"unknown plan keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"plan is missing keys: {sorted(missing)}")
        for key, value in data.items():
            _check_plan_value(key, value)
            if isinstance(value, list):
                data[key] = tuple(value)
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "SweepPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())

    def to_json(self) -> str:
        data = asdict(self)
        for key, value in data.items():
            if isinstance(value, tuple):
                data[key] = list(value)
        return json.dumps(data, indent=2)

    def echo(self) -> dict:
        """Flat config echo for result headers."""
        data = asdict(self)
        out = {}
        for key, value in sorted(data.items()):
            if isinstance(value, tuple):
                out[key] = ",".join(str(v) for v in value)
            elif value is None:
                out[key] = ""
            else:
                out[key] = value
        return out


def single_stage_spec(kind: str, dist: Distribution, n: int, rho: float) -> PolicySpec:
    """The spec of single-stage `kind` at (n, rho); card gets its size bands."""
    thresholds = card_thresholds(dist, n, rho) if kind == "card" else None
    return PolicySpec(kind=kind, thresholds=thresholds)


def _run_point(plan: SweepPlan, label: str, n: int, rho: float,
               source) -> tuple[list[dict], list[dict]]:
    """All rows for one (policy, n, rho, source) point: per-replication rows
    (runs) and one aggregated row (summary)."""
    kind, two_stage = parse_label(label)
    if two_stage:
        summary = optimize_two_stage(
            kind, n, rho, source,
            theta_quantiles=plan.theta_quantiles,
            n1_candidates=plan.n1_candidates,
            replications=plan.replications,
            jobs=plan.jobs,
            base_seed=plan.base_seed,
            warmup_fraction=plan.warmup_fraction,
        ).summary
    else:
        spec = single_stage_spec(kind, source.distribution(), n, rho)
        [summary] = replicate_and_summarize(source, source.config(n, rho), [spec], rho,
                                            plan.jobs, plan.base_seed, plan.replications,
                                            plan.warmup_fraction)
    return [result_row(r) for r in summary.results], [summary_row(summary, plan.base_seed)]


def _canonical_key(row: dict):
    return (
        row["rho"],
        row["n"],
        -1.0 if row["cov"] is None else row["cov"],
        row["policy"],
        math.inf if row["theta"] is None else row["theta"],
        -1 if row["n1"] is None else row["n1"],
        row["seed"],
    )


def run_sweep(plan: SweepPlan, workers: int = 1) -> tuple[list[dict], list[dict]]:
    """Execute a sweep; returns (per_replication_rows, summary_rows), both in
    canonical order (rho, n, cov, policy, theta, n1, seed). Each cov's source
    is built once and passed (pickled, in a pool) to every point."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    covs: tuple = plan.cov_values if plan.trace is None else (None,)
    sources = [make_source(cov, plan.trace, plan.jobs, plan.mean_size, plan.total_capacity)
               for cov in covs]
    points = [
        (label, n, rho, source)
        for rho in plan.rho_values
        for n in plan.n_values
        for source in sources
        for label in plan.policies
    ]
    columns = (repeat(plan), *zip(*points))
    if workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_point, *columns))
    else:
        outputs = list(map(_run_point, *columns))
    run_rows = sorted((row for runs, _ in outputs for row in runs), key=_canonical_key)
    summary_rows = sorted((row for _, rows in outputs for row in rows), key=_canonical_key)
    return run_rows, summary_rows


def write_sweep_outputs(plan: SweepPlan, run_rows, summary_rows, out_prefix) -> list[str]:
    """Write <prefix>_runs.csv, <prefix>_summary.csv, <prefix>_summary.json."""
    echo = plan.echo()
    paths = [
        f"{out_prefix}_runs.csv",
        f"{out_prefix}_summary.csv",
        f"{out_prefix}_summary.json",
    ]
    write_results_csv(paths[0], run_rows, echo)
    write_results_csv(paths[1], summary_rows, echo)
    write_results_json(paths[2], summary_rows, echo)
    return paths


@dataclass(frozen=True)
class TwoStageOptimum:
    """Outcome of a theta/n1 grid search for one two-stage policy point."""

    inner: str
    n: int
    rho: float
    theta: float
    theta_quantile: float
    n1: int
    summary: ReplicationSummary = field(repr=False)
    table: tuple[dict, ...] = field(repr=False)


def optimize_two_stage(
    inner: str,
    n: int,
    rho: float,
    source,
    *,
    theta_quantiles=DEFAULT_THETA_QUANTILES,
    n1_candidates=None,
    replications: int = 5,
    jobs: int = 2_000_000,
    base_seed: int = 1,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
) -> TwoStageOptimum:
    """Grid-search theta (as size-law quantiles) and stage-0 size n1.

    Every candidate pair sees the same per-replication workloads (common
    random numbers), so the argmin is a paired comparison. Ties on mean
    response prefer larger theta, then larger n1 (fewer transfers, bigger
    fast stage: the cheaper architecture at equal performance).
    """
    if n < 2:
        raise ValueError("two-stage search needs n >= 2")
    candidates = tuple(default_n1_candidates(n) if n1_candidates is None else n1_candidates)
    if not candidates:
        raise ValueError("no feasible n1 candidates")
    if not theta_quantiles:
        raise ValueError("no theta quantiles to search")
    for n1 in candidates:
        if not 1 <= n1 <= n - 1:
            raise ValueError(f"n1 candidate {n1} outside 1..{n - 1}")
    dist = source.distribution()
    config = source.config(n, rho)

    pairs = [
        (q, dist.quantile(q), n1) for q in theta_quantiles for n1 in candidates
    ]
    specs = [PolicySpec(kind=inner, two_stage=True, n1=n1, theta=theta)
             for _q, theta, n1 in pairs]
    summaries = replicate_and_summarize(source, config, specs, rho, jobs, base_seed,
                                        replications, warmup_fraction)
    # min keeps the first of equal keys, i.e. grid order among exact ties
    best = min(range(len(pairs)), key=lambda i: (summaries[i].mean_mrt_seconds,
                                                 -pairs[i][1], -pairs[i][2]))
    q, theta, n1 = pairs[best]
    return TwoStageOptimum(
        inner=inner,
        n=n,
        rho=rho,
        theta=theta,
        theta_quantile=q,
        n1=n1,
        summary=summaries[best],
        table=tuple({**summary_row(s, base_seed), "theta_quantile": pq}
                    for (pq, _theta, _n1), s in zip(pairs, summaries)),
    )


def pivot_summary(summary_rows, axis: str) -> tuple[list[str], list[list]]:
    """Pivot summary rows into a figure-ready table.

    axis "rho" or "n" becomes the index column; one column per policy. Cells
    are mean normalized responses when every row has one, else mean response
    in seconds. All non-axis sweep dimensions must be single-valued.
    """
    if axis not in ("rho", "n"):
        raise ValueError("axis must be 'rho' or 'n'")
    if not summary_rows:
        raise ValueError("no summary rows to pivot")
    other = "n" if axis == "rho" else "rho"
    other_vals = {row[other] for row in summary_rows}
    if len(other_vals) > 1:
        raise ValueError(f"{other} is not single-valued: {sorted(other_vals)}")
    cov_vals = {row["cov"] for row in summary_rows}
    if len(cov_vals) > 1:
        raise ValueError(f"cov is not single-valued: {sorted(map(str, cov_vals))}")
    use_norm = all(row["normalized_mrt"] is not None for row in summary_rows)
    value_field = "normalized_mrt" if use_norm else "mrt_seconds"
    policies = sorted({row["policy"] for row in summary_rows})
    index = sorted({row[axis] for row in summary_rows})
    cells: dict[tuple, float] = {}
    for row in summary_rows:
        key = (row[axis], row["policy"])
        if key in cells:
            raise ValueError(f"duplicate summary row for {key}")
        cells[key] = row[value_field]
    header = [axis, *policies]
    out = []
    for x in index:
        line: list = [x]
        for p in policies:
            if (x, p) not in cells:
                raise ValueError(f"missing summary row for {(x, p)}")
            line.append(cells[(x, p)])
        out.append(line)
    return header, out


def write_pivot_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for line in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in line) + "\n")
