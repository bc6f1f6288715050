"""Workloads: synthetic M/G generation, trace ingestion, cluster calibration.

A workload is a time-ordered list of jobs, each carrying one or more tasks
with service-size requirements expressed in CPU-seconds on a unit-speed
reference server. Jobs are stored only as columns (flat numpy arrays plus a
job->task offset table) so that workloads of 10^6..10^7 jobs stay cheap to
build, slice, and feed to the simulator; `Workload.from_tasks` groups
per-task columns, in file order, into that layout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .randomness import workload_rng

TRACE_HEADER = ("job_id", "arrival_time", "task_index", "size")


class TraceFormatError(ValueError):
    """A trace file violates the canonical format; message names the line."""


class Workload:
    """Jobs sorted by arrival time, stored columnar.

    Attributes:
        job_ids: int64 array, one external id per job.
        arrivals: float64 array of job arrival times, nondecreasing.
        task_offsets: int64 array of length job_count+1; tasks of job i live
            at flat positions task_offsets[i]:task_offsets[i+1].
        task_sizes: float64 array of per-task sizes, flat, grouped by job.
        task_indices: int64 array of per-task indices within their job.
        horizon: observation horizon, >= the last arrival time.
        source: provenance label ("synthetic" or "trace", free-form).
    """

    __slots__ = (
        "job_ids",
        "arrivals",
        "task_offsets",
        "task_sizes",
        "task_indices",
        "horizon",
        "source",
    )

    def __init__(
        self,
        job_ids: np.ndarray,
        arrivals: np.ndarray,
        task_offsets: np.ndarray,
        task_sizes: np.ndarray,
        task_indices: np.ndarray,
        horizon: float,
        source: str,
    ) -> None:
        self.job_ids = np.ascontiguousarray(job_ids, dtype=np.int64)
        self.arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
        self.task_offsets = np.ascontiguousarray(task_offsets, dtype=np.int64)
        self.task_sizes = np.ascontiguousarray(task_sizes, dtype=np.float64)
        self.task_indices = np.ascontiguousarray(task_indices, dtype=np.int64)
        self.horizon = float(horizon)
        self.source = str(source)
        self._validate()

    def _validate(self) -> None:
        j = len(self.arrivals)
        if j == 0:
            raise ValueError("workload must contain at least one job")
        if len(self.job_ids) != j or len(self.task_offsets) != j + 1:
            raise ValueError("job column lengths are inconsistent")
        if self.task_offsets[0] != 0 or self.task_offsets[-1] != len(self.task_sizes):
            raise ValueError("task offset table does not cover the size column")
        if np.any(np.diff(self.task_offsets) < 1):
            raise ValueError("every job needs at least one task")
        if len(self.task_indices) != len(self.task_sizes):
            raise ValueError("task column lengths are inconsistent")
        if np.any(np.diff(self.arrivals) < 0):
            raise ValueError("job arrivals must be nondecreasing")
        if self.arrivals[0] < 0:
            raise ValueError("arrival times must be >= 0")
        if not np.all(self.task_sizes > 0):
            raise ValueError("task sizes must be > 0")
        if not np.isfinite(self.task_sizes).all() or not np.isfinite(self.arrivals).all():
            raise ValueError("arrivals and sizes must be finite")
        # a finite sum of squares implies a finite total and finite moments
        with np.errstate(over="ignore"):
            if not np.isfinite(np.sum(self.task_sizes**2)):
                raise ValueError("task sizes must have a finite total and second moment")
        if self.horizon < self.arrivals[-1]:
            raise ValueError("horizon must cover the last arrival")

    @classmethod
    def from_tasks(cls, job_ids, arrivals, task_indices, sizes, horizon: float | None = None,
                   source: str = "synthetic") -> "Workload":
        """Group per-task columns, in file order, into jobs.

        Rows with one job id form one job; its tasks keep their row order and
        every row must carry the job's arrival. Jobs are stable-sorted by
        arrival, ties in order of first appearance. `horizon` defaults to the
        last arrival.
        """
        job_ids = np.asarray(job_ids, dtype=np.int64)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        task_indices = np.asarray(task_indices, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.float64)
        if len(job_ids) == 0:
            raise ValueError("workload must contain at least one job")
        if not len(job_ids) == len(arrivals) == len(task_indices) == len(sizes):
            raise ValueError("task column lengths are inconsistent")
        _, first, job = np.unique(job_ids, return_index=True, return_inverse=True)
        row_first = first[job]  # each row's job, named by its first row
        if not np.array_equal(arrivals, arrivals[row_first], equal_nan=True):
            raise ValueError("the tasks of a job must share its arrival time")
        order = np.lexsort((row_first, arrivals))  # stable: rows keep file order
        starts = np.flatnonzero(np.diff(row_first[order], prepend=-1))
        offsets = np.append(starts, len(order))
        job_arrivals = arrivals[order[starts]]
        if horizon is None:
            horizon = float(job_arrivals[-1])
        return cls(job_ids[order[starts]], job_arrivals, offsets, sizes[order],
                   task_indices[order], horizon, source)

    @property
    def job_count(self) -> int:
        return len(self.arrivals)

    @property
    def task_count(self) -> int:
        return len(self.task_sizes)

    @property
    def total_work(self) -> float:
        """Total service requirement in CPU-seconds (unit-speed reference)."""
        return float(self.task_sizes.sum())

    def task_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat per-task (arrival, size, job ordinal) arrays in dispatch order.

        Tasks inherit their job's arrival time; within a job they keep file /
        generation order. This is exactly the order the simulator consumes.
        """
        counts = np.diff(self.task_offsets)
        task_arrival = np.repeat(self.arrivals, counts)
        task_job = np.repeat(np.arange(self.job_count, dtype=np.int64), counts)
        return task_arrival, self.task_sizes, task_job

    def truncated(self, max_jobs: int) -> "Workload":
        """First `max_jobs` jobs in arrival order (the whole workload if fewer)."""
        if max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        if max_jobs >= self.job_count:
            return self
        end = int(self.task_offsets[max_jobs])
        return Workload(
            self.job_ids[:max_jobs],
            self.arrivals[:max_jobs],
            self.task_offsets[: max_jobs + 1],
            self.task_sizes[:end],
            self.task_indices[:end],
            float(self.arrivals[max_jobs - 1]),
            self.source,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.source == other.source
            and np.array_equal(self.job_ids, other.job_ids)
            and np.array_equal(self.arrivals, other.arrivals)
            and np.array_equal(self.task_offsets, other.task_offsets)
            and np.array_equal(self.task_sizes, other.task_sizes)
            and np.array_equal(self.task_indices, other.task_indices)
        )

    def __repr__(self) -> str:
        return (
            f"Workload(jobs={self.job_count}, tasks={self.task_count}, "
            f"horizon={self.horizon!r}, source={self.source!r})"
        )


@dataclass(frozen=True)
class WeibullParams:
    """Weibull service-size law with CCDF exp(-(x/scale_a)**shape_b)."""

    scale_a: float
    shape_b: float

    def __post_init__(self) -> None:
        if not (self.scale_a > 0 and math.isfinite(self.scale_a)):
            raise ValueError(f"scale_a must be positive and finite, got {self.scale_a}")
        if not (self.shape_b > 0 and math.isfinite(self.shape_b)):
            raise ValueError(f"shape_b must be positive and finite, got {self.shape_b}")

    @property
    def mean(self) -> float:
        # E[S] = a * Gamma(1 + 1/b); evaluated in log space to survive tiny b.
        return self.scale_a * math.exp(gammaln(1.0 + 1.0 / self.shape_b))

    @property
    def second_moment(self) -> float:
        # E[S^2] = a^2 * Gamma(1 + 2/b)
        return self.scale_a**2 * math.exp(gammaln(1.0 + 2.0 / self.shape_b))

    @property
    def cov(self) -> float:
        m, s2 = self.mean, self.second_moment
        return math.sqrt(max(s2 - m * m, 0.0)) / m


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster sizing: n identical FCFS servers of speed mu.

    Fields satisfy total_capacity == n * mu exactly and
    target_rho == arrival_rate * mean_job_size / total_capacity up to float
    round-off; the constructors below maintain both identities.
    """

    n: int
    mu: float
    total_capacity: float
    target_rho: float
    arrival_rate: float
    mean_job_size: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name in ("mu", "total_capacity", "arrival_rate", "mean_job_size"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if not 0 < self.target_rho < 1:
            raise ValueError("target_rho must lie in (0, 1)")
        if self.total_capacity != self.n * self.mu:
            raise ValueError("total_capacity must equal n * mu exactly")
        implied = self.arrival_rate * self.mean_job_size / self.total_capacity
        # written so that a NaN load fails it
        if not abs(implied - self.target_rho) <= 1e-9 * max(1.0, self.target_rho):
            raise ValueError(
                f"inconsistent load: arrival_rate*mean/capacity = {implied!r} "
                f"but target_rho = {self.target_rho!r}"
            )

    @classmethod
    def synthetic(
        cls,
        n: int,
        target_rho: float,
        mean_job_size: float = 1.0,
        total_capacity: float = 1.0,
    ) -> "ClusterConfig":
        """Fixed-capacity convention: the cluster's total speed is held at
        `total_capacity` while n varies, so mu = total_capacity / n and the
        arrival rate follows from the load identity."""
        if n < 1:
            raise ValueError("n must be >= 1")
        mu = total_capacity / n
        capacity = n * mu  # may differ from total_capacity by round-off
        arrival_rate = target_rho * capacity / mean_job_size
        return cls(n, mu, capacity, target_rho, arrival_rate, mean_job_size)

    @classmethod
    def for_workload(cls, n: int, mu: float, workload: Workload) -> "ClusterConfig":
        """Describe an existing workload running on n servers of speed mu."""
        if workload.horizon <= 0:
            raise ValueError("workload horizon must be > 0 to define rates")
        arrival_rate = workload.job_count / workload.horizon
        mean_job_size = workload.total_work / workload.job_count
        rho = arrival_rate * mean_job_size / (n * mu)
        return cls(n, mu, n * mu, rho, arrival_rate, mean_job_size)


def fit_weibull(mean: float, cov: float, rel_tol: float = 1e-10) -> WeibullParams:
    """Fit Weibull (scale_a, shape_b) to a target mean and coefficient of
    variation by inverting the moment ratio.

    The shape solves E[S^2]/E[S]^2 = Gamma(1+2/b)/Gamma(1+1/b)^2 = 1 + cov^2;
    the equation is solved in log space (via gammaln) so that heavy-tailed
    targets (large cov, hence tiny b) do not overflow. cov == 1 returns the
    exponential special case (shape_b == 1) exactly.

    Raises:
        ValueError: mean or cov not positive.
        RuntimeError: bracketing or root refinement fails to reach rel_tol
            (pathological cov at the edge of float range).
    """
    if not (mean > 0 and math.isfinite(mean)):
        raise ValueError(f"mean must be positive and finite, got {mean}")
    if not (cov > 0 and math.isfinite(cov)):
        raise ValueError(f"cov must be positive and finite, got {cov}")

    target = math.log1p(cov * cov)  # log(E[S^2]/E[S]^2)

    def log_ratio_gap(b: float) -> float:
        return gammaln(1.0 + 2.0 / b) - 2.0 * gammaln(1.0 + 1.0 / b) - target

    if cov == 1.0:
        shape = 1.0  # exponential: Gamma(3)/Gamma(2)^2 = 2 = 1 + 1^2
    else:
        # log_ratio_gap is strictly decreasing in b; expand a bracket around 1.
        lo = hi = 1.0
        for _ in range(80):
            if log_ratio_gap(lo) > 0:
                break
            lo /= 4.0
        else:
            raise RuntimeError(f"failed to bracket Weibull shape below 1 for cov={cov!r}")
        for _ in range(80):
            if log_ratio_gap(hi) < 0:
                break
            hi *= 4.0
        else:
            raise RuntimeError(f"failed to bracket Weibull shape above 1 for cov={cov!r}")
        shape = float(brentq(log_ratio_gap, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=200))

    achieved = math.exp(gammaln(1.0 + 2.0 / shape) - 2.0 * gammaln(1.0 + 1.0 / shape))
    if abs(achieved - (1.0 + cov * cov)) > rel_tol * (1.0 + cov * cov):
        raise RuntimeError(
            f"Weibull fit did not converge for cov={cov!r}: moment ratio "
            f"{achieved!r} vs target {1.0 + cov * cov!r}"
        )
    scale = mean * math.exp(-gammaln(1.0 + 1.0 / shape))
    if not scale > 0:
        raise RuntimeError(f"Weibull scale underflowed for mean={mean!r}, cov={cov!r}")
    return WeibullParams(scale_a=scale, shape_b=shape)


def weibull_inverse(params: WeibullParams, u):
    """Inverse-CCDF transform: maps u in (0, 1) to a Weibull size.

    Accepts scalars or arrays. x = a * (-ln u)^(1/b), so u is read as a
    survival probability; u near 0 gives the large-size tail.
    """
    return params.scale_a * (-np.log(u)) ** (1.0 / params.shape_b)


def _open_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` uniform draws strictly inside (0, 1).

    numpy's random() covers [0, 1); the single excluded endpoint 1 would map
    to size 0 and the possible 0 would map to +inf, so exact zeros (measure
    zero, but reachable) are redrawn. No draw is wasted otherwise.
    """
    u = rng.random(count)
    bad = np.flatnonzero(u == 0.0)
    while bad.size:
        u[bad] = rng.random(bad.size)
        bad = bad[u[bad] == 0.0]
    return u


def generate_poisson_weibull(
    arrival_rate: float,
    params: WeibullParams,
    job_count: int,
    seed: int,
) -> Workload:
    """Synthesize `job_count` single-task jobs: Poisson arrivals at
    `arrival_rate`, i.i.d. Weibull sizes. Deterministic in `seed`.

    The workload horizon is the last arrival time; job ids are 0..count-1 in
    arrival order. Arrival gaps are drawn first, then all sizes, so the two
    vectors come from disjoint stretches of one counter-based stream.
    """
    if not 0 < arrival_rate < math.inf:
        raise ValueError(f"arrival_rate must be finite and > 0, got {arrival_rate!r}")
    if job_count < 1:
        raise ValueError("job_count must be >= 1")
    rng = workload_rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, job_count)
    arrivals = np.cumsum(gaps)
    sizes = weibull_inverse(params, _open_uniform(rng, job_count))
    ids = np.arange(job_count, dtype=np.int64)
    offsets = np.arange(job_count + 1, dtype=np.int64)
    indices = np.zeros(job_count, dtype=np.int64)
    return Workload(ids, arrivals, offsets, sizes, indices, float(arrivals[-1]), "synthetic")


def _parse_trace_value(raw: str, kind, what: str, line_no: int):
    try:
        return kind(raw)
    except ValueError:
        raise TraceFormatError(f"line {line_no}: malformed {what}: {raw!r}") from None


def _not_utf8(path) -> str:
    """Name the first line of `path` that does not decode as UTF-8."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return f"line {line_no}: not UTF-8 text (byte {exc.start + 1} of the line)"
    return "not UTF-8 text"


def ingest_trace(path) -> Workload:
    """Read a canonical trace CSV into a Workload.

    Format: optional leading comment lines `# key=value` (recognized keys:
    `horizon`, `source`), then the header `job_id,arrival_time,task_index,size`,
    then one row per task. Tasks of one job may be scattered through the file
    but must agree on the job's arrival time. Jobs are stable-sorted by
    arrival; ties keep first-appearance order.

    Raises TraceFormatError naming the offending line for: text that is not
    UTF-8 or not CSV, malformed fields, ids outside int64, non-positive
    sizes, negative arrival times, duplicate (job_id, task_index) pairs,
    inconsistent arrival times within a job, a bad header, an empty file, or
    a horizon override that is not finite or does not cover the last arrival.
    """
    meta: dict[str, tuple[str, int]] = {}  # key -> (value, line)
    jobs: dict[int, tuple[float, int]] = {}  # job_id -> (arrival, first line)
    seen: set[tuple[int, int]] = set()
    job_ids, arrivals, task_indices, sizes = [], [], [], []
    header_seen = False
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        try:
            for line_no, row in enumerate(rows, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if row[0].lstrip().startswith("#"):
                    if header_seen:
                        raise TraceFormatError(f"line {line_no}: comment after header")
                    text = ",".join(row).lstrip().lstrip("#").strip()
                    if "=" in text:
                        key, value = text.split("=", 1)
                        meta[key.strip()] = (value.strip(), line_no)
                    continue
                if not header_seen:
                    if tuple(f.strip() for f in row) != TRACE_HEADER:
                        raise TraceFormatError(
                            f"line {line_no}: expected header {','.join(TRACE_HEADER)!r}"
                        )
                    header_seen = True
                    continue
                if len(row) != 4:
                    raise TraceFormatError(f"line {line_no}: expected 4 fields, got {len(row)}")
                job_id = _parse_trace_value(row[0].strip(), int, "job_id", line_no)
                arrival = _parse_trace_value(row[1].strip(), float, "arrival_time", line_no)
                task_index = _parse_trace_value(row[2].strip(), int, "task_index", line_no)
                if not (-2**63 <= job_id < 2**63 and -2**63 <= task_index < 2**63):
                    what = "task_index" if -2**63 <= job_id < 2**63 else "job_id"
                    raise TraceFormatError(f"line {line_no}: {what} is outside the int64 range")
                size = _parse_trace_value(row[3].strip(), float, "size", line_no)
                if not math.isfinite(arrival) or arrival < 0:
                    raise TraceFormatError(f"line {line_no}: arrival_time must be >= 0 and finite")
                if not math.isfinite(size) or size <= 0:
                    raise TraceFormatError(f"line {line_no}: size must be > 0 and finite")
                key = (job_id, task_index)
                if key in seen:
                    raise TraceFormatError(
                        f"line {line_no}: duplicate task {task_index} for job {job_id}"
                    )
                seen.add(key)
                first = jobs.setdefault(job_id, (arrival, line_no))
                if arrival != first[0]:
                    raise TraceFormatError(
                        f"line {line_no}: job {job_id} arrival_time {arrival!r} "
                        f"conflicts with {first[0]!r} from line {first[1]}"
                    )
                job_ids.append(job_id)
                arrivals.append(arrival)
                task_indices.append(task_index)
                sizes.append(size)
        except UnicodeDecodeError:
            raise TraceFormatError(_not_utf8(path)) from None
        except csv.Error as exc:
            raise TraceFormatError(f"line {rows.line_num}: {exc}") from None
    if not header_seen:
        raise TraceFormatError("line 1: missing header")
    if not jobs:
        raise TraceFormatError("trace contains no task rows")

    source = meta.get("source", ("trace",))[0]
    horizon = None
    if "horizon" in meta:
        raw, line_no = meta["horizon"]
        horizon = _parse_trace_value(raw, float, "horizon", line_no)
        last = max(arrivals)
        if not math.isfinite(horizon) or horizon < last:
            raise TraceFormatError(f"line {line_no}: horizon {horizon!r} must be finite "
                                   f"and cover the last arrival {last!r}")
    try:
        return Workload.from_tasks(job_ids, arrivals, task_indices, sizes, horizon, source)
    except ValueError as exc:  # whole-trace checks, such as a finite total size
        raise TraceFormatError(str(exc)) from None


def write_trace_csv(workload: Workload, path) -> None:
    """Write a workload as a canonical trace CSV.

    Floats are written with repr so that ingest_trace(write_trace_csv(w)) == w
    bit for bit; horizon and source go into leading comment lines.
    """
    task_arrival, task_size, task_job = workload.task_arrays()
    columns = (workload.job_ids[task_job], task_arrival, workload.task_indices, task_size)
    with open(path, "w", newline="") as fh:
        fh.write(f"# source={workload.source}\n")
        fh.write(f"# horizon={workload.horizon!r}\n")
        fh.write(",".join(TRACE_HEADER) + "\n")
        for job, arr, k, size in zip(*(c.tolist() for c in columns)):
            fh.write(f"{job},{arr!r},{k},{size!r}\n")


def calibrate_mu(workload: Workload, n: int, target_rho: float) -> ClusterConfig:
    """Choose the per-server speed that puts a fixed workload at target_rho.

    Offered load is total work divided by horizon; mu solves
    rho = total_work / (horizon * n * mu). Raises if the workload has zero
    duration (single arrival instant) since no finite speed yields the target.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < target_rho < 1:
        raise ValueError("target_rho must lie in (0, 1)")
    if workload.horizon <= 0:
        raise ValueError("workload horizon must be > 0 to calibrate a service rate")
    mu = workload.total_work / (workload.horizon * n * target_rho)
    arrival_rate = workload.job_count / workload.horizon
    mean_job_size = workload.total_work / workload.job_count
    return ClusterConfig(n, mu, n * mu, target_rho, arrival_rate, mean_job_size)
