"""Service-size distribution math.

Everything downstream of workload generation that is closed-form lives here:
moments and quantiles of the size law, the partial-load integral (fraction of
offered load due to sizes at or below a cutoff), the M/G/1 mean-response
baseline used to normalize simulated response times, and the load-balanced
band thresholds for multi-band size-aware dispatching.

Both an analytic Weibull form and an empirical form (backed by observed task
sizes) implement the same interface, so threshold computation and
normalization are agnostic to where the size law came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .workload import WeibullParams, Workload


class Distribution:
    """Interface for a service-size law.

    Subclasses set `mean`, `second_moment` and implement `ccdf`,
    `quantile`, and `partial_load`. Sizes are CPU-seconds on a unit-speed
    reference server.
    """

    mean: float
    second_moment: float

    @property
    def cov(self) -> float:
        """Coefficient of variation, sqrt(Var)/mean."""
        var = max(self.second_moment - self.mean**2, 0.0)
        return math.sqrt(var) / self.mean

    def ccdf(self, x: float) -> float:
        """P(S > x)."""
        raise NotImplementedError

    def quantile(self, q: float) -> float:
        """Smallest size s with P(S <= s) >= q, for q in [0, 1)."""
        raise NotImplementedError

    def partial_load(self, m: float) -> float:
        """Fraction of total offered load due to sizes <= m.

        E[S * 1{S <= m}] / E[S]; nondecreasing from 0 (m <= 0) to 1 (m -> inf).
        """
        raise NotImplementedError


class WeibullDistribution(Distribution):
    """Weibull size law, CCDF exp(-(x/a)**b).

    partial_load has the closed form P(1 + 1/b, (m/a)**b) where P is the
    regularized lower incomplete gamma function: substituting t = (x/a)**b in
    the integral of x f(x) collapses it to the gamma integrand, and dividing
    by E[S] = a*Gamma(1+1/b) regularizes it.
    """

    def __init__(self, params: WeibullParams) -> None:
        self.params = params
        self.mean = params.mean
        self.second_moment = params.second_moment

    def ccdf(self, x: float) -> float:
        if x <= 0:
            return 1.0
        a, b = self.params.scale_a, self.params.shape_b
        return math.exp(-((x / a) ** b))

    def quantile(self, q: float) -> float:
        if not 0 <= q < 1:
            raise ValueError("q must lie in [0, 1)")
        a, b = self.params.scale_a, self.params.shape_b
        # -log(1-q) via log1p keeps precision for small q
        return a * (-math.log1p(-q)) ** (1.0 / b)

    def partial_load(self, m: float) -> float:
        if m <= 0:
            return 0.0
        if math.isinf(m):
            return 1.0
        a, b = self.params.scale_a, self.params.shape_b
        return float(gammainc(1.0 + 1.0 / b, (m / a) ** b))


class EmpiricalDistribution(Distribution):
    """Size law of an observed sample, e.g. the task sizes of a trace.

    Quantiles use the nearest-rank convention; partial_load is the exact
    finite-sample ratio sum(sizes <= m) / sum(sizes).
    """

    def __init__(self, sizes) -> None:
        arr = np.asarray(sizes, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sizes must be a non-empty 1-d array")
        if not np.all(arr > 0) or not np.isfinite(arr).all():
            raise ValueError("sizes must be positive and finite")
        self.sizes = np.sort(arr)
        self.mean = float(self.sizes.mean())
        self.second_moment = float(np.mean(self.sizes**2))
        self._cum_load = np.cumsum(self.sizes)
        self._total = float(self._cum_load[-1])

    @classmethod
    def from_workload(cls, workload: Workload) -> "EmpiricalDistribution":
        return cls(workload.task_sizes)

    def ccdf(self, x: float) -> float:
        above = self.sizes.size - np.searchsorted(self.sizes, x, side="right")
        return float(above) / self.sizes.size

    def quantile(self, q: float) -> float:
        if not 0 <= q < 1:
            raise ValueError("q must lie in [0, 1)")
        rank = max(int(math.ceil(q * self.sizes.size)) - 1, 0)
        return float(self.sizes[rank])

    def partial_load(self, m: float) -> float:
        idx = int(np.searchsorted(self.sizes, m, side="right"))
        if idx == 0:
            return 0.0
        return float(self._cum_load[idx - 1]) / self._total

    def load_cutoff(self, target: float) -> float:
        """Smallest observed size whose partial load reaches `target`."""
        if not 0 < target <= 1:
            raise ValueError("target must lie in (0, 1]")
        idx = int(np.searchsorted(self._cum_load, target * self._total - 1e-12 * self._total))
        idx = min(idx, self.sizes.size - 1)
        return float(self.sizes[idx])


@dataclass(frozen=True)
class CardThresholds:
    """Band boundaries m (len n) and spill cutoffs c (len n-1) for multi-band
    dispatch on n servers. m is positive and nondecreasing; c[i] scales m[i]
    by 1/sqrt(1-rho) so spill tolerance grows as the cluster saturates."""

    m: tuple[float, ...]
    c: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.m) < 1:
            raise ValueError("need at least one band boundary")
        if len(self.c) != len(self.m) - 1:
            raise ValueError("need exactly len(m) - 1 spill cutoffs")
        if self.m[0] <= 0:
            raise ValueError("band boundaries must be positive")
        if any(b < a for a, b in zip(self.m, self.m[1:])):
            raise ValueError("band boundaries must be nondecreasing")
        if any(not c > 0 for c in self.c):
            raise ValueError("spill cutoffs must be positive")

    @property
    def n(self) -> int:
        return len(self.m)


def band_loads(dist: Distribution, thresholds: CardThresholds) -> list[float]:
    """Fraction of offered load inside each of the n+1 intervals cut by m.

    Intervals are [0, m1), [m1, m2), ..., [m_{n-1}, m_n), [m_n, inf). With
    boundaries at partial loads (i - 1/2)/n this is 1/(2n) for the two tail
    intervals and 1/n for the inner ones.
    """
    cuts = [0.0, *thresholds.m, math.inf]
    loads = []
    prev = 0.0
    for hi in cuts[1:]:
        cur = dist.partial_load(hi) if not math.isinf(hi) else 1.0
        loads.append(cur - prev)
        prev = cur
    return loads


_LOAD_TOL = 1e-9


def _invert_partial_load(dist: Distribution, target: float) -> float:
    """Size m with |partial_load(m) - target| <= 1e-9, by bracketed bisection."""
    hi = max(dist.mean, 1e-12)
    for _ in range(600):
        if dist.partial_load(hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"could not bracket partial-load target {target!r}")
    lo = 0.0
    best_m, best_gap = hi, abs(dist.partial_load(hi) - target)
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        val = dist.partial_load(mid)
        gap = abs(val - target)
        if gap < best_gap:
            best_m, best_gap = mid, gap
        if gap <= _LOAD_TOL:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    if best_gap <= _LOAD_TOL:
        return best_m
    raise RuntimeError(
        f"partial-load inversion stalled at gap {best_gap!r} for target {target!r}"
    )


def card_thresholds(dist: Distribution, n: int, rho: float) -> CardThresholds:
    """Band boundaries that split the offered load evenly over n servers.

    Boundary i (1-based) sits at partial load (i - 1/2)/n, so each server's
    home band carries 1/n of the load except the two half-width tails. For
    analytic laws boundaries are found by monotone bisection to within 1e-9
    of the target load fraction; for empirical laws each boundary is the
    smallest observed size whose cumulative load reaches the target. Spill
    cutoffs are c[i] = m[i] / sqrt(1 - rho).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0, 1)")
    targets = [(i - 0.5) / n for i in range(1, n + 1)]
    if isinstance(dist, EmpiricalDistribution):
        m = [dist.load_cutoff(t) for t in targets]
    else:
        m = [_invert_partial_load(dist, t) for t in targets]
    m = [float(x) for x in m]
    for a, b in zip(m, m[1:]):
        if b < a:
            raise RuntimeError("partial-load inversion produced decreasing boundaries")
    scale = 1.0 / math.sqrt(1.0 - rho)
    c = tuple(x * scale for x in m[:-1])
    return CardThresholds(m=tuple(m), c=c)


def mg1_mean_response(dist: Distribution, arrival_rate: float, server_speed: float) -> float:
    """Mean response time of an M/G/1 queue at the given speed.

    Service times are X = S / server_speed; the mean response is
    E[X] + arrival_rate * E[X^2] / (2 * (1 - utilization)). Used as the
    single-fast-server baseline: a cluster of total capacity C is compared
    against one server of speed C fed the same arrival stream.
    """
    if not arrival_rate > 0:
        raise ValueError("arrival_rate must be > 0")
    if not server_speed > 0:
        raise ValueError("server_speed must be > 0")
    ex = dist.mean / server_speed
    ex2 = dist.second_moment / server_speed**2
    utilization = arrival_rate * ex
    if utilization >= 1:
        raise ValueError(f"utilization {utilization!r} is not < 1, queue is unstable")
    return ex + arrival_rate * ex2 / (2.0 * (1.0 - utilization))


def normalized_mrt(
    mrt_seconds: float,
    dist: Distribution,
    arrival_rate: float,
    total_capacity: float,
) -> float:
    """Simulated mean response over the M/G/1 baseline at pooled capacity."""
    return mrt_seconds / mg1_mean_response(dist, arrival_rate, total_capacity)
