"""Dispatching policies and the two-stage architecture spec.

A dispatcher picks a server within one stage of the cluster, a contiguous
block of servers offset..offset+count-1, and answers with a stage-local
index. rr is a plain cycle over the stage. lwl and card are factories of a
`choose(now, size)` closure that reads the engine-owned list `clear`, the
instant each global server's backlog empties, so every engine write is
visible to the next decision; a backlog in size units is (clear - now) *
speed, clamped at zero. Only `JoinIdleQueue` keeps state of its own, an
idle table fed by `on_assign` (a task was just placed) and `on_server_idle`
(a server just drained). Signaling is zero-latency: state updates are
visible to the next decision at the same instant.

Policies draw tie-breaks from a dedicated per-stage stream, so policy choices
never perturb workload randomness and stage-0 decisions are bit-identical
between a single-stage system and a two-stage system whose second stage is
never used. JIQ and LWL draw their uniform indices through a `UniformIndex`
buffer, which returns what `rng.integers(k)` would; CARD draws
`rng.permutation` directly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .analysis import CardThresholds
from .randomness import UniformIndex

POLICY_KINDS = ("rr", "jiq", "lwl", "card")


class JoinIdleQueue:
    """Dispatch to a uniformly random idle server, if any.

    The dispatcher keeps one bit per server, all set initially (servers start
    idle). Choosing among set bits clears the chosen bit; a server that
    drains raises its bit again. Signaling is zero-latency, so the bit table
    is always exact. When no bit is set the choice is uniform over all
    servers (the chosen one is busy; its bit stays clear).
    """

    def __init__(self, count: int, rng: np.random.Generator) -> None:
        self._draw = UniformIndex(rng).draw
        self._count = count
        self._idle = list(range(count))
        self._pos = list(range(count))  # server -> position in _idle, or -1

    def choose(self) -> int:
        k = len(self._idle)
        if k == 0:
            return self._draw(self._count)
        if k == 1:
            return self._idle[0]
        return self._idle[self._draw(k)]

    def on_assign(self, local: int) -> None:
        p = self._pos[local]
        if p < 0:
            return  # was already busy (drawn from the all-busy branch)
        last = self._idle[-1]
        self._idle[p] = last
        self._pos[last] = p
        self._idle.pop()
        self._pos[local] = -1

    def on_server_idle(self, local: int) -> None:
        if self._pos[local] >= 0:
            raise RuntimeError(f"server {local} reported idle twice")
        self._pos[local] = len(self._idle)
        self._idle.append(local)

    def check_state(self, busy: list[bool]) -> None:
        """Raise AssertionError if the idle table disagrees with the stage's
        busy flags (stage-local order)."""
        marked = [p >= 0 and self._idle[p] == j for j, p in enumerate(self._pos)]
        if marked != [not b for b in busy] or len(self._idle) != busy.count(False):
            raise AssertionError(f"idle table {self._idle} out of sync with busy flags {busy}")


def least_work_left(clear, offset, count, speed, rng):
    """`choose(now, size)` for the server with the least unfinished work.

    Ties are broken uniformly at random; with several idle servers all
    minimizers sit at zero backlog, so the idle case needs no special path.
    The size is not read.
    """
    draw = UniformIndex(rng).draw

    def choose(now: float, size: float | None) -> int:
        gap = clear[offset] - now
        best = gap * speed if gap > 0.0 else 0.0
        ties = [0]
        for j in range(1, count):
            gap = clear[offset + j] - now
            w = gap * speed if gap > 0.0 else 0.0
            if w < best:
                best = w
                ties = [j]
            elif w == best:
                ties.append(j)
        if len(ties) == 1:
            return ties[0]
        return ties[draw(len(ties))]
    return choose


def multi_band_card(clear, offset, count, speed, rng, thresholds: CardThresholds):
    """`choose(now, size)` for size-aware multi-band dispatch over
    load-balanced thresholds.

    Servers are ranked by unfinished work (ascending, ties in uniformly
    random order). A task of size s in band i (m[i-1] <= s < m[i], 1-based)
    prefers the i-th least-loaded server but spills to the (i+1)-th when the
    preferred server's backlog exceeds the cutoff c[i]; tasks below m[0] go
    to the least loaded, tasks at or above m[-1] to the most loaded. Each
    band carries roughly equal load, so ranks act as dedicated servers
    without static assignment.
    """
    m, c, stop = list(thresholds.m), list(thresholds.c), offset + count

    def choose(now: float, size: float | None) -> int:
        if size is None:
            raise RuntimeError("size-aware policy dispatched without a size")
        work = []
        for x in clear[offset:stop]:
            gap = x - now
            work.append(gap * speed if gap > 0.0 else 0.0)
        tie = rng.permutation(count)
        order = np.lexsort((tie, work))  # by work, ties in permutation order
        if size < m[0]:
            return int(order[0])
        if size >= m[-1]:
            return int(order[-1])
        band = bisect_right(m, size)  # 1-based band index, in 1..n-1 here
        preferred = int(order[band - 1])
        if work[preferred] <= c[band - 1]:
            return preferred
        return int(order[band])
    return choose


@dataclass(frozen=True)
class PolicySpec:
    """Parsed policy configuration.

    Single-stage: kind in {"rr", "jiq", "lwl", "card"}; "card" additionally
    needs thresholds. Two-stage: the same kind runs independently on both
    stages (separate choosers, separate state, separate tie-break streams);
    stage 0 holds n1 servers and truncates service at theta, stage 1 holds
    the rest and runs tasks with size > theta from scratch. "card" is
    size-aware already and is not split over two stages.
    """

    kind: str
    two_stage: bool = False
    n1: int | None = None
    theta: float | None = None
    thresholds: CardThresholds | None = None

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.two_stage:
            if self.kind == "card":
                raise ValueError("two-stage dispatch does not compose with card")
            if self.n1 is None or self.theta is None:
                raise ValueError("two-stage policy needs both n1 and theta")
            if not self.theta > 0:
                raise ValueError("theta must be > 0")
        else:
            if self.n1 is not None or self.theta is not None:
                raise ValueError("n1/theta only apply to two-stage policies")
        if self.kind == "card" and self.thresholds is None:
            raise ValueError("card policy needs thresholds")
        if self.kind != "card" and self.thresholds is not None:
            raise ValueError("thresholds only apply to the card policy")

    @property
    def label(self) -> str:
        return f"two_stage:{self.kind}" if self.two_stage else self.kind

    def validate_for(self, n: int) -> None:
        """Check cluster-dependent constraints before a run."""
        if self.two_stage:
            if not 1 <= self.n1 <= n - 1:
                raise ValueError(f"n1 must lie in 1..{n - 1}, got {self.n1}")
        if self.kind == "card" and self.thresholds.n != n:
            raise ValueError(
                f"thresholds are for {self.thresholds.n} servers, cluster has {n}"
            )


def parse_label(text: str) -> tuple[str, bool]:
    """Split a policy label like "rr", "card" or "two_stage:lwl" into
    (kind, two_stage). Case and surrounding whitespace are ignored; an
    unknown kind and "two_stage:card" raise ValueError."""
    label = text.strip().lower()
    two_stage = label.startswith("two_stage:")
    kind = label[len("two_stage:"):] if two_stage else label
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy label {text!r}")
    if two_stage and kind == "card":
        raise ValueError("two-stage dispatch does not compose with card")
    return kind, two_stage


def parse_policy(
    text: str,
    *,
    n1: int | None = None,
    theta: float | None = None,
    thresholds: CardThresholds | None = None,
) -> PolicySpec:
    """Parse a policy label (see `parse_label`) into a PolicySpec.

    Two-stage parameters (n1, theta) and card thresholds are supplied
    separately since they are numbers/objects, not part of the label. theta
    may be math.inf, which makes stage 1 unreachable.
    """
    kind, two_stage = parse_label(text)
    return PolicySpec(kind=kind, two_stage=two_stage, n1=n1, theta=theta, thresholds=thresholds)
