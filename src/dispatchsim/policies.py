"""Dispatching policies and the two-stage architecture spec.

A policy sees one stage of the cluster through a `StageView` (stage-local
server indices 0..count-1) and picks a server for each arriving task. The
engine owns all queueing mechanics; policies only answer "which server" and
observe two kinds of feedback: `on_assign` (a task was just placed) and
`on_server_idle` (a server just drained). Signaling is zero-latency: state
updates are visible to the next decision at the same instant.

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


class StageView:
    """Observable state of one stage: a contiguous block of servers.

    Policies address servers by stage-local index; the engine translates to
    global indices. `clear` is the engine-owned list, indexed by global
    server, of the instants at which each backlog empties; the stage's
    servers are clear[offset:offset + count]. The view holds the list
    itself, so every engine write is visible to the next decision.
    `unfinished_work` reports each server's backlog in size units (queued
    plus remaining in-service requirement, scaled by speed).
    """

    __slots__ = ("clear", "offset", "count", "speed")

    def __init__(self, clear: list[float], offset: int, count: int, speed: float) -> None:
        self.clear = clear
        self.offset = offset
        self.count = count
        self.speed = speed

    def unfinished_work(self, now: float) -> list[float]:
        """Backlog of every server in the stage, in size units, at `now`."""
        speed = self.speed
        out = []
        for c in self.clear[self.offset:self.offset + self.count]:
            gap = c - now
            out.append(gap * speed if gap > 0.0 else 0.0)
        return out


class DispatchPolicy:
    """Base policy. Subclasses implement choose(); feedback hooks are no-ops.

    `needs_size` advertises whether choose() may read the task size; the
    engine passes None to size-agnostic policies so accidental peeking fails
    loudly.
    """

    needs_size = False

    def bind(self, view: StageView, rng: np.random.Generator) -> None:
        self.view = view
        self.rng = rng

    def choose(self, now: float, size: float | None) -> int:
        raise NotImplementedError

    def on_assign(self, local: int, requirement: float) -> None:
        pass

    def on_server_idle(self, local: int) -> None:
        pass

    def check_state(self, busy: list[bool]) -> None:
        """Debug hook: raise AssertionError if the policy's own state
        disagrees with the stage's busy flags (stage-local order)."""


class RoundRobin(DispatchPolicy):
    """Cyclic dispatch: the k-th arrival goes to server (k-1) mod count.

    Stateless apart from the arrival counter; any window of `count`
    consecutive arrivals touches every server exactly once.
    """

    def bind(self, view: StageView, rng: np.random.Generator) -> None:
        super().bind(view, rng)
        self._next = 0

    def choose(self, now: float, size: float | None) -> int:
        j = self._next
        self._next = j + 1
        if self._next == self.view.count:
            self._next = 0
        return j


class JoinIdleQueue(DispatchPolicy):
    """Dispatch to a uniformly random idle server, if any.

    The dispatcher keeps one bit per server, all set initially (servers start
    idle). Choosing among set bits clears the chosen bit; a server that
    drains raises its bit again. Signaling is zero-latency, so the bit table
    is always exact. When no bit is set the choice is uniform over all
    servers (the chosen one is busy; its bit stays clear).
    """

    def bind(self, view: StageView, rng: np.random.Generator) -> None:
        super().bind(view, rng)
        self._draw = UniformIndex(rng).draw
        self._idle = list(range(view.count))
        self._pos = list(range(view.count))  # server -> position in _idle, or -1

    def choose(self, now: float, size: float | None) -> int:
        k = len(self._idle)
        if k == 0:
            return self._draw(self.view.count)
        if k == 1:
            return self._idle[0]
        return self._idle[self._draw(k)]

    def on_assign(self, local: int, requirement: float) -> None:
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
        marked = [p >= 0 and self._idle[p] == j for j, p in enumerate(self._pos)]
        if marked != [not b for b in busy] or len(self._idle) != busy.count(False):
            raise AssertionError(f"idle table {self._idle} out of sync with busy flags {busy}")


class LeastWorkLeft(DispatchPolicy):
    """Dispatch to the server with the least unfinished work.

    Ties are broken uniformly at random; with several idle servers all
    minimizers sit at zero backlog, so the idle case needs no special path.
    """

    def bind(self, view: StageView, rng: np.random.Generator) -> None:
        super().bind(view, rng)
        self._draw = UniformIndex(rng).draw

    def choose(self, now: float, size: float | None) -> int:
        # unfinished_work's exact backlog expression, fused with the argmin
        view = self.view
        clear, off, speed = view.clear, view.offset, view.speed
        gap = clear[off] - now
        best = gap * speed if gap > 0.0 else 0.0
        ties = [0]
        for j in range(1, view.count):
            gap = clear[off + j] - now
            w = gap * speed if gap > 0.0 else 0.0
            if w < best:
                best = w
                ties = [j]
            elif w == best:
                ties.append(j)
        if len(ties) == 1:
            return ties[0]
        return ties[self._draw(len(ties))]


class MultiBandCard(DispatchPolicy):
    """Size-aware multi-band dispatch over load-balanced thresholds.

    Servers are ranked by unfinished work (ascending, ties in uniformly
    random order). A task of size s in band i (m[i-1] <= s < m[i], 1-based)
    prefers the i-th least-loaded server but spills to the (i+1)-th when the
    preferred server's backlog exceeds the cutoff c[i]; tasks below m[0] go
    to the least loaded, tasks at or above m[-1] to the most loaded. Each
    band carries roughly equal load, so ranks act as dedicated servers
    without static assignment.
    """

    needs_size = True

    def __init__(self, thresholds: CardThresholds) -> None:
        self.thresholds = thresholds

    def bind(self, view: StageView, rng: np.random.Generator) -> None:
        super().bind(view, rng)
        if self.thresholds.n != view.count:
            raise ValueError(
                f"thresholds are for {self.thresholds.n} servers, stage has {view.count}"
            )
        self._m = list(self.thresholds.m)
        self._c = list(self.thresholds.c)

    def choose(self, now: float, size: float | None) -> int:
        if size is None:
            raise RuntimeError("size-aware policy dispatched without a size")
        n = self.view.count
        work = self.view.unfinished_work(now)
        tie = self.rng.permutation(n)
        order = np.lexsort((tie, work))  # by work, ties in permutation order
        m = self._m
        if size < m[0]:
            return int(order[0])
        if size >= m[-1]:
            return int(order[-1])
        band = bisect_right(m, size)  # 1-based band index, in 1..n-1 here
        preferred = int(order[band - 1])
        if work[preferred] <= self._c[band - 1]:
            return preferred
        return int(order[band])


@dataclass(frozen=True)
class PolicySpec:
    """Parsed policy configuration.

    Single-stage: kind in {"rr", "jiq", "lwl", "card"}; "card" additionally
    needs thresholds. Two-stage: the same kind runs independently on both
    stages (separate instances, separate state, separate tie-break streams);
    stage 0 holds n1 servers and truncates service at theta, stage 1 holds
    the rest and runs tasks with size > theta from scratch. "card" is
    size-aware already and is not composed with the two-stage wrapper.
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


def build_policy(spec_kind: str, thresholds: CardThresholds | None = None) -> DispatchPolicy:
    """Instantiate one (unbound) policy for a single stage."""
    if spec_kind == "rr":
        return RoundRobin()
    if spec_kind == "jiq":
        return JoinIdleQueue()
    if spec_kind == "lwl":
        return LeastWorkLeft()
    if spec_kind == "card":
        if thresholds is None:
            raise ValueError("card policy needs thresholds")
        return MultiBandCard(thresholds)
    raise ValueError(f"unknown policy kind {spec_kind!r}")
