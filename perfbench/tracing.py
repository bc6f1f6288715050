"""In-memory spans around dispatchsim's public layer functions.

The tracer wraps functions from outside the program: for each target it
replaces every attribute of the loaded ``dispatchsim`` modules that is bound
to the target function object (methods are replaced on their class), so a
wrapper still fires when a refactor moves an import. Spans are kept in memory
as ``(name, start, end, parent, step, attrs)`` tuples and written out by the
caller when the run ends; ``self_times`` derives each span's self time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _rows_of_result(args, kwargs, result):
    return {"rows": result.task_count}


def _rows_of_first_arg(args, kwargs, result):
    return {"rows": args[0].task_count}


def _run_counts(args, kwargs, result):
    return {
        "label": result.policy.label,
        "tasks": result.task_count,
        "transfers": result.transfers,
    }


def _cli_command(args, kwargs, result):
    return {"command": args[0][0]}


# (span name, module, attribute path, attrs hook)
TARGETS = (
    ("cli.main", "dispatchsim.cli", "main", _cli_command),
    ("workload.generate_poisson_weibull", "dispatchsim.workload", "generate_poisson_weibull", None),
    ("workload.ingest_trace", "dispatchsim.workload", "ingest_trace", _rows_of_result),
    ("workload.write_trace_csv", "dispatchsim.workload", "write_trace_csv", _rows_of_first_arg),
    ("workload.calibrate_mu", "dispatchsim.workload", "calibrate_mu", None),
    ("analysis.card_thresholds", "dispatchsim.analysis", "card_thresholds", None),
    ("analysis.EmpiricalDistribution.from_workload", "dispatchsim.analysis",
     "EmpiricalDistribution.from_workload", None),
    ("engine.run", "dispatchsim.engine", "run", _run_counts),
    ("engine.CompletionLog.write_task_log", "dispatchsim.engine",
     "CompletionLog.write_task_log", _rows_of_first_arg),
    ("engine.CompletionLog.job_responses", "dispatchsim.engine",
     "CompletionLog.job_responses", None),
    ("metrics.summarize_run", "dispatchsim.metrics", "summarize_run", None),
    ("metrics.replicate_and_summarize", "dispatchsim.metrics", "replicate_and_summarize", None),
    ("metrics.write_results_csv", "dispatchsim.metrics", "write_results_csv", None),
    ("metrics.write_results_json", "dispatchsim.metrics", "write_results_json", None),
    ("sweep.run_sweep", "dispatchsim.sweep", "run_sweep", None),
    ("sweep.optimize_two_stage", "dispatchsim.sweep", "optimize_two_stage", None),
    ("sweep.write_sweep_outputs", "dispatchsim.sweep", "write_sweep_outputs", None),
)


class Tracer:
    """Records spans while installed; ``step`` tags spans with the benchmark
    step that caused them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.step: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, attrs):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.step, None)
            if attrs is not None:
                spans[idx] = spans[idx][:5] + (attrs(args, kwargs, result),)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "dispatchsim" or key.startswith("dispatchsim."))
        ]
        for name, module_name, path, attrs in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            if owner_name:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, attrs))
                else:
                    new = self._wrap(name, raw, attrs)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for (_n, start, end, _p, _s, _a) in spans]
    for name, start, end, parent, _s, _a in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
