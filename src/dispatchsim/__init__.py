"""Discrete-event simulation and analysis of job dispatching in FCFS clusters.

The package is organized around a small pipeline:

    workload    the columnar job/task table, synthetic M/G (Poisson/Weibull)
                generators, trace ingestion and writing, cluster calibration
    analysis    service-size distribution math: moments, quantiles, load
                integrals, M/G/1 mean response, multi-band thresholds
    policies    policy labels and specs (one kind alone or split over two
                stages by theta/n1) and each kind's stage-local chooser:
                join-idle-queue, least-work-left, multi-band size-aware
    engine      the deterministic simulator, an FCFS recursion in dispatch
                order (round robin is a cycle over each stage)
    metrics     response-time aggregation, warm-up handling, replication
                summaries, result serialization
    sweep       parameter sweeps and two-stage configuration search
    cli         command-line entry points over all of the above
"""

__version__ = "0.1.0"

from .analysis import (
    CardThresholds,
    Distribution,
    EmpiricalDistribution,
    WeibullDistribution,
    card_thresholds,
    mg1_mean_response,
)
from .engine import CompletionLog, run
from .metrics import (
    ReplicationSummary,
    RunResult,
    replicate_and_summarize,
    summarize_run,
)
from .policies import PolicySpec, parse_policy
from .workload import (
    ClusterConfig,
    WeibullParams,
    Workload,
    calibrate_mu,
    fit_weibull,
    generate_poisson_weibull,
    ingest_trace,
    write_trace_csv,
)

__all__ = [
    "CardThresholds",
    "ClusterConfig",
    "CompletionLog",
    "Distribution",
    "EmpiricalDistribution",
    "PolicySpec",
    "ReplicationSummary",
    "RunResult",
    "WeibullDistribution",
    "WeibullParams",
    "Workload",
    "calibrate_mu",
    "card_thresholds",
    "fit_weibull",
    "generate_poisson_weibull",
    "ingest_trace",
    "mg1_mean_response",
    "parse_policy",
    "replicate_and_summarize",
    "run",
    "summarize_run",
    "write_trace_csv",
]
