"""Golden digests: SHA-256 of every file `simulate` writes, per policy label,
and of every array `engine.run` returns on tie-heavy and horizon-stopped runs.

Each CLI case runs `simulate --out P --task-log L` on 2000 synthetic Weibull
cov=10 jobs (two replications) and compares the digests of P.csv, P.json and
L against the pinned values. Each engine case hashes every `CompletionLog`
array plus `end_time` and `transfers` of one `run` on either a quantized
multi-task workload (integer arrivals and sizes, speed 1, so arrivals,
completions and transfers share instants) or a continuous one, drained or
stopped at a horizon; one more case recomputes every engine digest with the
compiled kernel unloaded, on `engine.run`'s Python path. The orchestration
case runs `sweep` (synthetic and trace plans over all seven labels, at 1 and
2 workers), `optimize-two-stage`, `card-thresholds`, `ingest-trace` (also on
a trace whose rows interleave jobs and whose arrivals tie) and trace-driven
`simulate` from one working directory and hashes each command's stdout and
files. A refactor that claims byte identity must leave every digest in this
file unchanged; a change that moves a digest on purpose re-pins it and says
why in CHANGES.md. Print the current digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dispatchsim import kernel
from dispatchsim.analysis import EmpiricalDistribution, WeibullDistribution, card_thresholds
from dispatchsim.cli import main
from dispatchsim.engine import run
from dispatchsim.policies import parse_policy
from dispatchsim.workload import (
    ClusterConfig,
    Workload,
    fit_weibull,
    generate_poisson_weibull,
    write_trace_csv,
)

LABELS = ("rr", "jiq", "lwl", "card", "two_stage:rr", "two_stage:lwl")
SIZES = (10, 100)

GOLDEN = {
    ("rr", 10): {
        "csv": "ce4de70f9d323b7c3e0eca466be38cf1c118934b229fef962879d0d9b5ea6ff5",
        "json": "41be5ea6af71c8077a7c536b08e49f033bfb6dd207478cad165ab9ae1f5ba4f5",
        "log": "0ba6f0fbc33008651e6d7fd92ad5a1367a31c4923f66cd931996d9e6e3e4f40a",
    },
    ("rr", 100): {
        "csv": "b2fc277876a35a3e0080199dda92d4cbe19af9f979e9c887dfd6af251ee6bcab",
        "json": "2d20a88c89c8665c578db2956913a386c70a587bcf638c9b63dc546c8add63c7",
        "log": "0f88abcb1f1fd1dbc7b0ce7c83fc35c16ac8cd2fd3d56eed099ed838aae11298",
    },
    ("jiq", 10): {
        "csv": "3e4cff82991986bfa4e6efafb52236da4c6572f5448e04adc9c62c7009958f1e",
        "json": "ef597b7ad28c60dea4b37d731cf9849e3aaa6b049a4f00b0d71b43ff0de6755e",
        "log": "1ed0238146171cf1913b7202cbad3e781f681111ae84b56315d7a3145bd50ea9",
    },
    ("jiq", 100): {
        "csv": "135cbaf074f133254c36c61b5603d3f80a8346b03e171cf42987ce29d8d8aab5",
        "json": "b96a28b6cb6fc0b76f0db2605ce9c2461692d57692a7d211a6d3c5fa9d9af869",
        "log": "a257442e659797488eecef93736aabf77a5c2ce83b1b1bdbffd1b512951cacc8",
    },
    ("lwl", 10): {
        "csv": "ef6f242481024fb2ae2e325ffbac300e077f0b323a98889f17df122be06bbf52",
        "json": "5c0f4121b9250c365ceca18cc1f9bbdbea0b353808cf61f8b4be89fe5f7434b2",
        "log": "afff7591df36889f2067a7f98e34f7c0e515f23550b9934803f713d470a0417e",
    },
    ("lwl", 100): {
        "csv": "3d3ba7f33c154974c82bce08ebfe0ccccf67badb1d497b7597ece96b0db6cdd7",
        "json": "0e526170704d2571ea39aab91184d45b083dd42cc61f29f92295cac6ddc013d0",
        "log": "c8adb5583b2d87af9ea3f60d5a4f83f8673cc4f0d04cfa85103f842c21e38564",
    },
    ("card", 10): {
        "csv": "e564dbbc69beeaebb397ceb085a2677b962b351b7b4df9caab092ad357b65aa0",
        "json": "f9baa4b226459011893873db87dd6a311a045bf78c88dd1d95fbc463836852f9",
        "log": "ab8c50ddfb303c91adc0b3d2a7727972ddd7beab13cbef2efd5f7612aca51b7d",
    },
    ("card", 100): {
        "csv": "4ba3626e27d1dabc7968ac1d17dca58f3cd8afde5def916559462656caa0ee2a",
        "json": "4b6abc38010946b07d0945587d2665dbc1691d4d4514fe84b797c79f8dd008a2",
        "log": "bb9fc0cca0bc5bec197685e025ad2af07361b360317b7ab94b90892291a55eff",
    },
    ("two_stage:rr", 10): {
        "csv": "6c74540acf726f9d65528cb01eb5b86754eecdd1bebc95e26deff19111a5cd54",
        "json": "489e50ff7fb6b817a355cfc12f220f6d9848ed010d162cb098eca5883c8b25ce",
        "log": "d7fffd79290a0435620e540d9abd1381489b60826ee8970b1d0db439434cf5e2",
    },
    ("two_stage:rr", 100): {
        "csv": "ff1e01831d4ca4d6c568cd64474767f898b3577cf64b85badf2ea917fb5debae",
        "json": "4921455a9ea47fb4d1a4ae51482764718eed46fa783250174243836c8ba2a9ee",
        "log": "1a52e9d6b18aaaee8e1ff4039a0328d6305c2c421b5cc6f10e9ec82636674a50",
    },
    ("two_stage:lwl", 10): {
        "csv": "16cf8c3595026f8ca63c10f1974bf1ab6255021db1e3d6ea19d73991da5f4d91",
        "json": "e3267cd22e8d8feec99e3cada4f86d9c6c02a4d884ff7a29c23ab55651269c4e",
        "log": "f138eb2dc0c0fc3047ddf6e3248e34b183ecd44320874d57c6f639c7f307455b",
    },
    ("two_stage:lwl", 100): {
        "csv": "133e6c9ce6c110cd233c8409776ef6288576dedb3b2446025aacf73da342c0dc",
        "json": "4fc0d63a34105ff79c08b2b7e767a8a6dc35b408de8937bd652b229583a0a9f6",
        "log": "16f6a039c699f3454be85292f3e53a417fff1f7a740a551b4c147e1674ee57c6",
    },
}


def _digests(tmp: Path, label: str, n: int) -> dict:
    out, log = tmp / "sim", tmp / "log.csv"
    argv = ["simulate", "--policy", label, "--n", str(n), "--rho", "0.8", "--cov", "10",
            "--jobs", "2000", "--replications", "2", "--seed", "7",
            "--out", str(out), "--task-log", str(log)]
    if label.startswith("two_stage:"):
        argv += ["--theta-quantile", "0.95", "--n1", str(3 * n // 10)]
    assert main(argv) == 0
    files = {"csv": Path(f"{out}.csv"), "json": Path(f"{out}.json"), "log": log}
    return {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("label", LABELS)
def test_simulate_outputs_match_golden_digests(tmp_path, capsys, label, n):
    assert _digests(tmp_path, label, n) == GOLDEN[(label, n)]


ENGINE_CASES = {
    # (workload, label, horizon): quantized runs on 8 servers at load ~0.56,
    # four of them stage 0 with theta=4 (sizes equal to theta stay there);
    # card's thresholds come from the workload's own size distribution
    ("quantized", "rr", None):
        "ee92e79a2452667883bdcbdb42b30edef5f2f7e654a9c3b7bd5ec6e74bdba5a5",
    ("quantized", "rr", 400.0):
        "ea7acbca6335b57d23f1b6612051024a5f1c48ad567b366978a4d8a20bad0cd7",
    ("quantized", "two_stage:rr", None):
        "e5898e36c363bf526227b3696ebd77a440a8b89fe2f5404d0f8cdd013400370a",
    ("quantized", "two_stage:rr", 400.0):
        "beb9936d7b420abe358684881504f0cabb46e4bf74d8e99600e537c74692db7d",
    ("continuous", "rr", 2000.0):
        "fcaa26cc21ff9707a1ac2a35b3e9716170f59c37d384134859390452bc805e17",
    ("continuous", "two_stage:rr", 2000.0):
        "f529505112563f654ed32bc70a34ac8c70ccc625b403cf3aad0b37ac34bd3a77",
    ("quantized", "jiq", None):
        "5d6b618d2ecb546d193ad9e628ccc03783e9a192ab8cacc6b48592000ec1c136",
    ("quantized", "jiq", 400.0):
        "a162705810791baa882e91cbc8c99485721cb3031f45d418e23ac75fcdcef2ed",
    ("quantized", "lwl", None):
        "6cc3cba80eb4460d87b79c17dde7f668bc0265a8a601baa6f020b062efc2429e",
    ("quantized", "lwl", 400.0):
        "a03f3c90594675f8484be814d35c640632c5227bcd9cf285c2ee02cb3f34ea6d",
    ("quantized", "card", None):
        "02769c7cf2a32ffa4e5f1e949edfb47a1aac3a773478cf61cb7b86f7426827af",
    ("quantized", "card", 400.0):
        "11d9e54584d8b86cd07f3bea58358810a6c67b9838701a1ee7e4a24c6610c308",
    ("quantized", "two_stage:jiq", None):
        "e6e63cabe467aaf5199a2cddab994fdeeae8dcd6009f212c7975a18cef869de6",
    ("quantized", "two_stage:jiq", 400.0):
        "460839a772c123fae851c0fbb72b794133b7daafbbdcf5298a8d56228acc4832",
    ("quantized", "two_stage:lwl", None):
        "ab510a1e7b8b8db2fea0ac6454fd1656381ca4d9f4bf90a9b181b36fe6ced887",
    ("quantized", "two_stage:lwl", 400.0):
        "fc6245b5b7c0b5d360920bf01bda921831b3dbbc73719b6ed3ef9ad9ae19ec4a",
    ("continuous", "jiq", 2000.0):
        "ba9122fadc020e05c9f978f69ba1fa1bd3a6433b7233dfd0b30018d58a7d7250",
    ("continuous", "lwl", 2000.0):
        "ae62b0f2a609d0c008b6c0263f98d2043d7504259dc56f31ff9bd0d2e9786c93",
    ("continuous", "card", 2000.0):
        "c7f86b135d54c156f527f97bb1dc92f08076f91f800ba14b270c7bced7e04238",
    ("continuous", "two_stage:lwl", 2000.0):
        "8335329013afd4d331f5c69d25ff941afa2a65499ff555340b339b818bec241a",
}


def _quantized_workload() -> Workload:
    """400 jobs of 1-4 tasks; arrival gaps in 0..4, sizes in 1..6."""
    rng = np.random.default_rng(2024)
    jobs = 400
    arrivals = np.cumsum(rng.integers(0, 5, jobs)).astype(np.float64)
    counts = rng.integers(1, 5, jobs)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    sizes = rng.integers(1, 7, int(offsets[-1])).astype(np.float64)
    indices = np.concatenate([np.arange(c) for c in counts]).astype(np.int64)
    return Workload(np.arange(jobs, dtype=np.int64), arrivals, offsets, sizes, indices,
                    float(arrivals[-1]), "quantized")


def _engine_digest(kind: str, label: str, horizon) -> str:
    if kind == "quantized":
        wl = _quantized_workload()
        cfg = ClusterConfig.for_workload(8, 1.0, wl)
        n1, theta = 4, 4.0
        dist = EmpiricalDistribution.from_workload(wl)
    else:
        cfg = ClusterConfig.synthetic(10, 0.8)
        params = fit_weibull(1.0, 10.0)
        wl = generate_poisson_weibull(cfg.arrival_rate, params, 3000, 3)
        n1, theta = 3, 2.0
        dist = WeibullDistribution(params)
    kw = {"n1": n1, "theta": theta} if label.startswith("two_stage:") else {}
    if label == "card":
        kw["thresholds"] = card_thresholds(dist, cfg.n, cfg.target_rho)
    log = run(wl, cfg, parse_policy(label, **kw), seed=11, horizon=horizon)
    h = hashlib.sha256()
    for arr in (log.completion, log.completed_stage, log.stage1_server, log.stage2_server,
                log.transfer_time, log.served_work, log.busy_integral):
        h.update(arr.tobytes())
    h.update(repr((log.end_time, log.transfers)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", ENGINE_CASES, ids=["-".join(map(str, c)) for c in ENGINE_CASES])
def test_engine_outputs_match_golden_digests(case):
    assert _engine_digest(*case) == ENGINE_CASES[case]


def test_engine_goldens_hold_on_the_python_path(monkeypatch):
    # with the compiled kernel unloaded, every kind takes engine.run's
    # Python loop, which must give the same bytes
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert {case: _engine_digest(*case) for case in ENGINE_CASES} == ENGINE_CASES


# Orchestration cases: each command runs from one working directory holding
# trace.csv (a seeded multi-task trace) and the two sweep plans below, with
# relative paths only, because result files echo the paths they were given.
# The digest covers the command's stdout and then every file it writes.
_ALL_LABELS = ["rr", "jiq", "lwl", "card", "two_stage:rr", "two_stage:jiq", "two_stage:lwl"]
_PLANS = {
    "synthetic.json": {"policies": _ALL_LABELS, "n_values": [4], "rho_values": [0.6],
                       "cov_values": [2.0, 10.0], "jobs": 300, "replications": 2,
                       "base_seed": 5, "theta_quantiles": [0.5, 0.9]},
    "trace.json": {"policies": _ALL_LABELS, "n_values": [3, 4], "rho_values": [0.7],
                   "trace": "trace.csv", "jobs": 250, "replications": 2, "base_seed": 6,
                   "theta_quantiles": [0.5, 0.9], "n1_candidates": [1, 2]},
}
_SWEEP_FILES = ("_runs.csv", "_summary.csv", "_summary.json")
ORCHESTRATION_CASES = {
    # name: (argv, files written)
    "sweep-synthetic-w1": ("sweep --plan synthetic.json --workers 1 --out ss1",
                           [f"ss1{s}" for s in _SWEEP_FILES]),
    "sweep-synthetic-w2": ("sweep --plan synthetic.json --workers 2 --out ss2",
                           [f"ss2{s}" for s in _SWEEP_FILES]),
    "sweep-synthetic-stdout": ("sweep --plan synthetic.json --workers 1", []),
    "sweep-trace-w1": ("sweep --plan trace.json --workers 1 --out st1",
                       [f"st1{s}" for s in _SWEEP_FILES]),
    "sweep-trace-w2": ("sweep --plan trace.json --workers 2 --out st2",
                       [f"st2{s}" for s in _SWEEP_FILES]),
    "sweep-trace-figure": ("sweep --plan trace.json --workers 1 --figure n-curve "
                           "--figure-out fig.csv", ["fig.csv"]),
    "optimize-synthetic": ("optimize-two-stage --inner lwl --n 4 --rho 0.6 --cov 10 --jobs 300 "
                           "--seed 3 --replications 2 --quantiles 0.5,0.9 --out opt_s",
                           ["opt_s_table.csv", "opt_s_optimum.json"]),
    "optimize-trace": ("optimize-two-stage --inner jiq --n 4 --rho 0.6 --trace trace.csv "
                       "--jobs 250 --seed 3 --replications 2 --n1-candidates 1,3 --out opt_t",
                       ["opt_t_table.csv", "opt_t_optimum.json"]),
    "card-thresholds-cov": ("card-thresholds --n 5 --rho 0.7 --cov 10 --out card_c.json",
                            ["card_c.json"]),
    "card-thresholds-trace": ("card-thresholds --n 5 --rho 0.7 --trace trace.csv "
                              "--out card_t.json", ["card_t.json"]),
    "ingest-trace": ("ingest-trace --trace trace.csv --out canon.csv", ["canon.csv"]),
    "ingest-trace-shuffled": ("ingest-trace --trace shuffled.csv --out canon2.csv",
                              ["canon2.csv"]),
    "simulate-trace-task-log": ("simulate --policy two_stage:lwl --n 4 --rho 0.6 "
                                "--trace trace.csv --jobs 250 --seed 5 --replications 2 "
                                "--theta-quantile 0.9 --n1 1 --out sim_tl --task-log tl.csv",
                                ["sim_tl.csv", "sim_tl.json", "tl.csv"]),
    "simulate-trace-rr-task-log": ("simulate --policy rr --n 3 --rho 0.7 --trace trace.csv "
                                   "--seed 5 --out sim_rr --task-log rr.csv",
                                   ["sim_rr.csv", "sim_rr.json", "rr.csv"]),
    "simulate-trace-mu": ("simulate --policy card --n 4 --mu 0.5 --trace trace.csv --seed 5 "
                          "--replications 2 --out sim_mu", ["sim_mu.csv", "sim_mu.json"]),
    "simulate-synthetic-two-stage": ("simulate --policy two_stage:jiq --n 5 --rho 0.7 --cov 10 "
                                     "--jobs 600 --seed 9 --replications 2 --theta 2.0 "
                                     "--n1 2 --out sim_s", ["sim_s.csv", "sim_s.json"]),
}

GOLDEN_ORCHESTRATION = {
    "sweep-synthetic-w1": "a0cec0b5877f90e9783235a059372ab4425e94d2b22cb19ec6b3f511b69cb691",
    "sweep-synthetic-w2": "d92c99d06dec2ae65f1456bfade8aea4573866ec57391af338ba9e17aa05ab20",
    "sweep-synthetic-stdout": "765df1e3fe20cd8fa1cf98f49b8a1b52f29cb34f98838a4279196cd211c19d9a",
    "sweep-trace-w1": "def2e39b814f1d32a55219f59ea2064d03b72cd3a40f7d9e476c88d97ce76ac4",
    "sweep-trace-w2": "49be6a2c57181df6d3c07a2f0a7535f07cbc226a3d6619800051072e7ea08a15",
    "sweep-trace-figure": "a139257bf4dadb351cdf3f73b1898b80b77bbcb9f01819635ca5bd2e49beb2eb",
    "optimize-synthetic": "7ae25e58498ce02592282afb9efdeec5ff9be51de3559327fa679f844440c936",
    "optimize-trace": "7fcb07b2f46bf6d85884b893167b09557e5285ff0d6d9228f52e4ac37f6d9a22",
    "card-thresholds-cov": "97dbec3e82ea2ed73a63ca7e7132ffd11353d9b9ea1c47d848735324ea00d09c",
    "card-thresholds-trace": "dd50b6155799cf6e547141ac5f7612c2d3f5130113be7c80ed8125bb7b688a33",
    "ingest-trace": "6339ca920d7a9e844058a65a3a739546e028f265998d45a8474bce5fae88720d",
    "ingest-trace-shuffled": "c2fb4420a5dc38ff94520526a0097be6c142f71c6b76d30eba4c22d351260b56",
    "simulate-trace-task-log": "cb51b4fcf36c180314210e40a6e47d94042bcc3699b8cba09b9f038e079cd411",
    "simulate-trace-rr-task-log": "709b0fe314607660692eaeb31501fcc8e3508d446f78e504ded1669d30996eeb",
    "simulate-trace-mu": "9adb54362319aec7b7afb0f3c5d102279737fe8b7508ff57f876f6a4eaab751e",
    "simulate-synthetic-two-stage": "810d15887135a7f6b01b8466cab0bbb135e71851e34c0ae69638f3f351afa6c2",
}


def _shuffled_trace() -> None:
    """Write shuffled.csv: 200 jobs of 1-4 tasks with non-sequential ids and
    integer arrivals, so many jobs share an arrival, and the rows shuffled
    within blocks of 12. A job's tasks then interleave with other jobs' rows,
    jobs appear out of arrival order, and tied jobs appear out of id order."""
    rng = np.random.default_rng(17)
    jobs = 200
    arrivals = np.floor(np.cumsum(rng.exponential(0.6, jobs)))
    counts = rng.integers(1, 5, jobs)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    sizes = rng.weibull(0.5, int(offsets[-1])) * 0.5
    indices = np.concatenate([np.arange(c) for c in counts]).astype(np.int64)
    ids = rng.permutation(10 * jobs)[:jobs].astype(np.int64)
    write_trace_csv(Workload(ids, arrivals, offsets, sizes, indices,
                             float(arrivals[-1]) + 2.5, "shuffled"), "shuffled.csv")
    lines = Path("shuffled.csv").read_text().splitlines(keepends=True)
    rows = lines[3:]
    for lo in range(0, len(rows), 12):
        block = rows[lo:lo + 12]
        rows[lo:lo + 12] = [block[i] for i in rng.permutation(len(block))]
    Path("shuffled.csv").write_text("".join(lines[:3] + rows))


def _orchestration_inputs() -> None:
    """Write trace.csv (300 jobs of 1-3 Weibull-sized tasks), shuffled.csv
    and the plans into the current directory."""
    rng = np.random.default_rng(13)
    jobs = 300
    arrivals = np.cumsum(rng.exponential(1.0, jobs))
    counts = rng.integers(1, 4, jobs)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    sizes = rng.weibull(0.5, int(offsets[-1])) * 0.5
    indices = np.concatenate([np.arange(c) for c in counts]).astype(np.int64)
    write_trace_csv(Workload(np.arange(jobs, dtype=np.int64), arrivals, offsets, sizes, indices,
                             float(arrivals[-1]), "golden"), "trace.csv")
    _shuffled_trace()
    for name, plan in _PLANS.items():
        Path(name).write_text(json.dumps(plan))


def _orchestration_digests(workdir: Path) -> dict:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        _orchestration_inputs()
        out = {}
        for name, (argv, files) in ORCHESTRATION_CASES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv.split()) == 0, name
            h = hashlib.sha256(stdout.getvalue().encode())
            for path in files:
                h.update(path.encode())
                h.update(Path(path).read_bytes())
            out[name] = h.hexdigest()
        return out
    finally:
        os.chdir(cwd)


def test_orchestration_outputs_match_golden_digests(tmp_path):
    assert _orchestration_digests(tmp_path) == GOLDEN_ORCHESTRATION


if __name__ == "__main__":
    import tempfile

    for label in LABELS:
        for n in SIZES:
            with tempfile.TemporaryDirectory() as d:
                got = _digests(Path(d), label, n)
            print(f"    ({label!r}, {n}): {got!r},", file=sys.stderr)
    for case in ENGINE_CASES:
        print(f"    {case!r}: {_engine_digest(*case)!r},", file=sys.stderr)
    with tempfile.TemporaryDirectory() as d:
        for name, digest in _orchestration_digests(Path(d)).items():
            print(f"    {name!r}: {digest!r},", file=sys.stderr)
