"""Campaign benchmark of mamimo: YAML config -> run_campaign -> output files.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload swarm-narrow --seed 1 --seconds 30 --trace 0

Each repetition runs `mamimo simulate` in-process (one worker) on the
workload's config, with the campaign master seed drawn from the workload's
reference pool by `--seed`, and then checks the files it wrote. Repetitions
continue for `--seconds`. With `--trace 0` the last line reports the
end-to-end metrics; with `--trace 1` every repetition runs once untraced and
twice traced, and the last line reports the per-layer metrics. A run report
and the spans go to `.perfbench_run/`. See perfbench/README.md.
"""
from __future__ import annotations

import os

# Small (M x M) factorizations gain nothing from BLAS threads; one thread
# keeps timings steady. Set before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "mamimo" / "__init__.py").is_file():
    sys.exit(f"perfbench: no mamimo sources under {SRC}")
sys.path.insert(0, str(SRC))

import mamimo.cli  # noqa: E402
import numpy as np  # noqa: E402
from mamimo.rates import RATE_SCHEMES  # noqa: E402

from checks import CampaignCheck, load_reference  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402

if Path(mamimo.__file__).resolve().parent != (SRC / "mamimo").resolve():
    sys.exit(f"perfbench: imported mamimo from {mamimo.__file__}, not from {SRC}")

WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.yaml"))
MIN_REPS = 3
MIN_SETUP_PROBES = 5


def setup_probe(config: Path) -> dict:
    """`import mamimo` plus config parsing, timed in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config)],
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    if Path(probe["module"]).resolve().parent != (SRC / "mamimo").resolve():
        sys.exit(f"perfbench: setup probe imported {probe['module']}")
    return probe


def machine_block(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": dict(BLAS_THREADS),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@dataclass
class Campaign:
    """One `mamimo simulate` run and what the benchmark keeps of it."""

    master_seed: int
    outdir: Path
    exit_code: int
    wall_s: float
    cpu_s: float
    results: bytes  # results.csv, empty when it was not written
    tracer: Tracer | None

    @property
    def rows(self) -> int:
        return max(len(self.results.splitlines()) - 1, 0)

    def record(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "traced": self.tracer is not None,
            "exit_code": self.exit_code,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "results_sha256": hashlib.sha256(self.results).hexdigest(),
        }


def simulate(config: Path, master_seed: int, outdir: Path, tracer: Tracer | None = None):
    """`mamimo simulate -c config --set campaign.master_seed=... -o outdir`, in-process."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["simulate", "-c", str(config), "--set", f"campaign.master_seed={master_seed}",
            "-o", str(outdir)]
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = tracer.run(mamimo.cli.main, argv) if tracer else mamimo.cli.main(argv)
    wall_s = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    results = outdir / "results.csv"
    data = results.read_bytes() if results.exists() else b""
    return Campaign(master_seed, outdir, code, wall_s, cpu_s, data, tracer)


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(untraced: list[Campaign], traced: list[tuple[Campaign, Campaign]]) -> dict:
    """Per-layer metrics: counts per campaign, medians of per-campaign times."""
    tracers = [c.tracer for pair in traced for c in pair]
    totals = [t.totals() for t in tracers]

    def calls(name):
        return statistics.mean(c.get(name, 0) for c, _, _ in totals)

    def self_s(name):
        return _median(s.get(name, 0.0) for _, s, _ in totals)

    m = {
        "geometry.array_response.calls": calls("geometry.array_response"),
        "geometry.array_response.self_s": self_s("geometry.array_response"),
        "channels.subcarrier_channels.calls": calls("channels.subcarrier_channels"),
        "channels.subcarrier_channels.self_s": self_s("channels.subcarrier_channels"),
        "channels.synthesize_paths.self_s": self_s("channels.synthesize_paths"),
    }
    for scheme in RATE_SCHEMES:
        for kind in ("objective", "report"):
            name = f"rates.{scheme}.{kind}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)

    swarms = [s for t in tracers for s in t.swarm_traces]
    rounds = [sum(len(s.best_values) for s in t.swarm_traces) for t in tracers]
    iteration_s = [incl["pso.pso_optimize"] / n for (_, _, incl), n in zip(totals, rounds) if n]
    last = []
    for s in swarms:
        iterations = len(s.best_values) - 1
        if iterations > 0:
            improved = [i for i in range(1, iterations + 1) if s.best_values[i] > s.best_values[i - 1]]
            last.append((improved[-1] if improved else 0) / iterations)
    penalty_calls = sum(t.penalty_calls for t in tracers)
    m.update({
        "pso.pso_optimize.calls": calls("pso.pso_optimize"),
        "pso.pso_optimize.self_s": self_s("pso.pso_optimize"),
        "pso.objective.calls": calls("pso.objective"),
        "pso.spacing_penalty.self_s": self_s("pso.spacing_penalty"),
        "pso.iteration_s": _median(iteration_s),
        "pso.last_improvement_frac": statistics.mean(last) if last else 0.0,
        "pso.feasible_frac": (
            sum(t.feasible_calls for t in tracers) / penalty_calls if penalty_calls else 0.0
        ),
        "campaign.run_realization.calls": calls("campaign.run_realization"),
        "campaign.run_realization.self_s": self_s("campaign.run_realization"),
        "campaign.run_realization.s_p50": _median(
            d for t in tracers for d in t.durations("campaign.run_realization")
        ),
        "campaign.fdd_evaluate.self_s": self_s("campaign.fdd_evaluate"),
        "campaign.zero_interference_bound.self_s": self_s("campaign.zero_interference_bound"),
        "campaign.write_outputs_s": _median(
            d for t in tracers for d in t.durations("campaign.write_outputs")
        ),
        "campaign.rows": statistics.mean(c.rows for pair in traced for c in pair),
        "cpu_s": _median(c.cpu_s for c in untraced),
        "trace.overhead_s": _median(
            t.wall_s - u.wall_s for u, pair in zip(untraced, traced) for t in pair
        ),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }

    config = HERE / "workloads" / f"{args.workload}.yaml"
    reference = load_reference(args.workload, config)
    rundir = ROOT / ".perfbench_run" / args.workload / f"seed{args.seed}-trace{args.trace}"
    rundir.mkdir(parents=True, exist_ok=True)
    machine = machine_block(args.seed)
    print("machine: " + json.dumps(machine, sort_keys=True), flush=True)

    probes: list[dict] = []
    order = np.random.default_rng(args.seed).permutation(reference["pool"])

    attempted = failed = 0
    untraced: list[Campaign] = []
    traced: list[tuple[Campaign, Campaign]] = []
    identical = True
    rep_seconds: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    for i in itertools.count():
        if i >= (1 if args.trace else MIN_REPS) and (
            time.perf_counter() + _median(rep_seconds) > deadline
        ):
            break
        t0 = time.perf_counter()
        # One set-up probe per repetition spreads them over the run, so they
        # see the same machine load as the campaigns.
        probes.append(setup_probe(config))
        master_seed = int(order[i % len(order)])
        runs = [simulate(config, master_seed, rundir / "untraced")]
        if args.trace:
            runs += [simulate(config, master_seed, rundir / f"traced-{k}", Tracer()) for k in (1, 2)]
            traced.append((runs[1], runs[2]))
            identical &= runs[0].results == runs[1].results == runs[2].results
            counts = [(r.tracer.totals()[0], r.rows) for r in runs[1:]]
            if counts[0] != counts[1]:
                sys.exit(f"perfbench: call counts or rows differ between two traced runs "
                         f"of master seed {master_seed}: {counts[0]} vs {counts[1]}")
        for run in runs:
            check = CampaignCheck(config, reference, master_seed)
            attempted += check.expected_rows
            failed += check.failed_rows(run.outdir)
            for error in check.errors[:5]:
                print(f"check failed, master seed {master_seed}: {error}", file=sys.stderr)
        untraced.append(runs[0])
        rep_seconds.append(time.perf_counter() - t0)
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(setup_probe(config))

    if args.trace:
        metrics = layer_metrics(untraced, traced)
        metrics.update({
            "config.parse_s": _median(p["parse_s"] for p in probes),
            "cli.import_s": _median(p["import_s"] for p in probes),
            "failed_frac": failed / attempted,
        })
        write_spans([c.tracer for pair in traced for c in pair], rundir / "spans.csv.gz")
        if not identical:
            print("traced results.csv differs from the untraced one", file=sys.stderr)
    else:
        metrics = {
            "setup_s": _median(p["import_s"] + p["parse_s"] for p in probes),
            "wall_s": _median(c.wall_s for c in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    missing = set(units) - set(metrics)
    if missing:
        sys.exit(f"perfbench: BENCHMARK.json declares metrics it does not measure: {sorted(missing)}")
    correct = failed == 0 and identical
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "measured_s": time.perf_counter() - start,
        "campaigns": [c.record() for c in untraced] + [c.record() for p in traced for c in p],
        "setup_probes": probes,
        "metrics": metrics,
    }
    (rundir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
