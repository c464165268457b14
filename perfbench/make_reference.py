"""Regenerate the committed reference rows of each benchmark workload.

Usage, from the repository root:

    python3 perfbench/make_reference.py [workload ...]

For every master seed of the pool, the reference holds the fixed-array rows
(at every evaluated carrier) and the zero-interference rows, plus the number
of rows a full campaign writes. Fixed-array rows do not depend on the swarm,
so they come from a campaign with a one-particle swarm; zero-interference
rows come from a campaign without the movable array, so they hold the bound
over the fixed arrays alone. The benchmark checks campaign outputs against
this file; regenerating it is a change to the benchmark.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mamimo.campaign import (  # noqa: E402
    FIXED_ARRAYS,
    MOVABLE,
    ZERO_INTERFERENCE,
    run_campaign,
    write_results_csv,
)
from mamimo.config import parse_config  # noqa: E402

from checks import REFERENCE_DIR, config_sha256, read_rows, row_key  # noqa: E402

WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.yaml"))
POOL = tuple(range(1, 33))  # campaign master seeds a benchmark run draws from
SCRATCH = HERE.parent / ".perfbench_run" / "make_reference"


def _rows(config: Path, seed: int, overrides: dict) -> list[dict]:
    """Rows of one campaign, formatted as its results.csv formats them."""
    spec = parse_config(config, {"campaign.master_seed": seed, **overrides})
    SCRATCH.mkdir(parents=True, exist_ok=True)
    write_results_csv(run_campaign(spec).rows, SCRATCH / "results.csv")
    return read_rows(SCRATCH / "results.csv")


def make_reference(workload: str) -> dict:
    config = HERE / "workloads" / f"{workload}.yaml"
    spec = parse_config(config)
    fixed_only = {
        "arrays.schemes": [a for a in spec.array_schemes if a != MOVABLE],
        "campaign.fdd_eval_carriers_ghz": [],
        "campaign.cross_pairs": [],
    }
    keys, values, rows_per_campaign = None, {}, None
    for seed in POOL:
        full = _rows(config, seed, {"pso.particles": 1, "pso.iterations": 0})
        bound = _rows(config, seed, fixed_only)
        chosen = [r for r in full if r["array_scheme"] in FIXED_ARRAYS]
        chosen += [r for r in bound if r["array_scheme"] == ZERO_INTERFERENCE]
        seed_keys = [row_key(r) for r in chosen]
        if keys is None:
            keys, rows_per_campaign = seed_keys, len(full)
        if seed_keys != keys or len(full) != rows_per_campaign or len(set(keys)) != len(keys):
            raise RuntimeError(f"{workload}: row keys differ between master seeds")
        values[str(seed)] = [float(f"{float(r['sum_rate']):.15g}") for r in chosen]
        print(f"{workload} master seed {seed}: {len(chosen)} reference rows", flush=True)
    return {
        "workload": workload,
        "config_sha256": config_sha256(config),
        "pool": list(POOL),
        "rows_per_campaign": rows_per_campaign,
        "keys": [list(k) for k in keys],
        "values": values,
    }


def main(argv: list[str]) -> int:
    for workload in argv or WORKLOADS:
        ref = make_reference(workload)
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
