"""Correctness checks on the files one campaign wrote.

Fixed-array and zero-interference rows are compared with the committed
reference of the workload. Each movable row is re-scored from its written
layout: the layout must lie in its regions and keep half-wavelength spacing,
its re-evaluated rate must equal the row, and under the swarm's own objective
it must score at least every benchmark array the swarm accepted as a seed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from mamimo.campaign import (
    MOVABLE,
    ZERO_INTERFERENCE,
    build_fixed_layouts,
    fdd_evaluate,
    zero_interference_bound,
)
from mamimo.channels import sample_user_positions, subcarrier_channels, synthesize_paths
from mamimo.config import parse_config
from mamimo.geometry import ArrayLayout, load_layout, make_move_regions, validate_layout
from mamimo.pso import evaluate_rate_scheme, objective_adapter, repair_to_regions
from mamimo.rates import UL_LIN, UL_SIC

# Relative tolerance per rate scheme. The closed-form schemes may drift only
# by rounding; dl-dpc is an iterative solver that stops on a relative gain of
# 1e-8 or an iteration cap, so a changed solver path may move it further.
RTOL = {"ul-lin": 1e-9, "ul-sic": 1e-9, "dl-lin": 1e-9, "dl-dpc": 1e-4}
# Movable rows are re-scored by the same code on the same inputs.
RESCORE_RTOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

KEY_FIELDS = (
    "realization", "array_scheme", "rate_scheme", "optimized_for",
    "subcarriers", "evm", "users", "carrier_ghz",
)


def config_sha256(config_path: Path) -> str:
    return hashlib.sha256(config_path.read_bytes()).hexdigest()


def load_reference(workload: str, config_path: Path) -> dict:
    ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    if ref["config_sha256"] != config_sha256(config_path):
        raise RuntimeError(
            f"reference for {workload} was made from another config; "
            "rerun perfbench/make_reference.py"
        )
    ref["keys"] = [tuple(k) for k in ref["keys"]]
    return ref


def read_rows(results_csv: Path) -> list[dict]:
    with results_csv.open(newline="") as f:
        return list(csv.DictReader(f))


def row_key(row: dict) -> tuple:
    return tuple(row[f] for f in KEY_FIELDS)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(b), 1e-300)


class CampaignCheck:
    """Checks the outputs of one campaign of a workload at one master seed."""

    def __init__(self, config_path: Path, reference: dict, master_seed: int):
        self.spec = parse_config(config_path, {"campaign.master_seed": master_seed})
        self.expected_rows = reference["rows_per_campaign"]
        self.ref_values = dict(zip(reference["keys"], reference["values"][str(master_seed)]))
        self._paths_cache: dict[int, list] = {}
        self._zi_movable: dict[tuple, float] = {}
        self._beats_seeds: dict[str, bool] = {}
        self.errors: list[str] = []

    def failed_rows(self, outdir: Path) -> int:
        """Number of expected rows that are missing or fail a check."""
        results = outdir / "results.csv"
        if not results.exists():
            self.errors.append("results.csv missing")
            return self.expected_rows
        rows = read_rows(results)
        failed = max(self.expected_rows - len(rows), 0)
        if failed:
            self.errors.append(f"{failed} rows missing")
        movable = [r for r in rows if r["array_scheme"] == MOVABLE]
        for row in movable:
            failed += not self._movable_ok(row, outdir)
        for row in rows:
            if row["array_scheme"] != MOVABLE:
                failed += not self._reference_ok(row_key(row), float(row["sum_rate"]))
        return min(failed, self.expected_rows)

    # --- fixed arrays and the zero-interference bound ------------------------

    def _reference_ok(self, key: tuple, value: float) -> bool:
        expected = self.ref_values.get(key)
        if expected is None:
            self.errors.append(f"unexpected row {key}")
            return False
        if key[1] == ZERO_INTERFERENCE:
            # The campaign takes the bound as a maximum over every evaluated
            # layout; the reference holds the maximum over the fixed arrays.
            point = (key[0], key[4], key[5], key[6])  # realization, S, evm, users
            expected = max(expected, self._zi_movable.get(point, expected))
        if not _close(value, expected, RTOL[key[2]]):
            self.errors.append(f"{key}: {value!r} differs from reference {expected!r}")
            return False
        return True

    # --- movable rows ---------------------------------------------------------

    def _paths(self, channel_seed: int, users: int) -> list:
        if channel_seed not in self._paths_cache:
            scenario = self.spec.scenario()
            rng = np.random.default_rng(channel_seed)
            positions = sample_user_positions(rng, scenario, users)
            self._paths_cache[channel_seed] = [synthesize_paths(rng, scenario, p) for p in positions]
        return self._paths_cache[channel_seed]

    def _movable_ok(self, row: dict, outdir: Path) -> bool:
        spec = self.spec
        realization, users = int(row["realization"]), int(row["users"])
        subcarriers, evm = int(row["subcarriers"]), float(row["evm"])
        opt_scheme, scheme = row["optimized_for"], row["rate_scheme"]
        name = f"{MOVABLE}_r{realization:04d}_k{users}_s{subcarriers}_evm{evm:g}_{opt_scheme}"
        layout_file = outdir / "layouts" / f"{name}.txt"
        if not layout_file.exists():
            self.errors.append(f"{name}: layout file missing")
            return False
        lam = spec.scenario().wavelength
        regions = make_move_regions(spec.m_rows, spec.m_cols, spec.region_side_wavelengths * lam)
        loaded = load_layout(layout_file)
        layout = ArrayLayout(loaded.positions, lam, regions)
        if loaded.wavelength != lam or not validate_layout(layout).ok:
            self.errors.append(f"{name}: outside its regions or closer than half a wavelength")
            return False

        paths = self._paths(int(row["channel_seed"]), users)
        grid = spec.grid(subcarriers)
        config = spec.link_config(users, subcarriers, evm)
        carrier_ghz = float(row["carrier_ghz"])
        if carrier_ghz == spec.carrier_ghz:
            h = subcarrier_channels(paths, layout, grid)
            value = evaluate_rate_scheme(scheme, h, config).sum_rate
            point = (row["realization"], row["subcarriers"], row["evm"], row["users"])
            if scheme in (UL_LIN, UL_SIC):
                self._zi_movable[point] = zero_interference_bound(h, config).sum_rate
        else:
            value = fdd_evaluate(layout, paths, grid, config, carrier_ghz * 1e9, scheme).sum_rate
        if not _close(float(row["sum_rate"]), value, RESCORE_RTOL):
            self.errors.append(f"{name} {scheme}@{carrier_ghz}: row {row['sum_rate']} != {value!r}")
            return False
        if name not in self._beats_seeds:
            self._beats_seeds[name] = self._scores_at_least_seeds(
                name, layout, regions, opt_scheme, paths, grid, config
            )
        return self._beats_seeds[name]

    def _scores_at_least_seeds(self, name, layout, regions, opt_scheme, paths, grid, config):
        spec = self.spec
        objective = objective_adapter(
            opt_scheme, paths, grid, config, penalty_weight=spec.pso_penalty_weight
        )
        best = objective(layout)
        sides = np.array([[r.side, r.side] for r in regions])
        for array, seed in build_fixed_layouts(spec).items():
            coords = seed.positions[:, 1:]
            inside = np.all(np.abs(repair_to_regions(coords, regions) - coords) <= 1e-9 * sides)
            if not (inside and validate_layout(seed).spacing_ok):
                continue  # the swarm did not accept this array as a seed
            seed_value = objective(seed)
            if best < seed_value - RESCORE_RTOL * abs(seed_value):
                self.errors.append(f"{name}: objective {best!r} below seed {array} {seed_value!r}")
                return False
        return True
