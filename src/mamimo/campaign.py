"""Monte Carlo campaign orchestration: sweeps, benchmarks, and aggregation.

A campaign is a pure function of its `ExperimentSpec` (including the master
seed): channel draws, swarm runs, and result tables are all reproducible
bit-for-bit, and realizations can run in parallel without changing anything.
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import (
    LOS_DOMINANT,
    OfdmGrid,
    ScenarioConfig,
    SubcarrierChannels,
    UserPaths,
    sample_user_positions,
    subcarrier_channels,
    synthesize_paths,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    make_compact_upa,
    make_move_regions,
    make_sparse_upa,
    make_staggered_ura,
    save_layout,
)
from .pso import PENALTY_WEIGHT, OptimizationTrace, PsoConfig, objective_adapter, pso_optimize
from .rates import (
    RATE_SCHEMES,
    UL_LIN,
    UL_SIC,
    ZERO_INTERFERENCE,
    ImpairedLinkConfig,
    RateReport,
    evaluate_rate_scheme,
    zero_interference_bound,
)

MOVABLE = "movable"
COMPACT_UPA = "compact-upa"
SPARSE_UPA = "sparse-upa"
STAGGERED_URA = "staggered-ura"
FIXED_ARRAY_BUILDERS = {
    COMPACT_UPA: make_compact_upa,
    SPARSE_UPA: make_sparse_upa,
    STAGGERED_URA: make_staggered_ura,
}
FIXED_ARRAYS = tuple(FIXED_ARRAY_BUILDERS)
ARRAY_SCHEMES = (MOVABLE, ZERO_INTERFERENCE) + FIXED_ARRAYS


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit stream seed from the master seed and a label tuple.

    Streams are keyed by content (labels, indices, parameter values), never by
    positions in a list, so adding schemes or sweep points leaves all other
    draws untouched.
    """
    text = repr((int(master_seed),) + tuple(parts))
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_UNIT_INTERVAL = (lambda v: 0 <= v < 1, "in [0, 1)")
_RATE_PAIR = (lambda p: len(p) == 2 and all(s in RATE_SCHEMES for s in p), "two rate schemes")


def _one_of(choices: tuple[str, ...]):
    return (lambda v: v in choices, f"one of {choices}")


def _key(name: str, default, check=None, swept: bool = False):
    """Declare a config key on its spec field: the dotted `section.key` name,
    the default, the (predicate, text) range check of each value (of each
    entry, for a list), and whether the list is a sweep axis (non-empty)."""
    return field(default=default, metadata={"key": name, "check": check, "swept": swept})


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved campaign description, and the config-file schema.

    Each field declares its config key once, through `_key`: the dotted
    `section.key` name that `mamimo.config` parses and emits, the default,
    and, outside the `scenario` section, the range check that `validate`
    applies. The `scenario.*` fields are checked by the `ScenarioConfig`
    that `scenario()` builds from them. Fields carry the units of the config
    file (GHz, kHz, pW, mW/MHz) so the manifest round-trips exactly; SI
    values are derived through the builder methods. The defaults
    are those of an empty config file: the headline simulation parameters
    with the paper's swarm (`PsoConfig`'s defaults: 150 particles, 100
    iterations) and 20 realizations.
    """

    scenario_kind: str = _key("scenario.kind", LOS_DOMINANT)
    carrier_ghz: float = _key("scenario.carrier_ghz", 3.0)
    rice_factor_db: float = _key("scenario.rice_factor_db", 10.0)
    r_min_m: float = _key("scenario.r_min_m", 100.0)
    r_max_m: float = _key("scenario.r_max_m", 300.0)
    azimuth_min_rad: float = _key("scenario.azimuth_min_rad", -np.pi / 3)
    azimuth_max_rad: float = _key("scenario.azimuth_max_rad", np.pi / 3)
    bs_height_m: float = _key("scenario.bs_height_m", 4.0)
    user_height_m: float = _key("scenario.user_height_m", 1.25)
    cluster_count: int = _key("scenario.cluster_count", 6)
    paths_per_cluster: int = _key("scenario.paths_per_cluster", 20)
    cluster_azimuth_spread_deg: float = _key("scenario.cluster_azimuth_spread_deg", 40.0)
    cluster_elevation_spread_deg: float = _key("scenario.cluster_elevation_spread_deg", 20.0)
    path_angle_spread_deg: float = _key("scenario.path_angle_spread_deg", 5.0)
    rich_cluster_count: int = _key("scenario.rich_cluster_count", 100)
    rich_paths_per_cluster: int = _key("scenario.rich_paths_per_cluster", 2)
    delay_stretch: float = _key("scenario.delay_stretch", 10.0)
    los_pathloss_intercept_db: float = _key("scenario.los_pathloss_intercept_db", 30.18)
    los_pathloss_slope_db: float = _key("scenario.los_pathloss_slope_db", 26.0)
    normalized_gain: float = _key("scenario.normalized_gain", 1e-9)
    spacing_khz: float = _key("grid.spacing_khz", 15.0, _POSITIVE)
    subcarrier_counts: tuple[int, ...] = _key(
        "grid.subcarrier_counts", (1,), _AT_LEAST_ONE, swept=True
    )
    array_schemes: tuple[str, ...] = _key(
        "arrays.schemes", ARRAY_SCHEMES, _one_of(ARRAY_SCHEMES), swept=True
    )
    m_rows: int = _key("arrays.m_rows", 4, _AT_LEAST_ONE)
    m_cols: int = _key("arrays.m_cols", 4, _AT_LEAST_ONE)
    region_side_wavelengths: float = _key("arrays.region_side_wavelengths", 5.0, _POSITIVE)
    rate_schemes: tuple[str, ...] = _key(
        "rates.schemes", (UL_SIC,), _one_of(RATE_SCHEMES), swept=True
    )
    evms: tuple[float, ...] = _key("rates.evms", (0.02,), _UNIT_INTERVAL, swept=True)
    noise_pw: float = _key("rates.noise_pw", 3.98, _POSITIVE)
    ul_psd_mw_per_mhz: float = _key("rates.ul_psd_mw_per_mhz", 1.0, _POSITIVE)
    dl_psd_mw_per_mhz: float = _key("rates.dl_psd_mw_per_mhz", 20.0, _POSITIVE)
    optimize_scheme: str | None = _key("rates.optimize_scheme", None, _one_of(RATE_SCHEMES))
    pso_particles: int = _key("pso.particles", PsoConfig.particle_count, _AT_LEAST_ONE)
    pso_iterations: int = _key("pso.iterations", PsoConfig.max_iterations, _NONNEGATIVE)
    pso_inertia: float = _key("pso.inertia", PsoConfig.inertia, _NONNEGATIVE)
    pso_cognitive: float = _key("pso.cognitive", PsoConfig.cognitive, _NONNEGATIVE)
    pso_social: float = _key("pso.social", PsoConfig.social, _NONNEGATIVE)
    pso_velocity_clamp: float = _key("pso.velocity_clamp", PsoConfig.velocity_clamp, _NONNEGATIVE)
    pso_penalty_weight: float = _key("pso.penalty_weight", PENALTY_WEIGHT, _NONNEGATIVE)
    realizations: int = _key("campaign.realizations", 20, _AT_LEAST_ONE)
    user_counts: tuple[int, ...] = _key("campaign.user_counts", (10,), _AT_LEAST_ONE, swept=True)
    master_seed: int = _key("campaign.master_seed", 1)
    fdd_eval_carriers_ghz: tuple[float, ...] = _key("campaign.fdd_eval_carriers_ghz", (), _POSITIVE)
    cross_pairs: tuple[tuple[str, str], ...] = _key("campaign.cross_pairs", (), _RATE_PAIR)

    def validate(self) -> None:
        """Check the `scenario.*` keys by building their `ScenarioConfig`,
        then each field against its declaration (finite, in range, a sweep
        list non-empty, list entries distinct), then that no FDD carrier, its
        wavelength or the subcarrier spacing overflows in Hz, and that the FIR
        pulse matrices fit in 1 GiB. Every error names the config key."""
        scenario = self.scenario()
        for f in fields(self):
            key, check = f.metadata["key"], f.metadata["check"]
            is_list = f.type.startswith("tuple")
            values = getattr(self, f.name) if is_list else (getattr(self, f.name),)
            if f.metadata["swept"] and not values:
                raise ValueError(f"{key} must be non-empty")
            if f.type in ("float", "tuple[float, ...]"):
                for v in values:
                    if not math.isfinite(v):
                        raise ValueError(f"{key}: expected a finite number, got {v!r}")
            if check is not None:
                ok, text = check
                for v in values:
                    if v is not None and not ok(v):
                        entries = " entries" if is_list else ""
                        raise ValueError(f"{key}{entries} must be {text}, got {v!r}")
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"{key} entries must be distinct, got {v!r} twice")
        for hz in (c * 1e9 for c in self.fdd_eval_carriers_ghz):
            if not math.isfinite(hz):
                raise ValueError(f"campaign.fdd_eval_carriers_ghz overflows in Hz, got {hz!r}")
            if not math.isfinite(SPEED_OF_LIGHT / hz):
                raise ValueError(f"campaign.fdd_eval_carriers_ghz: the wavelength overflows at {hz!r} Hz")
        if not math.isfinite(self.subcarrier_spacing_hz):
            raise ValueError(f"grid.spacing_khz overflows in Hz, got {self.subcarrier_spacing_hz!r}")
        # K users x N paths x (T + 1) taps, bounded in floats so an infinite bound is rejected.
        height = scenario.bs_height_m - scenario.user_height_m
        spread = (scenario.delay_stretch * math.hypot(scenario.r_max_m, height)
                  - math.hypot(scenario.r_min_m, height)) / SPEED_OF_LIGHT
        paths = (1 + self.cluster_count * self.paths_per_cluster if self.scenario_kind == LOS_DOMINANT
                 else self.rich_cluster_count * self.rich_paths_per_cluster)
        try:
            taps = np.ceil(max(self.subcarrier_counts) * self.subcarrier_spacing_hz * spread)
            floats = max(self.user_counts) * paths * (taps + 1)
        except OverflowError:  # a count beyond the float range
            floats = math.inf
        if not floats <= 2**27:  # 1 GiB of float64
            raise ValueError(
                "scenario.delay_stretch, scenario.r_max_m, grid.subcarrier_counts, grid.spacing_khz and "
                f"campaign.user_counts: the FIR pulse matrices need up to {floats:.3g} floats, over 1 GiB"
            )

    # --- derived SI quantities -------------------------------------------------

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.spacing_khz * 1e3

    @property
    def noise_variance_w(self) -> float:
        # noise_pw is an effective noise density in pW per GHz (3.98 pW/GHz is
        # the thermal floor kT at 288 K); the per-subcarrier noise scales with
        # the subcarrier spacing.
        return self.noise_pw * 1e-21 * self.subcarrier_spacing_hz

    @property
    def ul_power_per_subcarrier_w(self) -> float:
        # mW/MHz equals 1e-9 W/Hz
        return self.ul_psd_mw_per_mhz * 1e-9 * self.subcarrier_spacing_hz

    def dl_total_power_w(self, subcarriers: int) -> float:
        return self.dl_psd_mw_per_mhz * 1e-9 * subcarriers * self.subcarrier_spacing_hz

    def scenario(self) -> ScenarioConfig:
        """The `scenario` section: each `scenario.*` key under its own name."""
        return ScenarioConfig(**{
            f.metadata["key"].removeprefix("scenario."): getattr(self, f.name)
            for f in fields(self) if f.metadata["key"].startswith("scenario.")
        })

    def grid(self, subcarriers: int) -> OfdmGrid:
        return OfdmGrid(subcarriers, self.subcarrier_spacing_hz)

    def pso_config(self) -> PsoConfig:
        return PsoConfig(
            particle_count=self.pso_particles,
            max_iterations=self.pso_iterations,
            inertia=self.pso_inertia,
            cognitive=self.pso_cognitive,
            social=self.pso_social,
            velocity_clamp=self.pso_velocity_clamp,
        )

    def link_config(self, user_count: int, subcarriers: int, evm: float) -> ImpairedLinkConfig:
        return ImpairedLinkConfig.uniform(
            user_count,
            subcarriers,
            self.ul_power_per_subcarrier_w,
            evm,
            self.noise_variance_w,
            total_power=self.dl_total_power_w(subcarriers),
        )

    def resolved_optimize_scheme(self) -> str:
        return self.optimize_scheme or self.rate_schemes[0]


@dataclass(frozen=True)
class ResultRow:
    """One evaluated (realization, array, scheme, sweep point) combination."""

    realization: int
    array_scheme: str
    rate_scheme: str
    optimized_for: str | None
    subcarriers: int
    evm: float
    users: int
    carrier_ghz: float
    channel_seed: int
    pso_seed: int | None
    sum_rate: float
    per_user_rates: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Rows, swarm traces and layouts of one realization or of a whole campaign."""

    rows: tuple[ResultRow, ...]
    traces: dict[str, OptimizationTrace]
    layouts: dict[str, ArrayLayout]


def build_fixed_layouts(spec: ExperimentSpec) -> dict[str, ArrayLayout]:
    lam = spec.scenario().wavelength
    return {name: fn(spec.m_rows, spec.m_cols, lam) for name, fn in FIXED_ARRAY_BUILDERS.items()}


def fdd_evaluate(
    layout: ArrayLayout,
    paths: Sequence[UserPaths],
    grid: OfdmGrid,
    config: ImpairedLinkConfig,
    eval_carrier_hz: float,
    scheme: str,
) -> RateReport:
    """Re-evaluate a placement at a shifted carrier frequency: the positions and
    paths stay, the wavelength-dependent phases are re-derived."""
    if not eval_carrier_hz > 0:
        raise ValueError("evaluation carrier frequency must be positive")
    shifted = layout.with_wavelength(SPEED_OF_LIGHT / eval_carrier_hz)
    return evaluate_rate_scheme(scheme, subcarrier_channels(paths, shifted, grid), config)


@dataclass(frozen=True, eq=False)
class Realization:
    """User drops and multipath of one channel draw."""

    index: int
    users: int
    channel_seed: int
    paths: list[UserPaths]


@dataclass(frozen=True, eq=False)
class Swarm:
    """Placement optimized for one scheme at one sweep point of a realization."""

    scheme: str
    key: str  # stem of the trace file and, prefixed with "movable_", of the layout file
    seed: int
    trace: OptimizationTrace


@dataclass(frozen=True, eq=False)
class Placement:
    """One array of a sweep point: its layout, the swarm that found it (None
    for a fixed array) and its channels at the home carrier."""

    layout: ArrayLayout
    swarm: Swarm | None
    channels: SubcarrierChannels


def draw_realization(spec: ExperimentSpec, index: int, users: int) -> Realization:
    """Draw the paths of realization `index` with `users` users.

    The channel seed depends only on (master seed, realization, user count),
    so every array, rate scheme and sweep point sees identical channels.
    """
    channel_seed = derive_seed(spec.master_seed, "channel", index, users)
    rng = np.random.default_rng(channel_seed)
    scenario = spec.scenario()
    positions = sample_user_positions(rng, scenario, users)
    paths = [synthesize_paths(rng, scenario, pos) for pos in positions]
    return Realization(index, users, channel_seed, paths)


def run_swarm(
    spec: ExperimentSpec, realization: Realization, subcarriers: int, evm: float, scheme: str
) -> Swarm:
    """Optimize the movable placement for `scheme` at one sweep point.

    The swarm seed additionally hashes the sweep point and the scheme. The
    initial swarm holds the fixed arrays that fit the movement regions, in
    the order staggered, sparse, compact.
    """
    index, users = realization.index, realization.users
    seed = derive_seed(spec.master_seed, "pso", index, users, subcarriers, evm, scheme)
    lam = spec.scenario().wavelength
    regions = make_move_regions(spec.m_rows, spec.m_cols, spec.region_side_wavelengths * lam)
    fixed = build_fixed_layouts(spec)
    objective = objective_adapter(
        scheme,
        realization.paths,
        spec.grid(subcarriers),
        spec.link_config(users, subcarriers, evm),
        penalty_weight=spec.pso_penalty_weight,
    )
    trace = pso_optimize(
        objective,
        regions,
        lam,
        replace(spec.pso_config(), seed=seed),
        [fixed[STAGGERED_URA], fixed[SPARSE_UPA], fixed[COMPACT_UPA]],
    )
    key = f"r{index:04d}_k{users}_s{subcarriers}_evm{evm:g}_{scheme}"
    return Swarm(scheme, key, seed, trace)


def run_realization(spec: ExperimentSpec, index: int) -> CampaignResult:
    """Draw one channel realization and evaluate every requested combination.

    At each sweep point every distinct optimizing scheme (the main one and
    those of the cross pairs) runs one swarm, and one placement table maps
    each array name to its layout, its swarm and its channels: the fixed
    arrays of `arrays.schemes` in config order, `movable` for the main
    swarm and `movable/<scheme>` for each other optimizing scheme. The rows
    read that table in the order factorial (arrays x rate schemes), the
    zero-interference bound, cross pairs, then FDD (carrier x [movable,
    fixed arrays] x rate schemes).
    """
    main_scheme = spec.resolved_optimize_scheme()
    swarm_schemes: tuple[str, ...] = ()
    if MOVABLE in spec.array_schemes or spec.cross_pairs or spec.fdd_eval_carriers_ghz:
        swarm_schemes = tuple(dict.fromkeys([main_scheme] + [opt for opt, _ in spec.cross_pairs]))

    def placement_name(scheme: str) -> str:
        return MOVABLE if scheme == main_scheme else f"{MOVABLE}/{scheme}"

    all_fixed = build_fixed_layouts(spec)
    fixed = {name: all_fixed[name] for name in spec.array_schemes if name in all_fixed}
    rows: list[ResultRow] = []
    traces: dict[str, OptimizationTrace] = {}
    layouts: dict[str, ArrayLayout] = dict(fixed)

    for users in spec.user_counts:
        realization = draw_realization(spec, index, users)
        paths = realization.paths
        for subcarriers in spec.subcarrier_counts:
            grid = spec.grid(subcarriers)
            fixed_table = {
                name: Placement(layout, None, subcarrier_channels(paths, layout, grid))
                for name, layout in fixed.items()
            }
            for evm in spec.evms:
                config = spec.link_config(users, subcarriers, evm)
                swarms = [run_swarm(spec, realization, subcarriers, evm, s) for s in swarm_schemes]
                table = dict(fixed_table)
                for swarm in swarms:
                    layout = swarm.trace.best_layout
                    traces[swarm.key] = swarm.trace
                    layouts[f"{MOVABLE}_{swarm.key}"] = layout
                    table[placement_name(swarm.scheme)] = Placement(
                        layout, swarm, subcarrier_channels(paths, layout, grid)
                    )

                def row(array, rate_scheme, report, swarm=None, carrier_ghz=spec.carrier_ghz):
                    return ResultRow(
                        index, array, rate_scheme, swarm and swarm.scheme, subcarriers, evm, users,
                        carrier_ghz, realization.channel_seed, swarm and swarm.seed,
                        report.sum_rate, tuple(float(r) for r in report.per_user_rates),
                    )

                for array in (a for a in spec.array_schemes if a != ZERO_INTERFERENCE):
                    placement = table[array]
                    for rate_scheme in spec.rate_schemes:
                        report = evaluate_rate_scheme(rate_scheme, placement.channels, config)
                        rows.append(row(array, rate_scheme, report, placement.swarm))

                if ZERO_INTERFERENCE in spec.array_schemes:
                    # The analytic bound depends on the layout through the channel
                    # norms; the max over every placement of the table, each swarm's
                    # included, bounds every scheme row of this sweep point.
                    bound_channels = [p.channels for p in table.values()] or [
                        subcarrier_channels(paths, all_fixed[STAGGERED_URA], grid)
                    ]
                    reports = [zero_interference_bound(h, config) for h in bound_channels]
                    best = max(reports, key=lambda r: r.sum_rate)
                    for rate_scheme in spec.rate_schemes:
                        if rate_scheme in (UL_LIN, UL_SIC):
                            rows.append(row(ZERO_INTERFERENCE, rate_scheme, best))

                for opt_scheme, rate_scheme in spec.cross_pairs:
                    placement = table[placement_name(opt_scheme)]
                    report = evaluate_rate_scheme(rate_scheme, placement.channels, config)
                    rows.append(row(MOVABLE, rate_scheme, report, placement.swarm))

                for carrier_ghz in spec.fdd_eval_carriers_ghz:
                    for array in (MOVABLE, *fixed):
                        placement = table[array]
                        shifted = placement.layout.with_wavelength(SPEED_OF_LIGHT / (carrier_ghz * 1e9))
                        h = subcarrier_channels(paths, shifted, grid)
                        for rate_scheme in spec.rate_schemes:
                            report = evaluate_rate_scheme(rate_scheme, h, config)
                            rows.append(row(array, rate_scheme, report, placement.swarm, carrier_ghz))

    return CampaignResult(tuple(rows), traces, layouts)


def run_campaign(spec: ExperimentSpec, workers: int = 1) -> CampaignResult:
    """Run all realizations; results are identical for any worker count."""
    spec.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    indices = range(spec.realizations)
    if workers == 1:
        outputs = [run_realization(spec, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            outputs = list(executor.map(run_realization, repeat(spec), indices))
    return CampaignResult(
        tuple(row for output in outputs for row in output.rows),
        {key: t for output in outputs for key, t in output.traces.items()},
        {name: layout for output in outputs for name, layout in output.layouts.items()},
    )


# --- aggregation and persistence ------------------------------------------------


def empirical_cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Sorted (value, fraction at or below) pairs of an empirical distribution."""
    if len(values) == 0:
        raise ValueError("cannot build a CDF from no values")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def _series_key(row: ResultRow) -> tuple:
    return (
        row.array_scheme,
        row.rate_scheme,
        row.optimized_for or "",
        row.subcarriers,
        row.evm,
        row.users,
        row.carrier_ghz,
    )


def aggregate(rows: Sequence[ResultRow]) -> dict:
    """Per data series: mean sum rate, mean per-user rates, empirical CDF.

    Each realization counts once per series: a cross pair or FDD row that
    repeats a factorial row (same layout, scheme and carrier) is folded into
    it. Invariant under reordering of the input rows (realizations are folded
    in sorted order).
    """
    if not rows:
        raise ValueError("cannot aggregate an empty result set")
    groups: dict[tuple, dict[int, ResultRow]] = {}
    for row in rows:
        groups.setdefault(_series_key(row), {}).setdefault(row.realization, row)
    series = []
    for key in sorted(groups):
        members = [groups[key][i] for i in sorted(groups[key])]
        sums = [r.sum_rate for r in members]
        user_rates = np.array([r.per_user_rates for r in members])
        series.append(
            {
                "array_scheme": key[0],
                "rate_scheme": key[1],
                "optimized_for": key[2] or None,
                "subcarriers": key[3],
                "evm": key[4],
                "users": key[5],
                "carrier_ghz": key[6],
                "realizations": len(members),
                "mean_sum_rate": float(np.mean(sums)),
                "mean_user_rates": [float(v) for v in user_rates.mean(axis=0)],
                "cdf": [[v, p] for v, p in empirical_cdf(sums)],
            }
        )
    return {"series": series}


_KEY_HEADER = "realization,array_scheme,rate_scheme,optimized_for,subcarriers,evm,users,carrier_ghz"


def _key_fields(r: ResultRow) -> list[str]:
    """The leading columns that identify a row in both result tables: the
    realization, then the series key."""
    return [str(r.realization)] + [repr(v) if isinstance(v, float) else str(v) for v in _series_key(r)]


def write_results_csv(rows: Sequence[ResultRow], path: str | Path) -> None:
    lines = [_KEY_HEADER + ",channel_seed,pso_seed,sum_rate"]
    for r in rows:
        pso_seed = "" if r.pso_seed is None else str(r.pso_seed)
        lines.append(",".join(_key_fields(r) + [str(r.channel_seed), pso_seed, repr(r.sum_rate)]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_user_rates_csv(rows: Sequence[ResultRow], path: str | Path) -> None:
    lines = [_KEY_HEADER + ",user,rate"]
    for r in rows:
        key = ",".join(_key_fields(r))
        lines.extend(f"{key},{u},{rate!r}" for u, rate in enumerate(r.per_user_rates))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(trace: OptimizationTrace, path: str | Path) -> None:
    lines = ["iteration,best_value"]
    for i, v in enumerate(trace.best_values):
        lines.append(f"{i},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def write_campaign_outputs(result: CampaignResult, outdir: str | Path) -> None:
    """Persist result tables, layouts, and traces under `outdir`.

    File contents are a pure function of the spec, so re-running the same
    campaign overwrites every file with identical bytes.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(result.rows, out / "results.csv")
    write_user_rates_csv(result.rows, out / "user_rates.csv")
    write_summary_json(aggregate(result.rows), out / "summary.json")
    layout_dir = out / "layouts"
    layout_dir.mkdir(exist_ok=True)
    for name, layout in sorted(result.layouts.items()):
        save_layout(layout, layout_dir / f"{name}.txt")
    trace_dir = out / "traces"
    trace_dir.mkdir(exist_ok=True)
    for name, trace in sorted(result.traces.items()):
        write_trace_csv(trace, trace_dir / f"{name}.csv")
