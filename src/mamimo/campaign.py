"""Monte Carlo campaign orchestration: sweeps, benchmarks, and aggregation.

A campaign is a pure function of its `ExperimentSpec` (including the master
seed): channel draws, swarm runs, and result tables are all reproducible
bit-for-bit, and realizations can run in parallel without changing anything.
"""
from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import (
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
from .pso import OptimizationTrace, PsoConfig, objective_adapter, pso_optimize
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


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved campaign description.

    Fields carry the units of the config file (GHz, kHz, pW, mW/MHz) so the
    manifest round-trips exactly; SI values are derived through the builder
    methods. The defaults are those of an empty config file: the headline
    simulation parameters with the paper's swarm (150 particles, 100
    iterations) and 20 realizations.
    """

    scenario_kind: str = "los-dominant"
    carrier_ghz: float = 3.0
    rice_factor_db: float = 10.0
    r_min_m: float = 100.0
    r_max_m: float = 300.0
    azimuth_min_rad: float = -np.pi / 3
    azimuth_max_rad: float = np.pi / 3
    bs_height_m: float = 4.0
    user_height_m: float = 1.25
    cluster_count: int = 6
    paths_per_cluster: int = 20
    cluster_azimuth_spread_deg: float = 40.0
    cluster_elevation_spread_deg: float = 20.0
    path_angle_spread_deg: float = 5.0
    rich_cluster_count: int = 100
    rich_paths_per_cluster: int = 2
    delay_stretch: float = 10.0
    los_pathloss_intercept_db: float = 30.18
    los_pathloss_slope_db: float = 26.0
    normalized_gain: float = 1e-9
    spacing_khz: float = 15.0
    subcarrier_counts: tuple[int, ...] = (1,)
    array_schemes: tuple[str, ...] = ARRAY_SCHEMES
    m_rows: int = 4
    m_cols: int = 4
    region_side_wavelengths: float = 5.0
    rate_schemes: tuple[str, ...] = (UL_SIC,)
    evms: tuple[float, ...] = (0.02,)
    noise_pw: float = 3.98
    ul_psd_mw_per_mhz: float = 1.0
    dl_psd_mw_per_mhz: float = 20.0
    optimize_scheme: str | None = None
    pso_particles: int = 150
    pso_iterations: int = 100
    pso_inertia: float = 0.7298
    pso_cognitive: float = 1.4962
    pso_social: float = 1.4962
    pso_velocity_clamp: float = 0.5
    pso_penalty_weight: float = 1e3
    realizations: int = 20
    user_counts: tuple[int, ...] = (10,)
    master_seed: int = 1
    fdd_eval_carriers_ghz: tuple[float, ...] = ()
    cross_pairs: tuple[tuple[str, str], ...] = ()

    def validate(self) -> None:
        if self.realizations < 1:
            raise ValueError("campaign.realizations must be >= 1")
        for name in ("subcarrier_counts", "user_counts", "rate_schemes", "array_schemes", "evms"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if any(s < 1 for s in self.subcarrier_counts):
            raise ValueError("grid.subcarrier_counts entries must be >= 1")
        if any(k < 1 for k in self.user_counts):
            raise ValueError("campaign.user_counts entries must be >= 1")
        for scheme in self.rate_schemes:
            if scheme not in RATE_SCHEMES:
                raise ValueError(f"rates.schemes entry {scheme!r} not in {RATE_SCHEMES}")
        for scheme in self.array_schemes:
            if scheme not in ARRAY_SCHEMES:
                raise ValueError(f"arrays.schemes entry {scheme!r} not in {ARRAY_SCHEMES}")
        if self.optimize_scheme is not None and self.optimize_scheme not in RATE_SCHEMES:
            raise ValueError(f"rates.optimize_scheme {self.optimize_scheme!r} not in {RATE_SCHEMES}")
        for pair in self.cross_pairs:
            if len(pair) != 2 or any(s not in RATE_SCHEMES for s in pair):
                raise ValueError(f"campaign.cross_pairs entry {pair!r} must name two rate schemes")
        if not all(0.0 <= e < 1.0 for e in self.evms):
            raise ValueError("rates.evms entries must lie in [0, 1)")
        for key in ("noise_pw", "ul_psd_mw_per_mhz", "dl_psd_mw_per_mhz"):
            if not getattr(self, key) > 0:
                raise ValueError(f"rates.{key} must be > 0")
        if not (0 < self.r_min_m < self.r_max_m):
            raise ValueError("scenario user radii must satisfy 0 < r_min_m < r_max_m")
        if self.m_rows < 1 or self.m_cols < 1:
            raise ValueError("arrays.m_rows and arrays.m_cols must be >= 1")
        if not self.region_side_wavelengths > 0:
            raise ValueError("arrays.region_side_wavelengths must be > 0")
        if not self.spacing_khz > 0:
            raise ValueError("grid.spacing_khz must be > 0")
        if self.pso_particles < 1:
            raise ValueError("pso.particles must be >= 1")
        if self.pso_iterations < 0:
            raise ValueError("pso.iterations must be >= 0")
        for key in ("inertia", "cognitive", "social", "velocity_clamp", "penalty_weight"):
            if not getattr(self, f"pso_{key}") >= 0:
                raise ValueError(f"pso.{key} must be >= 0")
        for key in ("cluster_count", "paths_per_cluster", "rich_cluster_count", "rich_paths_per_cluster"):
            if getattr(self, key) < 1:
                raise ValueError(f"scenario.{key} must be >= 1")
        if not all(f > 0 for f in self.fdd_eval_carriers_ghz):
            raise ValueError("campaign.fdd_eval_carriers_ghz entries must be > 0")
        self.scenario()  # validates the remaining scenario fields

    # --- derived SI quantities -------------------------------------------------

    @property
    def carrier_hz(self) -> float:
        return self.carrier_ghz * 1e9

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
        return ScenarioConfig(
            kind=self.scenario_kind,
            carrier_hz=self.carrier_hz,
            rice_factor_db=self.rice_factor_db,
            cluster_count=self.cluster_count,
            paths_per_cluster=self.paths_per_cluster,
            cluster_azimuth_spread=np.deg2rad(self.cluster_azimuth_spread_deg),
            cluster_elevation_spread=np.deg2rad(self.cluster_elevation_spread_deg),
            path_angle_spread=np.deg2rad(self.path_angle_spread_deg),
            rich_cluster_count=self.rich_cluster_count,
            rich_paths_per_cluster=self.rich_paths_per_cluster,
            delay_stretch=self.delay_stretch,
            los_pathloss_intercept_db=self.los_pathloss_intercept_db,
            los_pathloss_slope_db=self.los_pathloss_slope_db,
            normalized_gain=self.normalized_gain,
            r_min=self.r_min_m,
            r_max=self.r_max_m,
            azimuth_min=self.azimuth_min_rad,
            azimuth_max=self.azimuth_max_rad,
            bs_height=self.bs_height_m,
            user_height=self.user_height_m,
        )

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
class RealizationOutput:
    rows: tuple[ResultRow, ...]
    traces: dict[str, OptimizationTrace]
    layouts: dict[str, ArrayLayout]


@dataclass(frozen=True, eq=False)
class CampaignResult:
    spec: ExperimentSpec
    rows: tuple[ResultRow, ...]
    traces: dict[str, OptimizationTrace]
    layouts: dict[str, ArrayLayout]


def build_fixed_layouts(spec: ExperimentSpec) -> dict[str, ArrayLayout]:
    lam = SPEED_OF_LIGHT / spec.carrier_hz
    return {name: fn(spec.m_rows, spec.m_cols, lam) for name, fn in FIXED_ARRAY_BUILDERS.items()}


def _fdd_channels(
    layout: ArrayLayout, paths: Sequence[UserPaths], grid: OfdmGrid, eval_carrier_hz: float
) -> SubcarrierChannels:
    """Channels of a placement at a shifted carrier frequency: the positions and
    paths stay, the wavelength-dependent phases are re-derived."""
    if not eval_carrier_hz > 0:
        raise ValueError("evaluation carrier frequency must be positive")
    shifted = layout.with_wavelength(SPEED_OF_LIGHT / eval_carrier_hz)
    return subcarrier_channels(paths, shifted, grid)


def fdd_evaluate(
    layout: ArrayLayout,
    paths: Sequence[UserPaths],
    grid: OfdmGrid,
    config: ImpairedLinkConfig,
    eval_carrier_hz: float,
    scheme: str,
) -> RateReport:
    """Re-evaluate a placement at a shifted carrier frequency."""
    return evaluate_rate_scheme(scheme, _fdd_channels(layout, paths, grid, eval_carrier_hz), config)


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


def _row(
    realization: Realization,
    subcarriers: int,
    evm: float,
    carrier_ghz: float,
    array: str,
    rate_scheme: str,
    report: RateReport,
    swarm: Swarm | None = None,
) -> ResultRow:
    return ResultRow(
        realization=realization.index,
        array_scheme=array,
        rate_scheme=rate_scheme,
        optimized_for=None if swarm is None else swarm.scheme,
        subcarriers=subcarriers,
        evm=evm,
        users=realization.users,
        carrier_ghz=carrier_ghz,
        channel_seed=realization.channel_seed,
        pso_seed=None if swarm is None else swarm.seed,
        sum_rate=report.sum_rate,
        per_user_rates=tuple(float(r) for r in report.per_user_rates),
    )


def run_realization(spec: ExperimentSpec, index: int) -> RealizationOutput:
    """Draw one channel realization and evaluate every requested combination.

    At each sweep point every distinct optimizing scheme (the main one and
    those of the cross pairs) runs one swarm. Its layout serves the movable
    rows, each cross pair optimizing that scheme and, for the main scheme,
    the FDD rows.
    """
    fixed_layouts = build_fixed_layouts(spec)
    main_scheme = spec.resolved_optimize_scheme()
    swarm_schemes: tuple[str, ...] = ()
    if MOVABLE in spec.array_schemes or spec.cross_pairs or spec.fdd_eval_carriers_ghz:
        swarm_schemes = tuple(dict.fromkeys([main_scheme] + [opt for opt, _ in spec.cross_pairs]))

    fixed = {name: fixed_layouts[name] for name in spec.array_schemes if name in fixed_layouts}
    rows: list[ResultRow] = []
    traces: dict[str, OptimizationTrace] = {}
    layouts: dict[str, ArrayLayout] = dict(fixed)

    for users in spec.user_counts:
        realization = draw_realization(spec, index, users)
        paths = realization.paths
        for subcarriers in spec.subcarrier_counts:
            grid = spec.grid(subcarriers)
            fixed_channels = {
                name: subcarrier_channels(paths, layout, grid)
                for name, layout in fixed_layouts.items()
                if name in spec.array_schemes
            }
            for evm in spec.evms:
                config = spec.link_config(users, subcarriers, evm)
                point = (realization, subcarriers, evm)
                swarms = {s: run_swarm(spec, realization, subcarriers, evm, s) for s in swarm_schemes}
                movable_channels: dict[str, SubcarrierChannels] = {}
                for scheme, swarm in swarms.items():
                    traces[swarm.key] = swarm.trace
                    layouts[f"{MOVABLE}_{swarm.key}"] = swarm.trace.best_layout
                    movable_channels[scheme] = subcarrier_channels(paths, swarm.trace.best_layout, grid)
                main_swarm = swarms.get(main_scheme)
                channels_by_array = dict(fixed_channels)
                if main_swarm is not None:
                    channels_by_array[MOVABLE] = movable_channels[main_scheme]

                for array in spec.array_schemes:
                    if array == ZERO_INTERFERENCE:
                        continue
                    swarm = main_swarm if array == MOVABLE else None
                    for rate_scheme in spec.rate_schemes:
                        report = evaluate_rate_scheme(rate_scheme, channels_by_array[array], config)
                        rows.append(_row(*point, spec.carrier_ghz, array, rate_scheme, report, swarm))

                if ZERO_INTERFERENCE in spec.array_schemes:
                    # The analytic bound depends on the layout through the channel
                    # norms; taking the max over every evaluated layout, each
                    # swarm's included, keeps it an upper bound for every scheme
                    # row of this sweep point.
                    bound_channels = list(fixed_channels.values()) + list(movable_channels.values())
                    if not bound_channels:
                        bound_channels = [
                            subcarrier_channels(paths, fixed_layouts[STAGGERED_URA], grid)
                        ]
                    reports = [zero_interference_bound(h, config) for h in bound_channels]
                    best = max(reports, key=lambda r: r.sum_rate)
                    for rate_scheme in spec.rate_schemes:
                        if rate_scheme in (UL_LIN, UL_SIC):
                            rows.append(
                                _row(*point, spec.carrier_ghz, ZERO_INTERFERENCE, rate_scheme, best)
                            )

                for opt_scheme, rate_scheme in spec.cross_pairs:
                    report = evaluate_rate_scheme(rate_scheme, movable_channels[opt_scheme], config)
                    rows.append(
                        _row(*point, spec.carrier_ghz, MOVABLE, rate_scheme, report, swarms[opt_scheme])
                    )

                if spec.fdd_eval_carriers_ghz:
                    eval_arrays = [(MOVABLE, main_swarm.trace.best_layout, main_swarm)] + [
                        (name, layout, None) for name, layout in fixed.items()
                    ]
                    for carrier_ghz in spec.fdd_eval_carriers_ghz:
                        for array, layout, swarm in eval_arrays:
                            h = _fdd_channels(layout, paths, grid, carrier_ghz * 1e9)
                            for rate_scheme in spec.rate_schemes:
                                report = evaluate_rate_scheme(rate_scheme, h, config)
                                rows.append(
                                    _row(*point, carrier_ghz, array, rate_scheme, report, swarm)
                                )

    return RealizationOutput(tuple(rows), traces, layouts)


def _run_realization_star(args) -> RealizationOutput:
    return run_realization(*args)


def run_campaign(spec: ExperimentSpec, workers: int = 1) -> CampaignResult:
    """Run all realizations; results are identical for any worker count."""
    spec.validate()
    indices = range(spec.realizations)
    if workers <= 1:
        outputs = [run_realization(spec, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            outputs = list(executor.map(_run_realization_star, [(spec, i) for i in indices]))
    rows: list[ResultRow] = []
    traces: dict[str, OptimizationTrace] = {}
    layouts: dict[str, ArrayLayout] = {}
    for output in outputs:
        rows.extend(output.rows)
        traces.update(output.traces)
        layouts.update(output.layouts)
    return CampaignResult(spec, tuple(rows), traces, layouts)


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
    """The leading columns that identify a row in both result tables."""
    return [
        str(r.realization),
        r.array_scheme,
        r.rate_scheme,
        r.optimized_for or "",
        str(r.subcarriers),
        repr(r.evm),
        str(r.users),
        repr(r.carrier_ghz),
    ]


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
