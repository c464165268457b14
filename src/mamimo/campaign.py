"""Monte Carlo campaign orchestration: sweeps, benchmarks, and aggregation.

A campaign is a pure function of its `ExperimentSpec` (including the master
seed): channel draws, swarm runs, and result tables are all reproducible
bit-for-bit, and realizations can run in parallel without changing anything.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import (
    _AT_LEAST_ONE,
    _NONNEGATIVE,
    _PHASE_LIMIT,
    _POSITIVE,
    LOS_DOMINANT,
    OfdmGrid,
    ScenarioConfig,
    UserPaths,
    _key,
    _one_of,
    channel_model_floats,
    check_carrier,
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


_UNIT_INTERVAL = (lambda v: 0 <= v < 1, "in [0, 1)")
_RATE_PAIR = (lambda p: len(p) == 2 and all(s in RATE_SCHEMES for s in p), "two rate schemes")


@dataclass(frozen=True)
class ExperimentSpec(ScenarioConfig):
    """Fully resolved campaign description, and the config-file schema.

    A spec is its own `scenario` section: the `scenario.*` keys are the
    fields inherited from `ScenarioConfig` (`kind` is `scenario.kind`). Every
    field, inherited or not, declares its config key once, through `_key`:
    the dotted `section.key` name that `mamimo.config` parses and emits, the
    default and the range check. `ScenarioConfig.__post_init__` converts each
    value by its annotation before its check, so a spec built in Python, by
    `dataclasses.replace` or from a file is the same for the same values, and
    a spec that exists is valid. Fields carry the units of the config file
    (GHz, kHz, pW, mW/MHz) so the manifest round-trips exactly; SI values are
    derived through the builder methods. The defaults are those of an empty config file: the headline
    simulation parameters with the paper's swarm (`PsoConfig`'s defaults: 150
    particles, 100 iterations) and 20 realizations.
    """

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
    pso_penalty_weight: float = _key("pso.penalty_weight", PENALTY_WEIGHT, _NONNEGATIVE)
    realizations: int = _key("campaign.realizations", 20, _AT_LEAST_ONE)
    user_counts: tuple[int, ...] = _key("campaign.user_counts", (10,), _AT_LEAST_ONE, swept=True)
    master_seed: int = _key("campaign.master_seed", 1)
    fdd_eval_carriers_ghz: tuple[float, ...] = _key("campaign.fdd_eval_carriers_ghz", (), _POSITIVE)
    cross_pairs: tuple[tuple[str, str], ...] = _key("campaign.cross_pairs", (), _RATE_PAIR)

    def __post_init__(self) -> None:
        """Convert and check every field as `ScenarioConfig` does, then check
        that the spec yields rows, that no FDD carrier, its wavelength or the
        subcarrier spacing overflows in Hz, that the FIR pulse matrices, the
        channel model's subcarrier weights and its M-antenna buffers fit in
        1 GiB, and then that the channel model can phase every point of the
        movement regions and every fixed array at the home carrier and at
        each FDD carrier. Each error names its keys."""
        super().__post_init__()
        if (self.array_schemes == (ZERO_INTERFERENCE,) and not self.cross_pairs
                and not self.fdd_eval_carriers_ghz and not {UL_LIN, UL_SIC} & set(self.rate_schemes)):
            raise ValueError(
                "arrays.schemes and rates.schemes yield no rows: the zero-interference bound alone "
                "has rows only for ul-lin and ul-sic, and there are no cross pairs or FDD carriers"
            )
        for ghz in self.fdd_eval_carriers_ghz:
            check_carrier("campaign.fdd_eval_carriers_ghz", ghz)
        if not math.isfinite(self.subcarrier_spacing_hz):
            raise ValueError(f"grid.spacing_khz overflows in Hz, got {self.subcarrier_spacing_hz!r}")
        grid = self.grid(max(self.subcarrier_counts))
        floats = channel_model_floats(self, max(self.user_counts), grid, self.m_rows * self.m_cols)
        if not floats <= 2**27:  # 1 GiB of float64, so an infinite bound is rejected
            paths = "scenario." if self.kind == LOS_DOMINANT else "scenario.rich_"
            raise ValueError(
                f"scenario.delay_stretch, scenario.r_max_m, {paths}cluster_count, {paths}paths_per_cluster, "
                "grid.subcarrier_counts, grid.spacing_khz, campaign.user_counts, arrays.m_rows and "
                f"arrays.m_cols: the FIR pulse matrices, subcarrier weights and antenna buffers need up "
                f"to {floats:.3g} floats, over 1 GiB"
            )
        # The farthest element of every array the campaign phases, at the
        # shortest of the home and FDD wavelengths: the farthest corner of the
        # tiling's region_bounds boxes, formed without building the M regions,
        # or the farthest antenna of a fixed array, built now that M is bounded.
        side = self.region_side_wavelengths * self.wavelength
        reach = math.hypot(self.m_cols * side, self.m_rows * side) / 2
        for layout in build_fixed_layouts(self).values():
            reach = max(reach, float(np.linalg.norm(layout.positions, axis=1).max()))
        lam = min([self.wavelength] + [SPEED_OF_LIGHT / (ghz * 1e9) for ghz in self.fdd_eval_carriers_ghz])
        if not 2 * math.pi * reach / lam <= _PHASE_LIMIT:
            fdd = ", campaign.fdd_eval_carriers_ghz" if lam < self.wavelength else ""
            raise ValueError(
                f"arrays.region_side_wavelengths, arrays.m_rows, arrays.m_cols{fdd}: an array element "
                f"reaches {reach:.3g} m from the center, beyond the channel model's +-{_PHASE_LIMIT:g} "
                f"rad phases at {SPEED_OF_LIGHT / lam / 1e9:.6g} GHz"
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
        """The `scenario` section, which is the spec itself; kept for its
        callers in perfbench/checks.py and the tests."""
        return self

    def grid(self, subcarriers: int) -> OfdmGrid:
        return OfdmGrid(subcarriers, self.subcarrier_spacing_hz)

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
    lam = spec.wavelength
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
    channels: np.ndarray  # (S, M, K) complex


def draw_realization(spec: ExperimentSpec, index: int, users: int) -> Realization:
    """Draw the paths of realization `index` with `users` users.

    The channel seed depends only on (master seed, realization, user count),
    so every array, rate scheme and sweep point sees identical channels.
    """
    channel_seed = derive_seed(spec.master_seed, "channel", index, users)
    rng = np.random.default_rng(channel_seed)
    positions = sample_user_positions(rng, spec, users)
    paths = [synthesize_paths(rng, spec, pos) for pos in positions]
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
    lam = spec.wavelength
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
        PsoConfig(spec.pso_particles, spec.pso_iterations, seed),
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
            fixed_channels = subcarrier_channels(paths, list(fixed.values()), grid) if fixed else []
            fixed_table = {name: Placement(fixed[name], None, h) for name, h in zip(fixed, fixed_channels)}
            for evm in spec.evms:
                config = spec.link_config(users, subcarriers, evm)
                swarms = [run_swarm(spec, realization, subcarriers, evm, s) for s in swarm_schemes]
                table = dict(fixed_table)
                swarm_layouts = [swarm.trace.best_layout for swarm in swarms]
                swarm_channels = subcarrier_channels(paths, swarm_layouts, grid) if swarms else []
                for swarm, layout, h in zip(swarms, swarm_layouts, swarm_channels):
                    traces[swarm.key] = swarm.trace
                    layouts[f"{MOVABLE}_{swarm.key}"] = layout
                    table[placement_name(swarm.scheme)] = Placement(layout, swarm, h)

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
                    arrays = (MOVABLE, *fixed)
                    lam = SPEED_OF_LIGHT / (carrier_ghz * 1e9)
                    shifted = [table[array].layout.with_wavelength(lam) for array in arrays]
                    for array, h in zip(arrays, subcarrier_channels(paths, shifted, grid)):
                        placement = table[array]
                        for rate_scheme in spec.rate_schemes:
                            report = evaluate_rate_scheme(rate_scheme, h, config)
                            rows.append(row(array, rate_scheme, report, placement.swarm, carrier_ghz))

    return CampaignResult(tuple(rows), traces, layouts)


def run_campaign(spec: ExperimentSpec, workers: int = 1) -> CampaignResult:
    """Run all realizations; results are identical for any worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    indices = range(spec.realizations)
    if workers == 1:
        outputs = [run_realization(spec, i) for i in indices]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing, so only here
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


# the `ResultRow` fields that name a data series, in column and sort order
_SERIES_FIELDS = (
    "array_scheme", "rate_scheme", "optimized_for", "subcarriers", "evm", "users", "carrier_ghz"
)
_series_key = attrgetter(*_SERIES_FIELDS)


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
    # None (`optimized_for` of an unoptimized row) sorts as ""
    for key in sorted(groups, key=lambda k: ["" if v is None else v for v in k]):
        members = [groups[key][i] for i in sorted(groups[key])]
        sums = [r.sum_rate for r in members]
        user_rates = np.array([r.per_user_rates for r in members])
        series.append(
            {
                **dict(zip(_SERIES_FIELDS, key)),
                "realizations": len(members),
                "mean_sum_rate": float(np.mean(sums)),
                "mean_user_rates": [float(v) for v in user_rates.mean(axis=0)],
                "cdf": [[v, p] for v, p in empirical_cdf(sums)],
            }
        )
    return {"series": series}


_KEY_HEADER = ",".join(("realization",) + _SERIES_FIELDS)


def _key_fields(r: ResultRow) -> list[str]:
    """The leading columns that identify a row in both result tables: the
    realization, then the series key."""
    return [str(r.realization)] + [
        "" if v is None else repr(v) if isinstance(v, float) else str(v) for v in _series_key(r)
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
    campaign overwrites every file with identical bytes. A file in `layouts/`
    or `traces/` that this result does not write, an earlier campaign's, is
    removed; nothing else in `outdir` is touched.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(result.rows, out / "results.csv")
    write_user_rates_csv(result.rows, out / "user_rates.csv")
    write_summary_json(aggregate(result.rows), out / "summary.json")
    for subdir, items, suffix, write in (
        ("layouts", result.layouts, ".txt", save_layout),
        ("traces", result.traces, ".csv", write_trace_csv),
    ):
        directory = out / subdir
        directory.mkdir(exist_ok=True)
        names = {name + suffix for name in items}
        for path in directory.iterdir():
            if path.name not in names and path.is_file():
                path.unlink()
        for name, item in sorted(items.items()):
            write(item, directory / (name + suffix))
