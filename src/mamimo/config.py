"""Config-file schema: parse experiment specs from YAML and emit manifests.

The file format is nested key/value text with one section per subsystem
(scenario, grid, arrays, rates, pso, campaign). Keys carry explicit units
(carrier_ghz, noise_pw, ul_psd_mw_per_mhz, ...). A manifest is simply a fully
resolved config, so parsing a manifest reproduces the spec exactly.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Any

import yaml

from .campaign import ExperimentSpec


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range values in a config file."""


def _float(v: Any) -> float:
    """Every float key, scalar or list entry, passes here: NaN and infinities
    would slip through the range checks' comparisons and fail only mid-run."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {v!r}")
    try:
        value = float(v)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {v!r}")
    return value


def _int(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"expected an integer, got {v!r}")
    return v


def _str(v: Any) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"expected a string, got {v!r}")
    return v


def _opt_str(v: Any) -> str | None:
    if v is None:
        return None
    return _str(v)


def _float_tuple(v: Any) -> tuple[float, ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list, got {v!r}")
    return tuple(_float(x) for x in v)


def _int_tuple(v: Any) -> tuple[int, ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list, got {v!r}")
    return tuple(_int(x) for x in v)


def _str_tuple(v: Any) -> tuple[str, ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list, got {v!r}")
    return tuple(_str(x) for x in v)


def _pair_tuple(v: Any) -> tuple[tuple[str, str], ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list of [optimize, evaluate] pairs, got {v!r}")
    pairs = []
    for item in v:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"cross pair {item!r} must have exactly two entries")
        pairs.append((_str(item[0]), _str(item[1])))
    return tuple(pairs)


# section -> config key -> (spec field, converter)
_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "scenario": {
        "kind": ("scenario_kind", _str),
        "carrier_ghz": ("carrier_ghz", _float),
        "rice_factor_db": ("rice_factor_db", _float),
        "r_min_m": ("r_min_m", _float),
        "r_max_m": ("r_max_m", _float),
        "azimuth_min_rad": ("azimuth_min_rad", _float),
        "azimuth_max_rad": ("azimuth_max_rad", _float),
        "bs_height_m": ("bs_height_m", _float),
        "user_height_m": ("user_height_m", _float),
        "cluster_count": ("cluster_count", _int),
        "paths_per_cluster": ("paths_per_cluster", _int),
        "cluster_azimuth_spread_deg": ("cluster_azimuth_spread_deg", _float),
        "cluster_elevation_spread_deg": ("cluster_elevation_spread_deg", _float),
        "path_angle_spread_deg": ("path_angle_spread_deg", _float),
        "rich_cluster_count": ("rich_cluster_count", _int),
        "rich_paths_per_cluster": ("rich_paths_per_cluster", _int),
        "delay_stretch": ("delay_stretch", _float),
        "los_pathloss_intercept_db": ("los_pathloss_intercept_db", _float),
        "los_pathloss_slope_db": ("los_pathloss_slope_db", _float),
        "normalized_gain": ("normalized_gain", _float),
    },
    "grid": {
        "spacing_khz": ("spacing_khz", _float),
        "subcarrier_counts": ("subcarrier_counts", _int_tuple),
    },
    "arrays": {
        "schemes": ("array_schemes", _str_tuple),
        "m_rows": ("m_rows", _int),
        "m_cols": ("m_cols", _int),
        "region_side_wavelengths": ("region_side_wavelengths", _float),
    },
    "rates": {
        "schemes": ("rate_schemes", _str_tuple),
        "evms": ("evms", _float_tuple),
        "noise_pw": ("noise_pw", _float),
        "ul_psd_mw_per_mhz": ("ul_psd_mw_per_mhz", _float),
        "dl_psd_mw_per_mhz": ("dl_psd_mw_per_mhz", _float),
        "optimize_scheme": ("optimize_scheme", _opt_str),
    },
    "pso": {
        "particles": ("pso_particles", _int),
        "iterations": ("pso_iterations", _int),
        "inertia": ("pso_inertia", _float),
        "cognitive": ("pso_cognitive", _float),
        "social": ("pso_social", _float),
        "velocity_clamp": ("pso_velocity_clamp", _float),
        "penalty_weight": ("pso_penalty_weight", _float),
    },
    "campaign": {
        "realizations": ("realizations", _int),
        "user_counts": ("user_counts", _int_tuple),
        "master_seed": ("master_seed", _int),
        "fdd_eval_carriers_ghz": ("fdd_eval_carriers_ghz", _float_tuple),
        "cross_pairs": ("cross_pairs", _pair_tuple),
    },
}

def apply_overrides(data: dict, overrides: dict[str, Any]) -> dict:
    """Apply dotted `section.key` overrides onto a raw config mapping."""
    out = {k: dict(v) for k, v in data.items()}
    for dotted, value in overrides.items():
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} must look like section.key")
        section, key = dotted.split(".", 1)
        out.setdefault(section, {})[key] = value
    return out


def parse_config_dict(data: dict | None) -> ExperimentSpec:
    """Build a fully resolved spec from a raw config mapping.

    Unknown sections or keys are reported all at once; out-of-range values
    raise an error naming the violated constraint.
    """
    data = data or {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    unknown = []
    fields: dict[str, Any] = {}
    for section, content in data.items():
        if section not in _SCHEMA:
            unknown.append(str(section))
            continue
        if content is None:
            continue
        if not isinstance(content, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in content.items():
            entry = _SCHEMA[section].get(key)
            if entry is None:
                unknown.append(f"{section}.{key}")
                continue
            field_name, convert = entry
            try:
                fields[field_name] = convert(value)
            except ConfigError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    spec = ExperimentSpec(**fields)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return spec


def parse_config(path: str | Path | None, overrides: dict[str, Any] | None = None) -> ExperimentSpec:
    """Parse a YAML config file (missing or empty file gives the defaults)."""
    data: dict = {}
    if path is not None:
        raw = yaml.safe_load(Path(path).read_text())
        if raw is not None:
            data = raw
    if overrides:
        data = apply_overrides(data if isinstance(data, dict) else {}, overrides)
    return parse_config_dict(data)


def spec_to_config_dict(spec: ExperimentSpec) -> dict:
    """Nested config mapping with every field resolved (a manifest)."""
    out: dict[str, dict[str, Any]] = {}
    for section, keys in _SCHEMA.items():
        out[section] = {}
        for key, (field_name, _) in keys.items():
            value = getattr(spec, field_name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[section][key] = value
    return out


def emit_manifest(spec: ExperimentSpec) -> str:
    """Render a spec as reproducible YAML; parsing it returns the same spec."""
    return yaml.safe_dump(spec_to_config_dict(spec), sort_keys=True, default_flow_style=False)


def write_manifest(spec: ExperimentSpec, path: str | Path) -> None:
    Path(path).write_text(emit_manifest(spec))
