"""Config-file schema: parse experiment specs from YAML and emit manifests.

The file format is nested key/value text with one section per subsystem
(scenario, grid, arrays, rates, pso, campaign). Keys carry explicit units
(carrier_ghz, noise_pw, ul_psd_mw_per_mhz, ...). The schema is read off the
`ExperimentSpec` field declarations, which hold each key's name, default and
range. A manifest is simply a fully resolved config, so parsing a manifest
reproduces the spec exactly.
"""
from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any

import yaml

from .campaign import ExperimentSpec


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range values in a config file."""


def _float(v: Any) -> float:
    """Type check only: `ExperimentSpec.validate` rejects NaN and infinities,
    so parsed and Python-built specs fail alike, naming the key."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        return math.inf


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


def _tuple_of(convert):
    def convert_list(v: Any) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"expected a list, got {v!r}")
        return tuple(convert(x) for x in v)

    return convert_list


def _pair(v: Any) -> tuple[str, str]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(f"cross pair {v!r} must have exactly two entries")
    return (_str(v[0]), _str(v[1]))


# spec field annotation -> converter of a raw config value
_CONVERTERS = {
    "float": _float,
    "int": _int,
    "str": _str,
    "str | None": _opt_str,
    "tuple[float, ...]": _tuple_of(_float),
    "tuple[int, ...]": _tuple_of(_int),
    "tuple[str, ...]": _tuple_of(_str),
    "tuple[tuple[str, str], ...]": _tuple_of(_pair),
}

# section -> config key -> (spec field, converter), from the fields' declarations;
# a field type without a converter fails here, at import
_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {}
for _field in dataclasses.fields(ExperimentSpec):
    _section, _name = _field.metadata["key"].split(".")
    _SCHEMA.setdefault(_section, {})[_name] = (_field.name, _CONVERTERS[_field.type])


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
