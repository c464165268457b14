"""Config-file schema: parse experiment specs from YAML and emit manifests.

The file format is nested key/value text with one section per subsystem
(scenario, grid, arrays, rates, pso, campaign). Keys carry explicit units
(carrier_ghz, noise_pw, ul_psd_mw_per_mhz, ...). The schema is read off the
`ExperimentSpec` fields, each key named by its `_key` declaration. Dotted
`section.key=value` overrides (the CLI's `--set`) replace a file's entries.
This module reads sections, merges overrides and reports unknown keys;
`ExperimentSpec` converts and checks each value. A manifest is simply a
fully resolved config, so parsing a manifest reproduces the spec exactly.
"""
from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

import yaml

from .campaign import ExperimentSpec


class ConfigError(ValueError):
    """Raised for an unreadable or malformed config source, an unknown key or a bad value."""


# section -> config key -> spec field, from the fields' declarations
_SCHEMA: dict[str, dict[str, str]] = {}
for _field in dataclasses.fields(ExperimentSpec):
    _section, _name = _field.metadata["key"].split(".")
    _SCHEMA.setdefault(_section, {})[_name] = _field.name


def parse_overrides(texts: list[str]) -> dict[str, Any]:
    """Dotted overrides from `--set section.key=value` texts; values are YAML."""
    overrides = {}
    for text in texts:
        dotted, sep, raw = text.partition("=")
        if not sep or "." not in dotted:
            raise ConfigError(f"--set {text!r} must look like section.key=value")
        try:
            overrides[dotted.strip()] = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {text!r}: {exc}") from None
    return overrides


def parse_config_dict(data: dict | None, overrides: dict[str, Any] | None = None) -> ExperimentSpec:
    """Build a fully resolved spec from a raw config mapping and dotted overrides.

    An override `section.key` replaces the mapping's entry. Unknown sections or
    keys, from either source, are reported all at once, before any value is
    converted; the spec's conversion and range errors name the key and, for a
    range, the violated constraint.
    """
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    sections: dict[Any, dict] = {}
    for section, content in data.items():
        if section in _SCHEMA and not isinstance(content, (dict, type(None))):
            raise ConfigError(f"section {section!r} must be a mapping")
        sections[section] = dict(content) if isinstance(content, dict) else {}
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")  # a dotless key is unknown
        sections.setdefault(section, {})[key] = value
    unknown = []
    fields: dict[str, Any] = {}
    for section, content in sections.items():
        if section not in _SCHEMA:
            unknown.append(str(section))
            continue
        for key, value in content.items():
            field_name = _SCHEMA[section].get(key)
            if field_name is None:
                unknown.append(f"{section}.{key}")
            else:
                fields[field_name] = value
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    try:
        return ExperimentSpec(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | Path | None, overrides: dict[str, Any] | None = None) -> ExperimentSpec:
    """Parse a UTF-8 YAML config file merged with dotted `section.key` overrides.

    No path, or an empty file, gives the defaults. A file that cannot be
    read or is not valid YAML raises `ConfigError` naming its path.
    """
    try:
        data = None if path is None else yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {str(path)!r}: {exc}") from None
    return parse_config_dict(data, overrides)


def spec_to_config_dict(spec: ExperimentSpec) -> dict:
    """Nested config mapping with every field resolved (a manifest)."""
    out: dict[str, dict[str, Any]] = {}
    for section, keys in _SCHEMA.items():
        out[section] = {}
        for key, field_name in keys.items():
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
