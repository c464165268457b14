"""Command-line interface: run campaigns, optimize placements, export tables.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .campaign import (
    FIXED_ARRAYS,
    ExperimentSpec,
    build_fixed_layouts,
    draw_realization,
    run_campaign,
    run_swarm,
    write_campaign_outputs,
    write_trace_csv,
)
from .config import ConfigError, emit_manifest, parse_config, write_manifest
from .geometry import save_layout


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"override {pair!r} must look like section.key=value")
        key, raw = pair.split("=", 1)
        overrides[key.strip()] = yaml.safe_load(raw)
    return overrides


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def _load_spec(args) -> ExperimentSpec:
    overrides = _parse_overrides(getattr(args, "set", []) or [])
    return parse_config(getattr(args, "config", None), overrides)


def _run_and_write(spec: ExperimentSpec, args) -> int:
    """Run the campaign of `spec` and write its manifest and outputs."""
    result = run_campaign(spec, workers=args.workers)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(spec, outdir / "manifest.yaml")
    write_campaign_outputs(result, outdir)
    if args.verbose:
        print(f"wrote {len(result.rows)} result rows to {outdir}")
    return 0


def _cmd_simulate(args) -> int:
    return _run_and_write(_load_spec(args), args)


def _cmd_sweep(args) -> int:
    overrides = _parse_overrides(args.set)
    overrides[args.axis] = yaml.safe_load("[" + args.values + "]")
    return _run_and_write(parse_config(args.config, overrides), args)


def _cmd_optimize(args) -> int:
    spec = _load_spec(args)
    realization = draw_realization(spec, args.realization, spec.user_counts[0])
    swarm = run_swarm(
        spec,
        realization,
        spec.subcarrier_counts[0],
        spec.evms[0],
        spec.resolved_optimize_scheme(),
    )
    trace = swarm.trace
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(spec, outdir / "manifest.yaml")
    save_layout(trace.best_layout, outdir / "optimized_layout.txt")
    write_trace_csv(trace, outdir / "trace.csv")
    print(
        f"best {swarm.scheme} objective {trace.best_objective!r} "
        f"(spacing feasible: {trace.spacing_feasible})"
    )
    return 0


def _cmd_export_layout(args) -> int:
    overrides = {"arrays.m_rows": args.rows, "arrays.m_cols": args.cols,
                 "scenario.carrier_ghz": args.carrier_ghz}
    layout = build_fixed_layouts(parse_config(None, overrides))[args.array]
    save_layout(layout, args.output)
    print(f"wrote {args.array} ({layout.antenna_count} antennas) to {args.output}")
    return 0


def _cmd_validate_config(args) -> int:
    spec = _load_spec(args)
    sys.stdout.write(emit_manifest(spec))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mamimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", help="YAML config file (defaults apply if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        p.add_argument("-o", "--output", required=True, help="output directory")
        p.add_argument("-v", "--verbose", action="store_true")

    def add_campaign(p):
        add_common(p)
        p.add_argument("--workers", type=_int_at_least(1), default=1,
                       help="parallel realization workers (>= 1)")

    p_sim = sub.add_parser("simulate", help="run the configured campaign")
    add_campaign(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a campaign sweeping one list-valued key")
    add_campaign(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help="dotted key to sweep, e.g. grid.subcarrier_counts")
    p_sweep.add_argument("--values", required=True, help="comma-separated sweep values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_opt = sub.add_parser("optimize", help="optimize one realization's antenna placement")
    add_common(p_opt)
    p_opt.add_argument("--realization", type=_int_at_least(0), default=0,
                       help="index of the campaign realization to draw (>= 0)")
    p_opt.set_defaults(func=_cmd_optimize)

    p_exp = sub.add_parser("export-layout", help="write a benchmark array layout file")
    p_exp.add_argument("--array", choices=FIXED_ARRAYS, required=True)
    defaults = ExperimentSpec()
    p_exp.add_argument("--rows", type=int, default=defaults.m_rows)
    p_exp.add_argument("--cols", type=int, default=defaults.m_cols)
    p_exp.add_argument("--carrier-ghz", type=float, default=defaults.carrier_ghz)
    p_exp.add_argument("-o", "--output", required=True, help="output file")
    p_exp.set_defaults(func=_cmd_export_layout)

    p_val = sub.add_parser("validate-config", help="parse a config and print the resolved manifest")
    p_val.add_argument("-c", "--config")
    p_val.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p_val.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (_UsageError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
