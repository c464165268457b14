"""Command-line interface: run campaigns, optimize placements, export tables.

Every command reads its settings from one YAML config (-c) and repeated
--set section.key=value overrides. Exit codes: 0 success, 1 usage or config
error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

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
from .config import ConfigError, emit_manifest, parse_config, parse_overrides, write_manifest
from .geometry import save_layout


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


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
    return parse_config(args.config, parse_overrides(args.set))


def _cmd_simulate(args) -> int:
    """Run the configured campaign and write its manifest and outputs."""
    spec = _load_spec(args)
    result = run_campaign(spec, workers=args.workers)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(spec, outdir / "manifest.yaml")
    write_campaign_outputs(result, outdir)
    if args.verbose:
        print(f"wrote {len(result.rows)} result rows to {outdir}")
    return 0


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
    layout = build_fixed_layouts(_load_spec(args))[args.array]
    save_layout(layout, args.output)
    print(f"wrote {args.array} ({layout.antenna_count} antennas) to {args.output}")
    return 0


def _cmd_validate_config(args) -> int:
    sys.stdout.write(emit_manifest(_load_spec(args)))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mamimo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, help, output=None):
        """A subcommand reading its settings from -c/--set, writing to -o if `output`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("-c", "--config", help="YAML config file (defaults apply if omitted)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value")
        if output:
            p.add_argument("-o", "--output", required=True, help=output)
        p.set_defaults(func=func)
        return p

    p_sim = add_command("simulate", _cmd_simulate, "run the configured campaign",
                        "output directory")
    p_sim.add_argument("-v", "--verbose", action="store_true")
    p_sim.add_argument("--workers", type=_int_at_least(1), default=1,
                       help="parallel realization workers (>= 1)")

    p_opt = add_command("optimize", _cmd_optimize,
                        "optimize one realization's antenna placement", "output directory")
    p_opt.add_argument("--realization", type=_int_at_least(0), default=0,
                       help="index of the campaign realization to draw (>= 0)")

    p_exp = add_command("export-layout", _cmd_export_layout,
                        "write a benchmark array layout file", "output file")
    p_exp.add_argument("--array", choices=FIXED_ARRAYS, required=True)

    add_command("validate-config", _cmd_validate_config,
                "parse a config and print the resolved manifest")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
