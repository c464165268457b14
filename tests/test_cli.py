from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from mamimo.cli import main
from mamimo.config import (
    ConfigError,
    emit_manifest,
    parse_config,
    parse_config_dict,
    spec_to_config_dict,
)
from mamimo.campaign import ExperimentSpec
from mamimo.geometry import load_layout

PSO_COEFFICIENTS = ("penalty_weight",)
# Swarm keys that a manifest written before the constriction coefficients
# became constants still names.
REMOVED_PSO_KEYS = ("inertia", "cognitive", "social", "velocity_clamp")
SCENARIO_COUNTS = ("cluster_count", "paths_per_cluster", "rich_cluster_count", "rich_paths_per_cluster")
SCENARIO_SPREADS = ("cluster_azimuth_spread_deg", "cluster_elevation_spread_deg", "path_angle_spread_deg")
# Scenario values each rejected alone; azimuth_min_rad = 2 exceeds the default
# azimuth_max_rad of pi/3.
SCENARIO_OUT_OF_RANGE = [
    ("normalized_gain", 0.0),
    ("normalized_gain", -1.0),
    ("azimuth_min_rad", 2.0),
    ("carrier_ghz", 0.0),
    ("delay_stretch", 0.5),
] + [(key, -1.0) for key in SCENARIO_SPREADS]
# Non-finite floats that the range checks' comparisons let through, so that a
# run failed later with an error that did not name the key.
NON_FINITE = [
    ("scenario.rice_factor_db", ".nan"),
    ("scenario.rice_factor_db", "-.inf"),
    ("scenario.los_pathloss_slope_db", ".nan"),
    ("scenario.los_pathloss_intercept_db", ".nan"),
    ("scenario.bs_height_m", ".nan"),
    ("scenario.user_height_m", ".inf"),
    ("scenario.delay_stretch", ".inf"),
    ("scenario.carrier_ghz", ".inf"),
    ("scenario.r_max_m", ".inf"),
    ("arrays.region_side_wavelengths", ".inf"),
    ("grid.spacing_khz", ".inf"),
    ("rates.noise_pw", ".inf"),
    ("campaign.fdd_eval_carriers_ghz", "[3.5, .inf]"),
]

# Finite values, as YAML, whose derived quantity overflows: a carrier or a
# spacing in Hz, a carrier's wavelength, the farthest user's squared
# distance, the Rice power ratio or the direct-path gain. Each used to fail
# later naming no key.
DERIVED_OVERFLOW = [
    ("scenario.rice_factor_db", "-4000.0"),
    ("scenario.los_pathloss_intercept_db", "-4000.0"),
    ("scenario.los_pathloss_slope_db", "-4000.0"),
    ("scenario.r_max_m", "1.0e+200"),
    ("scenario.carrier_ghz", "1.0e+300"),
    ("scenario.carrier_ghz", "1.0e-310"),
    ("scenario.bs_height_m", "1.0e+300"),
    ("grid.spacing_khz", "1.0e+306"),
    ("campaign.fdd_eval_carriers_ghz", "[3.5, 1.0e+300]"),
    ("campaign.fdd_eval_carriers_ghz", "[3.5, 1.0e-310]"),
]

# The five sweep axes: an empty list leaves nothing to run.
SWEPT_LISTS = (
    "grid.subcarrier_counts",
    "arrays.schemes",
    "rates.schemes",
    "rates.evms",
    "campaign.user_counts",
)

# A repeated entry of any list key, as YAML; each repeats work and rows.
REPEATED_ENTRIES = [
    ("grid.subcarrier_counts", "[1, 4, 1]"),
    ("arrays.schemes", "[staggered-ura, staggered-ura]"),
    ("rates.schemes", "[ul-sic, ul-lin, ul-sic]"),
    ("rates.evms", "[0.02, 0.02]"),
    ("campaign.user_counts", "[10, 10]"),
    ("campaign.fdd_eval_carriers_ghz", "[3.0, 3.0]"),
    ("campaign.cross_pairs", "[[ul-sic, ul-lin], [ul-sic, ul-lin]]"),
]

# Config input from outside, as (-c path, its file text or None for no file
# written, --set texts, exit code, text that stderr names): every unreadable
# or malformed setting is a config error naming it.
CONFIG_INPUTS = {
    "empty-section-filled-by-set": ("c.yaml", "grid:\n", ["grid.spacing_khz=30"], 0, None),
    "scalar-section": ("c.yaml", "grid: 5\n", ["grid.spacing_khz=30"], 1,
                       "section 'grid' must be a mapping"),
    "list-root-with-set": ("c.yaml", "- campaign\n- 3\n", ["rates.noise_pw=2"], 1,
                           "config root must be a mapping of sections"),
    "malformed-yaml-file": ("c.yaml", "grid: [1,\n", [], 1, "'c.yaml'"),
    "missing-file": ("missing.yaml", None, [], 1, "'missing.yaml'"),
    "directory": (".", None, [], 1, "'.'"),
    "malformed-yaml-set": (None, None, ["grid.subcarrier_counts=[1,2"], 1,
                           "'grid.subcarrier_counts=[1,2'"),
    "set-without-equals": (None, None, ["grid.spacing_khz"], 1, "'grid.spacing_khz'"),
    "set-without-dot": (None, None, ["grid=5"], 1, "'grid=5'"),
    # The bound alone has uplink rows only; simulate used to exit 2 after
    # writing the manifest and both tables.
    "no-rows": (None, None, ["arrays.schemes=[zero-interference]", "rates.schemes=[dl-lin]",
                             "campaign.realizations=1"], 1, "arrays.schemes and rates.schemes"),
}

TINY = {
    "arrays": {"m_rows": 2, "m_cols": 2},
    "campaign": {"realizations": 2, "user_counts": [2], "master_seed": 5},
    "pso": {"particles": 5, "iterations": 2},
    "rates": {"schemes": ["ul-lin"]},
}


class TestParseConfig:
    def test_empty_mapping_gives_defaults(self):
        spec = parse_config_dict({})
        assert spec.user_counts == (10,)
        assert spec.noise_pw == 3.98
        assert spec.pso_particles == 150

    def test_missing_file_sections_merge_over_defaults(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text(yaml.safe_dump({"campaign": {"user_counts": [16]}}))
        spec = parse_config(path)
        assert spec.user_counts == (16,)
        assert spec.carrier_ghz == 3.0

    def test_override_flag_equivalent(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text("")
        spec = parse_config(path, {"campaign.user_counts": [16]})
        assert spec.user_counts == (16,)
        # an override replaces the file's entry before any value is converted
        path.write_text("grid:\n  spacing_khz: abc\n")
        with pytest.raises(ConfigError, match="grid.spacing_khz"):
            parse_config(path)
        assert parse_config(path, {"grid.spacing_khz": 30}).spacing_khz == 30.0

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config_dict(
                {
                    "scenario": {
                        "frobnicate": 1,
                        "nlos_pathloss_intercept_db": 34.53,
                        "nlos_pathloss_slope_db": 38.0,
                    },
                    "campaign": {"paper_scale": True},
                    "pso": {"particles": 5, **{key: 1.0 for key in REMOVED_PSO_KEYS}},
                    "turbo": {"x": 2},
                    "warp": 9,
                },
                # reported together with the mapping's
                {"rates.zork": 1, "warp.y": 2, "flux.z": 3},
            )
        message = str(err.value)
        for name in (
            "scenario.frobnicate",
            "scenario.nlos_pathloss_intercept_db",
            "scenario.nlos_pathloss_slope_db",
            "campaign.paper_scale",
            "turbo",
            "rates.zork",
            "warp",
            "flux",
            *(f"pso.{key}" for key in REMOVED_PSO_KEYS),
        ):
            assert name in message
        assert "pso.particles" not in message

    def test_out_of_range_names_constraint(self):
        with pytest.raises(ConfigError, match="noise_pw"):
            parse_config_dict({"rates": {"noise_pw": -1.0}})
        with pytest.raises(ConfigError, match="r_min_m"):
            parse_config_dict({"scenario": {"r_min_m": 500.0, "r_max_m": 300.0}})
        for carriers in ([-3.5], [0.0], [3.5, 0.0]):
            with pytest.raises(ConfigError, match="campaign.fdd_eval_carriers_ghz"):
                parse_config_dict({"campaign": {"fdd_eval_carriers_ghz": carriers}})
        for key in PSO_COEFFICIENTS:
            with pytest.raises(ConfigError, match=f"pso.{key}"):
                parse_config_dict({"pso": {key: -0.5}})
        for key in SCENARIO_COUNTS:
            for count in (0, -1):
                with pytest.raises(ConfigError, match=f"scenario.{key}"):
                    parse_config_dict({"scenario": {key: count}})
        for key, value in SCENARIO_OUT_OF_RANGE:
            with pytest.raises(ConfigError, match=f"scenario.{key}"):
                parse_config_dict({"scenario": {key: value}})
        with pytest.raises(ConfigError, match="scenario.azimuth_min_rad"):
            parse_config_dict(
                {"scenario": {"kind": "rich-scattering", "azimuth_min_rad": 2.0, "azimuth_max_rad": 1.0}}
            )
        for dotted, value in NON_FINITE:
            section, key = dotted.split(".")
            with pytest.raises(ConfigError, match=f"{dotted}: expected a finite number"):
                parse_config_dict({section: {key: yaml.safe_load(value)}})
        with pytest.raises(ConfigError, match="scenario.carrier_ghz: expected a finite number"):
            parse_config_dict({"scenario": {"carrier_ghz": 10**400}})  # no float holds it
        for dotted, value in DERIVED_OVERFLOW:
            section, key = dotted.split(".")
            with pytest.raises(ConfigError, match=f"{dotted}.* overflows"):
                parse_config_dict({section: {key: yaml.safe_load(value)}})
        with pytest.raises(ConfigError, match="scenario.normalized_gain: the scattered power overflows"):
            parse_config_dict(
                {"scenario": {"kind": "rich-scattering", "normalized_gain": 1e300, "rice_factor_db": -100.0}}
            )
        # Values that ran before still validate: powers that underflow or stay
        # in range, and path-loss keys that rich scattering ignores.
        for section in (
            {"rice_factor_db": 4000.0},
            {"los_pathloss_intercept_db": 4000.0},
            {"kind": "rich-scattering", "los_pathloss_intercept_db": -4000.0},
            {"los_pathloss_intercept_db": -3000.0, "rice_factor_db": -100.0},
        ):
            parse_config_dict({"scenario": section})
        for key in SCENARIO_SPREADS:
            assert getattr(parse_config_dict({"scenario": {key: 0.0}}), key) == 0.0
        for dotted in SWEPT_LISTS:
            section, key = dotted.split(".")
            with pytest.raises(ConfigError, match=f"{dotted} must be non-empty"):
                parse_config_dict({section: {key: []}})
        list_keys = {f.metadata["key"] for f in fields(ExperimentSpec) if f.type.startswith("tuple")}
        assert {dotted for dotted, _ in REPEATED_ENTRIES} == list_keys
        for dotted, value in REPEATED_ENTRIES:
            section, key = dotted.split(".")
            with pytest.raises(ConfigError, match=f"{dotted} entries must be distinct"):
                parse_config_dict({section: {key: yaml.safe_load(value)}})
        # a pair may name one scheme twice; only whole list entries must differ
        pairs = [["ul-sic", "ul-sic"], ["ul-sic", "ul-lin"], ["ul-lin", "ul-sic"]]
        spec = parse_config_dict({"campaign": {"cross_pairs": pairs}})
        assert spec.cross_pairs == tuple(tuple(p) for p in pairs)

    def test_python_built_scenario_rejects_alike(self):
        # A scenario built in Python used to skip the overflow checks:
        # scenario.bs_height_m = 1e300 built one, and the run died later with
        # "cannot convert float NaN to integer".
        cases = [(f"scenario.{key}", value) for key, value in SCENARIO_OUT_OF_RANGE]
        cases += [
            (dotted, yaml.safe_load(value))
            for dotted, value in NON_FINITE + DERIVED_OVERFLOW
            if dotted.startswith("scenario.")
        ]
        default = ExperimentSpec().scenario()
        for dotted, value in cases:
            section, key = dotted.split(".")
            with pytest.raises(ConfigError) as parsed:
                parse_config_dict({section: {key: value}})
            with pytest.raises(ValueError, match=dotted) as built:
                replace(default, **{key: value})
            assert str(built.value) == str(parsed.value)

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="grid.subcarrier_counts"):
            parse_config_dict({"grid": {"subcarrier_counts": 7}})
        with pytest.raises(ConfigError, match="rates.optimize_scheme"):
            parse_config_dict({"rates": {"optimize_scheme": 3}})

    def test_round_trip_identity(self):
        spec = parse_config_dict(
            {
                "campaign": {"user_counts": [2, 12], "cross_pairs": [["ul-sic", "ul-lin"]]},
                "rates": {"evms": [0.02, 0.1], "optimize_scheme": "ul-sic"},
                "grid": {"subcarrier_counts": [1, 16]},
            }
        )
        recovered = parse_config_dict(yaml.safe_load(emit_manifest(spec)))
        assert recovered == spec

    def test_round_trip_of_programmatic_spec(self):
        spec = ExperimentSpec(pso_particles=7, realizations=3, evms=(0.3,))
        recovered = parse_config_dict(yaml.safe_load(emit_manifest(spec)))
        assert recovered == spec

    def test_manifest_contains_all_sections(self):
        data = spec_to_config_dict(ExperimentSpec())
        assert set(data) == {"scenario", "grid", "arrays", "rates", "pso", "campaign"}


class TestCliCommands:
    def write_tiny(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(TINY))
        return path

    def test_validate_config_ok(self, tmp_path, capsys):
        path = self.write_tiny(tmp_path)
        assert main(["validate-config", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "master_seed: 5" in out

    def test_validate_config_bad_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("rates:\n  noise_pw: -2\n")
        assert main(["validate-config", "-c", str(path)]) == 1
        assert "noise_pw" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["campaign.fdd_eval_carriers_ghz=[-3.5]", "campaign.fdd_eval_carriers_ghz=[0.0]"]
        + [f"pso.{key}=-0.5" for key in PSO_COEFFICIENTS]
        + [f"scenario.{key}=0" for key in SCENARIO_COUNTS]
        + [f"scenario.{key}={value}" for key, value in SCENARIO_OUT_OF_RANGE]
        + [f"{key}={value}" for key, value in NON_FINITE]
        + [f"{key}={value}" for key, value in DERIVED_OVERFLOW]
        + [f"{key}=[]" for key in SWEPT_LISTS]
        + [f"{key}={value}" for key, value in REPEATED_ENTRIES]
        + ["campaign.fdd_eval_carriers_ghz=[1.0e+11]", "arrays.m_rows=100000"],
    )
    def test_validate_config_rejects_out_of_range(self, override, capsys):
        assert main(["validate-config", "--set", override]) == 1
        assert override.split("=")[0] in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["simulate"]) == 1  # missing --output
        # optimize runs one swarm in-process and takes no worker count
        assert main(["optimize", "-o", str(tmp_path / "opt"), "--workers", "2"]) == 1

    @pytest.mark.parametrize("command", ["simulate"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, command, workers, capsys):
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "out"
        assert main([command, "-c", str(config), "-o", str(outdir), "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not outdir.exists()

    def test_negative_realization_is_usage_error(self, tmp_path, capsys):
        # No campaign draws a negative realization index.
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "opt"
        assert main(["optimize", "-c", str(config), "-o", str(outdir), "--realization", "-3"]) == 1
        assert "--realization" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unknown_command_exit_code(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "-o", "out"],
            ["optimize", "-o", "out"],
            ["export-layout", "--array", "staggered-ura", "-o", "out"],
            ["validate-config"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_reads_set(self, tmp_path, monkeypatch, argv, capsys):
        # A known section, so the message names the whole key.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--set", "arrays.no_such=1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: unknown config keys: arrays.no_such\n"
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("case", CONFIG_INPUTS)
    def test_config_input_errors_are_config_errors(self, tmp_path, monkeypatch, case, capsys):
        path, text, sets, code, named = CONFIG_INPUTS[case]
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / path).write_text(text)
        argv = (["-c", path] if path else []) + [arg for s in sets for arg in ("--set", s)]
        before = sorted(tmp_path.iterdir())
        assert main(["validate-config", *argv]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert "spacing_khz: 30" in captured.out
            return
        assert captured.err.startswith("config error:")
        assert named in captured.err
        assert main(["simulate", *argv, "-o", "out"]) == code
        assert capsys.readouterr().err.startswith("config error:")
        assert sorted(tmp_path.iterdir()) == before

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        config = self.write_tiny(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["simulate", "-c", str(config), "-o", str(blocker / "out")])
        capsys.readouterr()
        assert code == 2

    def test_simulate_writes_artifacts(self, tmp_path):
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "out"
        assert main(["simulate", "-c", str(config), "-o", str(outdir)]) == 0
        assert (outdir / "manifest.yaml").exists()
        results = (outdir / "results.csv").read_text().splitlines()
        # header + 2 realizations x (4 arrays + zero-interference bound)
        assert len(results) == 1 + 2 * 5
        assert results[0].startswith("realization,array_scheme")
        assert any((outdir / "layouts").iterdir())
        assert any((outdir / "traces").iterdir())

    def test_simulate_is_idempotent(self, tmp_path):
        config = self.write_tiny(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "-c", str(config), "-o", str(out_a)]) == 0
        assert main(["simulate", "-c", str(config), "-o", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "manifest.yaml").read_bytes() == (out_b / "manifest.yaml").read_bytes()

    def test_simulate_from_manifest_reproduces_tables(self, tmp_path):
        config = self.write_tiny(tmp_path)
        out_a = tmp_path / "a"
        assert main(["simulate", "-c", str(config), "-o", str(out_a)]) == 0
        out_b = tmp_path / "b"
        assert main(["simulate", "-c", str(out_a / "manifest.yaml"), "-o", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_simulate_does_not_mutate_config(self, tmp_path):
        config = self.write_tiny(tmp_path)
        before = config.read_bytes()
        assert main(["simulate", "-c", str(config), "-o", str(tmp_path / "out")]) == 0
        assert config.read_bytes() == before

    def test_simulate_set_list_sweeps_points(self, tmp_path):
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "sweep"
        argv = ["simulate", "-c", str(config), "-o", str(outdir)]
        assert main([*argv, "--set", "grid.subcarrier_counts=[1,2,4]"]) == 0
        lines = (outdir / "results.csv").read_text().splitlines()[1:]
        subcarriers = {int(line.split(",")[4]) for line in lines}
        assert subcarriers == {1, 2, 4}
        # the same list given in the config file runs the same campaign
        listed = tmp_path / "listed.yaml"
        listed.write_text(yaml.safe_dump({**TINY, "grid": {"subcarrier_counts": [1, 2, 4]}}))
        assert main(["simulate", "-c", str(listed), "-o", str(tmp_path / "listed")]) == 0
        assert (tmp_path / "listed" / "results.csv").read_bytes() == (
            outdir / "results.csv"
        ).read_bytes()

    def test_optimize_writes_layout_and_trace(self, tmp_path, capsys):
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "opt"
        assert main(["optimize", "-c", str(config), "-o", str(outdir)]) == 0
        layout = load_layout(outdir / "optimized_layout.txt")
        assert layout.antenna_count == 4
        trace_lines = (outdir / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iteration,best_value"
        assert len(trace_lines) == 1 + 2 + 1  # header + iterations + initial swarm

    def test_optimize_matches_simulate_realization(self, tmp_path):
        config = self.write_tiny(tmp_path)
        sim, opt = tmp_path / "sim", tmp_path / "opt"
        assert main(["simulate", "-c", str(config), "-o", str(sim)]) == 0
        assert main(["optimize", "-c", str(config), "-o", str(opt), "--realization", "1"]) == 0
        key = "r0001_k2_s1_evm0.02_ul-lin"
        assert (opt / "optimized_layout.txt").read_bytes() == (
            sim / "layouts" / f"movable_{key}.txt"
        ).read_bytes()
        assert (opt / "trace.csv").read_bytes() == (sim / "traces" / f"{key}.csv").read_bytes()

    def test_export_layout(self, tmp_path):
        out = tmp_path / "staggered.txt"
        assert main(["export-layout", "--array", "staggered-ura", "-o", str(out)]) == 0
        layout = load_layout(out)
        assert layout.antenna_count == 16
        ys = np.sort(layout.positions[:, 1])
        steps = np.diff(ys)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_export_layout_reads_config(self, tmp_path):
        config = tmp_path / "conf.yaml"
        config.write_text(yaml.safe_dump({"arrays": {"m_rows": 2, "m_cols": 3}}))
        out = tmp_path / "compact.txt"
        assert main(["export-layout", "--array", "compact-upa", "-c", str(config), "-o", str(out)]) == 0
        assert load_layout(out).antenna_count == 6

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--set", "scenario.carrier_ghz=0"], "scenario.carrier_ghz"),
            (["--set", "scenario.carrier_ghz=.nan"], "scenario.carrier_ghz"),
            (["--set", "scenario.carrier_ghz=-3"], "scenario.carrier_ghz"),
            (["--set", "arrays.m_rows=0"], "arrays.m_rows"),
        ],
    )
    def test_export_layout_bad_argument_is_config_error(self, tmp_path, args, key, capsys):
        out = tmp_path / "layout.txt"
        assert main(["export-layout", "--array", "staggered-ura", "-o", str(out), *args]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not out.exists()
