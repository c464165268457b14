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

PSO_COEFFICIENTS = ("inertia", "cognitive", "social", "velocity_clamp", "penalty_weight")
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

# The five sweep axes: an empty list leaves nothing to run.
SWEPT_LISTS = (
    "grid.subcarrier_counts",
    "arrays.schemes",
    "rates.schemes",
    "rates.evms",
    "campaign.user_counts",
)

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
                    "turbo": {"x": 2},
                }
            )
        message = str(err.value)
        for name in (
            "scenario.frobnicate",
            "scenario.nlos_pathloss_intercept_db",
            "scenario.nlos_pathloss_slope_db",
            "campaign.paper_scale",
            "turbo",
        ):
            assert name in message

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
        for key in SCENARIO_SPREADS:
            assert getattr(parse_config_dict({"scenario": {key: 0.0}}), key) == 0.0
        for dotted in SWEPT_LISTS:
            section, key = dotted.split(".")
            with pytest.raises(ConfigError, match=f"{dotted} must be non-empty"):
                parse_config_dict({section: {key: []}})

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
        + [f"{key}=[]" for key in SWEPT_LISTS],
    )
    def test_validate_config_rejects_out_of_range(self, override, capsys):
        assert main(["validate-config", "--set", override]) == 1
        assert override.split("=")[0] in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["simulate"]) == 1  # missing --output
        # optimize runs one swarm in-process and takes no worker count
        assert main(["optimize", "-o", str(tmp_path / "opt"), "--workers", "2"]) == 1

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_is_usage_error(self, tmp_path, command, workers, capsys):
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "out"
        argv = [command, "-c", str(config), "-o", str(outdir), "--workers", workers]
        if command == "sweep":
            argv += ["--axis", "rates.evms", "--values", "0.02"]
        assert main(argv) == 1
        assert "--workers" in capsys.readouterr().err
        assert not outdir.exists()

    def test_unknown_command_exit_code(self):
        assert main(["frobnicate"]) == 1

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

    def test_sweep_produces_points(self, tmp_path):
        config = self.write_tiny(tmp_path)
        outdir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "-c",
                str(config),
                "-o",
                str(outdir),
                "--axis",
                "grid.subcarrier_counts",
                "--values",
                "1,2,4",
            ]
        )
        assert code == 0
        lines = (outdir / "results.csv").read_text().splitlines()[1:]
        subcarriers = {int(line.split(",")[4]) for line in lines}
        assert subcarriers == {1, 2, 4}

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

    @pytest.mark.parametrize(
        "args, key",
        [
            (["--carrier-ghz", "0"], "scenario.carrier_ghz"),
            (["--carrier-ghz", "nan"], "scenario.carrier_ghz"),
            (["--carrier-ghz", "-3"], "scenario.carrier_ghz"),
            (["--rows", "0"], "arrays.m_rows"),
        ],
    )
    def test_export_layout_bad_argument_is_config_error(self, tmp_path, args, key, capsys):
        out = tmp_path / "layout.txt"
        assert main(["export-layout", "--array", "staggered-ura", "-o", str(out), *args]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()
