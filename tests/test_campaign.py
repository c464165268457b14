import dataclasses
import math
import re

import numpy as np
import pytest
import yaml

import mamimo.campaign
from mamimo.campaign import (
    SPARSE_UPA,
    STAGGERED_URA,
    ExperimentSpec,
    aggregate,
    build_fixed_layouts,
    derive_seed,
    draw_realization,
    empirical_cdf,
    fdd_evaluate,
    run_campaign,
    run_realization,
    run_swarm,
    write_campaign_outputs,
)
from mamimo.channels import (
    OfdmGrid,
    ScenarioConfig,
    sample_user_positions,
    subcarrier_channels,
    synthesize_paths,
)
from mamimo.geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    load_layout,
    make_move_regions,
    make_staggered_ura,
    region_bounds,
    validate_layout,
)
from mamimo.rates import (
    ImpairedLinkConfig,
    evaluate_rate_scheme,
    zero_interference_bound,
)
from mamimo.config import emit_manifest, parse_config_dict, spec_to_config_dict


def tiny_spec(**overrides):
    base = dict(
        m_rows=2,
        m_cols=2,
        user_counts=(3,),
        subcarrier_counts=(1,),
        evms=(0.02,),
        realizations=2,
        pso_particles=6,
        pso_iterations=3,
        rate_schemes=("ul-lin", "ul-sic"),
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def output_files(outdir):
    """Every file a campaign wrote under `outdir`: relative path -> bytes."""
    return {str(p.relative_to(outdir)): p.read_bytes() for p in outdir.rglob("*") if p.is_file()}


def non_finite_specs():
    """(dotted key, spec keyword arguments) with NaN, +inf or -inf in each
    float or float-list field, one field at a time; new keys are covered as
    they are declared."""
    for f in dataclasses.fields(ExperimentSpec):
        if f.type in ("float", "tuple[float, ...]"):
            for bad in (math.nan, math.inf, -math.inf):
                value = (bad,) if f.type.startswith("tuple") else bad
                yield f.metadata["key"], {f.name: value}


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(5)
    scen = ExperimentSpec().scenario()
    positions = sample_user_positions(rng, scen, 3)
    paths = [synthesize_paths(rng, scen, p) for p in positions]
    layout = make_staggered_ura(2, 2, scen.wavelength)
    grid = OfdmGrid(2, 15e3)
    channels = subcarrier_channels(paths, layout, grid)
    config = ImpairedLinkConfig.uniform(3, 2, 1.5e-5, 0.02, 5.97e-17)
    return channels, config


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(1, "channel", 0, 10)
        assert a == derive_seed(1, "channel", 0, 10)
        assert a != derive_seed(1, "channel", 1, 10)
        assert a != derive_seed(2, "channel", 0, 10)
        assert a != derive_seed(1, "pso", 0, 10)

    def test_adding_schemes_leaves_channels_alone(self):
        spec_a = tiny_spec(rate_schemes=("ul-lin",))
        spec_b = tiny_spec(rate_schemes=("ul-lin", "ul-sic"))
        rows_a = run_realization(spec_a, 0).rows
        rows_b = run_realization(spec_b, 0).rows
        picked_a = {(r.array_scheme, r.rate_scheme): r for r in rows_a}
        picked_b = {(r.array_scheme, r.rate_scheme): r for r in rows_b}
        for key, row in picked_a.items():
            assert picked_b[key].sum_rate == row.sum_rate
            assert picked_b[key].channel_seed == row.channel_seed


class TestZeroInterference:
    def test_single_user_equals_mmse_rate(self, instance):
        channels, config = instance
        single = channels[:, :, :1]
        cfg = ImpairedLinkConfig(config.powers[:, :1], config.evm, config.noise_variance)
        bound = zero_interference_bound(single, cfg)
        lin = evaluate_rate_scheme("ul-lin", single, cfg)
        assert bound.sum_rate == pytest.approx(lin.sum_rate, rel=1e-10)

    def test_ideal_scalar_formula(self):
        h = np.full((1, 1, 2), 2.0 + 0j)
        cfg = ImpairedLinkConfig.uniform(2, 1, 0.5, 0.0, 0.25)
        bound = zero_interference_bound(h, cfg)
        expected = 2 * np.log2(1 + 0.5 * 4.0 / 0.25)
        assert bound.sum_rate == pytest.approx(expected, rel=1e-12)

    def test_dominates_linear_and_sic(self, instance):
        channels, config = instance
        bound = zero_interference_bound(channels, config).sum_rate
        assert bound >= evaluate_rate_scheme("ul-lin", channels, config).sum_rate - 1e-10
        assert bound >= evaluate_rate_scheme("ul-sic", channels, config).sum_rate - 1e-10


class TestRunRealization:
    def test_deterministic(self):
        spec = tiny_spec()
        a = run_realization(spec, 1)
        b = run_realization(spec, 1)
        assert a.rows == b.rows

    def test_zero_interference_dominates_every_scheme(self):
        spec = tiny_spec(optimize_scheme="ul-lin")
        output = run_realization(spec, 0)
        zi = {
            (r.users, r.subcarriers, r.evm): r.sum_rate
            for r in output.rows
            if r.array_scheme == "zero-interference" and r.rate_scheme == "ul-lin"
        }
        for row in output.rows:
            if row.array_scheme == "zero-interference" or row.rate_scheme != "ul-lin":
                continue
            assert zi[(row.users, row.subcarriers, row.evm)] >= row.sum_rate - 1e-9

    def test_movable_never_below_seeded_benchmarks(self):
        spec = tiny_spec(optimize_scheme="ul-sic", rate_schemes=("ul-sic",))
        output = run_realization(spec, 0)
        by_array = {r.array_scheme: r.sum_rate for r in output.rows if r.rate_scheme == "ul-sic"}
        assert by_array["movable"] >= by_array["staggered-ura"] - 1e-9
        assert by_array["movable"] >= by_array["sparse-upa"] - 1e-9

    def test_fixed_arrays_have_no_pso_artifacts(self):
        spec = tiny_spec()
        output = run_realization(spec, 0)
        for row in output.rows:
            if row.array_scheme != "movable":
                assert row.pso_seed is None
        assert all(key.count("r0000") for key in output.traces)

    def test_bound_without_movable_runs_no_swarm(self):
        spec = tiny_spec(
            array_schemes=("zero-interference", "staggered-ura"), rate_schemes=("ul-sic",)
        )
        output = run_realization(spec, 0)
        assert not output.traces
        schemes = {r.array_scheme for r in output.rows}
        assert schemes == {"zero-interference", "staggered-ura"}

    def test_bound_alone_is_computable(self):
        spec = tiny_spec(array_schemes=("zero-interference",), rate_schemes=("ul-lin",))
        output = run_realization(spec, 0)
        assert not output.traces
        assert all(r.array_scheme == "zero-interference" for r in output.rows)
        assert all(r.sum_rate > 0 for r in output.rows)

    def test_cross_pair_identity_matches_movable_row(self):
        spec = tiny_spec(
            rate_schemes=("ul-sic",),
            optimize_scheme="ul-sic",
            cross_pairs=(("ul-sic", "ul-sic"), ("ul-sic", "ul-lin")),
        )
        output = run_realization(spec, 0)
        movable = [r for r in output.rows if r.array_scheme == "movable"]
        sic = [r.sum_rate for r in movable if r.rate_scheme == "ul-sic"]
        lin = [r.sum_rate for r in movable if r.rate_scheme == "ul-lin"]
        assert {r.optimized_for for r in movable} == {"ul-sic"}
        assert len(sic) == 2 and len(lin) == 1  # factorial row plus two cross rows
        assert sic[0] == pytest.approx(sic[1], rel=1e-12)
        assert sic[0] >= lin[0] - 1e-9  # SIC dominates linear on the same layout
        (trace,) = output.traces.values()
        assert np.all(np.diff(trace.best_values) >= 0)

    def test_bound_covers_layouts_of_cross_pair_swarms(self):
        # The ul-lin swarm of the cross pair finds layouts the main ul-sic
        # swarm never evaluates; the bound must still dominate their rows.
        spec = tiny_spec(
            user_counts=(2,),
            array_schemes=("movable", "zero-interference"),
            rate_schemes=("ul-lin",),
            optimize_scheme="ul-sic",
            cross_pairs=(("ul-lin", "ul-lin"),),
            pso_particles=10,
            pso_iterations=5,
            realizations=30,
            master_seed=3,
        )
        rows = run_campaign(spec).rows
        bound = {r.realization: r.sum_rate for r in rows if r.array_scheme == "zero-interference"}
        above = [
            r.realization
            for r in rows
            if r.array_scheme == "movable" and r.sum_rate > bound[r.realization] + 1e-9
        ]
        assert above == []

    def test_each_optimizing_scheme_runs_one_swarm_with_a_layout(self, monkeypatch):
        calls = []
        original = mamimo.campaign.pso_optimize

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(mamimo.campaign, "pso_optimize", counting)
        spec = tiny_spec(
            optimize_scheme="ul-sic",
            cross_pairs=(("ul-lin", "ul-sic"), ("ul-lin", "ul-lin"), ("ul-sic", "ul-lin")),
        )
        output = run_realization(spec, 0)
        assert len(calls) == 2  # one swarm per optimizing scheme, not one per cross pair
        assert len(output.traces) == 2
        for key in output.traces:
            assert f"movable_{key}" in output.layouts

    def test_tdd_direction_pair_reuses_layout(self):
        # Optimizing in the uplink and evaluating the downlink at the same
        # carrier must not trigger a second swarm run.
        spec = tiny_spec(
            rate_schemes=("ul-lin",),
            optimize_scheme="ul-lin",
            cross_pairs=(("ul-lin", "dl-lin"),),
        )
        output = run_realization(spec, 0)
        assert len(output.traces) == 1
        dl_rows = [r for r in output.rows if r.rate_scheme == "dl-lin"]
        assert len(dl_rows) == 1
        assert dl_rows[0].array_scheme == "movable"
        assert dl_rows[0].optimized_for == "ul-lin"

    def test_cross_pair_with_new_scheme_adds_trace(self):
        spec = tiny_spec(
            rate_schemes=("ul-sic",),
            optimize_scheme="ul-sic",
            cross_pairs=(("ul-lin", "ul-sic"),),
        )
        output = run_realization(spec, 0)
        assert len(output.traces) == 2  # one per optimizing scheme

    def test_fdd_rows_cover_requested_carriers(self):
        spec = tiny_spec(
            rate_schemes=("ul-sic",),
            array_schemes=("movable", "staggered-ura"),
            fdd_eval_carriers_ghz=(3.0, 2.7),
        )
        output = run_realization(spec, 0)
        groups: dict[tuple, list] = {}
        for r in output.rows:
            groups.setdefault((r.array_scheme, r.carrier_ghz), []).append(r.sum_rate)
        assert {c for _, c in groups} == {3.0, 2.7}
        for (arr, carrier), rates in groups.items():
            if carrier == 3.0:
                # baseline row plus the same-frequency re-evaluation, equal values
                assert len(rates) == 2
                assert rates[0] == pytest.approx(rates[1], rel=1e-12)
            else:
                assert len(rates) == 1


class TestCrossEvaluate:
    # A cross pair optimizes the placement for one scheme and evaluates
    # another on the resulting layout; both steps run as in run_realization.
    @staticmethod
    def swarm_and_channels(seed):
        spec = tiny_spec(m_cols=1, user_counts=(2,), pso_particles=5, pso_iterations=2, master_seed=seed)
        realization = draw_realization(spec, 0, 2)
        swarm = run_swarm(spec, realization, 1, 0.02, "ul-sic")
        channels = subcarrier_channels(realization.paths, swarm.trace.best_layout, spec.grid(1))
        return swarm.trace, channels, spec.link_config(2, 1, 0.02)

    def test_identity_pairing(self):
        trace, channels, config = self.swarm_and_channels(3)
        evaluated = evaluate_rate_scheme("ul-sic", channels, config).sum_rate
        assert trace.best_objective == pytest.approx(evaluated, rel=1e-12)
        assert np.all(np.diff(trace.best_values) >= 0)

    def test_cross_schemes_both_reported(self):
        _, channels, config = self.swarm_and_channels(4)
        opt = evaluate_rate_scheme("ul-sic", channels, config).sum_rate
        evaluated = evaluate_rate_scheme("ul-lin", channels, config).sum_rate
        assert opt >= evaluated - 1e-9  # SIC dominates linear on the same layout


class TestFdd:
    def test_same_frequency_is_identity(self, instance):
        channels, config = instance
        rng = np.random.default_rng(6)
        scen = ExperimentSpec().scenario()
        paths = [
            synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 2)
        ]
        grid = OfdmGrid(2, 15e3)
        cfg = ImpairedLinkConfig.uniform(2, 2, 1.5e-5, 0.02, 5.97e-17)
        layout = make_staggered_ura(2, 2, scen.wavelength)
        base = evaluate_rate_scheme("ul-sic", subcarrier_channels(paths, layout, grid), cfg).sum_rate
        report = fdd_evaluate(layout, paths, grid, cfg, scen.carrier_hz, "ul-sic")
        assert report.sum_rate == pytest.approx(base, rel=1e-12)

    def test_positions_unchanged_and_sequence_produced(self):
        rng = np.random.default_rng(7)
        scen = ExperimentSpec().scenario()
        paths = [
            synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 2)
        ]
        grid = OfdmGrid(1, 15e3)
        cfg = ImpairedLinkConfig.uniform(2, 1, 1.5e-5, 0.02, 5.97e-17)
        layout = make_staggered_ura(2, 2, scen.wavelength)
        before = layout.positions.copy()
        values = [
            fdd_evaluate(layout, paths, grid, cfg, f * 1e9, "ul-sic").sum_rate
            for f in (3.0, 2.9, 2.8, 2.7)
        ]
        np.testing.assert_array_equal(layout.positions, before)
        assert len(set(values)) > 1  # frequency shift changes the rates

    def test_invalid_frequency_rejected(self, instance):
        rng = np.random.default_rng(8)
        scen = ExperimentSpec().scenario()
        paths = [synthesize_paths(rng, scen, sample_user_positions(rng, scen, 1)[0])]
        layout = make_staggered_ura(2, 2, scen.wavelength)
        cfg = ImpairedLinkConfig.uniform(1, 1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            fdd_evaluate(layout, paths, OfdmGrid(1, 15e3), cfg, 0.0, "ul-sic")

    def test_carrier_with_infinite_wavelength_rejected(self):
        # c / 1e-301 overflows to an infinite wavelength.
        rng = np.random.default_rng(8)
        scen = ExperimentSpec().scenario()
        paths = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 2)]
        layout = make_staggered_ura(2, 2, scen.wavelength)
        cfg = ImpairedLinkConfig.uniform(2, 1, 1.5e-5, 0.02, 5.97e-17)
        with pytest.raises(ValueError, match="wavelength must be finite"):
            fdd_evaluate(layout, paths, OfdmGrid(1, 15e3), cfg, 1e-301, "ul-sic")
        with pytest.raises(ValueError, match="wavelength must be finite"):
            layout.with_wavelength(np.inf)


class TestAggregation:
    def test_cdf_example(self):
        assert empirical_cdf([3.0, 1.0, 2.0]) == [
            (1.0, pytest.approx(1 / 3)),
            (2.0, pytest.approx(2 / 3)),
            (3.0, pytest.approx(1.0)),
        ]

    def test_cdf_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_mean_of_identical_values(self):
        spec = tiny_spec()
        rows = run_realization(spec, 0).rows
        doubled = list(rows) + list(rows)
        agg = aggregate(doubled)
        for series in agg["series"]:
            cdf_values = [v for v, _ in series["cdf"]]
            assert series["mean_sum_rate"] == pytest.approx(np.mean(cdf_values))

    def test_permutation_invariance(self):
        spec = tiny_spec()
        result = run_campaign(spec)
        rows = list(result.rows)
        agg1 = aggregate(rows)
        agg2 = aggregate(rows[::-1])
        assert agg1 == agg2

    def test_repeated_rows_count_once_per_realization(self):
        # The cross pair repeats the factorial movable/ul-lin row and the FDD
        # carrier equal to the base carrier repeats every factorial row.
        spec = tiny_spec(
            optimize_scheme="ul-sic",
            cross_pairs=(("ul-sic", "ul-lin"),),
            fdd_eval_carriers_ghz=(3.0,),
        )
        result = run_campaign(spec)
        series = aggregate(result.rows)["series"]
        assert len(result.rows) > sum(s["realizations"] for s in series)
        assert {s["realizations"] for s in series} == {2}

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestCampaign:
    def test_serial_equals_parallel(self):
        spec = tiny_spec()
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert serial.rows == parallel.rows

    def test_every_row_branch_serial_equals_parallel_in_order(self):
        # Factorial rows, the bound, a cross pair that runs a second swarm and
        # FDD rows at the home carrier and a shifted one, over 2 K x 2 S x 2
        # EVM; the fixed arrays are listed out of builder order.
        spec = tiny_spec(
            array_schemes=("staggered-ura", "movable", "zero-interference", "compact-upa"),
            rate_schemes=("ul-sic", "ul-lin"),
            optimize_scheme="ul-sic",
            cross_pairs=(("ul-lin", "ul-sic"), ("ul-sic", "ul-lin")),
            fdd_eval_carriers_ghz=(3.0, 2.7),
            user_counts=(2, 3),
            subcarrier_counts=(1, 2),
            evms=(0.02, 0.1),
            pso_particles=3,
            pso_iterations=1,
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert serial.rows == parallel.rows
        assert list(serial.traces) == list(parallel.traces)
        for key, trace in serial.traces.items():
            np.testing.assert_array_equal(trace.best_values, parallel.traces[key].best_values)
        assert list(serial.layouts) == list(parallel.layouts)
        for name, layout in serial.layouts.items():
            np.testing.assert_array_equal(layout.positions, parallel.layouts[name].positions)

        expected = []
        fixed = ("staggered-ura", "compact-upa")
        for i in range(spec.realizations):
            for k in spec.user_counts:
                for s in spec.subcarrier_counts:
                    for evm in spec.evms:
                        point = []
                        for array in ("staggered-ura", "movable", "compact-upa"):
                            opt = "ul-sic" if array == "movable" else None
                            point += [(array, rate, opt, 3.0) for rate in spec.rate_schemes]
                        point += [("zero-interference", rate, None, 3.0) for rate in spec.rate_schemes]
                        point += [("movable", rate, scheme, 3.0) for scheme, rate in spec.cross_pairs]
                        for carrier in spec.fdd_eval_carriers_ghz:
                            for array in ("movable",) + fixed:
                                opt = "ul-sic" if array == "movable" else None
                                point += [(array, rate, opt, carrier) for rate in spec.rate_schemes]
                        expected += [(i, a, r, o, s, evm, k, c) for a, r, o, c in point]
        keys = [
            (r.realization, r.array_scheme, r.rate_scheme, r.optimized_for, r.subcarriers,
             r.evm, r.users, r.carrier_ghz)
            for r in serial.rows
        ]
        assert keys == expected
        swarm_keys = {
            f"r{i:04d}_k{k}_s{s}_evm{evm:g}_{scheme}"
            for i in range(spec.realizations)
            for k in spec.user_counts
            for s in spec.subcarrier_counts
            for evm in spec.evms
            for scheme in ("ul-sic", "ul-lin")
        }
        assert set(serial.traces) == swarm_keys
        assert set(serial.layouts) == set(fixed) | {f"movable_{key}" for key in swarm_keys}

    def test_rows_per_combination(self):
        spec = tiny_spec(realizations=2)
        result = run_campaign(spec)
        # movable + 3 fixed arrays give rows for both rate schemes; the
        # zero-interference bound row exists per uplink scheme as well.
        expected_per_realization = 4 * 2 + 2
        assert len(result.rows) == 2 * expected_per_realization

    def test_outputs_reproducible_byte_for_byte(self, tmp_path):
        spec = tiny_spec()
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        write_campaign_outputs(run_campaign(spec), out_a)
        write_campaign_outputs(run_campaign(spec), out_b)
        for name in ("results.csv", "user_rates.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        layouts_a = sorted(p.name for p in (out_a / "layouts").iterdir())
        layouts_b = sorted(p.name for p in (out_b / "layouts").iterdir())
        assert layouts_a == layouts_b
        for name in layouts_a:
            assert (out_a / "layouts" / name).read_bytes() == (out_b / "layouts" / name).read_bytes()

    def test_written_movable_layouts_validate_at_3_5_ghz(self, tmp_path):
        # The swarm clips to the region_bounds corners, and validate_layout
        # used to test |y - center| <= half, which rejected 8 antennas of
        # this campaign's layout at 3.5 GHz.
        spec = ExperimentSpec(carrier_ghz=3.5, realizations=1, pso_particles=3, master_seed=1)
        write_campaign_outputs(run_campaign(spec), tmp_path)
        lam = spec.wavelength
        regions = make_move_regions(spec.m_rows, spec.m_cols, spec.region_side_wavelengths * lam)
        paths = sorted((tmp_path / "layouts").glob("movable_*.txt"))
        assert paths
        for path in paths:
            assert validate_layout(ArrayLayout(load_layout(path).positions, lam, regions)).ok, path.name

    def test_rerun_into_same_directory_leaves_no_stale_files(self, tmp_path):
        # A 3-realization run, then a 1-realization run into the same
        # directory, used to leave the traces and movable layouts of
        # realizations 1 and 2.
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        write_campaign_outputs(run_campaign(tiny_spec(realizations=3)), out)
        (out / "notes.txt").write_text("kept")
        (out / "traces" / "kept").mkdir()
        write_campaign_outputs(run_campaign(tiny_spec(realizations=1)), out)
        write_campaign_outputs(run_campaign(tiny_spec(realizations=1)), fresh)
        assert output_files(out) == {**output_files(fresh), "notes.txt": b"kept"}
        assert (out / "traces" / "kept").is_dir()
        write_campaign_outputs(run_campaign(tiny_spec(realizations=1)), out)
        assert output_files(out) == {**output_files(fresh), "notes.txt": b"kept"}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(realizations=0)
        with pytest.raises(ValueError):
            tiny_spec(rate_schemes=())
        with pytest.raises(ValueError):
            tiny_spec(rate_schemes=("ul-zf",))
        with pytest.raises(ValueError):
            tiny_spec(evms=(1.0,))

    def test_replace_checks_the_new_spec(self):
        # A spec used to be checked only by parse_config and run_campaign:
        # run_realization on this one returned two identical rows per array.
        with pytest.raises(ValueError, match=r"campaign\.user_counts entries must be distinct"):
            dataclasses.replace(tiny_spec(), user_counts=(3, 3))
        with pytest.raises(ValueError, match=r"rates\.schemes must be non-empty"):
            dataclasses.replace(tiny_spec(), rate_schemes=())

    def test_python_built_spec_reruns_from_its_manifest(self, tmp_path):
        # Built from ints and lists, this spec used to compare equal to its
        # parsed manifest yet run another swarm: derive_seed hashed repr(0),
        # not repr(0.0), so the movable row read 29.4414, not 28.8460.
        spec = ExperimentSpec(
            m_rows=2, m_cols=2, user_counts=(3,), evms=(0,), realizations=1, pso_particles=4,
            pso_iterations=2, rate_schemes=("ul-sic",), carrier_ghz=3, fdd_eval_carriers_ghz=[4],
            subcarrier_counts=[1],
        )
        parsed = parse_config_dict(yaml.safe_load(emit_manifest(spec)))
        for f in dataclasses.fields(ExperimentSpec):
            value, parsed_value = getattr(spec, f.name), getattr(parsed, f.name)
            assert type(value) is type(parsed_value), f.name
            if isinstance(value, tuple):
                assert [type(v) for v in value] == [type(v) for v in parsed_value], f.name
        assert type(dataclasses.replace(parsed, evms=[0]).evms[0]) is float
        assert emit_manifest(spec) == emit_manifest(parsed)
        write_campaign_outputs(run_campaign(spec), tmp_path / "built")
        write_campaign_outputs(run_campaign(parsed), tmp_path / "parsed")
        assert output_files(tmp_path / "built") == output_files(tmp_path / "parsed")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"m_rows": 4.5}, "arrays.m_rows: expected an integer, got 4.5"),
            ({"user_counts": (10.5,)}, "campaign.user_counts: expected an integer, got 10.5"),
            ({"rate_schemes": "ul-sic"}, "rates.schemes: expected a list, got 'ul-sic'"),
            ({"carrier_ghz": "3"}, "scenario.carrier_ghz: expected a number, got '3'"),
        ],
        ids=["m_rows", "user_counts", "rate_schemes", "carrier_ghz"],
    )
    def test_wrong_types_name_the_key(self, overrides, message):
        # The first two used to be accepted, the third was read as a list of
        # letters, and the fourth raised a TypeError naming no key.
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(**overrides)

    def test_numpy_values_convert_like_python_values(self):
        # Each numpy value used to raise "expected an integer", "expected a
        # list" or "expected a number", naming its key.
        evms = np.linspace(0, 0.3, 4)
        spec = tiny_spec(
            m_rows=np.int64(2), evms=evms, carrier_ghz=np.float32(3.0), user_counts=np.array([3]),
            rate_schemes=np.array(["ul-lin", "ul-sic"]), fdd_eval_carriers_ghz=np.array([4]),
            realizations=1,
        )
        twin = tiny_spec(
            m_rows=2, evms=evms.tolist(), carrier_ghz=3.0, user_counts=[3],
            rate_schemes=["ul-lin", "ul-sic"], fdd_eval_carriers_ghz=[4.0], realizations=1,
        )
        assert spec == twin
        for f in dataclasses.fields(ExperimentSpec):
            value, twin_value = getattr(spec, f.name), getattr(twin, f.name)
            assert type(value) is type(twin_value), f.name
            if isinstance(value, tuple):
                assert [type(v) for v in value] == [type(v) for v in twin_value], f.name
        parsed = parse_config_dict(yaml.safe_load(emit_manifest(spec)))
        assert emit_manifest(parsed) == emit_manifest(twin)
        assert run_realization(spec, 0).rows == run_realization(parsed, 0).rows

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"m_rows": np.bool_(True)}, "arrays.m_rows: expected an integer"),
            ({"carrier_ghz": np.bool_(False)}, "scenario.carrier_ghz: expected a number"),
            ({"evms": np.zeros((2, 2))}, "rates.evms: expected a list"),
            ({"cross_pairs": np.array([["ul-sic", "ul-lin"]])}, "campaign.cross_pairs: expected a list"),
        ],
        ids=["bool-int", "bool-float", "2d-floats", "2d-pairs"],
    )
    def test_numpy_bools_and_2d_arrays_name_the_key(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec(**overrides)

    def test_spec_without_rows_rejected(self):
        with pytest.raises(ValueError, match=r"arrays\.schemes and rates\.schemes yield no rows"):
            tiny_spec(array_schemes=("zero-interference",), rate_schemes=("dl-lin", "dl-dpc"))
        # The bound has uplink rows, and cross pairs and FDD carriers add movable rows.
        for overrides in (
            {"rate_schemes": ("dl-lin", "ul-lin")},
            {"rate_schemes": ("dl-lin",), "cross_pairs": (("ul-sic", "dl-lin"),)},
            {"rate_schemes": ("dl-lin",), "fdd_eval_carriers_ghz": (3.5,)},
        ):
            spec = tiny_spec(array_schemes=("zero-interference",), realizations=1, **overrides)
            assert run_campaign(spec).rows

    @pytest.mark.parametrize(
        "overrides", [{"delay_stretch": 1e8}, {"r_max_m": 1e9}, {"user_counts": (10**400,)}]
    )
    def test_fir_taps_beyond_memory_rejected(self, overrides):
        # All three used to validate: realization 0 at K=10, S=1 then needed
        # 1,424,004 taps with delay_stretch 1e8 (13.8 GB of pulse matrices)
        # and 460,281 with r_max_m 1e9 (4.5 GB). A count beyond the float
        # range must not escape as an OverflowError.
        keys = ("scenario.delay_stretch", "scenario.r_max_m", "grid.subcarrier_counts",
                "grid.spacing_khz", "campaign.user_counts")
        with pytest.raises(ValueError, match="over 1 GiB") as error:
            ExperimentSpec(**overrides)
        assert all(key in str(error.value) for key in keys)

    @pytest.mark.parametrize(
        "overrides, keys",
        [
            ({"cluster_count": 10**6}, ("scenario.cluster_count", "scenario.paths_per_cluster")),
            (
                {"kind": "rich-scattering", "rich_paths_per_cluster": 10**6},
                ("scenario.rich_cluster_count", "scenario.rich_paths_per_cluster"),
            ),
        ],
    )
    def test_path_counts_beyond_memory_name_their_keys(self, overrides, keys):
        # The bound grows with the path count of the configured kind, but the
        # message used to name only the delay, subcarrier and user keys.
        with pytest.raises(ValueError, match="over 1 GiB") as error:
            ExperimentSpec(**overrides)
        assert all(key in str(error.value) for key in keys)

    @pytest.mark.parametrize(
        "overrides, fdd",
        [
            ({"region_side_wavelengths": 1e12}, False),
            ({"carrier_ghz": 0.1, "region_side_wavelengths": 1e308}, False),
            ({"fdd_eval_carriers_ghz": (3.5, 1e11)}, True),
        ],
    )
    def test_aperture_beyond_phase_limit_rejected(self, overrides, fdd):
        # All used to validate; a campaign then failed on phases beyond
        # +-2^40 rad, or on an infinite region side, naming no key. Only the
        # home carrier's phases were checked, not those of an FDD carrier.
        keys = ("arrays.region_side_wavelengths", "arrays.m_rows", "arrays.m_cols")
        with pytest.raises(ValueError, match="rad phases") as error:
            ExperimentSpec(**overrides)
        assert all(key in str(error.value) for key in keys)
        assert ("campaign.fdd_eval_carriers_ghz" in str(error.value)) == fdd

    def test_fixed_array_beyond_phase_limit_rejected(self):
        # At 5 x 5 the sparse aperture, 4 x 20/3 wavelengths, is wider than
        # the tiling of 5-wavelength boxes: at this FDD carrier the sparse
        # array's corner antenna is past the phase limit, the tiling's
        # farthest corner is not.
        spec = ExperimentSpec(m_rows=5, m_cols=5)
        fdd_ghz = 2.88e10
        limit = 2**40 * (SPEED_OF_LIGHT / (fdd_ghz * 1e9)) / (2 * math.pi)
        lo, hi = region_bounds(make_move_regions(5, 5, 5 * spec.wavelength))
        assert np.max(np.hypot(*np.maximum(-lo, hi).T)) < limit
        assert np.max(np.linalg.norm(build_fixed_layouts(spec)[SPARSE_UPA].positions, axis=1)) > limit
        with pytest.raises(ValueError, match="rad phases") as error:
            dataclasses.replace(spec, fdd_eval_carriers_ghz=(fdd_ghz,))
        assert "campaign.fdd_eval_carriers_ghz" in str(error.value)

    def test_antenna_buffers_beyond_memory_rejected(self, monkeypatch):
        # 10^10 antennas used to validate: a channel call then fills (M, 10 x
        # 121) phases and phasors, 3 floats each. The bound comes before any
        # array of size M is built.
        def built(*args):
            raise AssertionError("an array of size M was built")

        monkeypatch.setattr(mamimo.campaign, "build_fixed_layouts", built)
        with pytest.raises(ValueError, match="over 1 GiB") as error:
            ExperimentSpec(m_rows=10**5, m_cols=10**5)
        assert all(key in str(error.value) for key in ("arrays.m_rows", "arrays.m_cols"))

    def test_stored_subcarrier_weights_beyond_memory_rejected(self):
        # At S = 65,536 the default spec's FIR pulses take 11.5 M floats, but
        # the channel model also stores 2 x 10 users x 121 paths x S = 159 M
        # floats of subcarrier weights.
        with pytest.raises(ValueError, match="over 1 GiB") as error:
            ExperimentSpec(subcarrier_counts=(65536,))
        assert "grid.subcarrier_counts" in str(error.value)

    def test_non_finite_floats_name_the_key(self):
        checked = 0
        for key, overrides in non_finite_specs():
            with pytest.raises(ValueError, match=f"{re.escape(key)}: expected a finite number"):
                tiny_spec(**overrides)
            checked += 1
        assert checked >= 3 * 23  # 21 float keys and 2 float lists

    def test_non_finite_floats_stop_the_campaign_before_any_realization(self, monkeypatch):
        def realization_ran(*args):
            raise AssertionError("a realization ran")

        monkeypatch.setattr(mamimo.campaign, "run_realization", realization_ran)
        for key, overrides in non_finite_specs():
            with pytest.raises(ValueError, match=re.escape(key)):
                run_campaign(tiny_spec(**overrides))

    def test_worker_count_below_one_rejected(self):
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                run_campaign(tiny_spec(), workers=workers)

    def test_file_and_programmatic_defaults_agree(self):
        assert parse_config_dict({}) == ExperimentSpec()

    def test_scenario_section_is_declared_once(self):
        # ScenarioConfig used to take all 20 values as required arguments, and
        # ExperimentSpec declared each `scenario.*` key a second time.
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        defaults = ScenarioConfig()
        for spec in (ExperimentSpec(), parse_config_dict({})):
            assert [getattr(spec, n) for n in names] == [getattr(defaults, n) for n in names]
        own = [f for f in dataclasses.fields(ExperimentSpec) if f.name not in names]
        assert not [f.metadata["key"] for f in own if f.metadata["key"].startswith("scenario.")]
        scenario_keys = [f.metadata["key"] for f in dataclasses.fields(ExperimentSpec)
                         if f.metadata["key"].startswith("scenario.")]
        assert scenario_keys == [f"scenario.{n}" for n in names]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"kind": "urban"},
            {"cluster_count": 0},
            {"r_min_m": 400.0},
            {"bs_height_m": math.nan},
            {"carrier_ghz": 1e300},
            {"carrier_ghz": 1e-320},
            {"kind": "rich-scattering", "normalized_gain": 1e300, "rice_factor_db": -100.0},
            {"kind": 5},
            {"kind": None},
            {"r_min_m": np.float64("nan")},
        ],
    )
    def test_scenario_and_spec_reject_alike(self, overrides):
        with pytest.raises(ValueError) as scenario:
            ScenarioConfig(**overrides)
        with pytest.raises(ValueError) as spec:
            ExperimentSpec(**overrides)
        assert str(spec.value) == str(scenario.value)

    def test_every_scenario_key_reaches_the_channels(self):
        # Bump each scenario key in turn; the staggered URA's channels must
        # change under at least one scenario kind, or the key reaches nothing.
        defaults = spec_to_config_dict(ExperimentSpec())["scenario"]

        def channels(kind, overrides):
            spec = parse_config_dict({"scenario": {"kind": kind, **overrides}})
            realization = draw_realization(spec, 0, 3)
            layout = build_fixed_layouts(spec)[STAGGERED_URA]
            return subcarrier_channels(realization.paths, layout, spec.grid(4))

        kinds = ("los-dominant", "rich-scattering")
        reference = {kind: channels(kind, {}) for kind in kinds}
        unused = []
        for key, default in defaults.items():
            if key == "kind":
                continue
            bumped = default + 1 if isinstance(default, int) else default * 1.1
            if all(np.array_equal(reference[k], channels(k, {key: bumped})) for k in kinds):
                unused.append(key)
        assert unused == [], f"scenario keys that leave the channels unchanged: {unused}"

    def test_table_defaults_via_config(self):
        spec = parse_config_dict({})
        assert spec.user_counts == (10,)
        assert spec.m_rows * spec.m_cols == 16
        assert spec.spacing_khz == 15.0
        assert spec.carrier_ghz == 3.0
        assert spec.noise_pw == 3.98
        assert spec.pso_particles == 150
        assert spec.ul_psd_mw_per_mhz == 1.0
        assert spec.r_min_m == 100.0 and spec.r_max_m == 300.0
        assert spec.azimuth_min_rad == pytest.approx(-np.pi / 3)
