import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo.campaign import ExperimentSpec
from mamimo.channels import (
    OfdmGrid,
    sample_user_positions,
    subcarrier_channels,
    synthesize_paths,
)
from mamimo.geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    make_compact_upa,
    make_move_regions,
    make_sparse_upa,
    make_staggered_ura,
    min_pairwise_distance,
    min_spacing,
    validate_layout,
)
from mamimo.pso import (
    PsoConfig,
    objective_adapter,
    pso_optimize,
    repair_to_regions,
    spacing_penalty,
)
from mamimo.rates import ImpairedLinkConfig, evaluate_rate_scheme

LAM = 0.1


def region_centers(regions):
    return np.array([[r.center_y, r.center_z] for r in regions])


def quadratic_objective(regions):
    centers = region_centers(regions)

    def objective(layout):
        coords = layout.positions[:, 1:]
        return -float(np.sum((coords - centers) ** 2))

    return objective


class TestRepair:
    def test_inside_point_unchanged(self):
        regions = make_move_regions(1, 2, 1.0)
        coords = np.array([[-0.4, 0.1], [0.6, -0.2]])
        np.testing.assert_array_equal(repair_to_regions(coords, regions), coords)

    def test_outside_point_clamped_to_edge(self):
        regions = make_move_regions(1, 1, 1.0)
        out = repair_to_regions(np.array([[1.0, 0.0]]), regions)
        np.testing.assert_allclose(out, [[0.5, 0.0]])

    def test_idempotent(self):
        regions = make_move_regions(2, 2, 0.8)
        rng = np.random.default_rng(0)
        coords = rng.normal(scale=3.0, size=(4, 2))
        once = repair_to_regions(coords, regions)
        np.testing.assert_array_equal(repair_to_regions(once, regions), once)


class TestSpacingPenalty:
    def test_compact_upa_boundary_is_zero(self):
        layout = make_compact_upa(4, 4, LAM)
        assert spacing_penalty(layout.positions, LAM) == 0.0

    def test_coincident_pair(self):
        positions = np.zeros((2, 3))
        assert spacing_penalty(positions, LAM, weight=7.0) == pytest.approx(
            7.0 * (LAM / 2) ** 2, rel=1e-12
        )

    def test_decreases_as_pair_separates(self):
        previous = None
        for d in (0.0, 0.01, 0.02, 0.03, 0.04):
            positions = np.array([[0.0, 0.0, 0.0], [0.0, d, 0.0]])
            value = spacing_penalty(positions, LAM)
            if previous is not None:
                assert value < previous
            previous = value
        assert spacing_penalty(np.array([[0.0, 0.0, 0.0], [0.0, LAM, 0.0]]), LAM) == 0.0


class TestPsoOptimize:
    def test_quadratic_recovers_region_centers(self):
        regions = make_move_regions(2, 2, 1.0)
        config = PsoConfig(particle_count=40, max_iterations=100, seed=5)
        trace = pso_optimize(quadratic_objective(regions), regions, LAM, config)
        centers = region_centers(regions)
        final = trace.best_layout.positions[:, 1:]
        assert np.max(np.abs(final - centers)) <= 1e-3 * 1.0

    def test_zero_iterations_returns_best_initial(self):
        regions = make_move_regions(2, 2, 1.0)
        config = PsoConfig(particle_count=10, max_iterations=0, seed=1)
        trace = pso_optimize(quadratic_objective(regions), regions, LAM, config)
        assert len(trace.best_values) == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_trace_monotone(self, seed):
        regions = make_move_regions(1, 3, 0.5)
        config = PsoConfig(particle_count=8, max_iterations=12, seed=seed)
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(3, 2))

        def wobbly(layout):
            coords = layout.positions[:, 1:]
            return float(np.sum(np.sin(coords * 5.0) * coeffs))

        trace = pso_optimize(wobbly, regions, LAM, config)
        assert len(trace.best_values) == 13
        assert np.all(np.diff(trace.best_values) >= 0.0)

    @given(st.integers(0, 10_000), st.integers(0, 6), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_bookkeeping_matches_every_scored_value(self, seed, iterations, particles):
        # Regions of 0.6 wavelengths let neighbours come closer than half a
        # wavelength, so the swarm sees feasible and infeasible particles.
        regions = make_move_regions(1, 3, 0.6 * LAM)
        config = PsoConfig(particle_count=particles, max_iterations=iterations, seed=seed)
        coeffs = np.random.default_rng(seed).normal(size=(3, 2))
        scored = []  # (value, yz-coordinates) in call order

        def objective(layout):
            coords = layout.positions[:, 1:]
            value = float(np.sum(np.sin(coords * 40.0 / LAM) * coeffs))
            scored.append((value, coords.copy()))
            return value

        trace = pso_optimize(objective, regions, LAM, config)
        values = np.array([v for v, _ in scored]).reshape(iterations + 1, particles)
        np.testing.assert_array_equal(trace.best_values, np.maximum.accumulate(values.max(axis=1)))
        feasible = [(v, c) for v, c in scored if min_pairwise_distance(c) >= min_spacing(LAM)]
        assert trace.spacing_feasible == bool(feasible)
        if feasible:
            value, coords = max(feasible, key=lambda item: item[0])  # the first maximum
            assert trace.best_objective == value
            np.testing.assert_array_equal(trace.best_layout.positions[:, 1:], coords)

    @pytest.mark.parametrize("bad_call, round_", [(4, 0), (57, 5)])
    def test_non_finite_objective_value_raises(self, bad_call, round_):
        # One NaN in round 0 used to win the argmax: every history entry came
        # out NaN and the social term pulled toward that particle all run.
        regions = make_move_regions(2, 2, 1.0)
        finite = quadratic_objective(regions)
        calls = []

        def objective(layout):
            calls.append(layout)
            return float("nan") if len(calls) == bad_call else finite(layout)

        config = PsoConfig(particle_count=10, max_iterations=20, seed=1)
        with pytest.raises(ValueError, match=f"non-finite value in round {round_}$"):
            pso_optimize(objective, regions, LAM, config)
        assert len(calls) == 10 * (round_ + 1)

    def test_deterministic_given_seed(self):
        regions = make_move_regions(2, 2, 1.0)
        config = PsoConfig(particle_count=12, max_iterations=8, seed=33)
        a = pso_optimize(quadratic_objective(regions), regions, LAM, config)
        b = pso_optimize(quadratic_objective(regions), regions, LAM, config)
        np.testing.assert_array_equal(a.best_values, b.best_values)
        np.testing.assert_array_equal(a.best_layout.positions, b.best_layout.positions)

    def test_returned_layout_is_feasible(self):
        regions = make_move_regions(2, 2, 5 * LAM)
        config = PsoConfig(particle_count=15, max_iterations=10, seed=2)
        rng = np.random.default_rng(9)
        coeffs = rng.normal(size=(4, 2))

        def objective(layout):
            value = float(np.sum(layout.positions[:, 1:] * coeffs))
            return value - spacing_penalty(layout.positions, LAM)

        trace = pso_optimize(objective, regions, LAM, config)
        assert trace.spacing_feasible
        report = validate_layout(trace.best_layout)
        assert report.ok

    def test_empty_region_list_rejected(self):
        with pytest.raises(ValueError):
            pso_optimize(lambda layout: 0.0, (), LAM, PsoConfig(particle_count=2, max_iterations=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(particle_count=0)
        with pytest.raises(ValueError):
            PsoConfig(max_iterations=-1)
        with pytest.raises(ValueError):
            PsoConfig(inertia=-0.1)

    def test_coefficients_must_be_finite(self):
        # NaN passed the `< 0` checks, and infinities were accepted.
        for name in ("inertia", "cognitive", "social", "velocity_clamp"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    PsoConfig(**{name: bad})

    def test_spec_swarm_defaults_are_the_config_defaults(self):
        assert ExperimentSpec().pso_config() == PsoConfig()


@pytest.fixture(scope="module")
def small_realization():
    scen = ExperimentSpec().scenario()
    rng = np.random.default_rng(17)
    positions = sample_user_positions(rng, scen, 4)
    paths = [synthesize_paths(rng, scen, p) for p in positions]
    grid = OfdmGrid(1, 15e3)
    config = ImpairedLinkConfig.uniform(4, 1, 1.5e-5, 0.02, 5.97e-17, total_power=4 * 1.5e-5)
    return scen, paths, grid, config


class TestObjectiveAdapter:
    def test_pure(self, small_realization):
        scen, paths, grid, config = small_realization
        objective = objective_adapter("ul-sic", paths, grid, config)
        layout = make_staggered_ura(2, 2, scen.wavelength)
        assert objective(layout) == objective(layout)

    def test_sic_dominates_linear_through_adapter(self, small_realization):
        scen, paths, grid, config = small_realization
        sic = objective_adapter("ul-sic", paths, grid, config)
        lin = objective_adapter("ul-lin", paths, grid, config)
        for layout in (
            make_staggered_ura(2, 2, scen.wavelength),
            make_sparse_upa(2, 2, scen.wavelength),
            make_compact_upa(2, 2, scen.wavelength),
        ):
            assert sic(layout) >= lin(layout) - 1e-10

    def test_unknown_scheme_rejected(self, small_realization):
        _, paths, grid, config = small_realization
        objective = objective_adapter("ul-zf", paths, grid, config)
        with pytest.raises(ValueError):
            objective(make_compact_upa(2, 2, 0.1))

    def test_scheme_tag_changes_value_not_penalty(self, small_realization):
        # Squeeze two antennas inside one box so the candidate violates the
        # spacing constraint; the penalty must be scheme-independent.
        scen, paths, grid, config = small_realization
        lam = scen.wavelength
        tight = np.zeros((4, 3))
        tight[:, 1] = [0.0, lam / 8, 5 * lam, 10 * lam]
        layout = ArrayLayout(tight, lam)
        sic_obj = objective_adapter("ul-sic", paths, grid, config)
        lin_obj = objective_adapter("ul-lin", paths, grid, config)
        penalty = spacing_penalty(layout.positions, lam)
        assert penalty > 0
        from mamimo.channels import subcarrier_channels
        from mamimo.rates import ul_linear_sum_rate, ul_sic_sum_rate

        h = subcarrier_channels(paths, layout, grid)
        assert sic_obj(layout) != lin_obj(layout)
        assert sic_obj(layout) == pytest.approx(
            ul_sic_sum_rate(h, config).sum_rate - penalty, rel=1e-12
        )
        assert lin_obj(layout) == pytest.approx(
            ul_linear_sum_rate(h, config).sum_rate - penalty, rel=1e-12
        )

    def test_seeded_run_never_below_seed(self, small_realization):
        scen, paths, grid, config = small_realization
        lam = scen.wavelength
        regions = make_move_regions(2, 2, 5 * lam)
        seed_layout = make_staggered_ura(2, 2, lam)
        objective = objective_adapter("ul-sic", paths, grid, config)
        seed_value = objective(seed_layout)
        trace = pso_optimize(
            objective,
            regions,
            lam,
            PsoConfig(particle_count=10, max_iterations=5, seed=3),
            seed_layouts=[seed_layout],
        )
        assert trace.best_values[0] >= seed_value - 1e-12
        assert trace.best_objective >= seed_value - 1e-12

    def test_best_objective_scores_best_layout(self, small_realization):
        # Regions of 0.55 wavelengths leave little room between neighbours,
        # so the penalized global best is often infeasible; the reported
        # objective must still be the one of the returned layout.
        scen, paths, grid, config = small_realization
        lam = scen.wavelength
        regions = make_move_regions(2, 2, 0.55 * lam)
        objective = objective_adapter("ul-sic", paths, grid, config)
        for seed in range(8):
            trace = pso_optimize(
                objective, regions, lam, PsoConfig(particle_count=20, max_iterations=10, seed=seed)
            )
            assert trace.spacing_feasible
            assert objective(trace.best_layout) == trace.best_objective

    def test_value_follows_each_layouts_wavelength(self, small_realization):
        # One adapter scores layouts at the carrier wavelength, then the same
        # positions at 3.5 GHz, then the carrier again; each value must be the
        # full report's sum rate at that layout's own wavelength, so the swarm
        # scores a layout exactly as its result row reports it.
        scen, paths, grid, config = small_realization
        lam = scen.wavelength
        base = [
            make_staggered_ura(2, 2, lam),
            make_sparse_upa(2, 2, lam),
            ArrayLayout(np.array([[0, 0, 0], [0, lam / 3, 0], [0, 0, lam], [0, lam, lam]]), lam),
        ]
        shifted = [layout.with_wavelength(SPEED_OF_LIGHT / 3.5e9) for layout in base]
        for scheme in ("ul-sic", "dl-dpc"):
            objective = objective_adapter(scheme, paths, grid, config, penalty_weight=50.0)
            for layout in base + shifted + base[:1]:
                h = subcarrier_channels(paths, layout, grid)
                expected = evaluate_rate_scheme(scheme, h, config).sum_rate
                expected -= spacing_penalty(layout.positions, layout.wavelength, 50.0)
                assert objective(layout) == expected, scheme

    def test_infeasible_seed_is_skipped(self, small_realization):
        scen, paths, grid, config = small_realization
        lam = scen.wavelength
        regions = make_move_regions(2, 2, 5 * lam)
        compact = make_compact_upa(2, 2, lam)  # sits outside the region tiling
        objective = objective_adapter("ul-sic", paths, grid, config)
        trace = pso_optimize(
            objective,
            regions,
            lam,
            PsoConfig(particle_count=6, max_iterations=2, seed=4),
            seed_layouts=[compact],
        )
        assert trace.spacing_feasible

    def test_staggered_seed_fits_default_regions(self):
        # The staggered benchmark lies inside the default 5-wavelength tiling,
        # antenna by antenna, so seeding it is always possible.
        lam = 0.0999
        layout = make_staggered_ura(4, 4, lam)
        regions = make_move_regions(4, 4, 5 * lam)
        coords = layout.positions[:, 1:]
        clamped = repair_to_regions(coords, regions)
        assert np.max(np.abs(clamped - coords)) <= 1e-9 * 5 * lam
        assert min_pairwise_distance(layout.positions) >= lam / 2
