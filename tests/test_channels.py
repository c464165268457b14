import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mamimo.campaign import ExperimentSpec
from mamimo.channels import (
    ChannelModel,
    OfdmGrid,
    UserPaths,
    path_loss,
    pulse_triangle,
    sample_user_positions,
    subcarrier_channels,
    sync_and_tap_count,
    synthesize_paths,
)
from mamimo.geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    array_response,
    make_move_regions,
    make_staggered_ura,
)
from oracles import build_tap_channel, subcarriers_from_taps

DEFAULT_SCENARIO = ExperimentSpec().scenario()


@dataclass(frozen=True)
class PathParams:
    """One far-field propagation path (scalar oracle for the tap tests)."""

    amplitude: float  # linear, >= 0
    delay: float  # seconds, >= 0
    azimuth: float  # radians in [-pi, pi]
    elevation: float  # radians in [-pi/2, pi/2]

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("path amplitude must be nonnegative")
        if self.delay < 0:
            raise ValueError("path delay must be nonnegative")
        if abs(self.azimuth) > math.pi:
            raise ValueError("azimuth must lie in [-pi, pi]")
        if abs(self.elevation) > math.pi / 2:
            raise ValueError("elevation must lie in [-pi/2, pi/2]")


def path_of(user: UserPaths, i: int) -> PathParams:
    return PathParams(
        float(user.amplitudes[i]),
        float(user.delays[i]),
        float(user.azimuths[i]),
        float(user.elevations[i]),
    )


def tap_coefficient(
    path: PathParams, ell: int, eta: float, grid: OfdmGrid, wavelength: float
) -> complex:
    """Scalar FIR coefficient of one path at tap index `ell`."""
    x = grid.subcarrier_count * grid.subcarrier_spacing * (path.delay - eta)
    phase = np.exp(-2j * np.pi * SPEED_OF_LIGHT * (path.delay - eta) / wavelength)
    return complex(path.amplitude * phase * pulse_triangle(ell - x))


def single_path_user(amplitude, delay, azimuth=0.3, elevation=-0.1, position=(200.0, 0.0, -2.75)):
    return UserPaths([amplitude], [delay], [azimuth], [elevation], np.array(position))


class TestPulse:
    def test_anchor_values(self):
        assert pulse_triangle(0.0) == 1.0
        assert pulse_triangle(1.0) == 0.0
        assert pulse_triangle(-1.0) == 0.0
        assert pulse_triangle(0.5) == 0.5

    def test_zero_outside_support(self):
        assert pulse_triangle(1.5) == 0.0
        assert pulse_triangle(-7.0) == 0.0

    @given(st.floats(-5, 5, allow_nan=False))
    def test_piecewise_formula(self, t):
        expected = 1.0 - abs(t) if abs(t) <= 1.0 else 0.0
        assert pulse_triangle(t) == pytest.approx(expected, abs=1e-15)

    def test_partition_of_unity_over_integer_grid(self):
        # The filter taps of any path sum to one once the support is covered.
        for x in (0.0, 0.25, 1.9, 3.5):
            total = sum(pulse_triangle(ell - x) for ell in range(6))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestUserDrop:
    def test_radius_bounds(self):
        rng = np.random.default_rng(0)
        pos = sample_user_positions(rng, DEFAULT_SCENARIO, 2000)
        radii = np.hypot(pos[:, 0], pos[:, 1])
        assert radii.min() >= 100.0
        assert radii.max() <= 300.0

    def test_height_offset(self):
        rng = np.random.default_rng(0)
        pos = sample_user_positions(rng, DEFAULT_SCENARIO, 1)[0]
        assert pos[2] == pytest.approx(1.25 - 4.0)

    def test_degenerate_angle_interval(self):
        rng = np.random.default_rng(1)
        scen = replace(DEFAULT_SCENARIO, azimuth_min=0.0, azimuth_max=0.0)
        pos = sample_user_positions(rng, scen, 50)
        np.testing.assert_allclose(pos[:, 1], 0.0, atol=1e-9)
        assert np.all(pos[:, 0] > 0)

    def test_squared_radius_uniform(self):
        # Inverse-CDF sampling makes r^2 uniform on [r_min^2, r_max^2].
        rng = np.random.default_rng(7)
        pos = sample_user_positions(rng, DEFAULT_SCENARIO, 100_000)
        r2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
        result = stats.kstest(r2, "uniform", args=(100.0**2, 300.0**2 - 100.0**2))
        assert result.pvalue > 0.01


class TestSynthesizePaths:
    def test_los_dominant_path_count(self):
        rng = np.random.default_rng(0)
        user = synthesize_paths(rng, DEFAULT_SCENARIO, np.array([200.0, 50.0, -2.75]))
        assert user.n_paths == 121

    def test_rich_scattering_path_count(self):
        rng = np.random.default_rng(0)
        scen = replace(DEFAULT_SCENARIO, kind="rich-scattering", rice_factor_db=0.0)
        user = synthesize_paths(rng, scen, np.array([200.0, 50.0, -2.75]))
        assert user.n_paths == 200

    def test_rice_power_split(self):
        rng = np.random.default_rng(3)
        scen = replace(DEFAULT_SCENARIO, rice_factor_db=10.0)
        position = np.array([150.0, -60.0, -2.75])
        user = synthesize_paths(rng, scen, position)
        los_power = user.amplitudes[0] ** 2
        scatter_power = np.sum(user.amplitudes[1:] ** 2)
        assert scatter_power / los_power == pytest.approx(10 ** (-1.0), rel=1e-12)

    def test_rich_total_power_is_normalized(self):
        rng = np.random.default_rng(3)
        scen = replace(
            DEFAULT_SCENARIO, kind="rich-scattering", rice_factor_db=0.0, normalized_gain=2e-9
        )
        near = synthesize_paths(rng, scen, np.array([110.0, 0.0, -2.75]))
        far = synthesize_paths(rng, scen, np.array([290.0, 0.0, -2.75]))
        assert np.sum(near.amplitudes**2) == pytest.approx(2e-9, rel=1e-12)
        assert np.sum(far.amplitudes**2) == pytest.approx(2e-9, rel=1e-12)

    def test_first_path_is_direct(self):
        rng = np.random.default_rng(5)
        position = np.array([120.0, 90.0, -2.75])
        user = synthesize_paths(rng, DEFAULT_SCENARIO, position)
        distance = np.linalg.norm(position)
        assert user.delays[0] == pytest.approx(distance / SPEED_OF_LIGHT, rel=1e-12)
        assert user.azimuths[0] == pytest.approx(np.arctan2(90.0, 120.0))

    def test_scattered_delay_window(self):
        rng = np.random.default_rng(5)
        position = np.array([120.0, 90.0, -2.75])
        user = synthesize_paths(rng, DEFAULT_SCENARIO, position)
        tau = user.delays[0]
        assert np.all(user.delays[1:] > tau)
        assert np.all(user.delays[1:] <= 10.0 * tau)

    def test_elevation_clamped(self):
        rng = np.random.default_rng(5)
        scen = replace(DEFAULT_SCENARIO, kind="rich-scattering")
        user = synthesize_paths(rng, scen, np.array([120.0, 90.0, -2.75]))
        assert np.all(np.abs(user.elevations) <= np.pi / 2)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            replace(DEFAULT_SCENARIO, kind="tropospheric")

    def test_narrowband_kind_rejected(self):
        # "narrowband" was an alias of the los-dominant model and is no longer a kind.
        with pytest.raises(ValueError, match="los-dominant"):
            replace(DEFAULT_SCENARIO, kind="narrowband")

    def test_determinism(self):
        scen = DEFAULT_SCENARIO
        position = np.array([200.0, 10.0, -2.75])
        a = synthesize_paths(np.random.default_rng(42), scen, position)
        b = synthesize_paths(np.random.default_rng(42), scen, position)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        np.testing.assert_array_equal(a.delays, b.delays)
        np.testing.assert_array_equal(a.azimuths, b.azimuths)
        np.testing.assert_array_equal(a.elevations, b.elevations)


class TestSyncAndTaps:
    def test_two_delay_example(self):
        users = [single_path_user(1.0, 1e-6), single_path_user(1.0, 2e-6)]
        eta, taps = sync_and_tap_count(users, OfdmGrid(64, 15e3))
        assert eta == 1e-6
        assert taps == 1  # ceil(64 * 15e3 * 1e-6) = ceil(0.96)

    def test_single_path(self):
        users = [single_path_user(1.0, 5e-7)]
        eta, taps = sync_and_tap_count(users, OfdmGrid(64, 15e3))
        assert eta == 5e-7
        assert taps == 0

    def test_single_subcarrier(self):
        users = [single_path_user(1.0, 0.0), single_path_user(1.0, 60e-6)]
        eta, taps = sync_and_tap_count(users, OfdmGrid(1, 15e3))
        assert taps == 1  # ceil(15e3 * 60e-6) = ceil(0.9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            OfdmGrid(0, 15e3)
        with pytest.raises(ValueError):
            OfdmGrid(4, 0.0)


class TestTapCoefficient:
    GRID = OfdmGrid(64, 15e3)
    LAM = 0.1

    def test_fastest_path_tap_zero(self):
        path = PathParams(0.7, 2e-6, 0.0, 0.0)
        b = tap_coefficient(path, 0, 2e-6, self.GRID, self.LAM)
        assert b == pytest.approx(0.7)

    def test_half_offset(self):
        # S * delta * (tau - eta) = 1.5 lands half-way between taps 1 and 2.
        excess = 1.5 / (64 * 15e3)
        path = PathParams(1.0, excess, 0.0, 0.0)
        b = tap_coefficient(path, 1, 0.0, self.GRID, self.LAM)
        assert abs(b) == pytest.approx(0.5, rel=1e-12)

    def test_outside_filter_support(self):
        excess = 3.0 / (64 * 15e3)
        path = PathParams(1.0, excess, 0.0, 0.0)
        assert tap_coefficient(path, 0, 0.0, self.GRID, self.LAM) == 0.0
        assert tap_coefficient(path, 5, 0.0, self.GRID, self.LAM) == 0.0

    @given(st.floats(0, 5e-6), st.integers(0, 8))
    @settings(max_examples=50)
    def test_modulus_bounded_by_amplitude(self, excess, ell):
        path = PathParams(0.9, excess, 0.0, 0.0)
        b = tap_coefficient(path, ell, 0.0, self.GRID, self.LAM)
        assert abs(b) <= 0.9 + 1e-12


class TestTapChannel:
    def test_single_path_single_antenna(self):
        layout = ArrayLayout(np.zeros((1, 3)), 0.1)
        users = [single_path_user(0.8, 1e-6)]
        tap = build_tap_channel(users, layout, OfdmGrid(64, 15e3))
        assert tap.taps.shape == (1, 1, 1)
        assert tap.taps[0, 0, 0] == pytest.approx(0.8)

    def test_shapes_for_multiple_users(self):
        rng = np.random.default_rng(0)
        scen = DEFAULT_SCENARIO
        layout = make_staggered_ura(2, 2, scen.wavelength)
        users = [
            synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 3)
        ]
        grid = OfdmGrid(32, 15e3)
        tap = build_tap_channel(users, layout, grid)
        assert tap.taps.shape[0] == 3
        assert tap.taps.shape[2] == 4

    def test_equal_delays_factorize(self):
        # With all delays equal the filter weights sum to one and the tap sum
        # collapses to the plain weighted sum of steering vectors.
        layout = ArrayLayout(np.array([[0.0, 0.03, 0.01], [0.0, -0.02, 0.04]]), 0.1)
        users = [
            UserPaths(
                [0.5, 0.2],
                [1e-6, 1e-6],
                [0.3, -0.4],
                [0.05, 0.1],
                np.array([100.0, 0.0, -2.75]),
            )
        ]
        grid = OfdmGrid(16, 15e3)
        tap = build_tap_channel(users, layout, grid)
        total = tap.taps[0].sum(axis=0)
        expected = 0.5 * array_response(layout, 0.3, 0.05) + 0.2 * array_response(layout, -0.4, 0.1)
        np.testing.assert_allclose(total, expected, rtol=1e-12)

    def test_matches_scalar_path_oracle(self):
        # Every tap is the sum over paths of the scalar tap coefficient times
        # the path's array response.
        rng = np.random.default_rng(4)
        scen = DEFAULT_SCENARIO
        layout = make_staggered_ura(2, 2, scen.wavelength)
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 2)]
        grid = OfdmGrid(16, 15e3)
        tap = build_tap_channel(users, layout, grid)
        for k, user in enumerate(users):
            for ell in range(tap.tap_count + 1):
                expected = sum(
                    tap_coefficient(path, ell, tap.sync_offset, grid, layout.wavelength)
                    * array_response(layout, path.azimuth, path.elevation)
                    for path in (path_of(user, i) for i in range(user.n_paths))
                )
                np.testing.assert_allclose(tap.taps[k, ell], expected, rtol=1e-10, atol=1e-18)


class TestSubcarrierChannels:
    def test_single_subcarrier_is_tap_sum(self):
        rng = np.random.default_rng(1)
        scen = DEFAULT_SCENARIO
        layout = make_staggered_ura(2, 2, scen.wavelength)
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 2)]
        grid = OfdmGrid(1, 15e3)
        tap = build_tap_channel(users, layout, grid)
        h = subcarrier_channels(users, layout, grid)
        np.testing.assert_allclose(
            h.matrices[0], tap.taps.sum(axis=1).T, rtol=1e-10
        )

    @pytest.mark.parametrize("subcarriers", [1, 16, 64])
    def test_tap_route_matches_direct_route(self, subcarriers):
        rng = np.random.default_rng(subcarriers)
        scen = DEFAULT_SCENARIO
        layout = make_staggered_ura(2, 2, scen.wavelength)
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 2)]
        grid = OfdmGrid(subcarriers, 15e3)
        direct = subcarrier_channels(users, layout, grid)
        via_taps = subcarriers_from_taps(build_tap_channel(users, layout, grid), grid)
        err = np.linalg.norm(direct.matrices - via_taps.matrices)
        assert err <= 1e-10 * np.linalg.norm(direct.matrices)

    def test_equal_delays_are_frequency_flat(self):
        layout = ArrayLayout(np.array([[0.0, 0.03, 0.01]]), 0.1)
        users = [
            UserPaths([0.5, 0.2], [1e-6, 1e-6], [0.3, -0.4], [0.0, 0.1], np.zeros(3) + 1.0)
        ]
        h = subcarrier_channels(users, layout, OfdmGrid(8, 15e3))
        for nu in range(1, 8):
            np.testing.assert_allclose(h.matrices[nu], h.matrices[0], rtol=1e-12)

    def test_regenerating_with_larger_grid_keeps_paths(self):
        rng = np.random.default_rng(2)
        scen = DEFAULT_SCENARIO
        user = synthesize_paths(rng, scen, np.array([150.0, 20.0, -2.75]))
        before = user.amplitudes.copy()
        layout = make_staggered_ura(2, 2, scen.wavelength)
        subcarrier_channels([user], layout, OfdmGrid(4, 15e3))
        subcarrier_channels([user], layout, OfdmGrid(64, 15e3))
        np.testing.assert_array_equal(user.amplitudes, before)


def per_user_reference(paths, layout, grid):
    """The per-user channel formula: array response times per-path weights."""
    eta, n_taps = sync_and_tap_count(paths, grid)
    s = grid.subcarrier_count
    ells = np.arange(n_taps + 1)
    dft = np.exp(-2j * np.pi * np.outer(ells, np.arange(s)) / s)
    matrices = np.empty((s, layout.antenna_count, len(paths)), dtype=complex)
    for k, user in enumerate(paths):
        a = array_response(layout, user.azimuths, user.elevations)
        x = s * grid.subcarrier_spacing * (user.delays - eta)
        filt = pulse_triangle(ells[None, :] - x[:, None]) @ dft
        phase = np.exp(-2j * np.pi * SPEED_OF_LIGHT * (user.delays - eta) / layout.wavelength)
        weights = (user.amplitudes * phase)[:, None] * filt
        matrices[:, :, k] = (a @ weights).T
    return matrices


class TestChannelModel:
    @pytest.mark.parametrize("kind", ["los-dominant", "rich-scattering"])
    @pytest.mark.parametrize("subcarriers", [1, 16])
    def test_bits_match_per_user_formula(self, kind, subcarriers):
        rng = np.random.default_rng(subcarriers)
        scen = replace(DEFAULT_SCENARIO, kind=kind)
        lam = scen.wavelength
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 3)]
        grid = OfdmGrid(subcarriers, 15e3)
        model = ChannelModel(users, grid, lam)
        regions = make_move_regions(2, 2, 5 * lam)
        lo = np.array([[r.center_y - r.half, r.center_z - r.half] for r in regions])
        for _ in range(5):
            positions = np.zeros((4, 3))
            positions[:, 1:] = lo + rng.uniform(size=(4, 2)) * 5 * lam
            layout = ArrayLayout(positions, lam, regions)
            expected = per_user_reference(users, layout, grid)
            assert np.array_equal(model.channels(layout.positions).matrices, expected)
            assert np.array_equal(subcarrier_channels(users, layout, grid).matrices, expected)


class TestPathLoss:
    def test_direct_at_one_meter(self):
        assert path_loss(1.0, 30.18, 26.0) == pytest.approx(10 ** (-3.018), rel=1e-12)

    def test_nlos_slope(self):
        ratio = path_loss(240.0, 34.53, 38.0) / path_loss(120.0, 34.53, 38.0)
        assert 10 * np.log10(ratio) == pytest.approx(-38 * np.log10(2), rel=1e-9)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            path_loss(0.0, 30.18, 26.0)
        with pytest.raises(ValueError):
            path_loss(-3.0, 34.53, 38.0)


class TestPathSerialization:
    def test_user_paths_validation(self):
        with pytest.raises(ValueError):
            UserPaths([], [], [], [], np.zeros(3))
        with pytest.raises(ValueError):
            UserPaths([-0.1], [0.0], [0.0], [0.0], np.zeros(3))
        with pytest.raises(ValueError):
            UserPaths([0.1, 0.2], [0.0], [0.0], [0.0], np.zeros(3))
        with pytest.raises(ValueError):
            UserPaths([0.1], [0.0], [4.0], [0.0], np.zeros(3))
        with pytest.raises(ValueError):
            PathParams(0.1, 0.0, 0.0, 2.0)
