import dataclasses
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mamimo.campaign import ExperimentSpec
from mamimo.channels import (
    _PHASE_LIMIT,
    _PHASOR_TABLE_SIZE,
    SCENARIO_KINDS,
    ChannelModel,
    OfdmGrid,
    ScenarioConfig,
    UserPaths,
    path_loss,
    pulse_triangle,
    sample_user_positions,
    subcarrier_channels,
    sync_and_tap_count,
    synthesize_paths,
    _unit_phasors,
)
from mamimo.geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    array_response,
    make_move_regions,
    make_staggered_ura,
    region_bounds,
    wave_vector,
)
from oracles import build_tap_channel, subcarriers_from_taps, unit_phasors_rint

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
        scen = replace(DEFAULT_SCENARIO, azimuth_min_rad=0.0, azimuth_max_rad=0.0)
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


class TestScenarioConfig:
    # Each value used to fail later with a message naming no field, or to run
    # silently with an infinite or NaN quantity.
    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("cluster_count", {"cluster_count": 0}),
            ("rich_paths_per_cluster", {"rich_paths_per_cluster": 0}),
            ("normalized_gain", {"kind": "rich-scattering", "normalized_gain": -1.0}),
            ("scenario.path_angle_spread_deg", {"path_angle_spread_deg": -1.0}),
            ("scenario.cluster_azimuth_spread_deg", {"cluster_azimuth_spread_deg": -0.1}),
            ("scenario.azimuth_min_rad", {"azimuth_min_rad": 1.0, "azimuth_max_rad": 0.5}),
            ("scenario.bs_height_m", {"bs_height_m": math.nan}),
            ("rice_factor_db", {"rice_factor_db": math.inf}),
            ("scenario.carrier_ghz", {"carrier_ghz": math.inf}),
            ("scenario.r_min_m", {"r_min_m": 0.0}),
            ("delay_stretch", {"delay_stretch": 0.5}),
        ],
    )
    def test_rejects_value_naming_the_field(self, field, overrides):
        with pytest.raises(ValueError, match=field):
            replace(DEFAULT_SCENARIO, **overrides)

    # A fractional or boolean count in a directly built scenario used to
    # build, and a string or an integer beyond the float range in a float
    # field raised TypeError or OverflowError from math.isfinite, naming no
    # key.
    @pytest.mark.parametrize(
        "key, overrides",
        [
            ("scenario.cluster_count", {"cluster_count": 2.5}),
            ("scenario.rich_cluster_count", {"rich_cluster_count": True}),
            ("scenario.carrier_ghz", {"carrier_ghz": "3"}),
            ("scenario.r_max_m", {"r_max_m": 10**400}),
        ],
    )
    def test_direct_build_rejects_bad_value_naming_the_key(self, key, overrides):
        with pytest.raises(ValueError, match=key):
            ScenarioConfig(**overrides)

    def test_numpy_values_convert_like_python_values(self):
        # A numpy float32 carrier used to stay float32, so the wavelength and
        # the channels differed from the Python twin's at 1e-3 relative.
        scenario = ScenarioConfig(
            carrier_ghz=np.float32(3.5), r_max_m=np.float64(250.0), cluster_count=np.int64(3),
            rich_paths_per_cluster=np.int32(2), delay_stretch=np.float32(4.0),
        )
        twin = ScenarioConfig(
            carrier_ghz=3.5, r_max_m=250.0, cluster_count=3, rich_paths_per_cluster=2, delay_stretch=4.0
        )
        for f in dataclasses.fields(ScenarioConfig):
            assert type(getattr(scenario, f.name)) is type(getattr(twin, f.name)), f.name
        assert scenario.wavelength.hex() == twin.wavelength.hex()
        rng = np.random.default_rng(8)
        paths = [synthesize_paths(rng, twin, p) for p in sample_user_positions(rng, twin, 3)]
        h, h_twin = (
            ChannelModel(paths, OfdmGrid(4, 15e3), s.wavelength).channels(
                make_staggered_ura(2, 2, s.wavelength).positions
            )
            for s in (scenario, twin)
        )
        np.testing.assert_array_equal(h, h_twin)

    def test_every_float_field_must_be_finite(self):
        floats = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]
        assert len(floats) == 15
        for name in floats:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    replace(DEFAULT_SCENARIO, **{name: bad})

    def test_spec_boundaries_still_build(self):
        # Every boundary value that an ExperimentSpec accepts still builds a
        # scenario.
        spec = ExperimentSpec(
            cluster_count=1,
            paths_per_cluster=1,
            rich_cluster_count=1,
            rich_paths_per_cluster=1,
            delay_stretch=1.0,
            cluster_azimuth_spread_deg=0.0,
            cluster_elevation_spread_deg=0.0,
            path_angle_spread_deg=0.0,
            azimuth_min_rad=0.5,
            azimuth_max_rad=0.5,
            bs_height_m=1.25,
            rice_factor_db=-30.0,
        )
        for kind in SCENARIO_KINDS:
            scenario = replace(spec, kind=kind).scenario()
            rng = np.random.default_rng(3)
            (position,) = sample_user_positions(rng, scenario, 1)
            assert synthesize_paths(rng, scenario, position).n_paths >= 1


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
            h[0], tap.taps.sum(axis=1).T, rtol=1e-10
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
        err = np.linalg.norm(direct - via_taps)
        assert err <= 1e-10 * np.linalg.norm(direct)

    def test_equal_delays_are_frequency_flat(self):
        layout = ArrayLayout(np.array([[0.0, 0.03, 0.01]]), 0.1)
        users = [
            UserPaths([0.5, 0.2], [1e-6, 1e-6], [0.3, -0.4], [0.0, 0.1], np.zeros(3) + 1.0)
        ]
        h = subcarrier_channels(users, layout, OfdmGrid(8, 15e3))
        for nu in range(1, 8):
            np.testing.assert_allclose(h[nu], h[0], rtol=1e-12)

    def test_regenerating_with_larger_grid_keeps_paths(self):
        rng = np.random.default_rng(2)
        scen = DEFAULT_SCENARIO
        user = synthesize_paths(rng, scen, np.array([150.0, 20.0, -2.75]))
        before = user.amplitudes.copy()
        layout = make_staggered_ura(2, 2, scen.wavelength)
        subcarrier_channels([user], layout, OfdmGrid(4, 15e3))
        subcarrier_channels([user], layout, OfdmGrid(64, 15e3))
        np.testing.assert_array_equal(user.amplitudes, before)


def per_user_factors(paths, layout, grid):
    """Per user: the libm array response (M, N) and the per-path subcarrier
    weights (N, S)."""
    eta, n_taps = sync_and_tap_count(paths, grid)
    s = grid.subcarrier_count
    ells = np.arange(n_taps + 1)
    dft = np.exp(-2j * np.pi * np.outer(ells, np.arange(s)) / s)
    for user in paths:
        a = array_response(layout, user.azimuths, user.elevations)
        x = s * grid.subcarrier_spacing * (user.delays - eta)
        filt = pulse_triangle(ells[None, :] - x[:, None]) @ dft
        phase = np.exp(-2j * np.pi * SPEED_OF_LIGHT * (user.delays - eta) / layout.wavelength)
        yield a, (user.amplitudes * phase)[:, None] * filt


def per_user_reference(paths, layout, grid):
    """The per-user channel formula: array response times per-path weights."""
    matrices = np.empty((grid.subcarrier_count, layout.antenna_count, len(paths)), dtype=complex)
    for k, (a, weights) in enumerate(per_user_factors(paths, layout, grid)):
        matrices[:, :, k] = (a @ weights).T
    return matrices


def phasor_bound(phase):
    """The `_unit_phasors` contract: 4 * 2^-52 * (1 + |x|) per phase x."""
    return 4 * 2.0**-52 * (1.0 + np.abs(phase))


def phasor_contract_bound(paths, layout, grid):
    """Per channel entry, sum_n |w_n| times the phasor bound of path n's phase:
    how far the model may sit from `per_user_reference`."""
    bound = np.empty((grid.subcarrier_count, layout.antenna_count, len(paths)))
    for k, (user, (_, weights)) in enumerate(zip(paths, per_user_factors(paths, layout, grid))):
        phase = layout.positions @ wave_vector(user.azimuths, user.elevations, layout.wavelength)
        bound[:, :, k] = (phasor_bound(phase) @ np.abs(weights)).T
    return bound


def random_movable_layouts(rng, lam, count):
    """Random 2x2 movable layouts inside their move regions."""
    regions = make_move_regions(2, 2, 5 * lam)
    lo, _ = region_bounds(regions)
    for _ in range(count):
        positions = np.zeros((4, 3))
        positions[:, 1:] = lo + rng.uniform(size=(4, 2)) * 5 * lam
        yield ArrayLayout(positions, lam, regions)


STEP = 2 * np.pi / _PHASOR_TABLE_SIZE
# Table points k*step, rint half-step ties (k + 1/2)*step and their float
# neighbours, signed zeros, +-pi and the limit itself.
SPECIAL_PHASES = [0.0, -0.0, np.pi, -np.pi, _PHASE_LIMIT, -_PHASE_LIMIT] + [
    x
    for k in (-4097, -1, 1, 7, 2048, 4096, 10**6, 2**30)
    for y in (k * STEP, (k + 0.5) / (_PHASOR_TABLE_SIZE / (2 * np.pi)))
    for x in (y, np.nextafter(y, -np.inf), np.nextafter(y, np.inf))
]


class TestUnitPhasors:
    @given(
        st.lists(
            st.one_of(
                st.floats(-_PHASE_LIMIT, _PHASE_LIMIT),
                st.floats(-100.0, 100.0),
                st.sampled_from(SPECIAL_PHASES),
            ),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=300)
    def test_within_contract_of_libm(self, phases):
        x = np.array(phases)
        assert np.all(np.abs(_unit_phasors(x) - np.exp(1j * x)) <= phasor_bound(x))

    def test_blocks_and_shape(self):
        # Several fixed-size blocks plus a partial one, in a 2-D array.
        x = np.random.default_rng(0).uniform(-300.0, 300.0, size=(7, 2345))
        got = _unit_phasors(x)
        assert got.shape == x.shape
        assert np.all(np.abs(got - np.exp(1j * x)) <= phasor_bound(x))
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 4 * 2.0**-52

    def test_unit_modulus(self):
        x = np.array(SPECIAL_PHASES + list(np.linspace(-1e6, 1e6, 10_001)))
        assert np.max(np.abs(np.abs(_unit_phasors(x)) - 1.0)) <= 4 * 2.0**-52

    @pytest.mark.parametrize(
        "bad", [np.nextafter(_PHASE_LIMIT, np.inf), -2 * _PHASE_LIMIT, 1e300, np.inf, -np.inf, np.nan]
    )
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ValueError, match="phases must be finite"):
            _unit_phasors(np.array([[0.5, 1.0], [bad, 2.0]]))

    def test_writes_into_out(self):
        x = np.random.default_rng(1).uniform(-300.0, 300.0, size=(3, 5000))
        buf = np.empty(x.shape, dtype=complex)
        got = _unit_phasors(x, out=buf)
        assert got is buf
        assert np.array_equal(got, _unit_phasors(x))

    def test_rounding_shift_is_exact_up_to_the_limit(self):
        # Adding and subtracting 1.5 * 2^52 equals rint only for |y| < 2^51.
        assert _PHASE_LIMIT * _PHASOR_TABLE_SIZE / (2 * np.pi) < 2.0**51

    @pytest.mark.parametrize(
        "phases",
        [
            np.array(SPECIAL_PHASES),
            np.array([5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1e-310, -1e-310, 2.0**-1074 * 3]),
            np.random.default_rng(2).uniform(-300.0, 300.0, size=(7, 2345)),
            np.random.default_rng(3).uniform(-(2.0**40), 2.0**40, size=50_000),
        ],
        ids=["special", "denormal", "blocks", "wide"],
    )
    def test_bits_match_rint_kernel(self, phases):
        # The shift rounding, the masked index and the contiguous Taylor
        # passes reorder no arithmetic: every bit equals the rint form's.
        got = _unit_phasors(phases)
        assert np.array_equal(got.view(np.int64), unit_phasors_rint(phases).view(np.int64))


def swarm_narrow_model(subcarriers=1):
    """A model at swarm-narrow sizes: the default los-dominant scenario,
    K = 10 users (1,210 paths) and S = 1, with its paths and grid. With
    `subcarriers` 50 it has swarm-wideband-dpc sizes."""
    rng = np.random.default_rng(5)
    users = [synthesize_paths(rng, DEFAULT_SCENARIO, p)
             for p in sample_user_positions(rng, DEFAULT_SCENARIO, 10)]
    grid = OfdmGrid(subcarriers, 15e3)
    return ChannelModel(users, grid, DEFAULT_SCENARIO.wavelength), users, grid


def eval_sweep_model(subcarriers):
    """A model at eval-sweep's largest sizes: rich scattering, K = 16 users
    of 200 paths."""
    rng = np.random.default_rng(6)
    rich = replace(DEFAULT_SCENARIO, kind="rich-scattering")
    users = [synthesize_paths(rng, rich, p) for p in sample_user_positions(rng, rich, 16)]
    grid = OfdmGrid(subcarriers, 15e3)
    return ChannelModel(users, grid, DEFAULT_SCENARIO.wavelength), users, grid


def fresh_channels(users, grid, positions):
    return ChannelModel(users, grid, DEFAULT_SCENARIO.wavelength).channels(positions)


class TestChannelModel:
    @pytest.mark.parametrize("kind", ["los-dominant", "rich-scattering"])
    @pytest.mark.parametrize("subcarriers", [1, 16])
    def test_matches_per_user_formula_within_phasor_contract(self, kind, subcarriers):
        # `subcarrier_channels` is the model itself (one code path, same
        # bits); the libm per-user formula differs by the phasor contract.
        rng = np.random.default_rng(subcarriers)
        scen = replace(DEFAULT_SCENARIO, kind=kind)
        lam = scen.wavelength
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 3)]
        grid = OfdmGrid(subcarriers, 15e3)
        model = ChannelModel(users, grid, lam)
        for layout in random_movable_layouts(rng, lam, 5):
            got = model.channels(layout.positions)
            assert np.array_equal(subcarrier_channels(users, layout, grid), got)
            error = np.abs(got - per_user_reference(users, layout, grid))
            assert np.all(error <= phasor_contract_bound(users, layout, grid))

    @pytest.mark.parametrize("subcarriers", [1, 16])
    def test_unequal_path_counts(self, subcarriers):
        # Users of 1, 2 and 121 paths share one phase matrix; each must read
        # back its own columns.
        rng = np.random.default_rng(11)
        lam = DEFAULT_SCENARIO.wavelength
        full = [synthesize_paths(rng, DEFAULT_SCENARIO, p)
                for p in sample_user_positions(rng, DEFAULT_SCENARIO, 3)]
        users = [
            UserPaths(u.amplitudes[:n], u.delays[:n], u.azimuths[:n], u.elevations[:n], u.position)
            for u, n in zip(full, (1, 2, 121))
        ]
        grid = OfdmGrid(subcarriers, 15e3)
        model = ChannelModel(users, grid, lam)
        for layout in random_movable_layouts(rng, lam, 3):
            got = model.channels(layout.positions)
            error = np.abs(got - per_user_reference(users, layout, grid))
            assert np.all(error <= phasor_contract_bound(users, layout, grid))

    # The model owns its phase and phasor arrays; every result must still be
    # the one a fresh model returns.
    def test_warm_call_allocates_little(self):
        model, _, _ = swarm_narrow_model()
        positions = make_staggered_ura(4, 4, DEFAULT_SCENARIO.wavelength).positions
        model.channels(positions)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.channels(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The fresh (M, 1210) phase and phasor arrays alone take 465 KiB.
        assert peak < 256 * 1024

    def test_warm_stacked_call_allocates_little(self):
        model, _, _ = swarm_narrow_model()
        rng = np.random.default_rng(4)
        stack = rng.uniform(-0.1, 0.1, size=(8, 16, 3))
        model.channels(stack)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.channels(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The 8 x (1, 16, 10) channels take 20 KiB. A per-call kernel scratch
        # would add 128 KiB, fresh phase and phasor arrays 465 KiB.
        assert peak < 64 * 1024

    def test_warm_wideband_call_allocates_little(self):
        # S = 50, K = 10, M = 16: the returned (50, 16, 10) channels take
        # 125 KiB. Forming every user's (121, 50) weights per call peaked at
        # 505 KiB; with the stored weights only one user's (16, 50) product
        # is live beside the result.
        model, _, _ = swarm_narrow_model(subcarriers=50)
        positions = make_staggered_ura(4, 4, DEFAULT_SCENARIO.wavelength).positions
        model.channels(positions)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.channels(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 1024

    def test_warm_eval_sweep_wideband_call_allocates_little(self):
        # K = 16 users of 200 paths at S = 50: the returned (50, 16, 16)
        # channels take 200 KiB and the model owns its groups' (K_g, 16, 50)
        # product buffers. A fresh product per call would add another 200 KiB.
        model, _, _ = eval_sweep_model(subcarriers=50)
        positions = make_staggered_ura(4, 4, DEFAULT_SCENARIO.wavelength).positions
        model.channels(positions)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            model.channels(positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    @pytest.mark.parametrize(
        "kind, count, paths",
        [("los-dominant", 10, None), ("rich-scattering", 16, None), ("los-dominant", 3, (1, 2, 121))],
        ids=["10x121", "16x200", "1-2-121"],
    )
    @pytest.mark.parametrize("subcarriers", [1, 16, 50])
    def test_grouped_product_has_the_bits_of_per_user_products(self, kind, count, paths, subcarriers):
        # Each group's users are multiplied in one batched matmul; every
        # channel must keep the bits of the per-user form: the model's own
        # phasors times each user's (N, S) weights, formed by
        # per_user_factors with the model's expressions, one product per user.
        rng = np.random.default_rng(subcarriers)
        scen = replace(DEFAULT_SCENARIO, kind=kind)
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, count)]
        if paths:
            users = [
                UserPaths(u.amplitudes[:n], u.delays[:n], u.azimuths[:n], u.elevations[:n], u.position)
                for u, n in zip(users, paths)
            ]
        lam = DEFAULT_SCENARIO.wavelength
        grid = OfdmGrid(subcarriers, 15e3)
        model = ChannelModel(users, grid, lam)
        regions = make_move_regions(4, 4, 5 * lam)
        lo, _ = region_bounds(regions)
        stack = np.zeros((3, 16, 3))
        stack[:, :, 1:] = lo + rng.uniform(size=(3, 16, 2)) * 5 * lam
        got = model.channels(stack)
        for h, positions in zip(got, stack):
            layout = ArrayLayout(positions, lam)
            phasors = _unit_phasors(positions @ model.waves)
            expected = np.empty_like(h)
            start = 0
            for k, (user, (_, weights)) in enumerate(zip(users, per_user_factors(users, layout, grid))):
                cols = slice(start, start + user.n_paths)
                expected[:, :, k] = (phasors[:, cols] @ weights).T
                start = cols.stop
            assert np.array_equal(h.view(np.int64), expected.view(np.int64))
            assert np.array_equal(h, model.channels(positions))

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    @pytest.mark.parametrize("subcarriers", [1, 16])
    def test_stacked_call_has_the_bits_of_per_layout_calls(self, kind, subcarriers):
        rng = np.random.default_rng(40 + subcarriers)
        scen = replace(DEFAULT_SCENARIO, kind=kind)
        lam = scen.wavelength
        users = [synthesize_paths(rng, scen, p) for p in sample_user_positions(rng, scen, 3)]
        grid = OfdmGrid(subcarriers, 15e3)
        model = ChannelModel(users, grid, lam)
        layouts = list(random_movable_layouts(rng, lam, 5))
        stacked = model.channels(np.array([layout.positions for layout in layouts]))
        assert stacked.shape == (5, subcarriers, 4, 3)
        for got, layout in zip(stacked, layouts):
            assert np.array_equal(got, subcarrier_channels(users, layout, grid))

    @pytest.mark.parametrize("subcarriers", [1, 16])
    def test_layout_sequence_has_the_bits_of_single_calls(self, subcarriers):
        # A sweep point's arrays, at the home carrier and shifted to another
        # one as FDD re-evaluates them, from one model per wavelength.
        rng = np.random.default_rng(60 + subcarriers)
        lam = DEFAULT_SCENARIO.wavelength
        users = [synthesize_paths(rng, DEFAULT_SCENARIO, p)
                 for p in sample_user_positions(rng, DEFAULT_SCENARIO, 3)]
        grid = OfdmGrid(subcarriers, 15e3)
        home = [make_staggered_ura(2, 2, lam), *random_movable_layouts(rng, lam, 3)]
        for layouts in (home, [layout.with_wavelength(0.8 * lam) for layout in home], home[:1]):
            got = subcarrier_channels(users, layouts, grid)
            assert len(got) == len(layouts)
            for h, layout in zip(got, layouts):
                assert np.array_equal(h, subcarrier_channels(users, layout, grid))

    def test_layout_sequence_with_mixed_wavelengths_rejected(self):
        rng = np.random.default_rng(62)
        lam = DEFAULT_SCENARIO.wavelength
        users = [synthesize_paths(rng, DEFAULT_SCENARIO, p)
                 for p in sample_user_positions(rng, DEFAULT_SCENARIO, 2)]
        layout = make_staggered_ura(2, 2, lam)
        with pytest.raises(ValueError, match="one wavelength"):
            subcarrier_channels(users, [layout, layout.with_wavelength(0.8 * lam)], OfdmGrid(4, 15e3))

    def test_result_never_aliases_a_buffer(self):
        model, users, grid = swarm_narrow_model()
        rng = np.random.default_rng(6)
        first, second = (rng.uniform(-0.1, 0.1, size=(16, 3)) for _ in range(2))
        h1 = model.channels(first)
        kept = h1.copy()
        h2 = model.channels(second)
        assert np.array_equal(h1, kept)
        assert np.array_equal(h1, fresh_channels(users, grid, first))
        assert np.array_equal(h2, fresh_channels(users, grid, second))

    def test_antenna_count_changes(self):
        model, users, grid = swarm_narrow_model()
        rng = np.random.default_rng(7)
        for m in (16, 4, 16):
            positions = rng.uniform(-0.1, 0.1, size=(m, 3))
            got = model.channels(positions)
            assert got.shape == (1, m, 10)
            assert np.array_equal(got, fresh_channels(users, grid, positions))

    def test_valid_call_after_out_of_range_phase(self):
        model, users, grid = swarm_narrow_model()
        positions = np.random.default_rng(8).uniform(-0.1, 0.1, size=(16, 3))
        model.channels(positions)
        with pytest.raises(ValueError, match="phases must be finite"):
            model.channels(np.full((16, 3), 1e30))
        assert np.array_equal(model.channels(positions), fresh_channels(users, grid, positions))


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
