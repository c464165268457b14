"""Geometric multipath channel synthesis for wideband OFDM multi-user links.

Users are dropped in a polar sector on the ground, each user gets a set of
far-field paths (a direct path plus scattering clusters, or pure rich
scattering), and the paths are turned into discrete-time taps and
per-subcarrier frequency-domain channel matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .geometry import SPEED_OF_LIGHT, ArrayLayout, array_response, wave_vector

LOS_DOMINANT = "los-dominant"
RICH_SCATTERING = "rich-scattering"
SCENARIO_KINDS = (LOS_DOMINANT, RICH_SCATTERING)


def pulse_triangle(t):
    """Triangle pulse-shaping filter: 1 - |t| on [-1, 1], zero elsewhere."""
    t = np.asarray(t, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(t))


@dataclass(frozen=True, eq=False)
class UserPaths:
    """All paths of one user, stored as parallel arrays, plus the user position."""

    amplitudes: np.ndarray
    delays: np.ndarray
    azimuths: np.ndarray
    elevations: np.ndarray
    position: np.ndarray  # (3,) meters, relative to the array origin

    def __post_init__(self) -> None:
        for name in ("amplitudes", "delays", "azimuths", "elevations"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pos = np.array(self.position, dtype=float).reshape(3)
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        n = self.amplitudes.shape[0]
        if n < 1:
            raise ValueError("a user needs at least one path")
        if not (self.delays.shape[0] == self.azimuths.shape[0] == self.elevations.shape[0] == n):
            raise ValueError("path arrays must have equal length")
        if np.any(self.amplitudes < 0) or np.any(self.delays < 0):
            raise ValueError("amplitudes and delays must be nonnegative")
        if np.any(np.abs(self.azimuths) > np.pi) or np.any(np.abs(self.elevations) > np.pi / 2):
            raise ValueError("path angles out of range")

    @property
    def n_paths(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class OfdmGrid:
    """OFDM numerology: number of subcarriers and subcarrier spacing in Hz."""

    subcarrier_count: int
    subcarrier_spacing: float

    def __post_init__(self) -> None:
        if self.subcarrier_count < 1:
            raise ValueError("subcarrier count must be >= 1")
        if not self.subcarrier_spacing > 0:
            raise ValueError("subcarrier spacing must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Propagation scenario and user-drop geometry.

    Angles are radians and distances meters; `normalized_gain` replaces the
    log-distance path loss in the rich-scattering mode so that receive SNRs
    stay comparable to the direct-path scenario.
    """

    kind: str = LOS_DOMINANT
    carrier_hz: float = 3e9
    rice_factor_db: float = 10.0
    cluster_count: int = 6
    paths_per_cluster: int = 20
    cluster_azimuth_spread: float = math.radians(40.0)
    cluster_elevation_spread: float = math.radians(20.0)
    path_angle_spread: float = math.radians(5.0)
    rich_cluster_count: int = 100
    rich_paths_per_cluster: int = 2
    delay_stretch: float = 10.0
    los_pathloss_intercept_db: float = 30.18
    los_pathloss_slope_db: float = 26.0
    nlos_pathloss_intercept_db: float = 34.53
    nlos_pathloss_slope_db: float = 38.0
    normalized_gain: float = 1e-9
    r_min: float = 100.0
    r_max: float = 300.0
    azimuth_min: float = -math.pi / 3.0
    azimuth_max: float = math.pi / 3.0
    bs_height: float = 4.0
    user_height: float = 1.25

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}, expected one of {SCENARIO_KINDS}")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("user radius bounds must satisfy 0 < r_min < r_max")
        if not self.carrier_hz > 0:
            raise ValueError("carrier frequency must be positive")
        if self.delay_stretch < 1.0:
            raise ValueError("delay stretch must be >= 1")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True, eq=False)
class TapChannel:
    """Discrete-time FIR representation of all users' channels.

    `taps[k, l]` is the M-vector of user k at tap l; the receiver is
    synchronized to the fastest path via `sync_offset`.
    """

    taps: np.ndarray  # (K, T+1, M) complex
    sync_offset: float  # seconds
    tap_count: int  # T

    def __post_init__(self) -> None:
        if self.taps.ndim != 3 or self.taps.shape[1] != self.tap_count + 1:
            raise ValueError("taps must have shape (K, T+1, M)")


@dataclass(frozen=True, eq=False)
class SubcarrierChannels:
    """Frequency-domain channel matrices, one M-by-K matrix per subcarrier."""

    matrices: np.ndarray  # (S, M, K) complex

    def __post_init__(self) -> None:
        if self.matrices.ndim != 3:
            raise ValueError("matrices must have shape (S, M, K)")

    @property
    def subcarrier_count(self) -> int:
        return self.matrices.shape[0]

    @property
    def antenna_count(self) -> int:
        return self.matrices.shape[1]

    @property
    def user_count(self) -> int:
        return self.matrices.shape[2]


def path_loss(
    distance_3d: float,
    los: bool = True,
    *,
    normalized_gain: float | None = None,
    los_intercept_db: float = 30.18,
    los_slope_db: float = 26.0,
    nlos_intercept_db: float = 34.53,
    nlos_slope_db: float = 38.0,
) -> float:
    """Linear power gain of a log-distance path-loss law.

    With `normalized_gain` set, the distance dependence is dropped and the
    constant gain is returned (rich-scattering mode).
    """
    if not distance_3d > 0:
        raise ValueError(f"distance must be positive, got {distance_3d}")
    if normalized_gain is not None:
        return float(normalized_gain)
    if los:
        pl_db = los_intercept_db + los_slope_db * math.log10(distance_3d)
    else:
        pl_db = nlos_intercept_db + nlos_slope_db * math.log10(distance_3d)
    return float(10.0 ** (-pl_db / 10.0))


def sample_user_positions(
    rng: np.random.Generator, scenario: ScenarioConfig, count: int
) -> np.ndarray:
    """Drop `count` users uniformly (by area) in the configured polar sector.

    Returns (count, 3) positions relative to the array origin; the vertical
    component is user height minus the mounting height of the array.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    radii = np.sqrt(rng.uniform(scenario.r_min**2, scenario.r_max**2, size=count))
    angles = rng.uniform(scenario.azimuth_min, scenario.azimuth_max, size=count)
    pos = np.empty((count, 3))
    pos[:, 0] = radii * np.cos(angles)
    pos[:, 1] = radii * np.sin(angles)
    pos[:, 2] = scenario.user_height - scenario.bs_height
    return pos


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def synthesize_paths(
    rng: np.random.Generator, scenario: ScenarioConfig, user_position: np.ndarray
) -> UserPaths:
    """Draw the multipath parameters of one user.

    Direct-path scenarios produce one direct path plus clusters of scattered
    paths around it; rich scattering produces many small clusters covering all
    angles. Scattered delays are uniform in (tau_direct, stretch*tau_direct]
    and the total scattered power relative to the direct-path (or normalized)
    gain is set by the Rice factor.
    """
    pos = np.asarray(user_position, dtype=float).reshape(3)
    distance = float(np.linalg.norm(pos))
    if not distance > 0:
        raise ValueError("user cannot sit at the array origin")
    los_azimuth = math.atan2(pos[1], pos[0])
    los_elevation = math.asin(pos[2] / distance)
    tau_los = distance / SPEED_OF_LIGHT
    rice_linear = 10.0 ** (-scenario.rice_factor_db / 10.0)

    if scenario.kind == LOS_DOMINANT:
        n_clusters = scenario.cluster_count
        per_cluster = scenario.paths_per_cluster
        n_scatter = n_clusters * per_cluster
        centers_az = los_azimuth + rng.uniform(
            -scenario.cluster_azimuth_spread, scenario.cluster_azimuth_spread, size=n_clusters
        )
        centers_el = np.clip(
            los_elevation
            + rng.uniform(
                -scenario.cluster_elevation_spread,
                scenario.cluster_elevation_spread,
                size=n_clusters,
            ),
            -np.pi / 2,
            np.pi / 2,
        )
        spread = scenario.path_angle_spread
        az = np.repeat(centers_az, per_cluster) + rng.uniform(-spread, spread, size=n_scatter)
        el = np.clip(
            np.repeat(centers_el, per_cluster) + rng.uniform(-spread, spread, size=n_scatter),
            -np.pi / 2,
            np.pi / 2,
        )
        delays = tau_los + (scenario.delay_stretch - 1.0) * tau_los * (
            1.0 - rng.uniform(size=n_scatter)
        )
        los_gain = path_loss(
            distance,
            los=True,
            los_intercept_db=scenario.los_pathloss_intercept_db,
            los_slope_db=scenario.los_pathloss_slope_db,
        )
        scatter_amp = math.sqrt(los_gain * rice_linear / n_scatter)
        amplitudes = np.concatenate(([math.sqrt(los_gain)], np.full(n_scatter, scatter_amp)))
        azimuths = np.concatenate(([los_azimuth], _wrap_angle(az)))
        elevations = np.concatenate(([los_elevation], el))
        all_delays = np.concatenate(([tau_los], delays))
    elif scenario.kind == RICH_SCATTERING:
        n_clusters = scenario.rich_cluster_count
        per_cluster = scenario.rich_paths_per_cluster
        n_scatter = n_clusters * per_cluster
        centers_az = rng.uniform(-np.pi, np.pi, size=n_clusters)
        centers_el = rng.uniform(-np.pi / 2, np.pi / 2, size=n_clusters)
        spread = scenario.path_angle_spread
        az = np.repeat(centers_az, per_cluster) + rng.uniform(-spread, spread, size=n_scatter)
        el = np.clip(
            np.repeat(centers_el, per_cluster) + rng.uniform(-spread, spread, size=n_scatter),
            -np.pi / 2,
            np.pi / 2,
        )
        delays = tau_los + (scenario.delay_stretch - 1.0) * tau_los * (
            1.0 - rng.uniform(size=n_scatter)
        )
        reference_gain = scenario.normalized_gain
        scatter_amp = math.sqrt(reference_gain * rice_linear / n_scatter)
        amplitudes = np.full(n_scatter, scatter_amp)
        azimuths = _wrap_angle(az)
        elevations = el
        all_delays = delays
    else:  # pragma: no cover - guarded by ScenarioConfig
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")

    return UserPaths(amplitudes, all_delays, azimuths, elevations, pos)


def sync_and_tap_count(paths: Sequence[UserPaths], grid: OfdmGrid) -> tuple[float, int]:
    """Receiver sync offset (fastest path) and the resulting FIR tap count."""
    if not paths:
        raise ValueError("need at least one user")
    eta = min(float(p.delays.min()) for p in paths)
    spread = max(float(p.delays.max()) for p in paths) - eta
    taps = math.ceil(grid.subcarrier_count * grid.subcarrier_spacing * spread)
    return eta, int(taps)


def _carrier_phase(delays: np.ndarray, eta: float, wavelength: float) -> np.ndarray:
    """Carrier rotation accumulated by the excess propagation delay."""
    return np.exp(-2j * np.pi * SPEED_OF_LIGHT * (delays - eta) / wavelength)


def build_tap_channel(
    paths: Sequence[UserPaths], layout: ArrayLayout, grid: OfdmGrid
) -> TapChannel:
    """Materialize the per-user FIR taps h_k[l] = sum_n b_{k,n}[l] a(angles_n)."""
    eta, n_taps = sync_and_tap_count(paths, grid)
    ells = np.arange(n_taps + 1)
    taps = np.empty((len(paths), n_taps + 1, layout.antenna_count), dtype=complex)
    for k, user in enumerate(paths):
        a = array_response(layout, user.azimuths, user.elevations)  # (M, N)
        x = grid.subcarrier_count * grid.subcarrier_spacing * (user.delays - eta)
        weights = user.amplitudes * _carrier_phase(user.delays, eta, layout.wavelength)
        b = weights[:, None] * pulse_triangle(ells[None, :] - x[:, None])  # (N, T+1)
        taps[k] = (a @ b).T
    return TapChannel(taps, eta, n_taps)


def _dft_matrix(n_taps: int, subcarriers: int) -> np.ndarray:
    ells = np.arange(n_taps + 1)
    nus = np.arange(subcarriers)
    return np.exp(-2j * np.pi * np.outer(ells, nus) / subcarriers)  # (T+1, S)


def subcarriers_from_taps(tap_channel: TapChannel, grid: OfdmGrid) -> SubcarrierChannels:
    """Frequency-domain channels obtained by transforming materialized taps."""
    dft = _dft_matrix(tap_channel.tap_count, grid.subcarrier_count)
    matrices = np.einsum("klm,ls->smk", tap_channel.taps, dft)
    return SubcarrierChannels(np.ascontiguousarray(matrices))


class ChannelModel:
    """Layout-independent channel factors of one realization at one wavelength.

    Per user it holds the wave vectors (3, N), the complex path gains
    (amplitude times carrier rotation, (N,)) and the real pulse-filter matrix
    (N, T+1); one DFT matrix (T+1, S) is shared. Only the phase signature
    exp(j p.k) depends on the antenna positions, so a placement search builds
    the model once and calls :meth:`channels` per candidate.
    """

    def __init__(self, paths: Sequence[UserPaths], grid: OfdmGrid, wavelength: float) -> None:
        eta, n_taps = sync_and_tap_count(paths, grid)
        ells = np.arange(n_taps + 1)
        self.wavelength = wavelength
        self.dft = _dft_matrix(n_taps, grid.subcarrier_count)
        self.users: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for user in paths:
            x = grid.subcarrier_count * grid.subcarrier_spacing * (user.delays - eta)
            self.users.append((
                wave_vector(user.azimuths, user.elevations, wavelength),
                user.amplitudes * _carrier_phase(user.delays, eta, wavelength),
                pulse_triangle(ells[None, :] - x[:, None]),
            ))

    def channels(self, positions: np.ndarray) -> SubcarrierChannels:
        """(S, M, K) channels of antennas at `positions` (M, 3), in meters.

        The per-path subcarrier weights are formed on each call rather than
        stored, which keeps the model at O(N (T+1)) per user.
        """
        matrices = np.empty((self.dft.shape[1], positions.shape[0], len(self.users)), dtype=complex)
        for k, (waves, gains, pulses) in enumerate(self.users):
            weights = gains[:, None] * (pulses @ self.dft)  # (N, S)
            matrices[:, :, k] = (np.exp(1j * (positions @ waves)) @ weights).T
        return SubcarrierChannels(matrices)


def subcarrier_channels(
    paths: Sequence[UserPaths], layout: ArrayLayout, grid: OfdmGrid
) -> SubcarrierChannels:
    """Frequency-domain channels computed directly from the path parameters.

    Algebraically identical to transforming the materialized taps; the FIR
    stage is folded into a per-path subcarrier weight so no (K, T+1, M) tensor
    is formed.
    """
    return ChannelModel(paths, grid, layout.wavelength).channels(layout.positions)


def narrowband_channel(
    paths: Sequence[UserPaths], layout: ArrayLayout, sync_offset: float | None = None
) -> np.ndarray:
    """Frequency-flat channel matrix (M, K): path sum without the FIR filter."""
    if sync_offset is None:
        sync_offset = min(float(p.delays.min()) for p in paths)
    m = layout.antenna_count
    h = np.empty((m, len(paths)), dtype=complex)
    for k, user in enumerate(paths):
        a = array_response(layout, user.azimuths, user.elevations)
        weights = user.amplitudes * _carrier_phase(user.delays, sync_offset, layout.wavelength)
        h[:, k] = a @ weights
    return h


def save_paths(paths: Sequence[UserPaths], path: str | Path) -> None:
    """Write path records so a realization can be replayed exactly.

    One line per path: user index, amplitude, delay, azimuth, elevation; the
    user positions go into header comments.
    """
    lines = ["# user amplitude delay_s azimuth_rad elevation_rad"]
    for k, user in enumerate(paths):
        p = user.position
        lines.append(f"# position {k} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    for k, user in enumerate(paths):
        for a, t, az, el in zip(user.amplitudes, user.delays, user.azimuths, user.elevations):
            lines.append(f"{k} {float(a)!r} {float(t)!r} {float(az)!r} {float(el)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_paths(path: str | Path) -> list[UserPaths]:
    """Read path records written by :func:`save_paths`."""
    positions: dict[int, np.ndarray] = {}
    records: dict[int, list[tuple[float, float, float, float]]] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if fields and fields[0] == "position":
                positions[int(fields[1])] = np.array([float(v) for v in fields[2:5]])
            continue
        fields = line.split()
        records.setdefault(int(fields[0]), []).append(
            (float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4]))
        )
    users = []
    for k in sorted(records):
        arr = np.array(records[k])
        users.append(
            UserPaths(
                arr[:, 0],
                arr[:, 1],
                arr[:, 2],
                arr[:, 3],
                positions.get(k, np.zeros(3)),
            )
        )
    return users
