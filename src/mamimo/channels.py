"""Geometric multipath channel synthesis for wideband OFDM multi-user links.

Users are dropped in a polar sector on the ground, each user gets a set of
far-field paths (a direct path plus scattering clusters, or pure rich
scattering), and the paths are turned into per-subcarrier frequency-domain
channel matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# array_response stays a module global although nothing here calls it:
# perfbench/tracing.py wraps `mamimo.channels.array_response`.
from .geometry import SPEED_OF_LIGHT, ArrayLayout, array_response, wave_vector  # noqa: F401

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
    stay comparable to the direct-path scenario. `ExperimentSpec.scenario()`
    builds one from the config keys and holds the defaults.
    """

    kind: str
    carrier_hz: float
    rice_factor_db: float
    cluster_count: int
    paths_per_cluster: int
    cluster_azimuth_spread: float
    cluster_elevation_spread: float
    path_angle_spread: float
    rich_cluster_count: int
    rich_paths_per_cluster: int
    delay_stretch: float
    los_pathloss_intercept_db: float
    los_pathloss_slope_db: float
    normalized_gain: float
    r_min: float
    r_max: float
    azimuth_min: float
    azimuth_max: float
    bs_height: float
    user_height: float

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
class SubcarrierChannels:
    """Frequency-domain channel matrices, one M-by-K matrix per subcarrier."""

    matrices: np.ndarray  # (S, M, K) complex

    def __post_init__(self) -> None:
        if self.matrices.ndim != 3:
            raise ValueError("matrices must have shape (S, M, K)")

    @property
    def subcarrier_count(self) -> int:
        return self.matrices.shape[0]


def path_loss(distance_3d: float, intercept_db: float, slope_db: float) -> float:
    """Linear power gain of the log-distance law intercept + slope * log10(d)."""
    if not distance_3d > 0:
        raise ValueError(f"distance must be positive, got {distance_3d}")
    pl_db = intercept_db + slope_db * math.log10(distance_3d)
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
    angles. Both draw cluster centres, per-path angle offsets and delays in the
    same order. Scattered delays are uniform in (tau_direct, stretch*tau_direct]
    and the total scattered power relative to the direct-path (or normalized)
    gain is set by the Rice factor.
    """
    pos = np.asarray(user_position, dtype=float).reshape(3)
    distance = float(np.linalg.norm(pos))
    if not distance > 0:
        raise ValueError("user cannot sit at the array origin")
    tau_los = distance / SPEED_OF_LIGHT
    rice_linear = 10.0 ** (-scenario.rice_factor_db / 10.0)

    if scenario.kind == LOS_DOMINANT:
        n_clusters, per_cluster = scenario.cluster_count, scenario.paths_per_cluster
        los_azimuth = math.atan2(pos[1], pos[0])
        los_elevation = math.asin(pos[2] / distance)
        center = (los_azimuth, los_elevation)
        half_width = (scenario.cluster_azimuth_spread, scenario.cluster_elevation_spread)
        gain = path_loss(
            distance, scenario.los_pathloss_intercept_db, scenario.los_pathloss_slope_db
        )
    else:
        n_clusters, per_cluster = scenario.rich_cluster_count, scenario.rich_paths_per_cluster
        center, half_width = (0.0, 0.0), (np.pi, np.pi / 2)
        gain = scenario.normalized_gain
    n_scatter = n_clusters * per_cluster
    centers_az = center[0] + rng.uniform(-half_width[0], half_width[0], size=n_clusters)
    centers_el = np.clip(
        center[1] + rng.uniform(-half_width[1], half_width[1], size=n_clusters),
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
    amplitudes = np.full(n_scatter, math.sqrt(gain * rice_linear / n_scatter))
    azimuths = _wrap_angle(az)
    if scenario.kind == LOS_DOMINANT:
        amplitudes = np.concatenate(([math.sqrt(gain)], amplitudes))
        azimuths = np.concatenate(([los_azimuth], azimuths))
        el = np.concatenate(([los_elevation], el))
        delays = np.concatenate(([tau_los], delays))
    return UserPaths(amplitudes, delays, azimuths, el, pos)


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


def _dft_matrix(n_taps: int, subcarriers: int) -> np.ndarray:
    ells = np.arange(n_taps + 1)
    nus = np.arange(subcarriers)
    return np.exp(-2j * np.pi * np.outer(ells, nus) / subcarriers)  # (T+1, S)


# Unit phasors exp(j x) from a table of T = 4096 libm phasors exp(2 pi j i/T)
# and a Taylor rotation by the remainder |r| <= pi/T = 7.7e-4, where the
# first dropped terms, r^5/120 (sine) and r^6/720 (cosine), are below 3e-18.
# On 16 x 1,210 phases (2-core VM, numpy 2.4.6) this takes about 300 us
# against 950 us for numpy's complex exp, which runs scalar libm per element.
_PHASOR_TABLE_SIZE = 4096  # a power of two, so masking an index is the modulo
_PHASOR_STEP = 2.0 * np.pi / _PHASOR_TABLE_SIZE
_PHASOR_TABLE = np.exp(1j * _PHASOR_STEP * np.arange(_PHASOR_TABLE_SIZE))
# Beyond 2^40 rad the table index would approach the int64 range of the
# float -> intp cast, which overflows silently; such phases are rejected.
_PHASE_LIMIT = 2.0**40
# Elements per pass. Every op runs in place on one block's scratch, 24 bytes
# an element, which at 4096 elements stays well below glibc's 128 KiB mmap
# threshold: larger scratch is mapped afresh on each call and faults its
# pages in. On the same VM, in-process swarm-narrow campaigns (best of 3)
# took 1.48-1.54 s with 4096, 1.55-1.60 s with 8192 and 1.52-1.61 s with
# 16384 elements, the latter at 0.6 MB more peak RSS.
_PHASOR_BLOCK = 4096


def _unit_phasors(phase: np.ndarray) -> np.ndarray:
    """exp(1j * phase) from vector numpy ops, without libm's scalar exp.

    Contract: |result - exp(1j x)| <= 4 * 2^-52 * (1 + |x|) per element,
    the size of the rounding already present in the phase x = p . k, and
    |result| = 1 within a few ulp. A phase that is not finite or exceeds
    _PHASE_LIMIT in magnitude raises ValueError.
    """
    phase = np.asarray(phase, dtype=float)
    if not (phase.min() >= -_PHASE_LIMIT and phase.max() <= _PHASE_LIMIT):
        raise ValueError(f"phases must be finite and within +-{_PHASE_LIMIT:g} rad")
    out = np.empty(phase.shape, dtype=complex)
    flat_in = phase.reshape(-1)
    flat_out = out.reshape(-1)
    block = min(_PHASOR_BLOCK, flat_in.size)
    table_buf = np.empty(block, dtype=complex)
    real_buf = table_buf.view(float)  # two real rows, free until the table gather
    index_buf = np.empty(block, dtype=np.intp)
    for start in range(0, flat_in.size, block):
        x = flat_in[start:start + block]
        o = flat_out[start:start + block]
        n = x.shape[0]
        r, r2, idx, rot = real_buf[:n], real_buf[n:2 * n], index_buf[:n], table_buf[:n]
        np.multiply(x, _PHASOR_TABLE_SIZE / (2.0 * np.pi), out=r)
        np.rint(r, out=r)
        np.copyto(idx, r, casting="unsafe")
        # Masking the signed index is the modulo T; take(mode="wrap") is
        # about thirty times slower.
        idx &= _PHASOR_TABLE_SIZE - 1
        r *= _PHASOR_STEP
        np.subtract(x, r, out=r)
        np.multiply(r, r, out=r2)
        sin, cos = o.imag, o.real
        np.multiply(r2, -1.0 / 6.0, out=sin)
        sin += 1.0
        sin *= r
        np.multiply(r2, 1.0 / 24.0, out=cos)
        cos -= 0.5
        cos *= r2
        cos += 1.0
        _PHASOR_TABLE.take(idx, out=rot)
        o *= rot
    return out


class ChannelModel:
    """Layout-independent channel factors of one realization at one wavelength.

    It holds every user's wave vectors side by side (3, N_1 + ... + N_K),
    and per user the column slice of its paths, the complex path gains
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
        self.waves = wave_vector(
            np.concatenate([user.azimuths for user in paths]),
            np.concatenate([user.elevations for user in paths]),
            wavelength,
        )
        self.users: list[tuple[slice, np.ndarray, np.ndarray]] = []
        start = 0
        for user in paths:
            x = grid.subcarrier_count * grid.subcarrier_spacing * (user.delays - eta)
            self.users.append((
                slice(start, start + user.n_paths),
                user.amplitudes * _carrier_phase(user.delays, eta, wavelength),
                pulse_triangle(ells[None, :] - x[:, None]),
            ))
            start += user.n_paths

    def channels(self, positions: np.ndarray) -> SubcarrierChannels:
        """(S, M, K) channels of antennas at `positions` (M, 3), in meters.

        The phase signatures of all users' paths come from one
        :func:`_unit_phasors` pass over the (M, N_1 + ... + N_K) phases, in
        blocks of a fixed 4096 elements. Per-user calls would be dominated by
        per-op overhead: on 16 x 121 phases the kernel gains only 1.35x over
        libm. Each entry is within sum_n |w_n| 4 2^-52 (1 + |p . k_n|) of the
        libm formula, w_n being path n's subcarrier weight, and phases beyond
        2^40 rad raise ValueError. The per-path weights are formed on each
        call rather than stored, which keeps the model at O(N (T+1)) per user.
        """
        phasors = _unit_phasors(positions @ self.waves)
        matrices = np.empty((self.dft.shape[1], positions.shape[0], len(self.users)), dtype=complex)
        for k, (cols, gains, pulses) in enumerate(self.users):
            weights = gains[:, None] * (pulses @ self.dft)  # (N, S)
            matrices[:, :, k] = (phasors[:, cols] @ weights).T
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

