"""Geometric multipath channel synthesis for wideband OFDM multi-user links.

Users are dropped in a polar sector on the ground, each user gets a set of
far-field paths (a direct path plus scattering clusters, or pure rich
scattering), and the paths are turned into per-subcarrier frequency-domain
channel matrices.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Sequence

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


_POSITIVE = (lambda v: v > 0, "> 0")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")


def _one_of(choices: tuple[str, ...]):
    return (lambda v: v in choices, f"one of {choices}")


def _key(name: str, default, check=None, swept: bool = False):
    """Declare a config key on its field: the dotted `section.key` name, the
    default, the (predicate, text) range check of each value (of each entry,
    for a list), and whether the list is a sweep axis (non-empty)."""
    return field(default=default, metadata={"key": name, "check": check, "swept": swept})


def _float(v: Any) -> float:
    """Type check only: the range checks reject NaN and infinities."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _int(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"expected an integer, got {v!r}")
    return int(v)


def _str(v: Any) -> str:
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return str(v)


def _opt_str(v: Any) -> str | None:
    return None if v is None else _str(v)


def _is_list(v: Any) -> bool:
    return isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim == 1


def _tuple_of(convert):
    def convert_list(v: Any) -> tuple:
        if not _is_list(v):
            raise ValueError(f"expected a list, got {v!r}")
        return tuple(convert(x) for x in v)
    return convert_list


def _pair(v: Any) -> tuple[str, str]:
    if not _is_list(v) or len(v) != 2:
        raise ValueError(f"cross pair {v!r} must have exactly two entries")
    return (_str(v[0]), _str(v[1]))


# field annotation -> converter of a raw value (a config entry or a Python argument):
# Python and numpy numbers (not booleans) become `int` and `float`, and lists,
# tuples and 1-D arrays become tuples, so a config object holds the same values
# whatever built it
_CONVERTERS = {
    "float": _float,
    "int": _int,
    "str": _str,
    "str | None": _opt_str,
    "tuple[float, ...]": _tuple_of(_float),
    "tuple[int, ...]": _tuple_of(_int),
    "tuple[str, ...]": _tuple_of(_str),
    "tuple[tuple[str, str], ...]": _tuple_of(_pair),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """The `scenario` section of the config: propagation scenario and user drop.

    Each field is one `scenario.*` key, declared through `_key` and held in
    its units (GHz, meters, radians for the user sector, degrees for the
    spreads); the channel code converts a value to SI where it uses it.
    `normalized_gain` replaces the log-distance path loss in the
    rich-scattering mode so that receive SNRs stay comparable to the
    direct-path scenario. The defaults are those of an empty config file;
    `ExperimentSpec` inherits the fields, so a spec passes to the channel
    functions as its own scenario.
    """

    kind: str = _key("scenario.kind", LOS_DOMINANT, _one_of(SCENARIO_KINDS))
    carrier_ghz: float = _key("scenario.carrier_ghz", 3.0, _POSITIVE)
    rice_factor_db: float = _key("scenario.rice_factor_db", 10.0)
    r_min_m: float = _key("scenario.r_min_m", 100.0, _POSITIVE)
    r_max_m: float = _key("scenario.r_max_m", 300.0)
    azimuth_min_rad: float = _key("scenario.azimuth_min_rad", -np.pi / 3)
    azimuth_max_rad: float = _key("scenario.azimuth_max_rad", np.pi / 3)
    bs_height_m: float = _key("scenario.bs_height_m", 4.0)
    user_height_m: float = _key("scenario.user_height_m", 1.25)
    cluster_count: int = _key("scenario.cluster_count", 6, _AT_LEAST_ONE)
    paths_per_cluster: int = _key("scenario.paths_per_cluster", 20, _AT_LEAST_ONE)
    cluster_azimuth_spread_deg: float = _key("scenario.cluster_azimuth_spread_deg", 40.0, _NONNEGATIVE)
    cluster_elevation_spread_deg: float = _key("scenario.cluster_elevation_spread_deg", 20.0, _NONNEGATIVE)
    path_angle_spread_deg: float = _key("scenario.path_angle_spread_deg", 5.0, _NONNEGATIVE)
    rich_cluster_count: int = _key("scenario.rich_cluster_count", 100, _AT_LEAST_ONE)
    rich_paths_per_cluster: int = _key("scenario.rich_paths_per_cluster", 2, _AT_LEAST_ONE)
    delay_stretch: float = _key("scenario.delay_stretch", 10.0, _AT_LEAST_ONE)
    los_pathloss_intercept_db: float = _key("scenario.los_pathloss_intercept_db", 30.18)
    los_pathloss_slope_db: float = _key("scenario.los_pathloss_slope_db", 26.0)
    normalized_gain: float = _key("scenario.normalized_gain", 1e-9, _POSITIVE)

    def __post_init__(self) -> None:
        """The one convert-and-check path of every config key, a subclass's
        included: each field's value converted by its annotation (a number to
        a float, a list to a tuple) and checked against its declaration
        (finite, in range, a sweep list non-empty, list entries distinct);
        then the section's two relations, then every derived quantity that
        would overflow, from the channel model's own formulas. Such a value
        would fail later naming no key, or run with an infinite or NaN
        quantity. Each error names its key."""
        for f in fields(self):
            key, check = f.metadata["key"], f.metadata["check"]
            try:
                value = _CONVERTERS[f.type](getattr(self, f.name))
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
            object.__setattr__(self, f.name, value)
            is_list = isinstance(value, tuple)
            values = value if is_list else (value,)
            if f.metadata["swept"] and not values:
                raise ValueError(f"{key} must be non-empty")
            for v in values:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{key}: expected a finite number, got {v!r}")
            if check is not None:
                ok, text = check
                for v in values:
                    if v is not None and not ok(v):
                        entries = " entries" if is_list else ""
                        raise ValueError(f"{key}{entries} must be {text}, got {v!r}")
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"{key} entries must be distinct, got {v!r} twice")
        if not self.r_min_m < self.r_max_m:
            raise ValueError("scenario.r_min_m must be < scenario.r_max_m")
        if not self.azimuth_min_rad <= self.azimuth_max_rad:
            raise ValueError("scenario.azimuth_min_rad must be <= scenario.azimuth_max_rad")
        check_carrier("scenario.carrier_ghz", self.carrier_ghz)
        height = self.bs_height_m - self.user_height_m
        if not math.isfinite(self.r_max_m * self.r_max_m + height * height):
            raise ValueError(
                "scenario.r_max_m, scenario.bs_height_m and scenario.user_height_m: "
                "the squared distance of the farthest user overflows"
            )
        try:
            rice = rice_power_ratio(self.rice_factor_db)
        except OverflowError:
            raise ValueError(
                f"scenario.rice_factor_db: the scattered power ratio overflows, got {self.rice_factor_db!r}"
            ) from None
        if self.kind == LOS_DOMINANT:
            gain_keys = "scenario.los_pathloss_intercept_db and scenario.los_pathloss_slope_db"
            # The path loss is affine in log10(distance), so its extremes sit
            # at the nearest and the farthest user distance.
            try:
                gains = [
                    path_loss(d, self.los_pathloss_intercept_db, self.los_pathloss_slope_db)
                    for d in (math.hypot(self.r_min_m, height), math.hypot(self.r_max_m, height))
                ]
                if not all(math.isfinite(g) for g in gains):  # an infinite loss in dB
                    raise OverflowError
            except OverflowError:
                raise ValueError(f"{gain_keys}: the direct-path gain overflows at a user distance") from None
        else:
            gain_keys, gains = "scenario.normalized_gain", [self.normalized_gain]
        if not all(math.isfinite(g * rice) for g in gains):
            raise ValueError(f"scenario.rice_factor_db with {gain_keys}: the scattered power overflows")

    @property
    def carrier_hz(self) -> float:
        return self.carrier_ghz * 1e9

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


def check_carrier(key: str, ghz: float) -> None:
    """Reject a carrier in GHz, named by its config key, whose Hz or wavelength overflows."""
    hz = ghz * 1e9
    if not math.isfinite(hz):
        raise ValueError(f"{key} overflows in Hz, got {hz!r}")
    if not math.isfinite(SPEED_OF_LIGHT / hz):
        raise ValueError(f"{key}: the wavelength overflows at {hz!r} Hz")


def path_loss(distance_3d: float, intercept_db: float, slope_db: float) -> float:
    """Linear power gain of the log-distance law intercept + slope * log10(d)."""
    if not distance_3d > 0:
        raise ValueError(f"distance must be positive, got {distance_3d}")
    pl_db = intercept_db + slope_db * math.log10(distance_3d)
    return float(10.0 ** (-pl_db / 10.0))


def rice_power_ratio(rice_factor_db: float) -> float:
    """Total scattered power relative to the direct-path (or normalized) gain."""
    return 10.0 ** (-rice_factor_db / 10.0)


def sample_user_positions(
    rng: np.random.Generator, scenario: ScenarioConfig, count: int
) -> np.ndarray:
    """Drop `count` users uniformly (by area) in the configured polar sector.

    Returns (count, 3) positions relative to the array origin; the vertical
    component is user height minus the mounting height of the array.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    radii = np.sqrt(rng.uniform(scenario.r_min_m**2, scenario.r_max_m**2, size=count))
    angles = rng.uniform(scenario.azimuth_min_rad, scenario.azimuth_max_rad, size=count)
    pos = np.empty((count, 3))
    pos[:, 0] = radii * np.cos(angles)
    pos[:, 1] = radii * np.sin(angles)
    pos[:, 2] = scenario.user_height_m - scenario.bs_height_m
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
    rice_linear = rice_power_ratio(scenario.rice_factor_db)

    if scenario.kind == LOS_DOMINANT:
        n_clusters, per_cluster = scenario.cluster_count, scenario.paths_per_cluster
        los_azimuth = math.atan2(pos[1], pos[0])
        los_elevation = math.asin(pos[2] / distance)
        center = (los_azimuth, los_elevation)
        spreads_deg = (scenario.cluster_azimuth_spread_deg, scenario.cluster_elevation_spread_deg)
        half_width = np.deg2rad(spreads_deg)
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
    spread = np.deg2rad(scenario.path_angle_spread_deg)
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


def channel_model_floats(scenario: ScenarioConfig, users: int, grid: OfdmGrid, antennas: int) -> float:
    """Upper bound, in floats, on the storage of a realization's channel model:
    K users x N paths x (T + 1) taps of FIR pulses, plus the stored complex
    weights, K x N x S, plus the buffers a call over M antennas fills: the
    real phases and complex phasors, M x K x N, and the complex products,
    M x K x S. N is the path count of :func:`synthesize_paths`, and T the
    tap count of :func:`sync_and_tap_count` at the widest delay spread the
    scenario can draw. A count beyond the float range gives infinity."""
    height = scenario.bs_height_m - scenario.user_height_m
    spread = (scenario.delay_stretch * math.hypot(scenario.r_max_m, height)
              - math.hypot(scenario.r_min_m, height)) / SPEED_OF_LIGHT
    paths = (1 + scenario.cluster_count * scenario.paths_per_cluster if scenario.kind == LOS_DOMINANT
             else scenario.rich_cluster_count * scenario.rich_paths_per_cluster)
    try:
        taps = np.ceil(grid.subcarrier_count * grid.subcarrier_spacing * spread)
        s = grid.subcarrier_count
        return users * (paths * (taps + 1 + 2 * s + 3 * antennas) + 2 * antennas * s)
    except OverflowError:
        return math.inf


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
# On 16 x 1,210 phases (2-core VM, numpy 2.4.6) this takes about 200 us
# against 950 us for numpy's complex exp, which runs scalar libm per element.
_PHASOR_TABLE_SIZE = 4096  # a power of two, so masking an index is the modulo
_PHASOR_STEP = 2.0 * np.pi / _PHASOR_TABLE_SIZE
_PHASOR_TABLE = np.exp(1j * _PHASOR_STEP * np.arange(_PHASOR_TABLE_SIZE))
# Phases beyond 2^40 rad are rejected, so |x T / 2 pi| < 2^51 and adding and
# subtracting _ROUNDING_SHIFT rounds to the nearest integer, ties to even,
# exactly as rint does; the shifted sum's low mantissa bits are that integer
# modulo T.
_PHASE_LIMIT = 2.0**40
_ROUNDING_SHIFT = 1.5 * 2.0**52
# Elements per pass. Every op runs in place on one block's scratch, 32 bytes
# an element in three arrays; a ChannelModel owns it with its phase and
# phasor buffers, so a warm call allocates none of it. 20,480 is the smallest
# multiple of 4096 that holds a swarm layout's 16 x 1,210 = 19,360 phases, so
# such a layout takes one pass and a model holds at most 640 KiB of scratch.
# On those phases (same VM) a call took about 215 us in 4096-element passes
# and 160 us in one. The model also stores each user's (N, S) subcarrier
# weights instead of forming them per layout, N S 16 bytes per user: 19 KiB
# at K = 10, N = 121, S = 1 and 968 KB at S = 50. Together the two cut a
# warm 25-layout S = 1 stack from about 250 to 185 us per layout, and a warm
# S = 50 call from about 970 to 540 us and 67 minor page faults to none.
_PHASOR_BLOCK = 20480
# Bytes of one group's stacked weights (at least one user's). glibc maps an
# array above its 128 KiB threshold by itself, and freeing one raises the
# threshold to that size, after which smaller arrays grow the heap: one
# 2.56 MB stack of eval-sweep's 16 users of 200 paths at S = 50 raised the
# peak RSS of 60 campaigns in one process by 0.2-0.3 MB. Small S, where
# batching the users saves the most per-op overhead, stays one group.
_GROUP_BYTES = 128 * 1024


def _phasor_scratch(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block scratch of :func:`_unit_phasors` for up to `size` phases: a
    complex block, which holds the remainder, its square and the cosine until
    the table gather, the sine and the table index."""
    block = min(_PHASOR_BLOCK, size)
    return np.empty(block, dtype=complex), np.empty(block), np.empty(block, dtype=np.int64)


def _unit_phasors(
    phase: np.ndarray,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """exp(1j * phase) from vector numpy ops, without libm's scalar exp.

    Contract: |result - exp(1j x)| <= 4 * 2^-52 * (1 + |x|) per element,
    the size of the rounding already present in the phase x = p . k, and
    |result| = 1 within a few ulp. A phase that is not finite or exceeds
    _PHASE_LIMIT in magnitude raises ValueError. The result is written to
    `out`, a C-contiguous complex array of the phases' shape, when given,
    and to a fresh array otherwise. `scratch` is a :func:`_phasor_scratch`
    for at least the phases' size, made per call when not given.
    """
    phase = np.asarray(phase, dtype=float)
    if not (phase.min() >= -_PHASE_LIMIT and phase.max() <= _PHASE_LIMIT):
        raise ValueError(f"phases must be finite and within +-{_PHASE_LIMIT:g} rad")
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    flat_in = phase.reshape(-1)
    flat_out = out.reshape(-1)
    table_buf, sin_buf, index_buf = scratch or _phasor_scratch(flat_in.size)
    real_buf = table_buf.view(float)  # two real rows, free until the table gather
    block = table_buf.shape[0]
    for start in range(0, flat_in.size, block):
        x = flat_in[start:start + block]
        o = flat_out[start:start + block]
        n = x.shape[0]
        r, r2, idx, rot = real_buf[:n], real_buf[n:2 * n], index_buf[:n], table_buf[:n]
        sin = sin_buf[:n]
        np.multiply(x, _PHASOR_TABLE_SIZE / (2.0 * np.pi), out=r)
        r += _ROUNDING_SHIFT
        np.bitwise_and(r.view(np.int64), _PHASOR_TABLE_SIZE - 1, out=idx)
        r -= _ROUNDING_SHIFT
        r *= _PHASOR_STEP
        np.subtract(x, r, out=r)
        np.multiply(r, r, out=r2)
        # Contiguous passes, then one strided copy of each into `o`.
        np.multiply(r2, -1.0 / 6.0, out=sin)
        sin += 1.0
        sin *= r
        cos = r
        np.multiply(r2, 1.0 / 24.0, out=cos)
        cos -= 0.5
        cos *= r2
        cos += 1.0
        o.real = cos
        o.imag = sin
        # The index is masked already; mode="raise" would buffer `rot`.
        _PHASOR_TABLE.take(idx, out=rot, mode="clip")
        o *= rot
    return out


class ChannelModel:
    """Layout-independent channel factors of one realization at one wavelength.

    It holds every user's wave vectors side by side (3, N_1 + ... + N_K)
    and every user's complex subcarrier weights (N, S): the path gains
    (amplitude times carrier rotation) times the pulse-filter matrix
    (N, T+1) times the DFT matrix (T+1, S). The weights are stored grouped:
    a group is a run of consecutive users with equal N, one (K_g, N, S)
    stack over K_g users and K_g N adjacent columns, of at most
    `_GROUP_BYTES` or one user. Every realization the program draws gives
    each user the same path count, so at S=1 it is one group, and at S=50
    each user is its own. The weights are formed once here and stored, N S
    16 bytes per user: 19 KiB for K=10 users of 121 paths at S=1, 968 KB at
    S=50, and 2.56 MB for 16 users of 200 paths at S=50. Only the phase
    signature exp(j p.k) depends on the antenna positions, so a placement
    search builds the model once and calls :meth:`channels` per candidate
    or per stack of candidates.
    """

    def __init__(self, paths: Sequence[UserPaths], grid: OfdmGrid, wavelength: float) -> None:
        eta, n_taps = sync_and_tap_count(paths, grid)
        ells = np.arange(n_taps + 1)
        dft = _dft_matrix(n_taps, grid.subcarrier_count)
        self.wavelength = wavelength
        self.subcarrier_count = grid.subcarrier_count
        self.user_count = len(paths)
        self.waves = wave_vector(
            np.concatenate([user.azimuths for user in paths]),
            np.concatenate([user.elevations for user in paths]),
            wavelength,
        )
        # Per group: its users, its columns and its (K_g, N, S) weights.
        self.groups: list[tuple[slice, slice, np.ndarray]] = []
        first = start = 0
        for n_paths, run in itertools.groupby(paths, key=lambda user: user.n_paths):
            run = list(run)
            size = max(1, _GROUP_BYTES // (16 * n_paths * grid.subcarrier_count))
            for group in (run[i:i + size] for i in range(0, len(run), size)):
                weights = np.empty((len(group), n_paths, grid.subcarrier_count), dtype=complex)
                for out, user in zip(weights, group):
                    x = grid.subcarrier_count * grid.subcarrier_spacing * (user.delays - eta)
                    gains = user.amplitudes * _carrier_phase(user.delays, eta, wavelength)
                    pulses = pulse_triangle(ells[None, :] - x[:, None])
                    np.multiply(gains[:, None], pulses @ dft, out=out)
                users = slice(first, first + len(group))
                cols = slice(start, start + len(group) * n_paths)
                self.groups.append((users, cols, weights))
                first, start = users.stop, cols.stop
        # The (M, N_1 + ... + N_K) phases and phasors, each group's
        # (K_g, M, S) products and the kernel's block scratch, sized for the
        # antenna count of the last call.
        self._phase = np.empty((0, start))
        self._phasors = np.empty((0, start), dtype=complex)
        self._products: list[np.ndarray] = []
        self._scratch = None

    def channels(self, positions: np.ndarray) -> np.ndarray:
        """The (S, M, K) complex channel array of antennas at `positions`
        (M, 3), in meters, one M-by-K matrix per subcarrier, or the
        (P, S, M, K) stack of P placements at `positions` (P, M, 3).

        The phase signatures of all users' paths come from one
        :func:`_unit_phasors` call per placement over the (M, N_1 + ... + N_K)
        phases, in blocks of up to 20,480 elements, one pass for a 16-antenna
        swarm layout. Per-user calls would be dominated by per-op overhead: on
        16 x 121 phases the kernel gains only 1.35x over libm. Each entry is
        within sum_n |w_n| 4 2^-52 (1 + |p . k_n|) of the libm formula, w_n
        being path n's subcarrier weight, and phases beyond 2^40 rad raise
        ValueError. The per-path weights are stored in the model, O(N S) per
        user, so a call only phases the layout and, per group, forms all its
        users' (M, N) @ (N, S) products with one batched matmul and writes
        them into the result with one transposed copy. Each batch instance is
        the BLAS call of that user's own product, with the same operand
        strides, so the grouping keeps every bit. A stack's placements are
        computed one after the other, so each instance has the bits of its
        own unstacked call.

        The model owns the (M, N_1 + ... + N_K) phase and phasor buffers,
        above glibc's 128 KiB mmap threshold at swarm sizes, the groups'
        product buffers and the kernel's block scratch; they are reallocated
        only when M changes, so a warm call faults no pages in, and a model
        serves one thread at a time. Only the returned array is fresh; it
        never aliases a buffer.
        """
        stack = positions if positions.ndim == 3 else positions[None]
        m = stack.shape[1]
        if self._phase.shape[0] != m:
            self._phase = np.empty((m, self.waves.shape[1]))
            self._phasors = np.empty((m, self.waves.shape[1]), dtype=complex)
            self._products = [
                np.empty((w.shape[0], m, self.subcarrier_count), dtype=complex) for _, _, w in self.groups
            ]
            self._scratch = _phasor_scratch(self._phase.size)
        matrices = np.empty((len(stack), self.subcarrier_count, m, self.user_count), dtype=complex)
        for out, placement in zip(matrices, stack):
            np.matmul(placement, self.waves, out=self._phase)
            phasors = _unit_phasors(self._phase, out=self._phasors, scratch=self._scratch)
            for (users, cols, weights), product in zip(self.groups, self._products):
                # (M, K_g N) -> (K_g, M, N): a view, each user's own columns.
                phases_g = phasors[:, cols].reshape(m, *weights.shape[:2]).transpose(1, 0, 2)
                np.matmul(phases_g, weights, out=product)
                out[:, :, users] = product.transpose(2, 1, 0)
        return matrices if positions.ndim == 3 else matrices[0]


def subcarrier_channels(
    paths: Sequence[UserPaths], layout: ArrayLayout | Sequence[ArrayLayout], grid: OfdmGrid
) -> np.ndarray:
    """Frequency-domain channels computed directly from the path parameters:
    the (S, M, K) complex array of one layout.

    Algebraically identical to transforming the materialized taps; the FIR
    stage is folded into a per-path subcarrier weight so no (K, T+1, M) tensor
    is formed. A sequence of P layouts at one wavelength gives the
    (P, S, M, K) stack of their channels, each instance bit-equal to its
    single call, from one model and one call.
    """
    if isinstance(layout, ArrayLayout):
        return ChannelModel(paths, grid, layout.wavelength).channels(layout.positions)
    if len({item.wavelength for item in layout}) != 1:
        raise ValueError("a sequence of layouts must share one wavelength")
    return ChannelModel(paths, grid, layout[0].wavelength).channels(np.stack([a.positions for a in layout]))
