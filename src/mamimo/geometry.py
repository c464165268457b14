"""Antenna array geometry: layouts, movement regions, and plane-wave responses.

The array lives in the x = 0 plane (y horizontal, z vertical) and is centered
on the coordinate origin. Lengths are in meters, angles in radians.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# Relative slack for the half-wavelength spacing check; layouts constructed to
# sit exactly on the boundary must not be rejected by representation rounding.
SPACING_RTOL = 1e-12
# Bytes of one chunk of (placements, pairs, D) differences in
# min_pairwise_distances, 11 placements of 16 antennas in 3-D. Round-sized
# pair arrays, 141 KiB each for 50 such placements, raised the peak RSS of a
# swarm-narrow campaign by 0.1-0.3 MB.
_PAIR_CHUNK_BYTES = 32 * 1024


@dataclass(frozen=True)
class MoveRegion:
    """Square region in the x = 0 plane within which one antenna may move: the
    closed :func:`region_bounds` box, whose points `repair_to_regions` fixes."""

    center_y: float
    center_z: float
    side: float

    def __post_init__(self) -> None:
        if not self.side > 0:
            raise ValueError(f"region side must be positive, got {self.side}")

    @property
    def half(self) -> float:
        return self.side / 2.0


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """Positions of the M antennas plus optional per-antenna movement regions.

    Immutable after construction; the position array is marked read-only.
    """

    positions: np.ndarray  # (M, 3) in meters
    wavelength: float
    regions: tuple[MoveRegion, ...] | None = None

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a nonempty (M, 3) array")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must have finite components")
        if not 0 < self.wavelength < np.inf:
            raise ValueError(f"wavelength must be finite and positive, got {self.wavelength}")
        if self.regions is not None and len(self.regions) != pos.shape[0]:
            raise ValueError("need exactly one movement region per antenna")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def antenna_count(self) -> int:
        return self.positions.shape[0]

    def with_wavelength(self, wavelength: float) -> ArrayLayout:
        """Same physical positions evaluated at a different carrier wavelength."""
        return ArrayLayout(self.positions, wavelength, self.regions)


@dataclass(frozen=True)
class LayoutReport:
    """Result of checking a layout against its movement and spacing constraints."""

    min_pairwise_distance: float
    spacing_ok: bool
    region_ok: tuple[bool, ...] | None

    @property
    def ok(self) -> bool:
        return self.spacing_ok and (self.region_ok is None or all(self.region_ok))


def wave_vector(azimuth, elevation, wavelength: float) -> np.ndarray:
    """Wave vector(s) of plane waves arriving from the given angles, in rad/m.

    Accepts scalar angles or equal-length arrays; returns shape (3,) or (3, n).
    The Euclidean norm of every column equals 2*pi/wavelength.
    """
    if not 0 < wavelength < np.inf:
        raise ValueError(f"wavelength must be finite and positive, got {wavelength}")
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    scale = 2.0 * np.pi / wavelength
    return scale * np.stack(
        [
            np.cos(az) * np.cos(el),
            np.sin(az) * np.cos(el),
            np.sin(el) * np.ones_like(az),
        ]
    )


def array_response(layout: ArrayLayout, azimuth, elevation) -> np.ndarray:
    """Unit-modulus phase signature of the array for the given arrival angles.

    Entry m equals exp(j * p_m . k(azimuth, elevation)). Scalar angles give an
    (M,) vector, arrays of n angles give an (M, n) matrix.
    """
    k = wave_vector(azimuth, elevation, layout.wavelength)
    return np.exp(1j * (layout.positions @ k))


def _check_grid_dims(m_rows: int, m_cols: int) -> None:
    if m_rows < 1 or m_cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {m_rows}x{m_cols}")


def _centered_steps(n: int, step: float) -> np.ndarray:
    return (np.arange(n) - (n - 1) / 2.0) * step


def _grid_positions(m_rows: int, m_cols: int, y_step: float, z_step: float) -> np.ndarray:
    """Row-major yz-grid centered on the origin; antenna index = r*m_cols + c."""
    ys = _centered_steps(m_cols, y_step)
    zs = _centered_steps(m_rows, z_step)
    pos = np.zeros((m_rows * m_cols, 3))
    pos[:, 1] = np.tile(ys, m_rows)
    pos[:, 2] = np.repeat(zs, m_cols)
    return pos


def make_compact_upa(m_rows: int, m_cols: int, wavelength: float) -> ArrayLayout:
    """Uniform planar array with the traditional half-wavelength spacing."""
    _check_grid_dims(m_rows, m_cols)
    spacing = wavelength / 2.0
    return ArrayLayout(_grid_positions(m_rows, m_cols, spacing, spacing), wavelength)


def _sparse_spacing(wavelength: float) -> float:
    """Element spacing 20*lambda/3 of the sparse arrays."""
    return 20.0 * wavelength / 3.0


def make_sparse_upa(m_rows: int, m_cols: int, wavelength: float) -> ArrayLayout:
    """Uniform planar array with large inter-element spacing, 20*lambda/3."""
    _check_grid_dims(m_rows, m_cols)
    spacing = _sparse_spacing(wavelength)
    return ArrayLayout(_grid_positions(m_rows, m_cols, spacing, spacing), wavelength)


def make_staggered_ura(m_rows: int, m_cols: int, wavelength: float) -> ArrayLayout:
    """Rectangular array with offset rows covering the sparse-UPA aperture.

    The horizontal coordinates of all M antennas are distinct and equally
    spaced, so projecting onto the y axis yields a uniform sparse linear array
    spanning the full aperture. Row r is offset by r projection steps and its
    in-row spacing is m_rows steps, which makes the projection a bijection for
    every grid shape.
    """
    _check_grid_dims(m_rows, m_cols)
    m = m_rows * m_cols
    base = _sparse_spacing(wavelength)
    y_span = (m_cols - 1) * base
    z_span = (m_rows - 1) * base
    y_step = y_span / (m - 1) if m > 1 else 0.0
    z_step = z_span / (m_rows - 1) if m_rows > 1 else 0.0
    pos = np.zeros((m, 3))
    rows = np.repeat(np.arange(m_rows), m_cols)
    cols = np.tile(np.arange(m_cols), m_rows)
    pos[:, 1] = -y_span / 2.0 + (rows + m_rows * cols) * y_step
    pos[:, 2] = -z_span / 2.0 + rows * z_step
    return ArrayLayout(pos, wavelength)


def make_move_regions(m_rows: int, m_cols: int, side: float) -> tuple[MoveRegion, ...]:
    """Adjacent non-overlapping squares tiling a centered yz-aperture.

    Region index matches the row-major antenna index of the grid generators.
    """
    _check_grid_dims(m_rows, m_cols)
    if not side > 0:
        raise ValueError(f"region side must be positive, got {side}")
    ys = _centered_steps(m_cols, side)
    zs = _centered_steps(m_rows, side)
    return tuple(
        MoveRegion(center_y=float(ys[c]), center_z=float(zs[r]), side=float(side))
        for r in range(m_rows)
        for c in range(m_cols)
    )


def region_bounds(regions: Sequence[MoveRegion]) -> tuple[np.ndarray, np.ndarray]:
    """The (M, 2) lower and upper yz-corners of the closed movement boxes. A
    position is in its region exactly when `repair_to_regions` leaves it unchanged."""
    lo = np.array([[r.center_y - r.half, r.center_z - r.half] for r in regions])
    hi = np.array([[r.center_y + r.half, r.center_z + r.half] for r in regions])
    return lo, hi


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Condensed upper-triangle pairwise Euclidean distances."""
    rows, cols = _upper_pairs(positions.shape[0])
    diff = positions[rows] - positions[cols]
    return np.sqrt(np.sum(diff * diff, axis=-1))


@functools.cache
def _upper_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the pairs i < j among `count` antennas, built once per count."""
    rows, cols = np.triu_indices(count, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def min_pairwise_distances(stack: np.ndarray) -> np.ndarray:
    """The (P,) smallest pair distances of a (P, M, D) stack of placements,
    each with the bits of the least :func:`pairwise_distances` of its placement (inf if M = 1).

    It takes the placements in chunks of at most `_PAIR_CHUNK_BYTES` of
    pair differences, each with the differences, sums and square roots of
    :func:`pairwise_distances`, so one placement costs about one call of
    that, and no round-sized (P, M (M - 1) / 2, D) array is formed.
    """
    stack = np.asarray(stack, dtype=float)
    count, m, dims = stack.shape
    rows, cols = _upper_pairs(m)
    smallest = np.full(count, np.inf)
    if not rows.size:
        return smallest
    chunk = max(1, _PAIR_CHUNK_BYTES // (8 * dims * rows.size))
    for start in range(0, count, chunk):
        part = stack[start:start + chunk]
        diff = part.take(rows, axis=1) - part.take(cols, axis=1)
        smallest[start:start + chunk] = np.sqrt(np.sum(diff * diff, axis=-1)).min(axis=-1)
    return smallest


def min_spacing(wavelength: float) -> float:
    """Smallest pair distance that satisfies the half-wavelength constraint."""
    return wavelength / 2.0 * (1.0 - SPACING_RTOL)


def validate_layout(layout: ArrayLayout) -> LayoutReport:
    """Check mutual-coupling spacing and, if regions are present, membership:
    yz (not x) in the closed :func:`region_bounds` box, the fixed points of
    `repair_to_regions`. Returns a report rather than raising, so invalid
    candidate layouts can be inspected."""
    min_d = float(min_pairwise_distances(layout.positions[None])[0])
    spacing_ok = min_d >= min_spacing(layout.wavelength)
    region_ok = None
    if layout.regions is not None:
        lo, hi = region_bounds(layout.regions)
        yz = layout.positions[:, 1:]
        region_ok = tuple(np.all((lo <= yz) & (yz <= hi), axis=1).tolist())
    return LayoutReport(min_d, spacing_ok, region_ok)


def save_layout(layout: ArrayLayout, path: str | Path) -> None:
    """Write a layout as a plain-text table: one antenna per line (index x y z)."""
    lines = ["# antenna layout: index x_m y_m z_m"]
    lines.append(f"# wavelength_m = {float(layout.wavelength)!r}")
    for i, p in enumerate(layout.positions):
        lines.append(f"{i} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_layout(path: str | Path) -> ArrayLayout:
    """Read a layout written by :func:`save_layout`; a parse error names the
    path and line, and a value that `ArrayLayout` rejects names the path."""
    wavelength = None
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        fields = line.split()
        try:
            if line.startswith("#"):
                if "wavelength_m" in line:
                    wavelength = float(line.partition("=")[2].strip())
            elif len(fields) == 4:
                rows.append((int(fields[0]), float(fields[1]), float(fields[2]), float(fields[3])))
            elif fields:
                raise ValueError(f"malformed layout line: {line!r}")
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    if wavelength is None:
        raise ValueError(f"{path}: wavelength not found in file header")
    rows.sort(key=lambda r: r[0])
    indices = [r[0] for r in rows]
    if indices != list(range(len(rows))):
        raise ValueError(f"{path}: antenna indices must be 0 to {len(rows) - 1} once each, got {indices}")
    positions = np.array([[x, y, z] for _, x, y, z in rows])
    try:
        return ArrayLayout(positions, wavelength)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
