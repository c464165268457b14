"""Particle swarm optimization of antenna positions inside movement regions.

Each particle is a full candidate placement of the M antennas in their square
regions. Box constraints are kept exact by clamping after every move; the
half-wavelength coupling constraint enters as an additive quadratic penalty on
the objective and the best penalty-free placement seen is the one returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# subcarrier_channels stays a module global although the objective no longer
# calls it: perfbench/tracing.py wraps `mamimo.pso.subcarrier_channels`.
from .channels import ChannelModel, OfdmGrid, UserPaths, subcarrier_channels  # noqa: F401
from .geometry import (
    ArrayLayout,
    MoveRegion,
    min_pairwise_distances,
    min_spacing,
    pairwise_distances,
    region_bounds,
)
from .rates import ImpairedLinkConfig, evaluate_rate_scheme

# Default weight of the quadratic spacing penalty, in objective units per
# squared meter of shortfall.
PENALTY_WEIGHT = 1e3
# The objective closure forms and scores a round's stacked (P, S, M, K)
# channels in chunks of at most this many bytes (at least one layout each).
# Unchunked, 150 layouts at S=50, M=16 and K=10 would hold 19 MB.
_CHUNK_BYTES = 64 * 1024
# Clerc and Kennedy's constriction constants ("The particle swarm - explosion,
# stability, and convergence in a multidimensional complex space", IEEE TEVC
# 2002): inertia and acceleration coefficients. Velocities are clamped per
# coordinate to a fraction of the region side.
_INERTIA = 0.7298
_COGNITIVE = _SOCIAL = 1.4962
_VELOCITY_CLAMP = 0.5


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size, round count and random seed; the velocity update uses the
    constriction constants above."""

    particle_count: int = 150
    max_iterations: int = 100
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.particle_count < 1:
            raise ValueError(f"particle_count must be >= 1, got {self.particle_count!r}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations!r}")


@dataclass(frozen=True, eq=False)
class OptimizationTrace:
    """Global-best history and the best placement found.

    `best_values` is the swarm's history: the penalized global best after
    each round (round 0 is the initial swarm), nondecreasing. `spacing_feasible`
    records whether any penalty-free particle was seen; if so, `best_layout`
    is the best such particle. `best_objective` is the objective of
    `best_layout`, so it may lie below the last history entry when the
    global best violates the spacing constraint.
    """

    best_values: np.ndarray
    best_layout: ArrayLayout
    best_objective: float
    spacing_feasible: bool


def repair_to_regions(coords: np.ndarray, regions: Sequence[MoveRegion]) -> np.ndarray:
    """Clamp (..., M, 2) yz-coordinates into their `region_bounds` boxes. Idempotent."""
    return np.clip(np.asarray(coords, dtype=float), *region_bounds(regions))


def spacing_penalty(
    positions: np.ndarray, wavelength: float, weight: float = PENALTY_WEIGHT
) -> float:
    """Quadratic penalty on antenna pairs closer than half a wavelength.

    Zero exactly when every pair satisfies the constraint (pairs sitting on
    the boundary up to representation rounding count as satisfied).
    """
    pair_dist = pairwise_distances(np.asarray(positions, dtype=float))
    violating = pair_dist < min_spacing(wavelength)
    if not np.any(violating):
        return 0.0
    gaps = wavelength / 2.0 - pair_dist[violating]
    return float(weight * np.sum(gaps**2))


def _coords_to_layout(
    coords: np.ndarray, wavelength: float, regions: tuple[MoveRegion, ...]
) -> ArrayLayout:
    positions = np.zeros((coords.shape[0], 3))
    positions[:, 1:] = coords
    return ArrayLayout(positions, wavelength, regions)


def pso_optimize(
    objective: Callable[[list[ArrayLayout]], Sequence[float]],
    regions: Sequence[MoveRegion],
    wavelength: float,
    config: PsoConfig,
    seed_layouts: Iterable[ArrayLayout] = (),
) -> OptimizationTrace:
    """Maximize `objective` over antenna placements, one antenna per region.

    The random stream is `numpy.random.default_rng(config.seed)`. The swarm
    runs rounds 0 to `config.max_iterations`: round 0 scores the initial
    swarm, and every later round first moves the particles, then scores
    them. `objective` scores a whole round in one call: it takes the list of
    the round's `ArrayLayout`s, one per particle, and returns their values in
    that order. A non-finite objective value raises `ValueError` naming its
    round.
    `seed_layouts` are `ArrayLayout`s placed into the initial swarm when they
    lie in the regions (after a clamp that only absorbs rounding) and satisfy
    the spacing constraint, so the result never scores below a feasible seed.
    """
    regions = tuple(regions)
    if not regions:
        raise ValueError("need at least one movement region")
    rng = np.random.default_rng(config.seed)
    m = len(regions)
    n = config.particle_count
    spacing = min_spacing(wavelength)

    lo, hi = region_bounds(regions)
    sides = np.array([[r.side, r.side] for r in regions])
    vmax = _VELOCITY_CLAMP * sides

    positions = lo + rng.uniform(size=(n, m, 2)) * (hi - lo)
    slot = 0
    for seed in seed_layouts:
        if slot >= n:
            break
        coords = seed.positions[:, 1:]
        if coords.shape != (m, 2):
            raise ValueError("seed layout does not match the region count")
        clamped = np.clip(coords, lo, hi)
        inside = not np.any(np.abs(clamped - coords) > 1e-9 * sides)  # up to rounding
        if inside and min_pairwise_distances(clamped[None])[0] >= spacing:
            positions[slot] = clamped
            slot += 1

    velocities = np.zeros_like(positions)
    pbest_pos = np.empty_like(positions)
    pbest_val = np.full(n, -np.inf)
    gbest_pos, gbest_val = None, -np.inf
    feasible_pos, feasible_val = None, -np.inf
    history = []
    for round_ in range(config.max_iterations + 1):
        if round_:
            r_cog = rng.uniform(size=(n, m, 2))
            r_soc = rng.uniform(size=(n, m, 2))
            velocities = (
                _INERTIA * velocities
                + _COGNITIVE * r_cog * (pbest_pos - positions)
                + _SOCIAL * r_soc * (gbest_pos[None] - positions)
            )
            velocities = np.clip(velocities, -vmax, vmax)
            positions = np.clip(positions + velocities, lo, hi)
        values = np.asarray(
            objective([_coords_to_layout(p, wavelength, regions) for p in positions]), dtype=float
        )
        if values.shape != (n,):
            raise ValueError(f"objective returned shape {values.shape} for a round of {n} layouts")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"objective returned a non-finite value in round {round_}")
        better = values > pbest_val
        pbest_pos[better] = positions[better]
        pbest_val[better] = values[better]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_val = float(pbest_val[g])
            gbest_pos = pbest_pos[g].copy()
        # Only particles above the feasible best can replace it, so one pass
        # tests their (M, 2) yz-coordinates (the common x = 0 adds nothing to
        # a distance), and the first best of the feasible ones wins, as a
        # scan in particle order would find.
        ahead = np.flatnonzero(values > feasible_val)
        ahead = ahead[min_pairwise_distances(positions[ahead]) >= spacing]
        if ahead.size:
            best = ahead[np.argmax(values[ahead])]
            feasible_pos, feasible_val = positions[best].copy(), values[best]
        history.append(gbest_val)

    feasible = feasible_pos is not None
    best_pos, best_val = (feasible_pos, feasible_val) if feasible else (gbest_pos, gbest_val)
    layout = _coords_to_layout(best_pos, wavelength, regions)
    return OptimizationTrace(np.array(history), layout, float(best_val), feasible)


def objective_adapter(
    scheme: str,
    paths: Sequence[UserPaths],
    grid: OfdmGrid,
    config: ImpairedLinkConfig,
    *,
    penalty_weight: float = PENALTY_WEIGHT,
) -> Callable[[ArrayLayout | Sequence[ArrayLayout]], float | np.ndarray]:
    """Objective closure for one fixed channel realization.

    A call scores the chosen scheme minus the spacing penalty, either of one
    `ArrayLayout`, returning a float, or of a sequence of layouts at one
    wavelength, such as a swarm round, returning their (P,) values in order.
    Each value has the bits of that layout's own call.

    The paths are independent of the antenna placement, so the closure keeps
    one :class:`ChannelModel` and each call computes only the candidates'
    phase signatures. The model is rebuilt whenever layouts arrive at a
    wavelength other than the one it was built for. A sequence is served in
    chunks: the stacked channels of at most `_CHUNK_BYTES` bytes, then one
    rate evaluation over that stack. The spacing is tested once per call:
    one :func:`min_pairwise_distances` pass over the call's (P, M, 3)
    positions finds the layouts with a pair closer than half a wavelength,
    and only those pay the exact per-layout :func:`spacing_penalty` sum; the
    others' penalty is zero, so every value keeps its bits.
    """
    model: ChannelModel | None = None

    def objective(layouts: ArrayLayout | Sequence[ArrayLayout]) -> float | np.ndarray:
        nonlocal model
        single = isinstance(layouts, ArrayLayout)
        if single:
            layouts = [layouts]
        wavelength = layouts[0].wavelength
        if any(layout.wavelength != wavelength for layout in layouts):
            raise ValueError("the layouts of one objective call must share a wavelength")
        if model is None or model.wavelength != wavelength:
            model = ChannelModel(paths, grid, wavelength)
        positions = np.array([layout.positions for layout in layouts])  # (P, M, 3)
        layout_bytes = 16 * grid.subcarrier_count * positions.shape[1] * len(paths)
        chunk = max(1, _CHUNK_BYTES // layout_bytes)
        values = np.empty(len(layouts))
        for start in range(0, len(layouts), chunk):
            h = model.channels(positions[start:start + chunk])
            report = evaluate_rate_scheme(scheme, h, config, summary_only=True)
            values[start:start + chunk] = report.sum_rate
        # The penalty is zero exactly when no pair is closer than
        # min_spacing, so only the call's violators need its sum.
        violators = min_pairwise_distances(positions) < min_spacing(wavelength)
        for i in np.flatnonzero(violators):
            values[i] -= spacing_penalty(layouts[i].positions, wavelength, penalty_weight)
        return float(values[0]) if single else values

    return objective
