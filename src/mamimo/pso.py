"""Particle swarm optimization of antenna positions inside movement regions.

Each particle is a full candidate placement of the M antennas in their square
regions. Box constraints are kept exact by clamping after every move; the
half-wavelength coupling constraint enters as an additive quadratic penalty on
the objective and the best penalty-free placement seen is the one returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# subcarrier_channels stays a module global although the objective no longer
# calls it: perfbench/tracing.py wraps `mamimo.pso.subcarrier_channels`.
from .channels import ChannelModel, OfdmGrid, UserPaths, subcarrier_channels  # noqa: F401
from .geometry import (
    ArrayLayout,
    MoveRegion,
    min_pairwise_distance,
    min_spacing,
    pairwise_distances,
)
from .rates import ImpairedLinkConfig, evaluate_rate_scheme

# Default weight of the quadratic spacing penalty, in objective units per
# squared meter of shortfall.
PENALTY_WEIGHT = 1e3


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters. The inertia/coefficient defaults are the
    standard constriction values; velocities are clamped per coordinate to a
    fraction of the region side."""

    particle_count: int = 150
    max_iterations: int = 100
    inertia: float = 0.7298
    cognitive: float = 1.4962
    social: float = 1.4962
    velocity_clamp: float = 0.5
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.particle_count < 1:
            raise ValueError(f"particle_count must be >= 1, got {self.particle_count!r}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations!r}")
        for name in ("inertia", "cognitive", "social", "velocity_clamp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


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
    """Clamp (..., M, 2) yz-coordinates into their closed boxes. Idempotent."""
    coords = np.asarray(coords, dtype=float)
    lo = np.array([[r.center_y - r.half, r.center_z - r.half] for r in regions])
    hi = np.array([[r.center_y + r.half, r.center_z + r.half] for r in regions])
    return np.clip(coords, lo, hi)


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
    objective: Callable[[ArrayLayout], float],
    regions: Sequence[MoveRegion],
    wavelength: float,
    config: PsoConfig,
    seed_layouts: Iterable[ArrayLayout] = (),
) -> OptimizationTrace:
    """Maximize `objective` over antenna placements, one antenna per region.

    The random stream is `numpy.random.default_rng(config.seed)`. The swarm
    runs rounds 0 to `config.max_iterations`: round 0 scores the initial
    swarm, and every later round first moves the particles, then scores
    them. A non-finite objective value raises `ValueError` naming its round.
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

    lo = np.array([[r.center_y - r.half, r.center_z - r.half] for r in regions])
    hi = np.array([[r.center_y + r.half, r.center_z + r.half] for r in regions])
    sides = np.array([[r.side, r.side] for r in regions])
    vmax = config.velocity_clamp * sides

    positions = lo + rng.uniform(size=(n, m, 2)) * (hi - lo)
    slot = 0
    for seed in seed_layouts:
        if slot >= n:
            break
        coords = seed.positions[:, 1:]
        if coords.shape != (m, 2):
            raise ValueError("seed layout does not match the region count")
        clamped = repair_to_regions(coords, regions)
        inside = not np.any(np.abs(clamped - coords) > 1e-9 * sides)  # up to rounding
        if inside and min_pairwise_distance(clamped) >= spacing:
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
                config.inertia * velocities
                + config.cognitive * r_cog * (pbest_pos - positions)
                + config.social * r_soc * (gbest_pos[None] - positions)
            )
            velocities = np.clip(velocities, -vmax, vmax)
            positions = repair_to_regions(positions + velocities, regions)
        values = np.array([float(objective(_coords_to_layout(p, wavelength, regions))) for p in positions])
        if not np.all(np.isfinite(values)):
            raise ValueError(f"objective returned a non-finite value in round {round_}")
        better = values > pbest_val
        pbest_pos[better] = positions[better]
        pbest_val[better] = values[better]
        g = int(np.argmax(pbest_val))
        if pbest_val[g] > gbest_val:
            gbest_val = float(pbest_val[g])
            gbest_pos = pbest_pos[g].copy()
        for p, v in zip(positions, values):
            # (M, 2) yz-coordinates: the common x = 0 adds nothing to a distance
            if v > feasible_val and min_pairwise_distance(p) >= spacing:
                feasible_pos, feasible_val = p.copy(), v
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
) -> Callable[[ArrayLayout], float]:
    """Objective closure for one fixed channel realization.

    The paths are independent of the antenna placement, so the closure keeps
    one :class:`ChannelModel` and each call computes only the candidate's
    phase signatures. The model is rebuilt whenever a layout arrives at a
    wavelength other than the one it was built for. A call scores the chosen
    scheme minus the spacing penalty.
    """
    model: ChannelModel | None = None

    def objective(layout: ArrayLayout) -> float:
        nonlocal model
        if model is None or model.wavelength != layout.wavelength:
            model = ChannelModel(paths, grid, layout.wavelength)
        h = model.channels(layout.positions)
        report = evaluate_rate_scheme(scheme, h, config, summary_only=True)
        return report.sum_rate - spacing_penalty(
            layout.positions, layout.wavelength, penalty_weight
        )

    return objective
