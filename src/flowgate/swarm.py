"""Particle swarm search over integer hyperparameter boxes.

The swarm moves in the continuous box; the objective is evaluated at the
nearest integer lattice point of each position. Four additions to the plain
canonical swarm are individually toggleable so the baseline is recoverable:
memoized lattice evaluation, linear inertia decay, velocity clamping, and
seeding one particle at a known-good point. Maximization throughout; an
objective that raises scores that point as -inf.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, FlowgateError
from .metrics import confusion_matrix, accuracy
from .models.tree import TreeHyperparams, TreeNode, _route_and_assign, fit_tree
from .parallel import parallel_map
from .prep import SplitPair, stratified_split

Objective = Callable[[tuple[int, ...]], float]


@dataclass(frozen=True)
class SearchSpace:
    """Ordered integer dimensions, each a closed [lower, upper] range."""

    names: tuple[str, ...]
    lowers: tuple[int, ...]
    uppers: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise DataError("search space needs at least one dimension")
        if len(set(self.names)) != len(self.names):
            raise DataError("dimension names must be unique")
        if not len(self.names) == len(self.lowers) == len(self.uppers):
            raise DataError("search space fields must have equal length")
        for name, lo, hi in zip(self.names, self.lowers, self.uppers):
            if lo > hi:
                raise DataError(f"dimension {name!r} has lower {lo} > upper {hi}")

    @property
    def n_dims(self) -> int:
        return len(self.names)

    def contains(self, point: Sequence[int]) -> bool:
        return len(point) == self.n_dims and all(
            lo <= p <= hi for p, lo, hi in zip(point, self.lowers, self.uppers)
        )


def dt_search_space() -> SearchSpace:
    """The tree-hyperparameter box searched when tuning a decision tree."""
    return SearchSpace(
        names=("max_depth", "min_samples_split", "min_samples_leaf"),
        lowers=(1, 2, 1),
        uppers=(64, 50, 50),
    )


DT_DEFAULT_POINT = (64, 2, 1)  # unbounded depth maps to the box upper bound


@dataclass(frozen=True)
class EpsoConfig:
    """Swarm size, schedule, coefficients, and enhancement toggles."""

    n_particles: int = 20
    n_iterations: int = 30
    w_start: float = 0.9
    w_end: float = 0.4
    c1: float = 2.0
    c2: float = 2.0
    v_max_fraction: float = 0.2
    seed: int = 0
    memoize: bool = True
    inertia_decay: bool = True
    velocity_clamp: bool = True
    seed_point: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise DataError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.n_iterations < 0:
            raise DataError(f"n_iterations must be >= 0, got {self.n_iterations}")
        if self.v_max_fraction <= 0.0:
            raise DataError(f"v_max_fraction must be > 0, got {self.v_max_fraction}")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    fitness: float
    point: tuple[int, ...]


@dataclass
class SwarmState:
    space: SearchSpace
    config: EpsoConfig
    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_points: list[tuple[int, ...]]
    pbest_fitness: np.ndarray
    gbest_position: np.ndarray
    gbest_point: tuple[int, ...]
    gbest_fitness: float
    iteration: int
    rng: np.random.Generator
    cache: dict[tuple[int, ...], float] = field(default_factory=dict)
    trace: list[TraceEntry] = field(default_factory=list)
    failures: list[tuple[int, ...]] = field(default_factory=list)
    evaluations: int = 0


def _round_point(space: SearchSpace, position: np.ndarray) -> tuple[int, ...]:
    lattice = np.rint(position).astype(np.int64)
    lattice = np.clip(lattice, space.lowers, space.uppers)
    return tuple(int(v) for v in lattice)


def _evaluate_points(
    state: SwarmState, objective: Objective, points: list[tuple[int, ...]]
) -> None:
    """Fill the cache for the given lattice points (deduplicated, ordered)."""
    if state.config.memoize:
        todo = sorted({p for p in points if p not in state.cache})
    else:
        todo = sorted(set(points))

    def run(point: tuple[int, ...]) -> float:
        try:
            return float(objective(point))
        except FlowgateError:
            return -np.inf

    results = parallel_map(run, todo)
    for point, fitness in zip(todo, results):
        state.cache[point] = fitness
        state.evaluations += 1
        if fitness == -np.inf:
            state.failures.append(point)


def init_swarm(space: SearchSpace, config: EpsoConfig, objective: Objective) -> SwarmState:
    """Seeded uniform initialization; evaluates every particle once so pbest
    and gbest are defined before the first step."""
    if config.seed_point is not None and not space.contains(config.seed_point):
        raise DataError(f"seed point {config.seed_point} lies outside the search space")
    rng = np.random.default_rng(config.seed)
    lowers = np.asarray(space.lowers, dtype=np.float64)
    uppers = np.asarray(space.uppers, dtype=np.float64)
    span = uppers - lowers
    v_max = config.v_max_fraction * span

    positions = lowers + rng.random((config.n_particles, space.n_dims)) * span
    velocities = rng.uniform(-1.0, 1.0, (config.n_particles, space.n_dims)) * v_max
    if config.seed_point is not None:
        positions[0] = np.asarray(config.seed_point, dtype=np.float64)

    state = SwarmState(
        space=space,
        config=config,
        positions=positions,
        velocities=velocities,
        pbest_positions=positions.copy(),
        pbest_points=[_round_point(space, p) for p in positions],
        pbest_fitness=np.full(config.n_particles, -np.inf),
        gbest_position=positions[0].copy(),
        gbest_point=_round_point(space, positions[0]),
        gbest_fitness=-np.inf,
        iteration=0,
        rng=rng,
    )
    _evaluate_points(state, objective, state.pbest_points)
    for i, point in enumerate(state.pbest_points):
        state.pbest_fitness[i] = state.cache[point]
    _refresh_gbest(state)
    return state


def _refresh_gbest(state: SwarmState) -> None:
    best = int(np.argmax(state.pbest_fitness))
    if state.pbest_fitness[best] > state.gbest_fitness:
        state.gbest_fitness = float(state.pbest_fitness[best])
        state.gbest_position = state.pbest_positions[best].copy()
        state.gbest_point = state.pbest_points[best]


def _inertia(config: EpsoConfig, iteration: int) -> float:
    if not config.inertia_decay or config.n_iterations <= 1:
        return config.w_start
    frac = iteration / (config.n_iterations - 1)
    return config.w_start + (config.w_end - config.w_start) * min(frac, 1.0)


def step(state: SwarmState, objective: Objective) -> SwarmState:
    """One synchronous swarm update; appends a trace entry and returns state."""
    config = state.config
    space = state.space
    lowers = np.asarray(space.lowers, dtype=np.float64)
    uppers = np.asarray(space.uppers, dtype=np.float64)
    v_max = config.v_max_fraction * (uppers - lowers)
    w = _inertia(config, state.iteration)

    shape = state.positions.shape
    r1 = state.rng.random(shape)
    r2 = state.rng.random(shape)
    gbest_target = state.gbest_position
    velocity = (
        w * state.velocities
        + config.c1 * r1 * (state.pbest_positions - state.positions)
        + config.c2 * r2 * (gbest_target - state.positions)
    )
    if config.velocity_clamp:
        velocity = np.clip(velocity, -v_max, v_max)
    position = np.clip(state.positions + velocity, lowers, uppers)
    state.velocities = velocity
    state.positions = position

    points = [_round_point(space, p) for p in position]
    _evaluate_points(state, objective, points)
    for i, point in enumerate(points):
        fitness = state.cache[point]
        if fitness > state.pbest_fitness[i]:
            state.pbest_fitness[i] = fitness
            state.pbest_positions[i] = position[i].copy()
            state.pbest_points[i] = point
    _refresh_gbest(state)
    state.iteration += 1
    state.trace.append(
        TraceEntry(state.iteration, state.gbest_fitness, state.gbest_point)
    )
    return state


def optimize(
    space: SearchSpace, config: EpsoConfig, objective: Objective
) -> tuple[tuple[int, ...], float, list[TraceEntry]]:
    """Full run: init + n_iterations synchronous steps.

    Returns (best point, best fitness, one trace entry per iteration).
    """
    state = init_swarm(space, config, objective)
    for _ in range(config.n_iterations):
        step(state, objective)
    return state.gbest_point, state.gbest_fitness, list(state.trace)


# -- decision-tree tuning objective -------------------------------------------


def dt_objective(
    split: SplitPair, holdout_fraction: float = 0.25, seed: int = 0
) -> Objective:
    """Holdout-accuracy objective over (max_depth, min_samples_split,
    min_samples_leaf) integer points.

    A stratified holdout is carved out of the training side once; the test
    side is never touched. Points encoding invalid hyperparameters raise and
    are scored as -inf by the swarm machinery.

    The objective grows one tree per distinct min_samples_leaf, with no depth
    limit and the smallest split gate, and scores every (max_depth,
    min_samples_split) by routing the holdout through that tree cut at those
    limits. The score is exactly that of a tree fitted with the point's
    hyperparameters, at the cost of one fit per leaf size.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    inner = stratified_split(split.train, 1.0 - holdout_fraction, seed)
    for side, table in (("tuning-train", inner.train), ("holdout", inner.test)):
        for name, count in zip(table.encoding.class_names, table.encoding.counts):
            if count == 0:
                raise DataError(f"class {name!r} vanished from the {side} side")
    fit_table = inner.train
    holdout_X = inner.test.feature_matrix()
    holdout_labels = inner.test.labels
    n_classes = inner.test.n_classes

    grown: dict[int, TreeNode] = {}
    leaf_locks: dict[int, threading.Lock] = {}
    locks_guard = threading.Lock()

    def grown_tree(min_leaf: int) -> TreeNode:
        # one lock per leaf size: concurrent workers never grow a tree twice,
        # while trees for different leaf sizes still grow in parallel
        with locks_guard:
            lock = leaf_locks.setdefault(min_leaf, threading.Lock())
        with lock:
            if min_leaf not in grown:
                params = TreeHyperparams(
                    min_samples_split=max(2, min_leaf), min_samples_leaf=min_leaf
                )
                grown[min_leaf] = fit_tree(fit_table, params).root
            return grown[min_leaf]

    def objective(point: tuple[int, ...]) -> float:
        depth, min_split, min_leaf = (int(v) for v in point)
        TreeHyperparams(  # raises on an invalid point
            max_depth=depth,
            min_samples_split=min_split,
            min_samples_leaf=min_leaf,
        )
        predicted = np.empty(holdout_X.shape[0], dtype=np.int64)
        _route_and_assign(grown_tree(min_leaf), holdout_X, predicted, depth, min_split)
        return accuracy(confusion_matrix(holdout_labels, predicted, n_classes))

    return objective
