"""Particle swarm search over integer hyperparameter boxes.

The swarm moves in the continuous box; the objective is evaluated at the
nearest integer lattice point of each position. Four additions to the plain
canonical swarm are individually toggleable so the baseline is recoverable:
memoized lattice evaluation, linear inertia decay, velocity clamping, and
seeding one particle at a known-good point. Maximization throughout; an
objective that raises scores that point as -inf. An objective with a
``prepare`` method gets each round's points to evaluate once, before the
swarm calls it on them one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .dataset import ColumnarTable
from .errors import DataError, FlowgateError
from .models.tree import CutAccuracy, SplitCache, TreeHyperparams, fit_tree
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
    """Swarm size, schedule, coefficients, and enhancement toggles; the
    fields are the swarm keys of a config's tuning block."""

    n_particles: int = 20
    n_iterations: int = 30
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    cognitive: float = 2.0
    social: float = 2.0
    velocity_fraction: float = 0.2
    memoize: bool = True
    inertia_decay: bool = True
    velocity_clamp: bool = True

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise DataError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.n_iterations < 0:
            raise DataError(f"n_iterations must be >= 0, got {self.n_iterations}")
        for name in ("inertia_start", "inertia_end", "cognitive", "social", "velocity_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.velocity_fraction <= 0.0:
            raise DataError(
                f"velocity_fraction must be > 0, got {self.velocity_fraction}"
            )


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    fitness: float
    point: tuple[int, ...]


@dataclass
class SwarmCounters:
    """What one tuning run did: objective evaluations the swarm made, its
    lattice lookups answered from the memo cache, the points it scored
    -inf, and the trees the decision-tree objective grew."""

    evaluations: int = 0
    cache_hits: int = 0
    failed_points: int = 0
    trees_grown: int = 0


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
    counters: SwarmCounters
    cache: dict[tuple[int, ...], float] = field(default_factory=dict)
    trace: list[TraceEntry] = field(default_factory=list)


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

    counters = state.counters
    counters.cache_hits += len(points) - len(todo)
    counters.evaluations += len(todo)
    prepare = getattr(objective, "prepare", None)
    if prepare is not None:
        prepare(todo)
    for point in todo:
        try:
            fitness = float(objective(point))
        except FlowgateError:
            fitness = -np.inf
        state.cache[point] = fitness
        if fitness == -np.inf:
            counters.failed_points += 1


def init_swarm(
    space: SearchSpace,
    config: EpsoConfig,
    objective: Objective,
    counters: SwarmCounters | None = None,
    *,
    seed: int = 0,
    seed_point: tuple[int, ...] | None = None,
) -> SwarmState:
    """Uniform initialization drawn from ``seed``, with particle zero placed
    at ``seed_point`` when given; evaluates every particle once so pbest and
    gbest are defined before the first step. The state counts into
    ``counters`` when given."""
    if seed_point is not None and not space.contains(seed_point):
        raise DataError(f"seed point {seed_point} lies outside the search space")
    rng = np.random.default_rng(seed)
    lowers = np.asarray(space.lowers, dtype=np.float64)
    uppers = np.asarray(space.uppers, dtype=np.float64)
    span = uppers - lowers
    v_max = config.velocity_fraction * span

    positions = lowers + rng.random((config.n_particles, space.n_dims)) * span
    velocities = rng.uniform(-1.0, 1.0, (config.n_particles, space.n_dims)) * v_max
    if seed_point is not None:
        positions[0] = np.asarray(seed_point, dtype=np.float64)

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
        counters=counters if counters is not None else SwarmCounters(),
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
        return config.inertia_start
    frac = iteration / (config.n_iterations - 1)
    return config.inertia_start + (config.inertia_end - config.inertia_start) * min(frac, 1.0)


def step(state: SwarmState, objective: Objective) -> SwarmState:
    """One synchronous swarm update; appends a trace entry and returns state."""
    config = state.config
    space = state.space
    lowers = np.asarray(space.lowers, dtype=np.float64)
    uppers = np.asarray(space.uppers, dtype=np.float64)
    v_max = config.velocity_fraction * (uppers - lowers)
    w = _inertia(config, state.iteration)

    shape = state.positions.shape
    r1 = state.rng.random(shape)
    r2 = state.rng.random(shape)
    gbest_target = state.gbest_position
    velocity = (
        w * state.velocities
        + config.cognitive * r1 * (state.pbest_positions - state.positions)
        + config.social * r2 * (gbest_target - state.positions)
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
    space: SearchSpace,
    config: EpsoConfig,
    objective: Objective,
    counters: SwarmCounters | None = None,
    *,
    seed: int = 0,
    seed_point: tuple[int, ...] | None = None,
) -> tuple[tuple[int, ...], float, list[TraceEntry]]:
    """Full run: init (see ``init_swarm``) + n_iterations synchronous steps.

    Returns (best point, best fitness, one trace entry per iteration), and
    adds the run's evaluations, cache hits and failed points to ``counters``
    when given.
    """
    state = init_swarm(space, config, objective, counters, seed=seed, seed_point=seed_point)
    for _ in range(config.n_iterations):
        step(state, objective)
    return state.gbest_point, state.gbest_fitness, list(state.trace)


# -- decision-tree tuning objective -------------------------------------------


def dt_objective(
    split: SplitPair,
    holdout_fraction: float = 0.25,
    seed: int = 0,
    counters: SwarmCounters | None = None,
) -> DtObjective:
    """Holdout-accuracy objective over (max_depth, min_samples_split,
    min_samples_leaf) integer points.

    A stratified holdout is carved out of the training side once; the test
    side is never touched. Points encoding invalid hyperparameters raise and
    are scored as -inf by the swarm machinery. See ``DtObjective``.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    inner = stratified_split(split.train, 1.0 - holdout_fraction, seed)
    for side, table in (("tuning-train", inner.train), ("holdout", inner.test)):
        for name, count in zip(table.encoding.class_names, table.encoding.counts):
            if count == 0:
                raise DataError(f"class {name!r} vanished from the {side} side")
    return DtObjective(inner.train, inner.test, counters)


def _hyperparams(point: tuple[int, ...]) -> TreeHyperparams:
    """The tree settings of a (max_depth, min_samples_split,
    min_samples_leaf) point; raises on an invalid point."""
    depth, min_split, min_leaf = (int(v) for v in point)
    return TreeHyperparams(
        max_depth=depth, min_samples_split=min_split, min_samples_leaf=min_leaf
    )


class DtObjective:
    """The objective ``dt_objective`` returns.

    It grows one tree per distinct min_samples_leaf, with no depth limit and
    the smallest split gate, and routes the holdout through it once. Every
    (max_depth, min_samples_split) of that leaf size is then scored from
    per-node holdout tallies (``models.tree.CutAccuracy``), and the score is
    exactly that of a tree fitted with the point's hyperparameters. The
    trees share one ``SplitCache`` made with ``presort``: it sorts the
    tuning rows once, each fit copies that presort into the buffer it
    partitions, so no fit's partitions outlive it, and a node searched under
    one leaf size answers every leaf size its split holds for (see
    ``models.tree``).

    ``prepare`` grows the trees of a swarm round's new leaf sizes through
    ``parallel_map``, in ascending order, which balances the workers'
    shares: a smaller leaf size grows a bigger tree. Each task hands back
    only its ``CutAccuracy``: the searches a forked worker makes end with
    it, so a later round may search those nodes again (handing them back
    saved no time and took 1.5 MB more RSS on the overlap config at 2
    workers; ``SplitCache`` has the numbers). A tree never depends on what
    the cache holds, so the scores are the same for any FLOWGATE_THREADS. A leaf size whose fit raises a FlowgateError
    stays unscored: calling the objective on its points grows it again, in
    the caller, where it raises for each point. Each tree grown counts in
    ``counters.trees_grown`` when ``counters`` is given.
    """

    def __init__(
        self, fit_table: ColumnarTable, holdout: ColumnarTable, counters: SwarmCounters | None
    ) -> None:
        self.fit_table = fit_table
        self.holdout_X, self.holdout_labels = holdout.feature_matrix(), holdout.labels
        self.counters = counters
        self.splits = SplitCache(fit_table, presort=True)
        self.scored: dict[int, CutAccuracy] = {}

    def __call__(self, point: tuple[int, ...]) -> float:
        params = _hyperparams(point)
        leaf = params.min_samples_leaf
        if leaf not in self.scored:
            self._keep(leaf, self._grow(leaf))
        return self.scored[leaf].accuracy(params.max_depth, params.min_samples_split)

    def prepare(self, points: Iterable[tuple[int, ...]]) -> None:
        """Grow, over the fork workers, the trees of the valid ``points``'
        leaf sizes that are not scored yet."""
        leaves: set[int] = set()
        for point in points:
            try:
                leaves.add(_hyperparams(point).min_samples_leaf)
            except DataError:
                pass  # the point raises again when it is scored
        new = sorted(leaves - self.scored.keys())
        for leaf, scores in zip(new, parallel_map(self._try_grow, new)):
            if scores is not None:
                self._keep(leaf, scores)

    def _grow(self, leaf: int) -> CutAccuracy:
        params = TreeHyperparams(min_samples_split=max(2, leaf), min_samples_leaf=leaf)
        tree = fit_tree(self.fit_table, params, splits=self.splits).root
        return CutAccuracy(tree, self.holdout_X, self.holdout_labels)

    def _try_grow(self, leaf: int) -> CutAccuracy | None:
        """A ``prepare`` task: the leaf size's scores, or None when the fit
        raises a FlowgateError."""
        try:
            return self._grow(leaf)
        except FlowgateError:  # the point path grows it again and scores -inf
            return None

    def _keep(self, leaf: int, scores: CutAccuracy) -> None:
        self.scored[leaf] = scores
        if self.counters is not None:
            self.counters.trees_grown += 1
