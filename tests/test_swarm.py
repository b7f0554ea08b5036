"""Integer-lattice particle swarm: convergence, caching, failure handling."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import flowgate.swarm
from flowgate.errors import DataError
from flowgate.metrics import accuracy, confusion_matrix
from flowgate.models.tree import TreeHyperparams, fit_tree, predict_tree
from flowgate.prep import PrepOptions, preprocess_pipeline, stratified_split
from flowgate.swarm import (
    DT_DEFAULT_POINT,
    EpsoConfig,
    SearchSpace,
    dt_objective,
    dt_search_space,
    init_swarm,
    optimize,
    step,
)
from flowgate.synth import SynthSpec, corrupt, generate_flows
from flowgate.profiles import DatasetProfile


def _box(lo, hi, dims=2):
    return SearchSpace(
        names=tuple(f"x{i}" for i in range(dims)),
        lowers=(lo,) * dims,
        uppers=(hi,) * dims,
    )


def neg_sphere(point):
    return -sum(v * v for v in point)


def test_degenerate_box_has_one_point():
    space = _box(3, 3)
    best, fitness, trace = optimize(space, EpsoConfig(n_particles=4, n_iterations=5, seed=0), neg_sphere)
    assert best == (3, 3)
    assert fitness == -18.0
    assert len(trace) == 5


def test_seed_point_occupies_particle_zero():
    space = _box(-10, 10)
    config = EpsoConfig(n_particles=5, n_iterations=0, seed=1, seed_point=(2, -7))
    state = init_swarm(space, config, neg_sphere)
    assert state.positions[0].tolist() == [2.0, -7.0]
    assert (2, -7) in state.cache


def test_seed_point_outside_box_rejected():
    with pytest.raises(DataError):
        init_swarm(
            _box(0, 5),
            EpsoConfig(n_particles=2, n_iterations=0, seed_point=(9, 0)),
            neg_sphere,
        )


def test_same_seed_same_history():
    space = _box(-20, 20, dims=3)
    config = EpsoConfig(n_particles=8, n_iterations=15, seed=123)
    a = optimize(space, config, neg_sphere)
    b = optimize(space, config, neg_sphere)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert [(t.iteration, t.fitness, t.point) for t in a[2]] == [
        (t.iteration, t.fitness, t.point) for t in b[2]
    ]


def test_positions_stay_inside_the_box():
    space = _box(-5, 5)
    config = EpsoConfig(n_particles=6, n_iterations=10, seed=7)
    state = init_swarm(space, config, neg_sphere)
    for _ in range(config.n_iterations):
        step(state, neg_sphere)
        assert np.all(state.positions >= -5.0)
        assert np.all(state.positions <= 5.0)
        for point in state.pbest_points:
            assert space.contains(point)


def test_trace_is_monotone_non_decreasing():
    space = _box(-50, 50, dims=3)
    _, _, trace = optimize(space, EpsoConfig(n_particles=10, n_iterations=25, seed=3), neg_sphere)
    fits = [t.fitness for t in trace]
    assert fits == sorted(fits)


def test_constant_objective_keeps_first_best():
    space = _box(0, 9)
    best, fitness, trace = optimize(
        space, EpsoConfig(n_particles=5, n_iterations=8, seed=11), lambda p: 1.0
    )
    assert fitness == 1.0
    assert all(t.fitness == 1.0 for t in trace)
    assert space.contains(best)


def test_memoization_skips_repeat_evaluations():
    calls = []

    def counting(point):
        calls.append(point)
        return neg_sphere(point)

    space = _box(0, 2)  # 9 lattice points at most
    config = EpsoConfig(n_particles=10, n_iterations=20, seed=5, memoize=True)
    optimize(space, config, counting)
    assert len(calls) == len(set(calls))
    assert len(calls) <= 9


def test_memoization_off_reevaluates():
    calls = []

    def counting(point):
        calls.append(point)
        return neg_sphere(point)

    space = _box(0, 2)
    config = EpsoConfig(n_particles=10, n_iterations=20, seed=5, memoize=False)
    optimize(space, config, counting)
    assert len(calls) > len(set(calls))


def test_memoization_does_not_change_the_answer():
    space = _box(-8, 8, dims=3)
    on = optimize(space, EpsoConfig(n_particles=8, n_iterations=12, seed=9, memoize=True), neg_sphere)
    off = optimize(space, EpsoConfig(n_particles=8, n_iterations=12, seed=9, memoize=False), neg_sphere)
    assert on[0] == off[0]
    assert on[1] == off[1]


def test_objective_failures_become_minus_inf():
    def brittle(point):
        if point[0] == 0:
            raise DataError("cannot evaluate here")
        return -float(point[0] ** 2)

    space = _box(-3, 3, dims=1)
    best, fitness, _ = optimize(
        space, EpsoConfig(n_particles=12, n_iterations=10, seed=2), brittle
    )
    assert best[0] != 0
    assert fitness == -1.0


def test_failure_points_are_recorded():
    def brittle(point):
        raise DataError("always fails")

    space = _box(0, 1, dims=1)
    state = init_swarm(space, EpsoConfig(n_particles=4, n_iterations=0, seed=0), brittle)
    assert state.gbest_fitness == -np.inf
    assert len(state.failures) >= 1


def test_small_box_finds_the_optimum():
    # brute-force optimum of the negated sphere on [-4, 4]^2 is the origin
    space = _box(-4, 4)
    hits = 0
    for seed in range(10):
        best, _, _ = optimize(
            space, EpsoConfig(n_particles=12, n_iterations=30, seed=seed), neg_sphere
        )
        hits += best == (0, 0)
    assert hits >= 9


def test_inertia_decay_toggle_changes_the_path():
    space = _box(-30, 30, dims=3)
    base = dict(n_particles=6, n_iterations=12, seed=4)
    with_decay = optimize(space, EpsoConfig(**base, inertia_decay=True), neg_sphere)
    without = optimize(space, EpsoConfig(**base, inertia_decay=False), neg_sphere)
    # same target either way on this easy bowl, but the trajectories differ
    same_traces = [t.point for t in with_decay[2]] == [t.point for t in without[2]]
    assert with_decay[1] <= 0.0 and without[1] <= 0.0
    assert not same_traces or with_decay[1] == without[1]


def test_dt_search_space_box():
    space = dt_search_space()
    assert space.names == ("max_depth", "min_samples_split", "min_samples_leaf")
    assert space.lowers == (1, 2, 1)
    assert space.uppers == (64, 50, 50)
    assert space.contains(DT_DEFAULT_POINT)


def test_config_validation():
    with pytest.raises(DataError):
        EpsoConfig(n_particles=0)
    with pytest.raises(DataError):
        EpsoConfig(n_iterations=-1)
    with pytest.raises(DataError):
        EpsoConfig(v_max_fraction=0.0)
    with pytest.raises(DataError):
        SearchSpace(names=("a",), lowers=(5,), uppers=(4,))
    with pytest.raises(DataError):
        SearchSpace(names=("a", "a"), lowers=(0, 0), uppers=(1, 1))


# -- the tree-tuning objective -----------------------------------------------------


def _toy_split(seed=0, n=400, separation=6.0):
    spec = SynthSpec(
        n_rows=n,
        class_names=("calm", "burst", "probe"),
        class_ratios=(0.6, 0.25, 0.15),
        n_features=4,
        cluster_separation=separation,
        seed=seed,
    )
    raw, _ = corrupt(generate_flows(spec), 0.0, 0.0, 0.0, 0, seed=seed)
    profile = DatasetProfile(
        name="toy", label_column="label", class_names=spec.class_names
    )
    split, _ = preprocess_pipeline(raw, profile, PrepOptions(split_ratio=0.8, seed=seed))
    return split


def test_dt_objective_is_deterministic():
    split = _toy_split()
    objective = dt_objective(split, holdout_fraction=0.25, seed=1)
    again = dt_objective(split, holdout_fraction=0.25, seed=1)
    for point in [(3, 2, 1), (8, 10, 4), DT_DEFAULT_POINT]:
        assert objective(point) == again(point)


def test_dt_objective_scores_are_accuracies():
    split = _toy_split()
    objective = dt_objective(split, seed=2)
    value = objective((5, 2, 1))
    assert 0.0 <= value <= 1.0
    # a depth-1 stump cannot separate three well-spread classes
    assert objective((1, 2, 1)) <= value + 1e-12


def test_dt_objective_invalid_point_raises():
    split = _toy_split()
    objective = dt_objective(split, seed=0)
    with pytest.raises(DataError):
        objective((5, 2, 10))  # leaf floor above the split gate


def test_dt_objective_rejects_boundary_fractions():
    split = _toy_split()
    with pytest.raises(DataError):
        dt_objective(split, holdout_fraction=0.0)
    with pytest.raises(DataError):
        dt_objective(split, holdout_fraction=1.0)


def test_dt_objective_errors_when_a_class_cannot_reach_the_holdout():
    # one-row classes land entirely in the tuning train side
    split = _toy_split(n=400)
    spec = SynthSpec(
        n_rows=40,
        class_names=("a", "b"),
        class_ratios=(0.97, 0.03),
        n_features=3,
        seed=5,
    )
    raw, _ = corrupt(generate_flows(spec), 0.0, 0.0, 0.0, 0, seed=5)
    profile = DatasetProfile(name="tiny", label_column="label", class_names=("a", "b"))
    tiny_split, _ = preprocess_pipeline(raw, profile, PrepOptions(split_ratio=0.8, seed=5))
    assert tiny_split.train.encoding.counts[1] == 1
    with pytest.raises(DataError, match="vanished"):
        dt_objective(tiny_split, holdout_fraction=0.25, seed=0)


def test_tuning_beats_or_matches_the_default_point():
    split = _toy_split(seed=3)
    objective = dt_objective(split, holdout_fraction=0.25, seed=3)
    config = EpsoConfig(
        n_particles=8, n_iterations=10, seed=3, seed_point=DT_DEFAULT_POINT
    )
    _, fitness, _ = optimize(dt_search_space(), config, objective)
    assert fitness >= objective(DT_DEFAULT_POINT)


def test_dt_objective_matches_a_fresh_fit_on_every_lattice_point():
    # oracle: fit the tree with the point's own hyperparameters and score it;
    # overlapping classes grow deep trees with many small nodes to cut
    split = _toy_split(seed=4, n=250, separation=1.5)
    objective = dt_objective(split, holdout_fraction=0.25, seed=4)
    inner = stratified_split(split.train, 0.75, 4)
    holdout = inner.test
    for leaf in (1, 2, 5):
        unbounded = TreeHyperparams(min_samples_split=max(2, leaf), min_samples_leaf=leaf)
        grown = fit_tree(inner.train, unbounded)
        depths = list(range(1, grown.root.depth() + 2)) + [64]
        for depth in depths:
            for min_split in range(2, 51):
                point = (depth, min_split, leaf)
                if min_split < leaf:
                    with pytest.raises(DataError):
                        objective(point)
                    continue
                params = TreeHyperparams(
                    max_depth=depth, min_samples_split=min_split, min_samples_leaf=leaf
                )
                predicted = predict_tree(fit_tree(inner.train, params), holdout)
                expected = accuracy(
                    confusion_matrix(holdout.labels, predicted, holdout.n_classes)
                )
                assert objective(point) == expected, point


def _count_fits(monkeypatch):
    fits = []

    def counting_fit(*args, **kwargs):
        model = fit_tree(*args, **kwargs)
        fits.append(model.params.min_samples_leaf)
        return model

    monkeypatch.setattr(flowgate.swarm, "fit_tree", counting_fit)
    return fits


def _tracking(objective):
    leaf_sizes = []

    def tracked(point):
        value = objective(point)  # an invalid point raises before any fit
        leaf_sizes.append(point[2])
        return value

    return tracked, leaf_sizes


def test_dt_objective_grows_one_tree_per_leaf_size(monkeypatch):
    split = _toy_split(seed=5)
    config = EpsoConfig(n_particles=10, n_iterations=8, seed=5, seed_point=DT_DEFAULT_POINT)
    fits = _count_fits(monkeypatch)
    runs = {}
    for threads in ("4", "1"):
        monkeypatch.setenv("FLOWGATE_THREADS", threads)
        fits.clear()
        objective, leaf_sizes = _tracking(dt_objective(split, seed=5))
        runs[threads] = optimize(dt_search_space(), config, objective)
        assert sorted(fits) == sorted(set(leaf_sizes))
    # best point, best fitness and trace
    assert runs["4"] == runs["1"]


def test_dt_objective_grows_each_tree_once_under_contention(monkeypatch):
    split = _toy_split(seed=6)
    points = [(d, s, l) for l in (1, 3, 8) for s in (8, 20) for d in (2, 5, 64)]
    expected = [dt_objective(split, seed=6)(p) for p in points]
    fits = _count_fits(monkeypatch)
    objective = dt_objective(split, seed=6)
    start = threading.Barrier(8)

    def worker(shift):
        start.wait(timeout=30)
        order = points[shift:] + points[:shift]
        return dict(zip(order, (objective(p) for p in order)))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(worker, shift) for shift in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old_interval)
    assert sorted(fits) == [1, 3, 8]
    for scores in results:
        assert [scores[p] for p in points] == expected
