"""Tune decision-tree growth limits with the integer particle swarm.

Prints the best-so-far curve as the swarm walks the (max_depth,
min_samples_split, min_samples_leaf) lattice, then compares the tuned tree
against the default configuration on held-out rows.

    python3 demos/tune_tree_with_swarm.py
"""

from flowgate.profiles import DatasetProfile
from flowgate.prep import PrepOptions, preprocess_pipeline
from flowgate.swarm import (
    DT_DEFAULT_POINT,
    EpsoConfig,
    dt_objective,
    dt_search_space,
    optimize,
)
from flowgate.synth import SynthSpec, corrupt, generate_flows

# deliberately noisy clusters so the default point is beatable
spec = SynthSpec(
    n_rows=4_000,
    class_names=("calm", "burst", "probe"),
    class_ratios=(0.7, 0.2, 0.1),
    n_features=5,
    cluster_separation=2.5,
    seed=3,
)
profile = DatasetProfile(name="demo", label_column="label",
                         class_names=spec.class_names)
raw, _ = corrupt(generate_flows(spec), dup_rate=0.0, nan_rate=0.0,
                 inf_rate=0.0, n_constant_cols=0, seed=4)
split, _ = preprocess_pipeline(raw, profile, PrepOptions(split_ratio=0.8, seed=5))

objective = dt_objective(split, holdout_fraction=0.25, seed=6)
space = dt_search_space()
config = EpsoConfig(n_particles=12, n_iterations=20)

best_point, best_fitness, trace = optimize(space, config, objective, seed=6,
                                           seed_point=DT_DEFAULT_POINT)
default_fitness = objective(DT_DEFAULT_POINT)

print(f"search space: {', '.join(space.names)}")
print(f"default point {DT_DEFAULT_POINT} scores {default_fitness:.6f}\n")

floor = min(t.fitness for t in trace)
span = max(best_fitness - floor, 1e-12)
for entry in trace:
    bar = "#" * int(1 + 40 * (entry.fitness - floor) / span)
    print(f"iter {entry.iteration:>3}  best {entry.fitness:.6f}  "
          f"at {entry.point}  {bar}")

print(f"\ntuned point {best_point} scores {best_fitness:.6f} "
      f"({best_fitness - default_fitness:+.6f} vs default)")
