"""Flow-record intrusion detection experiments: data preparation, tree-family
classifiers built from scratch, exact multiclass metrics, and swarm-based
hyperparameter tuning, all seeded and reproducible. The package root holds
only its version; code imports each name from the module that defines it."""

__version__ = "0.1.0"
