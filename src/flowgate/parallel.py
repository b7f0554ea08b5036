"""The map that per-tree forest fits and swarm objective evaluations go
through.

All work runs on the calling thread, so no state needs a lock. Every mapped
task is a pure function of its inputs, and ``parallel_map`` is a plain
order-preserving map. FLOWGATE_THREADS is still checked, so a malformed value
fails fast, but it no longer changes what runs.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

ENV_THREADS = "FLOWGATE_THREADS"


def worker_count() -> int:
    """1, once FLOWGATE_THREADS, when set, is checked to be a positive
    integer."""
    raw = os.environ.get(ENV_THREADS)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise ConfigError(f"{ENV_THREADS} must be >= 1, got {cap}")
    return 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Order-preserving map on the calling thread."""
    worker_count()  # a malformed FLOWGATE_THREADS fails here, as in the CLI
    return [fn(item) for item in items]
