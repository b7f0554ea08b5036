"""The order-preserving map that a forest's trees and a boosting round's
class trees go through, over forked worker processes.

``parallel_map(fn, items)`` returns ``[fn(item) for item in items]``. With
W = min(worker_count(), number of items) workers, the calling process forks
W - 1 children and runs its own share; item i runs on worker i mod W, the
caller being worker 0. Each child sends its results back pickled through its
own pipe and ends with ``os._exit``, so it runs no atexit handler and no
``finally`` of the caller. No flowgate module starts a thread, so no lock of
ours can be held across a fork by a thread the child lacks; numpy's BLAS
thread pool shuts itself down across a fork.

A mapped task must be pure and return its result by value: whatever it
changes in memory stays in the child. A task's exception comes back pickled,
and the map raises the one of the lowest-index failing item, as the plain
loop would. A map called inside a mapped task runs as the plain loop.
FLOWGATE_THREADS caps the workers; the outputs are the same for any cap.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Callable, Iterable, TypeVar

from .errors import ConfigError, FlowgateError

T = TypeVar("T")
R = TypeVar("R")

ENV_THREADS = "FLOWGATE_THREADS"

_mapping = False  # set while a map runs, in the caller and in its children


def worker_count() -> int:
    """The usable CPUs, capped by FLOWGATE_THREADS when it is set; a cap
    that is not a positive integer is a configuration error."""
    usable = len(os.sched_getaffinity(0))
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return usable
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ConfigError(f"{ENV_THREADS} must be >= 1, got {cap}")
    return min(usable, cap)


def _run_share(fn: Callable[[T], R], share: list[T]) -> list[tuple[bool, object]]:
    """(True, result) per item in order, ending at the first (False, exception)."""
    outcomes: list[tuple[bool, object]] = []
    for item in share:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Order-preserving map over up to worker_count() processes."""
    global _mapping
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or _mapping:
        return [fn(item) for item in items]

    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []
    pipes = []  # the read end of each child's pipe
    _mapping = True
    try:
        for worker in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with os.fdopen(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps(_run_share(fn, items[worker::workers])))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            pids.append(pid)
        own = _run_share(fn, items[0::workers])
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        import signal  # here, so that loading flowgate imports nothing more

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _mapping = False
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]

    shares = [own]
    for pid, status, payload in zip(pids, statuses, payloads):
        if not payload:
            code = os.waitstatus_to_exitcode(status)
            raise FlowgateError(f"worker process {pid} exited with status {code} and no result")
        shares.append(pickle.loads(payload))
    # a share stops at its first failure, so the loop raises before it could
    # reach an item that did not run
    results: list[R] = []
    for index in range(len(items)):
        ok, value = shares[index % workers][index // workers]
        if not ok:
            raise value
        results.append(value)
    return results
