"""Order-preserving maps over forked worker processes.

``parallel_imap(fn, items)`` yields ``fn(item)`` for each item in order, as
the caller consumes them. Item i runs on worker i mod W, with W =
min(worker_count(), number of items) and the calling process as worker 0:
the caller forks W - 1 children and runs its own share. Each child pickles
each result into its own pipe as soon as it is done, blocks while the pipe
is full and ends with ``os._exit``, so it runs no atexit handler and no
``finally`` of the caller. A worker thus holds at most one finished result
the caller has not read, and a long input streams through in bounded
memory; the chunks of a CSV load and the row blocks of a CSV write go
through it. Closing the stream early, an error in it or its end kills its
children and reaps them. No flowgate module starts a thread, so no lock of
ours can be held across a fork by a thread the child lacks; numpy's BLAS
thread pool shuts itself down across a fork.

``parallel_map(fn, items)`` returns ``[fn(item) for item in items]``; a
forest's trees, a boosting round's class trees and the tuning trees of a
swarm round's new leaf sizes go through it. It streams worker w's whole
share, ``items[w::W]``, as one item of ``parallel_imap``, so each child
sends all its results at once, when its share is done, and never waits for
the caller in the middle of it: a child that sent a forest's large trees one
by one would wait for the caller after each.

A mapped task must return its result by value: whatever it changes in
memory stays in the child (a tuning tree's task returns the split searches
it added to its copy of the cache, for the caller to merge). A task's
exception comes back pickled, and a map raises the one of the lowest-index
failing item, as the plain loop would; a child that dies before its result
is read is a FlowgateError naming its exit status. A map called inside a
mapped task, or while a stream is open, runs as the plain loop.
FLOWGATE_THREADS caps the workers; the outputs are the same for any cap.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

from .errors import ConfigError, FlowgateError

T = TypeVar("T")
R = TypeVar("R")

ENV_THREADS = "FLOWGATE_THREADS"

# set while a map runs or a stream is open, in the caller and in its children
_mapping = False


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


def _outcomes(fn: Callable[[T], R], share: list[T]) -> Iterator[tuple[bool, object]]:
    """(True, result) per item in order, ending at the first (False, exception)."""
    for item in share:
        try:
            result = fn(item)
        except Exception as exc:
            yield False, exc
            return
        yield True, result


def _fork(send: Callable[[BinaryIO], None]) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``send`` on the write end of a new pipe and
    exits; the child's pid and the read end."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            # without its own read end, a child blocked on a full pipe gets
            # EPIPE when the caller is gone
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                send(pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def _reap(pids: list[int], pipes: list[BinaryIO]) -> None:
    """Kill the children, close the pipes and wait for the children; a
    child that has sent its last result is exiting anyway."""
    import signal  # here, so that loading flowgate imports nothing more

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pipe in pipes:
        pipe.close()
    for pid in pids:
        os.waitpid(pid, 0)


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Order-preserving map over up to worker_count() processes."""
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or _mapping:
        return [fn(item) for item in items]

    share_items = [items[worker::workers] for worker in range(workers)]
    shares = list(parallel_imap(lambda share: list(_outcomes(fn, share)), share_items))
    # a share stops at its first failure, so the loop raises before it could
    # reach an item that did not run
    results: list[R] = []
    for index in range(len(items)):
        ok, value = shares[index % workers][index // workers]
        if not ok:
            raise value
        results.append(value)
    return results


def _send_each(pipe: BinaryIO, fn: Callable[[T], R], share: list[T]) -> None:
    """Pickle each outcome of the share into the pipe as soon as it is known."""
    for outcome in _outcomes(fn, share):
        pickle.dump(outcome, pipe)
        pipe.flush()


def parallel_imap(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """Yield fn(item) for each item, in order, computed over up to
    worker_count() processes; close the stream to stop it early."""
    global _mapping
    items = list(items)
    workers = min(worker_count(), len(items))
    if workers <= 1 or _mapping:
        yield from map(fn, items)
        return

    pids: list[int] = []
    pipes: list[BinaryIO] = []
    _mapping = True
    try:
        for worker in range(1, workers):
            share = items[worker::workers]  # the child runs send as soon as it forks
            pid, pipe = _fork(lambda pipe: _send_each(pipe, fn, share))
            pids.append(pid)
            pipes.append(pipe)
        for index, item in enumerate(items):
            worker = index % workers
            if worker == 0:
                yield fn(item)
                continue
            try:
                ok, value = pickle.load(pipes[worker - 1])
            except (EOFError, pickle.UnpicklingError):
                pid = pids.pop(worker - 1)  # reaped here, not killed
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise FlowgateError(
                    f"worker process {pid} exited with status {code} and no result"
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        _mapping = False
        _reap(pids, pipes)
