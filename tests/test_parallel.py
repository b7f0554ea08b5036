"""parallel_map and parallel_imap: order-preserving maps over forked worker
processes, as many as the usable CPUs under FLOWGATE_THREADS, with the plain
loop's results and errors."""

import ast
import os
import time
from pathlib import Path

import pytest

import flowgate
from flowgate.errors import ConfigError, DataError, FlowgateError
from flowgate.parallel import parallel_imap, parallel_map, worker_count


@pytest.fixture(params=[1, 2, 4])
def cap(request, monkeypatch):
    """FLOWGATE_THREADS at 1, 2 and 4 on four usable CPUs, so the cap alone
    sets the number of workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setenv("FLOWGATE_THREADS", str(request.param))
    return request.param


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_map_matches_the_serial_map_in_item_order(cap):
    got = parallel_map(lambda item: (item * item, os.getpid()), iter(range(11)))
    assert [square for square, _ in got] == [item * item for item in range(11)]
    # item i runs on worker i mod cap; the caller is worker 0
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == cap
    assert pids == [pids[item % cap] for item in range(11)]
    _assert_no_child_left()


def test_a_task_error_is_raised_for_the_lowest_failing_item(cap):
    def task(item):
        if item == 3:
            raise DataError("item 3 of 5 is malformed")
        if item == 4:  # the caller's share at cap 4: a later item fails too
            raise ValueError("item 4 of 5 fails too")
        return item

    with pytest.raises(DataError, match=r"^item 3 of 5 is malformed$"):
        parallel_map(task, range(5))
    _assert_no_child_left()


@pytest.mark.parametrize("threads", ["2", "4"])
def test_a_worker_that_dies_in_a_task_raises_flowgate_error(monkeypatch, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setenv("FLOWGATE_THREADS", threads)
    caller = os.getpid()

    def task(item):
        if os.getpid() != caller:
            os._exit(5)
        return item

    with pytest.raises(FlowgateError, match="exited with status 5"):
        parallel_map(task, range(5))
    _assert_no_child_left()


def test_a_nested_map_runs_in_the_process_of_its_task(cap):
    def task(item):
        return os.getpid(), parallel_map(lambda _: os.getpid(), range(4))

    for outer, inner in parallel_map(task, range(4)):
        assert inner == [outer] * 4
    _assert_no_child_left()


def test_parallel_imap_streams_the_serial_map_in_item_order(cap):
    got = list(parallel_imap(lambda item: (item * item, os.getpid()), iter(range(11))))
    assert [square for square, _ in got] == [item * item for item in range(11)]
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == cap
    assert pids == [pids[item % cap] for item in range(11)]
    _assert_no_child_left()


def test_a_stream_raises_the_error_of_its_lowest_failing_item(cap):
    seen = []

    def task(item):
        if item == 3:
            raise DataError("item 3 of 5 is malformed")
        if item == 4:  # the caller's share at cap 4: a later item fails too
            raise ValueError("item 4 of 5 fails too")
        return item

    with pytest.raises(DataError, match=r"^item 3 of 5 is malformed$"):
        for value in parallel_imap(task, range(5)):
            seen.append(value)
    assert seen == [0, 1, 2]
    _assert_no_child_left()


@pytest.mark.parametrize("threads", ["2", "4"])
def test_a_stream_worker_that_dies_raises_flowgate_error(monkeypatch, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setenv("FLOWGATE_THREADS", threads)
    caller = os.getpid()

    def task(item):
        if os.getpid() != caller and item >= 4:  # after each child sent one result
            os._exit(5)
        return item

    seen = []
    with pytest.raises(FlowgateError, match="exited with status 5 and no result"):
        for value in parallel_imap(task, range(8)):
            seen.append(value)
    assert seen == list(range(5))
    _assert_no_child_left()


class _Stop(Exception):
    pass


def _big(item):
    return bytes(200_000)  # more than a pipe holds, so each child blocks on it


def test_parallel_map_returns_results_larger_than_a_pipe_holds(cap):
    assert parallel_map(_big, range(12)) == [_big(item) for item in range(12)]
    _assert_no_child_left()


def test_a_consumer_that_raises_leaves_no_child(cap):
    with pytest.raises(_Stop):
        for block in parallel_imap(_big, range(12)):
            raise _Stop
    _assert_no_child_left()


@pytest.mark.parametrize("how", ["close", "drop"])
def test_a_stream_stopped_early_leaves_no_child(cap, how):
    stream = parallel_imap(_big, range(12))
    assert len(next(stream)) == 200_000
    assert len(next(stream)) == 200_000
    if how == "close":
        stream.close()
    else:
        del stream
    _assert_no_child_left()


def test_closing_a_stream_kills_its_busy_children(cap):
    caller = os.getpid()

    def task(item):
        if os.getpid() != caller:
            time.sleep(60)
        return item

    stream = parallel_imap(task, range(8))
    start = time.monotonic()
    assert next(stream) == 0
    stream.close()
    assert time.monotonic() - start < 20
    _assert_no_child_left()


def test_a_map_called_while_a_stream_is_open_runs_as_the_plain_loop(cap):
    for outer in parallel_imap(lambda item: os.getpid(), range(3)):
        assert parallel_map(lambda _: os.getpid(), range(4)) == [os.getpid()] * 4
        assert list(parallel_imap(lambda _: os.getpid(), range(4))) == [os.getpid()] * 4
    assert len(set(parallel_map(lambda _: os.getpid(), range(4)))) == cap
    _assert_no_child_left()


@pytest.mark.parametrize("raw", ["1", "8", None])
def test_worker_count_is_the_usable_cpus_under_the_thread_cap(monkeypatch, raw):
    usable = len(os.sched_getaffinity(0))
    if raw is None:
        monkeypatch.delenv("FLOWGATE_THREADS", raising=False)
        assert worker_count() == usable
    else:
        monkeypatch.setenv("FLOWGATE_THREADS", raw)
        assert worker_count() == min(usable, int(raw))


@pytest.mark.parametrize("raw", ["many", "0"])
def test_worker_count_rejects_a_malformed_thread_cap(monkeypatch, raw):
    monkeypatch.setenv("FLOWGATE_THREADS", raw)
    with pytest.raises(ConfigError, match="FLOWGATE_THREADS"):
        worker_count()
    with pytest.raises(ConfigError, match="FLOWGATE_THREADS"):
        parallel_map(str, [1])
    with pytest.raises(ConfigError, match="FLOWGATE_THREADS"):
        next(parallel_imap(str, [1]))


def test_no_flowgate_module_imports_threads():
    # no module starts threads, so no state needs a lock
    imported = {}
    for path in Path(flowgate.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("threading", "_thread", "concurrent"):
                    imported.setdefault(path.name, []).append(name)
    assert imported == {}
