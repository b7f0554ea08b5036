"""flowgate runs on one thread: parallel_map is a serial map and
FLOWGATE_THREADS is only checked."""

import ast
import threading
from pathlib import Path

import pytest

import flowgate
from flowgate.errors import ConfigError
from flowgate.parallel import parallel_map, worker_count


def test_parallel_map_runs_every_item_on_the_calling_thread_in_order(monkeypatch):
    monkeypatch.setenv("FLOWGATE_THREADS", "4")
    caller = threading.get_ident()
    assert parallel_map(lambda item: (item, threading.get_ident()), iter(range(9))) == [
        (item, caller) for item in range(9)
    ]


@pytest.mark.parametrize("raw", ["1", "8", None])
def test_worker_count_is_one_for_any_valid_thread_cap(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("FLOWGATE_THREADS", raising=False)
    else:
        monkeypatch.setenv("FLOWGATE_THREADS", raw)
    assert worker_count() == 1


@pytest.mark.parametrize("raw", ["many", "0"])
def test_worker_count_rejects_a_malformed_thread_cap(monkeypatch, raw):
    monkeypatch.setenv("FLOWGATE_THREADS", raw)
    with pytest.raises(ConfigError, match="FLOWGATE_THREADS"):
        worker_count()
    with pytest.raises(ConfigError, match="FLOWGATE_THREADS"):
        parallel_map(str, [1])


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
