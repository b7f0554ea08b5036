"""Outside-in span tracing of one flowgate job, and the per-layer metrics.

`install` wraps the public functions of each flowgate module at every module
attribute that holds them, so a call is traced whichever name its caller
resolved (`flowgate.harness.fit_tree`, `flowgate.swarm.fit_tree`, ...). Spans
are kept in memory by a thread-safe recorder and written once, when the job
ends. `layer_metrics` turns the spans of one job into the per-layer numbers.
"""

from __future__ import annotations

import functools
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Callable

# (span name, module, attribute); the span name's prefix is the layer
TRACED = (
    ("dataset.build_source", "flowgate.harness", "build_source"),
    ("prep.preprocess_pipeline", "flowgate.prep", "preprocess_pipeline"),
    ("prep.load_csv", "flowgate.prep", "load_csv"),
    ("prep.merge_timestamps", "flowgate.prep", "merge_timestamps"),
    ("prep.drop_columns_by_name", "flowgate.prep", "drop_columns_by_name"),
    ("prep.drop_invalid_rows", "flowgate.prep", "drop_invalid_rows"),
    ("prep.drop_duplicate_rows", "flowgate.prep", "drop_duplicate_rows"),
    ("prep.drop_zero_variance_columns", "flowgate.prep", "drop_zero_variance_columns"),
    ("prep.encode_categoricals", "flowgate.prep", "encode_categoricals"),
    ("prep.minmax_normalize", "flowgate.prep", "minmax_normalize"),
    ("prep.stratified_split", "flowgate.prep", "stratified_split"),
    ("prep.write_csv", "flowgate.prep", "write_csv"),
    ("tree.fit_tree", "flowgate.models.tree", "fit_tree"),
    ("tree.predict_tree", "flowgate.models.tree", "predict_tree"),
    ("forest.fit_forest", "flowgate.models.forest", "fit_forest"),
    ("forest.predict_forest", "flowgate.models.forest", "predict_forest"),
    ("gbt.fit_gbt", "flowgate.models.gbt", "fit_gbt"),
    ("gbt.predict_gbt", "flowgate.models.gbt", "predict_gbt"),
    ("serialize.save_model", "flowgate.models.serialize", "save_model"),
    ("parallel.parallel_map", "flowgate.parallel", "parallel_map"),
    ("swarm.optimize", "flowgate.swarm", "optimize"),
    ("swarm.dt_objective", "flowgate.swarm", "dt_objective"),
    ("metrics.confusion_matrix", "flowgate.metrics", "confusion_matrix"),
    ("metrics.evaluate", "flowgate.metrics", "evaluate"),
    ("harness.emit_reports", "flowgate.harness", "emit_reports"),
)

PREP_STAGES = (
    "merge_timestamps", "drop_columns_by_name", "drop_invalid_rows",
    "drop_duplicate_rows", "drop_zero_variance_columns", "encode_categoricals",
    "minmax_normalize", "stratified_split",
)


class SpanRecorder:
    """In-memory spans: id, name, start, end, parent id, run id, attributes."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, after=None, parent=None, attrs=None):
        """Run fn(*args, **kwargs) inside a span; after(span, args, result) may annotate it."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        span = {
            "id": span_id,
            "name": name,
            "parent": parent if parent is not None else (stack[-1] if stack else None),
            "run": self.run_id,
            "attrs": dict(attrs or {}),
        }
        stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span["attrs"]["raised"] = True
            raise
        else:
            if after is not None:
                after(span, args, result)
            return result
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _after_fit_tree(span, args, model):
    if span["parent"] is None:  # a configured or tuned DT, not a swarm fit
        span["attrs"]["nodes"] = 2 * model.root.n_leaves() - 1
        span["attrs"]["depth"] = model.root.depth()


def _after_load_csv(span, args, raw):
    span["attrs"]["cells"] = raw.n_rows * raw.n_columns
    span["attrs"]["rss_mb"] = _rss_mb()


def _after_write(span, args, result):
    span["attrs"]["bytes"] = Path(args[1]).stat().st_size


def _after_preprocess(span, args, result):
    _, report = result
    span["attrs"]["rows_in"] = report.entries[0].rows_before
    span["attrs"]["rows_out"] = report.entries[-1].rows_after


def _wrapper(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    after = {
        "tree.fit_tree": _after_fit_tree,
        "prep.load_csv": _after_load_csv,
        "prep.write_csv": _after_write,
        "serialize.save_model": _after_write,
        "prep.preprocess_pipeline": _after_preprocess,
    }.get(name)

    if name == "parallel.parallel_map":
        def traced_map(task, items):
            from flowgate.parallel import worker_count

            items = list(items)
            durations: list[float] = []

            def mapped():
                parent = recorder.current()  # this parallel_map span

                def timed(item):
                    start = time.perf_counter()
                    try:
                        # tasks run on pool threads, whose span stacks start empty
                        return recorder.call("parallel.task", task, (item,), {}, parent=parent)
                    finally:
                        durations.append(time.perf_counter() - start)

                return fn(timed, items)

            def annotate(span, args, result):
                span["attrs"]["busy_s"] = sum(durations)
                span["attrs"]["workers"] = max(1, min(worker_count(), len(items)))

            return recorder.call(name, mapped, (), {}, after=annotate)
        return functools.wraps(fn)(traced_map)

    if name == "swarm.dt_objective":
        def traced_factory(*args, **kwargs):
            objective = recorder.call(name, fn, args, kwargs)

            def traced_objective(point):
                attrs = {"point": [int(v) for v in point]}
                return recorder.call("swarm.objective", objective, (point,), {}, attrs=attrs)
            return traced_objective
        return functools.wraps(fn)(traced_factory)

    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, after=after)
    return functools.wraps(fn)(traced)


def install(recorder: SpanRecorder) -> None:
    """Replace every flowgate module attribute bound to a traced function."""
    import flowgate.cli  # noqa: F401  (loads every module that re-exports a traced name)

    modules = [m for n, m in sys.modules.items() if n == "flowgate" or n.startswith("flowgate.")]
    for span_name, module_name, attr in TRACED:
        original = getattr(sys.modules[module_name], attr)
        wrapped = _wrapper(recorder, span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


# -- per-layer metrics ---------------------------------------------------------


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(span: dict, spans: list[dict]) -> float:
    """Duration minus the part of it covered by the span's child spans."""
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == span["id"]]
    duration = span["end"] - span["start"]
    return duration - _covered(children, span["start"], span["end"])


def layer_metrics(spans: list[dict], main_start: float, main_end: float) -> dict[str, float]:
    """Per-layer metrics of one traced job; s_total sums every call."""
    by_name: dict[str, list[dict]] = {}
    for span in sorted(spans, key=lambda s: (s["start"], s["id"])):
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def dur(span):
        return span["end"] - span["start"]

    def total(name):
        return sum(dur(s) for s in named(name))

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def first_attr(name, key):
        return next((s["attrs"][key] for s in named(name) if key in s["attrs"]), 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {"dataset.build_source.s": total("dataset.build_source")}

    m["prep.load_csv.s"] = total("prep.load_csv")
    m["prep.load_csv.cells_per_s"] = rate(attr_sum("prep.load_csv", "cells"), m["prep.load_csv.s"])
    loads = named("prep.load_csv")
    m["prep.load_csv.rss_mb"] = max(
        (s["attrs"]["rss_mb"] for s in loads if "rss_mb" in s["attrs"]), default=0.0
    )
    for stage in PREP_STAGES:
        m[f"prep.{stage}.s"] = total(f"prep.{stage}")
    m["prep.rows_in"] = first_attr("prep.preprocess_pipeline", "rows_in")
    m["prep.rows_out"] = first_attr("prep.preprocess_pipeline", "rows_out")
    m["prep.write_csv.s"] = total("prep.write_csv")
    written = attr_sum("prep.write_csv", "bytes")
    m["prep.write_csv.bytes_per_s"] = rate(written, m["prep.write_csv.s"])

    fits = [dur(s) for s in named("tree.fit_tree")]
    m["tree.fit_tree.calls"] = len(fits)
    m["tree.fit_tree.s_total"] = sum(fits)
    m["tree.fit_tree.s_p50"] = _quantile(fits, 0.5)
    m["tree.fit_tree.s_p90"] = _quantile(fits, 0.9)
    m["tree.predict_tree.calls"] = len(named("tree.predict_tree"))
    m["tree.predict_tree.s_total"] = total("tree.predict_tree")
    m["tree.nodes"] = first_attr("tree.fit_tree", "nodes")
    m["tree.depth"] = first_attr("tree.fit_tree", "depth")

    for layer, fit, predict in (
        ("forest", "fit_forest", "predict_forest"), ("gbt", "fit_gbt", "predict_gbt"),
    ):
        m[f"{layer}.{fit}.calls"] = len(named(f"{layer}.{fit}"))
        m[f"{layer}.{fit}.s_total"] = total(f"{layer}.{fit}")
        m[f"{layer}.{predict}.s_total"] = total(f"{layer}.{predict}")

    m["serialize.save_model.s_total"] = total("serialize.save_model")
    m["serialize.save_model.bytes"] = attr_sum("serialize.save_model", "bytes")

    pm = named("parallel.parallel_map")
    busy = attr_sum("parallel.parallel_map", "busy_s")
    wall = sum(dur(s) for s in pm)
    m["parallel.parallel_map.busy_s"] = busy
    m["parallel.parallel_map.wall_s"] = wall
    capacity = sum(s["attrs"]["workers"] * dur(s) for s in pm)
    m["parallel.parallel_map.idle_s"] = capacity - busy
    m["parallel.parallel_map.concurrency"] = rate(busy, wall)

    m["swarm.optimize.s"] = total("swarm.optimize")
    m["swarm.self_s"] = sum(self_time(s, spans) for s in named("swarm.optimize"))
    calls = named("swarm.objective")
    seen: set[tuple[int, ...]] = set()
    repeats = 0
    for span in calls:
        point = tuple(span["attrs"].get("point", ()))
        repeats += point in seen
        seen.add(point)
    fitted = [s for s in calls if not s["attrs"].get("raised")]
    fitted_s = [dur(s) for s in fitted]
    leaf_sizes = {s["attrs"]["point"][2] for s in fitted}
    m["swarm.objective.calls"] = len(calls)
    m["swarm.objective.failed"] = len(calls) - len(fitted)
    m["swarm.objective.repeat_calls"] = repeats
    m["swarm.objective.s_p50"] = _quantile(fitted_s, 0.5)
    m["swarm.objective.s_p90"] = _quantile(fitted_s, 0.9)
    m["swarm.objective.busy_s"] = sum(dur(s) for s in calls)
    m["swarm.objective.distinct_leaf_sizes"] = len(leaf_sizes)
    m["swarm.objective.fits_per_leaf_size"] = rate(len(fitted), len(leaf_sizes))

    m["metrics.evaluate.s_total"] = total("metrics.confusion_matrix") + total("metrics.evaluate")
    m["harness.emit_reports.s"] = total("harness.emit_reports")
    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    m["harness.unattributed_s"] = (main_end - main_start) - _covered(top, main_start, main_end)
    return m
