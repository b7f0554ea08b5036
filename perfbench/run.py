"""Benchmark of the flowgate batch pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record [--workload NAME]

Each job is one `flowgate` CLI batch job in a fresh process, one at a time,
with FLOWGATE_THREADS=2 (closed loop, one client). With --trace 0 the run
first times SETUP_PROBES set-ups (interpreter start, `import flowgate.cli`,
config/profile parsing), then runs jobs (at least MIN_JOBS) while the next
one is expected to end within S seconds, and reports medians. With --trace 1
it runs one plain job and one traced job on the same input and reports the
per-layer metrics of the traced one. Every job's outputs are checked against
perfbench/reference/, outside the timed region; a job that raises, exits
non-zero or fails the check counts as failed. The last line printed is the
result as one JSON object.

--self-check runs every workload at a tiny size against references it
records on the spot, then against a deliberately altered reference, which
must fail every job. --record rewrites the committed references.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "reference"
THREADS = "2"
SETUP_PROBES = 11
MIN_JOBS = 2
RUN_BUDGET_S = 140.0  # no job starts after this, so a run ends within 180 s
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (
        ("cells_per_s", "cells/s"), ("bytes_per_s", "B/s"), ("rss_mb", "MB"),
        (".bytes", "B"), ("concurrency", "ratio"), ("fits_per_leaf_size", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    if name.endswith((".s", "_s", ".s_total", ".s_p50", ".s_p90")):
        return "s"
    return "count"


class Runner:
    """Runs jobs of one checkout and checks their outputs against references."""

    def __init__(self, root: Path, work: Path, references: dict | None, limited: bool = True):
        self.env = dict(os.environ, FLOWGATE_THREADS=THREADS, PYTHONPATH=str(root / "src"))
        self.root = root
        self.work = work
        self.cache = root / ".perfbench" / "cache"
        self.cache.mkdir(parents=True, exist_ok=True)
        self.references = references
        self.started = time.monotonic()
        self.limited = limited
        self.attempted = 0
        self.failed = 0
        self._inputs: dict[tuple[str, int], tuple[str, ...]] = {}

    def out_of_time(self) -> bool:
        return self.limited and time.monotonic() - self.started > RUN_BUDGET_S

    def _timeout(self) -> float | None:
        if not self.limited:
            return None
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))

    def job_input(self, workload, variant: int) -> tuple[str, ...]:
        key = (workload.name, variant)
        if key not in self._inputs:
            self._inputs[key] = workload.prepare(variant, self.cache)
        return self._inputs[key]

    def _spawn(self, mode: str, args, result: Path, options=()) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(HERE / "job.py"), mode, str(result), *options, "--", *args]
        return subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=self._timeout(),
        )

    def setup_probe(self, workload, variant: int) -> float:
        """Seconds from spawning a process to its exit after set-up only."""
        result = self.work / "setup.json"
        start = time.perf_counter()
        proc = self._spawn("setup", self.job_input(workload, variant), result)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return seconds

    def job(self, workload, variant: int, traced: bool = False) -> dict | None:
        """One checked job; None when it failed to produce timings. A job whose
        outputs fail the check counts in `failed` but keeps its timings."""
        self.attempted += 1
        out = self.work / f"job{self.attempted}"
        result_path = self.work / f"job{self.attempted}.json"
        args = (*self.job_input(workload, variant), "--out", str(out))
        result = None
        try:
            proc = self._spawn("run", args, result_path, ("--trace",) if traced else ())
            if proc.returncode != 0:
                raise RuntimeError(f"job process exited {proc.returncode}: {proc.stderr.strip()}")
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if result["rc"] != 0:
                raise RuntimeError(f"flowgate exited {result['rc']}: {proc.stderr.strip()}")
            result["rows"] = workload.rows_loaded(out, proc.stdout)
            result["fingerprint"] = workload.fingerprint(variant, out)
            if self.references is not None:
                expected = self.references.get(str(variant))
                if result["fingerprint"] != expected:
                    raise RuntimeError(f"outputs of variant {variant} differ from the reference")
        except Exception as exc:  # any failure of one job is counted, not fatal
            self.failed += 1
            print(f"{workload.name} job {self.attempted} failed: {exc}", file=sys.stderr)
            if not isinstance(exc, (RuntimeError, subprocess.TimeoutExpired)):
                traceback.print_exc(file=sys.stderr)
            if result is None or "rows" not in result:
                result = None  # a job that did not finish has no timings to keep
        finally:
            shutil.rmtree(out, ignore_errors=True)
            result_path.unlink(missing_ok=True)
        return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def measure(runner: Runner, workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics: set-up probes, then jobs for about `seconds`."""
    setup = [runner.setup_probe(workload, workload.variant(seed, 0)) for _ in range(SETUP_PROBES)]
    jobs = []
    start = time.monotonic()
    while not runner.out_of_time():
        result = runner.job(workload, workload.variant(seed, runner.attempted))
        if result is not None:
            jobs.append(result)
        elapsed = time.monotonic() - start
        if runner.attempted >= MIN_JOBS and elapsed * (1 + 1 / runner.attempted) > seconds:
            break
    if not jobs:
        raise RuntimeError("no job completed, so there is nothing to report")
    samples = {
        "wall_s": [j["wall_s"] for j in jobs],
        "rows_per_s": [j["rows"] / j["wall_s"] for j in jobs],
        "setup_s": setup,
        "peak_rss_mb": [j["maxrss_mb"] for j in jobs],
    }
    return {name: (statistics.median(v), _quartiles(v), len(v)) for name, v in samples.items()}


def trace_run(runner: Runner, workload, seed: int) -> tuple[dict, float]:
    """Per-layer metrics of one traced job, next to one plain job on the same
    input, and the traced job's wall time."""
    import spans

    variant = workload.variant(seed, 0)
    plain = runner.job(workload, variant)
    traced = runner.job(workload, variant, traced=True)
    if plain is None or traced is None:
        raise RuntimeError("the plain or the traced job did not complete")
    metrics = spans.layer_metrics(traced["spans"], traced["main_start"], traced["main_end"])
    metrics["process.cpu_s"] = plain["cpu_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, traced["wall_s"]


def load_references(name: str) -> dict:
    path = REFERENCES / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def run_one(runner: Runner, workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; prints a readable summary and returns the result object."""
    print(f"workload {workload.name}, seed {seed}, FLOWGATE_THREADS={THREADS}")
    metrics: dict[str, dict] = {}
    if trace:
        layers, traced_wall = trace_run(runner, workload, seed)
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
            print(f"  {name:40s} {value:.6g} {per_layer_unit(name)}")
        share = layers["harness.unattributed_s"] / traced_wall
        print(f"  traced wall {traced_wall:.4f} s, unattributed share {share:.2%}")
    else:
        for name, (median, (q1, q3), n) in measure(runner, workload, seed, seconds).items():
            unit = END_TO_END_UNITS[name]
            metrics[name] = {"value": median, "unit": unit}
            what = "set-up probes" if name == "setup_s" else "jobs"
            print(
                f"  {name:12s} {median:.6g} {unit}  median of {n} {what} "
                f"(q1 {q1:.6g}, q3 {q3:.6g})"
            )
    ratio = runner.failed / runner.attempted
    print(f"  {'fail_ratio':12s} {ratio:.6g}  {runner.failed} of {runner.attempted} jobs")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def _altered(fingerprint: dict) -> dict:
    """A copy of a fingerprint with its first leaf value changed."""
    copy = json.loads(json.dumps(fingerprint))
    node, key = copy, next(iter(copy))
    while isinstance(node[key], dict):
        node, key = node[key], next(iter(node[key]))
    node[key] += "#" if isinstance(node[key], str) else 1
    return copy


def self_check(root: Path, work: Path) -> bool:
    """Tiny pass of every workload; an altered reference must fail every job."""
    passed = True

    def verdict(label: str, ok: bool, detail: str) -> None:
        nonlocal passed
        passed = passed and ok
        print(f"self-check {label}: {'PASS' if ok else 'FAIL'} -- {detail}")

    for cls in WORKLOADS.values():
        workload = cls(tiny=True)
        recorder = Runner(root, work, None)
        references = {}
        for variant in sorted({workload.variant(0, job) for job in range(MIN_JOBS)}):
            recorded = recorder.job(workload, variant)
            if recorded is not None:
                references[str(variant)] = recorded["fingerprint"]
        if recorder.failed:
            verdict(workload.name, False, "a recording job failed")
            continue
        for label, refs, want in (
            ("reference", references, 0.0),
            ("altered reference", {v: _altered(f) for v, f in references.items()}, 1.0),
        ):
            runner = Runner(root, work, refs)
            run_one(runner, workload, 0, 0.0, trace=False)
            ratio = runner.failed / runner.attempted
            verdict(f"{workload.name} {label}", ratio == want, f"fail_ratio {ratio} (want {want})")
        runner = Runner(root, work, references)
        result = run_one(runner, workload, 0, 0.0, trace=True)
        detail = f"{runner.failed} of {runner.attempted} failed"
        verdict(f"{workload.name} traced", result["correct"], detail)
    return passed


def record(root: Path, work: Path, names: list[str]) -> None:
    REFERENCES.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]()
        runner = Runner(root, work, None, limited=False)
        doc = {}
        for variant in range(workload.n_variants):
            result = runner.job(workload, variant)
            if runner.failed:
                raise RuntimeError(f"{name} variant {variant} failed while recording")
            doc[str(variant)] = result["fingerprint"]
            print(f"recorded {name} variant {variant}")
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        (REFERENCES / f"{name}.json").write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flowgate" / "cli.py").is_file():
        print(f"error: {root} holds no flowgate source tree (src/flowgate)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.self_check:
            return 0 if self_check(root, work) else 1
        if args.record:
            record(root, work, names)
            return 0
        for name in names:
            runner = Runner(root, work, load_references(name))
            result = run_one(runner, WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
