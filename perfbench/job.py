"""One flowgate batch job in its own process.

    python3 perfbench/job.py setup RESULT -- FLOWGATE_ARGS...
        import flowgate.cli, parse the arguments and the config or profile
        file, then exit: the work a user pays for before any job starts.
    python3 perfbench/job.py run RESULT [--trace] -- FLOWGATE_ARGS...
        run `flowgate FLOWGATE_ARGS` through flowgate.cli.main and write the
        job's wall time (from CLI entry, after import, to the last artifact
        written), exit code, peak RSS and CPU time to RESULT as JSON; with
        --trace, also the spans of every traced call.

FLOWGATE_THREADS and PYTHONPATH come from the caller.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _setup(flowgate_args: list[str]) -> dict:
    import flowgate.cli
    from flowgate.config import ExperimentConfig
    from flowgate.profiles import DatasetProfile

    args = flowgate.cli.build_parser().parse_args(flowgate_args)
    if getattr(args, "config", None):
        ExperimentConfig.from_file(args.config)
    if getattr(args, "profile", None):
        DatasetProfile.from_dict(json.loads(Path(args.profile).read_text(encoding="utf-8")))
    return {"rc": 0}


def _run(flowgate_args: list[str], traced: bool) -> dict:
    import flowgate.cli

    recorder = None
    if traced:
        import spans

        recorder = spans.SpanRecorder(run_id=f"{time.time_ns():x}")
        spans.install(recorder)
    start = time.perf_counter()
    rc = flowgate.cli.main(flowgate_args)
    end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "wall_s": end - start,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if recorder is not None:
        result.update(main_start=start, main_end=end, spans=recorder.spans)
    return result


def main(argv: list[str]) -> int:
    mode, result_path, *rest = argv
    split = rest.index("--")
    options, flowgate_args = rest[:split], rest[split + 1 :]
    if mode == "setup":
        result = _setup(flowgate_args)
    else:
        result = _run(flowgate_args, traced="--trace" in options)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
