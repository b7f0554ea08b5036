"""Command-line front end.

Subcommands wrap the library operations one-to-one: ingest cleans a CSV and
prints the stage report, stats summarizes a dataset, synth writes a seeded
synthetic CSV, train/tune/report drive configured experiments, and eval
scores a saved model against an already-preprocessed CSV.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable

from .config import CorruptionConfig, ExperimentConfig
from .dataset import class_distribution, column_stats
from .errors import ConfigError, DataError, FlowgateError
from .harness import (
    RunManifest,
    StageFailure,
    emit_reports,
    format_real,
    make_output_dir,
    run_and_emit,
    run_experiment,
    write_file,
)
from .metrics import confusion_matrix, evaluate
from .models import save_model, load_model
from .parallel import worker_count
from .prep import (
    PrepOptions,
    encode_categoricals,
    load_csv,
    preprocess_pipeline,
    write_csv,
)
from .profiles import resolve_profile, settings_dict
from .synth import SynthSpec, corrupt, generate_flows

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = _flag_values(lambda seed: dataclasses.replace(config, seed=seed), seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=str(args.out))
    if args.format:
        config = dataclasses.replace(config, formats=tuple(args.format))
    return config


def build_parser() -> _Parser:
    parser = _Parser(prog="flowgate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: _Parser) -> None:
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--format",
            action="append",
            choices=["csv", "json", "md"],
            default=None,
            help="report format (repeatable)",
        )

    p = sub.add_parser("ingest", help="clean a CSV and print the stage report")
    p.add_argument("--csv", required=True, help="input CSV path")
    p.add_argument("--profile", required=True, help="builtin profile name or JSON file")
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--fit-scope", choices=["full_dataset", "train_only"], default="full_dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write cleaned train/test CSVs here")

    p = sub.add_parser("stats", help="print per-column summary and class distribution")
    p.add_argument("--csv", required=True)
    p.add_argument("--profile", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic flow CSV")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--profile", required=True, help="builtin profile name for class ratios")
    p.add_argument("--features", type=int, default=6)
    p.add_argument("--separation", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dup-rate", type=float, default=0.0)
    p.add_argument("--nan-rate", type=float, default=0.0)
    p.add_argument("--inf-rate", type=float, default=0.0)
    p.add_argument("--constant-cols", type=int, default=0)
    p.add_argument("--out", default="synth.csv", help="output CSV path")

    p = sub.add_parser("train", help="train and evaluate the configured models")
    add_config_flags(p)
    p.add_argument("--save-models", action="store_true", help="write fitted models as JSON")

    p = sub.add_parser("tune", help="run swarm tuning and write the trace")
    add_config_flags(p)

    p = sub.add_parser("eval", help="score a saved model on a preprocessed CSV")
    p.add_argument("--model", required=True, help="model JSON written by train")
    p.add_argument("--csv", required=True, help="preprocessed CSV (as written by ingest)")
    p.add_argument("--profile", required=True)
    p.add_argument("--mode", choices=["weighted", "macro"], default="weighted")

    p = sub.add_parser("report", help="run the full experiment and emit all artifacts")
    add_config_flags(p)
    return parser


def _flag_values(build: Callable, **values: Any) -> Any:
    """``build(**values)`` on values from command-line flags, called before
    any input they apply to is read: an out-of-range value is a usage error."""
    try:
        return build(**values)
    except (ConfigError, DataError) as exc:
        raise _UsageError(str(exc)) from None


def _cmd_ingest(args: argparse.Namespace) -> int:
    options = _flag_values(
        PrepOptions, split_ratio=args.split_ratio, seed=args.seed, fit_scope=args.fit_scope
    )
    profile = resolve_profile(args.profile)
    split, report = preprocess_pipeline(args.csv, profile, options)
    for line in report.to_lines():
        print(line)
    print(f"train rows: {split.train.n_rows}")
    print(f"test rows: {split.test.n_rows}")
    if args.out is not None:
        out = make_output_dir(args.out)
        write_csv(split.train, out / "train.csv")
        write_csv(split.test, out / "test.csv")
        print(f"wrote {out / 'train.csv'} and {out / 'test.csv'}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    profile = resolve_profile(args.profile)
    raw = load_csv(args.csv, profile)
    table = encode_categoricals(raw, profile)
    summary = column_stats(table)
    print(f"rows: {summary.n_rows}")
    print(f"features: {summary.n_features}")
    for col in summary.columns:
        parts = [f"{col.name} [{col.kind}] distinct={col.distinct}"]
        if col.minimum is not None:
            parts.append(
                f"min={col.minimum:.6g} max={col.maximum:.6g} "
                f"mean={col.mean:.6g} std={col.std:.6g}"
            )
        print("  " + " ".join(parts))
    print("class distribution:")
    for name, count, share in class_distribution(table):
        print(f"  {name}: {count} ({share:.6f})")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = _flag_values(
        SynthSpec.from_profile_name,
        profile_name=args.profile,
        n_rows=args.rows,
        n_features=args.features,
        cluster_separation=args.separation,
        seed=args.seed,
    )
    corruption = _flag_values(
        CorruptionConfig,
        dup_rate=args.dup_rate,
        nan_rate=args.nan_rate,
        inf_rate=args.inf_rate,
        n_constant_cols=args.constant_cols,
    )
    raw, ledger = corrupt(
        generate_flows(spec), **dataclasses.asdict(corruption), seed=args.seed + 1
    )
    out = Path(args.out)
    make_output_dir(out.parent)
    sidecar = Path(str(out) + ".spec.json")
    doc = {"spec": settings_dict(spec), "corruption": settings_dict(ledger)}
    profile_path = Path(str(out) + ".profile.json")
    written: list[Path] = []
    try:
        write_csv(raw, out)
        written.append(out)
        for path, content in ((sidecar, doc), (profile_path, settings_dict(spec.profile()))):
            write_file(path, (json.dumps(content, indent=2) + "\n").encode("utf-8"))
            written.append(path)
    except DataError:
        for path in written:  # leave no CSV without its sidecars
            path.unlink()
        raise
    print(json.dumps(doc["spec"], indent=2))
    print(f"wrote {raw.n_rows} rows to {out}")
    print(f"wrote generation record to {sidecar}")
    print(f"wrote ingestion profile to {profile_path}")
    return EXIT_OK


def _print_metric_rows(manifest: RunManifest) -> None:
    for result in manifest.models:
        cells = " ".join(format_real(v) for v in result.report.as_row())
        print(f"{result.name}: {cells}")


def _cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.tuning.enabled:
        config = dataclasses.replace(
            config, tuning=dataclasses.replace(config.tuning, enabled=False)
        )
    if not config.models:
        raise ConfigError("train needs at least one model in the config")
    manifest, paths = run_and_emit(config)
    _print_metric_rows(manifest)
    if args.save_models:
        for result in manifest.models:
            target = Path(config.output_dir) / f"model_{result.model_type}.json"
            save_model(result.model, target)
            paths.append(target)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not config.tuning.enabled:
        config = dataclasses.replace(
            config, tuning=dataclasses.replace(config.tuning, enabled=True)
        )
    config = dataclasses.replace(config, models=())
    manifest = run_experiment(config)
    emit_reports(manifest, config.output_dir)
    tuning = manifest.tuning
    depth, min_split, min_leaf = tuning.best_point
    print(
        f"best point: max_depth={depth} min_samples_split={min_split} "
        f"min_samples_leaf={min_leaf}"
    )
    print(f"best fitness: {format_real(tuning.best_fitness)}")
    print(f"default fitness: {format_real(tuning.default_fitness)}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    profile = resolve_profile(args.profile)
    model = load_model(args.model)
    if model.n_classes != len(profile.class_names):
        raise DataError(
            f"{args.model}: the model has {model.n_classes} classes, "
            f"profile {profile.name!r} has {len(profile.class_names)}"
        )
    raw = load_csv(args.csv, profile)
    table = encode_categoricals(raw, profile)
    predicted = model.predict(table)
    matrix = confusion_matrix(
        table.labels, predicted, table.n_classes,
        class_names=table.encoding.class_names,
    )
    report = evaluate(matrix, args.mode)
    doc = report.to_dict()
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load_config(args)
    manifest, paths = run_and_emit(config)
    _print_metric_rows(manifest)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "tune": _cmd_tune,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        worker_count()  # fail fast on a malformed FLOWGATE_THREADS
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageFailure as exc:
        cause = exc.cause
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(cause, ConfigError):
            return EXIT_USAGE
        if isinstance(cause, FlowgateError):
            return EXIT_DATA
        return EXIT_INTERNAL
    except FlowgateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:  # pragma: no cover - piping into head
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
