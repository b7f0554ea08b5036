"""Experiment runner: data → cleaning → models → optional tuning → artifacts.

run_experiment executes the stages of one configured experiment and collects
everything reproducible into a RunManifest. Metric values depend only on the
configuration (seeds included), never on wall clock or worker count, so the
manifest splits into a deterministic metrics document and a timing/provenance
wrapper. emit_reports writes the publication-shaped artifacts: per-classifier
metric tables, the average table, chart series files, and the tuning trace.

Seed plumbing from the one configured seed: generation uses seed, hazard
injection seed+1, the train/test split seed+2, and tuning (swarm plus its
holdout carve-out) seed+3. Stages that do not run leave their seeds unused.
"""

from __future__ import annotations

import io
import json
import resource
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from . import __version__
from .config import (
    MODEL_BASELINE,
    MODEL_DT,
    MODEL_GBT,
    MODEL_RF,
    CsvDataset,
    ExperimentConfig,
    ModelSpec,
)
from .dataset import ColumnarTable
from .errors import ConfigError, DataError, FlowgateError
from .metrics import EvalReport, confusion_matrix, evaluate
from .models import SplitCache, fit_forest, fit_gbt, fit_tree, majority_baseline
from .prep import PrepOptions, PrepReport, SplitPair, preprocess_pipeline
from .profiles import settings_dict
from .swarm import (
    DT_DEFAULT_POINT,
    SwarmCounters,
    TraceEntry,
    dt_objective,
    dt_search_space,
    optimize,
)
from .synth import CorruptionLedger, corrupt, generate_flows

TUNED_DT_NAME = "EPSO DT"

METRIC_COLUMNS = ("Accuracy", "Precision", "Recall", "F1-Score")


@dataclass(frozen=True)
class ModelResult:
    """One evaluated classifier row and the fitted model it scores."""

    name: str
    model_type: str
    hyperparams: dict
    report: EvalReport
    model: Any

    def metric_dict(self) -> dict:
        doc: dict[str, Any] = {"classifier": self.name, "model_type": self.model_type}
        doc["hyperparams"] = dict(sorted(self.hyperparams.items()))
        doc.update(self.report.to_dict())
        return doc


@dataclass(frozen=True)
class TuningOutcome:
    best_point: tuple[int, ...]
    best_fitness: float
    default_point: tuple[int, ...]
    default_fitness: float
    trace: tuple[TraceEntry, ...]


@dataclass
class RunManifest:
    """Everything one run produced, timings separated from metric content.

    metrics_document() is the deterministic part: byte-identical JSON for
    identical configs regardless of the worker cap. to_dict() wraps it with
    timings, the process's peak RSS after each stage and that of its largest
    reaped worker process, the tuning run's swarm counters and tool
    provenance for the manifest file.
    """

    config: ExperimentConfig
    config_hash: str
    tool_version: str
    class_names: tuple[str, ...] = ()
    prep_report: PrepReport | None = None
    ledger: CorruptionLedger | None = None
    models: list[ModelResult] = field(default_factory=list)
    tuning: TuningOutcome | None = None
    swarm: SwarmCounters | None = None
    timings: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: dict[str, float] = field(default_factory=dict)
    children_peak_rss_mb: dict[str, float] = field(default_factory=dict)

    def model_named(self, name: str) -> ModelResult:
        for result in self.models:
            if result.name == name:
                return result
        raise DataError(f"manifest has no classifier named {name!r}")

    def metrics_document(self) -> dict:
        doc: dict[str, Any] = {
            "config_hash": self.config_hash,
            "metric_mode": self.config.metric_mode,
            "class_names": list(self.class_names),
            "prep": self.prep_report.to_dicts() if self.prep_report else [],
            "models": [m.metric_dict() for m in self.models],
        }
        if self.ledger is not None:
            doc["corruption"] = settings_dict(self.ledger)
        if self.tuning is not None:
            doc["tuning"] = settings_dict(self.tuning)
        return doc

    def to_dict(self) -> dict:
        doc = {
            "tool_version": self.tool_version,
            "config": self.config.to_dict(),
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "peak_rss_mb": {k: round(v, 3) for k, v in self.peak_rss_mb.items()},
            "children_peak_rss_mb": {
                k: round(v, 3) for k, v in self.children_peak_rss_mb.items()
            },
            "metrics": self.metrics_document(),
        }
        if self.swarm is not None:
            doc["swarm"] = asdict(self.swarm)
        return doc


class StageFailure(FlowgateError):
    """A pipeline stage failed; carries the stage name and partial results."""

    def __init__(self, stage: str, cause: Exception, manifest: RunManifest) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.manifest = manifest


def fit_model(
    spec: ModelSpec,
    train: ColumnarTable,
    master_seed: int,
    splits: SplitCache | None = None,
):
    """Fit one configured classifier; returns (model, resolved hyperparameters).

    A ``dt`` fit shares node searches with the other fits that get the same
    ``splits``, a cache made for ``train`` (see ``fit_tree``); the model is
    the same with or without it.
    """
    params = spec.hyperparams()
    if spec.type == MODEL_BASELINE:
        model = majority_baseline(train)
        return model, {"majority_class": model.majority_class}
    if spec.type == MODEL_DT:
        return fit_tree(train, params, splits=splits), asdict(params)
    if spec.type == MODEL_RF:
        model = fit_forest(train, params, seed=master_seed)
        return model, {**asdict(model.params), "seed": model.seed}
    if spec.type == MODEL_GBT:
        return fit_gbt(train, params), asdict(params)
    raise ConfigError(f"unknown model type {spec.type!r}")  # pragma: no cover


def _fit_and_eval(
    spec: ModelSpec,
    split: SplitPair,
    mode: str,
    master_seed: int,
    splits: SplitCache | None = None,
) -> ModelResult:
    model, resolved = fit_model(spec, split.train, master_seed, splits)
    predicted = model.predict(split.test)
    matrix = confusion_matrix(
        split.test.labels,
        predicted,
        split.test.n_classes,
        class_names=split.test.encoding.class_names,
    )
    report = evaluate(matrix, mode)
    return ModelResult(
        name=spec.display_name,
        model_type=spec.type,
        hyperparams=resolved,
        report=report,
        model=model,
    )


def build_source(config: ExperimentConfig):
    """Resolve the configured dataset into (pipeline source, profile, ledger)."""
    if isinstance(config.dataset, CsvDataset):
        return config.dataset.path, config.dataset.profile, None
    spec = config.dataset.spec(config.seed)
    co = config.corruption
    # zero-rate corruption doubles as the table -> raw-format conversion
    raw, ledger = corrupt(generate_flows(spec), **asdict(co), seed=config.seed + 1)
    return raw, spec.profile(), (None if co.is_noop else ledger)


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Execute all configured stages; abort wraps the failing stage name."""
    manifest = RunManifest(
        config=config,
        config_hash=config.config_hash(),
        tool_version=__version__,
    )

    def run_stage(stage: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:
            raise StageFailure(stage, exc, manifest) from exc
        manifest.timings[stage] = time.perf_counter() - start
        # ru_maxrss is in KB on Linux: the process's high-water mark so far,
        # and the largest of any worker process it has reaped
        manifest.peak_rss_mb[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        manifest.children_peak_rss_mb[stage] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
        return value

    source, profile, ledger = run_stage("dataset", lambda: build_source(config))
    manifest.ledger = ledger
    # prep gets the source as its only reference, so each stage frees its input
    handover = [source]
    del source

    def do_prep() -> SplitPair:
        options = PrepOptions(
            split_ratio=config.split_ratio,
            seed=config.seed + 2,
            fit_scope=config.fit_scope,
        )
        split, report = preprocess_pipeline(handover.pop(), profile, options)
        manifest.prep_report = report
        manifest.class_names = split.train.encoding.class_names
        return split

    split = run_stage("preprocess", do_prep)
    splits = SplitCache(split.train)  # shared by the configured DT and the EPSO DT

    for spec in config.models:
        result = run_stage(
            f"model:{spec.display_name}",
            lambda spec=spec: _fit_and_eval(
                spec, split, config.metric_mode, config.seed, splits
            ),
        )
        manifest.models.append(result)

    if config.tuning.enabled:
        tuning = config.tuning

        def do_tune() -> TuningOutcome:
            manifest.swarm = SwarmCounters()
            objective = dt_objective(
                split,
                holdout_fraction=tuning.holdout_fraction,
                seed=config.seed + 3,
                counters=manifest.swarm,
            )
            best_point, best_fitness, trace = optimize(
                dt_search_space(),
                tuning,
                objective,
                manifest.swarm,
                seed=config.seed + 3,
                seed_point=DT_DEFAULT_POINT if tuning.seed_default_point else None,
            )
            default_fitness = objective(DT_DEFAULT_POINT)
            return TuningOutcome(
                best_point=best_point,
                best_fitness=best_fitness,
                default_point=DT_DEFAULT_POINT,
                default_fitness=default_fitness,
                trace=tuple(trace),
            )

        manifest.tuning = run_stage("tune", do_tune)

        def do_tuned_fit() -> ModelResult:
            depth, min_split, min_leaf = manifest.tuning.best_point
            spec = ModelSpec(
                type=MODEL_DT,
                params=(
                    ("max_depth", depth),
                    ("min_samples_leaf", min_leaf),
                    ("min_samples_split", min_split),
                ),
            )
            result = _fit_and_eval(spec, split, config.metric_mode, config.seed, splits)
            return replace(result, name=TUNED_DT_NAME)

        manifest.models.append(run_stage(f"model:{TUNED_DT_NAME}", do_tuned_fit))

    return manifest


# -- report emission -----------------------------------------------------------


def format_real(value: float) -> str:
    return f"{value:.9f}"


def _table_rows(manifest: RunManifest, with_average: bool) -> list[list[str]]:
    header = ["Classifier", *METRIC_COLUMNS]
    if with_average:
        header.append("Average")
    rows = [header]
    for result in manifest.models:
        cells = [result.name]
        cells.extend(format_real(v) for v in result.report.as_row())
        if with_average:
            cells.append(format_real(result.report.average_of_four))
        rows.append(cells)
    return rows


def _write_csv_rows(path: Path, rows: Iterable[Iterable[str]]) -> None:
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(str(c) for c in row))
        buf.write("\r\n")
    write_file(path, buf.getvalue().encode("utf-8"))


def _write_markdown_table(path: Path, rows: list[list[str]]) -> None:
    header, *body = rows
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    write_file(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_json_table(path: Path, rows: list[list[str]]) -> None:
    header, *body = rows
    doc = [dict(zip(header, row)) for row in body]
    write_file(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def _write_table(out_dir: Path, stem: str, rows: list[list[str]], formats: tuple[str, ...]) -> list[Path]:
    written = []
    if "csv" in formats:
        target = out_dir / f"{stem}.csv"
        _write_csv_rows(target, rows)
        written.append(target)
    if "md" in formats:
        target = out_dir / f"{stem}.md"
        _write_markdown_table(target, rows)
        written.append(target)
    if "json" in formats:
        target = out_dir / f"{stem}.json"
        _write_json_table(target, rows)
        written.append(target)
    return written


def make_output_dir(path: str | Path) -> Path:
    """``path`` as a directory, made with its parents where missing; a path
    that cannot be one (an existing file, say) is a data error naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def write_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``; a path that cannot be written (a
    directory, say) is a data error naming it."""
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def emit_reports(manifest: RunManifest, out_dir: str | Path) -> list[Path]:
    """Write all artifacts for one run; returns the paths written.

    table_metrics.*: one row per classifier with the four metrics, in each
    of the config's ``formats``.
    table_average.*: the same plus the per-classifier Average column.
    figure_bar_series.csv: long-form (classifier, metric, value) series.
    figure_radar_series.csv: wide per-classifier series with Average.
    figure_tuning_trace.csv: per-iteration best fitness and best point.
    metrics.json: the deterministic metric document.
    manifest.json: metrics plus timings, configuration, and tool version.
    """
    formats = manifest.config.formats
    out = make_output_dir(out_dir)

    written: list[Path] = []
    written += _write_table(out, "table_metrics", _table_rows(manifest, False), formats)
    written += _write_table(out, "table_average", _table_rows(manifest, True), formats)

    bar_rows: list[list[str]] = [["classifier", "metric", "value"]]
    for result in manifest.models:
        for metric, value in zip(METRIC_COLUMNS, result.report.as_row()):
            bar_rows.append([result.name, metric, format_real(value)])
    target = out / "figure_bar_series.csv"
    _write_csv_rows(target, bar_rows)
    written.append(target)

    radar_rows = _table_rows(manifest, True)
    target = out / "figure_radar_series.csv"
    _write_csv_rows(target, radar_rows)
    written.append(target)

    if manifest.tuning is not None:
        trace_rows: list[list[str]] = [
            ["iteration", "best_fitness", "max_depth", "min_samples_split", "min_samples_leaf"]
        ]
        for entry in manifest.tuning.trace:
            trace_rows.append(
                [
                    str(entry.iteration),
                    format_real(entry.fitness),
                    *(str(v) for v in entry.point),
                ]
            )
        target = out / "figure_tuning_trace.csv"
        _write_csv_rows(target, trace_rows)
        written.append(target)

    target = out / "metrics.json"
    write_file(
        target,
        (json.dumps(manifest.metrics_document(), indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    written.append(target)

    target = out / "manifest.json"
    write_file(
        target, (json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    written.append(target)
    return written


def run_and_emit(config: ExperimentConfig, out_dir: str | Path | None = None) -> tuple[RunManifest, list[Path]]:
    manifest = run_experiment(config)
    paths = emit_reports(manifest, out_dir if out_dir is not None else config.output_dir)
    return manifest, paths
