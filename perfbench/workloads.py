"""The three batch workloads: their seeded inputs and their output fingerprints.

Each workload turns a variant number into the arguments of one `flowgate`
CLI job, and turns the job's output directory into a fingerprint: a small
JSON-able dict that is compared with the reference fingerprint recorded at
the commit that defined the benchmark. A fingerprint pins what must not
change (report table bytes, cleaned values, saved-model predictions) and
leaves out what may (`metrics.json`, number formatting of the cleaned CSVs).

Why the variants are chosen as they are:

- tune-gate6 always runs the gate-6 config at its seed 2026. The EPSO
  trajectory is chaotic in the config seed: over seeds 2026..2033 the same
  config did 77..133 tree fits and took 16..35 s, so a seeded variant would
  measure the seed, not the code.
- train-ensemble trains on N_VARIANTS seeded datasets; the jobs of one run
  walk through consecutive variants, so a run's median covers the tree
  sizes of several datasets instead of one.
- ingest-csv parses one seeded CSV per run (work is set by its shape, not its
  values), built once per seed and cached because writing it takes seconds.

Both seeded workloads draw from N_VARIANTS inputs, so the references stay a
small committed file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np

N_VARIANTS = 16

CSE2018_CLASSES = (
    "Benign", "DDoS", "DoS", "Brute Force", "Botnet", "Infiltration", "Web attacks",
)
TS_PARTS = ("year", "month", "day", "hour", "minute", "second")


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def _replace_atomically(path: Path, write) -> None:
    """write(tmp) then rename, so a reader never sees a half-written input."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


def _write_json(path: Path, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _replace_atomically(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


class TuneGate6:
    """`flowgate report` on the gate-6 config (dt + EPSO 20x30)."""

    name = "tune-gate6"
    n_variants = 1

    def __init__(self, tiny: bool = False) -> None:
        # the smallest class needs about 50k rows to reach the tuning holdout,
        # so the tiny size shrinks the swarm instead of the data
        self.tuning = {"enabled": True, "holdout_fraction": 0.5}
        if tiny:
            self.tuning.update(n_particles=3, n_iterations=1)

    def variant(self, seed: int, job: int) -> int:
        return 0

    def config(self, variant: int) -> dict:
        return {
            "seed": 2026,
            "dataset": {
                "kind": "synthetic",
                "n_rows": 50_000,
                "profile": "cse2018",
                "n_features": 6,
                "cluster_separation": 8.0,
            },
            "corruption": {"dup_rate": 0.05, "nan_rate": 0.01, "n_constant_cols": 2},
            "models": ["dt"],
            "tuning": self.tuning,
        }

    def prepare(self, variant: int, cache: Path) -> tuple[str, ...]:
        """The job's flowgate arguments, without --out."""
        path = cache / f"{self.name}-{variant}.json"
        _write_json(path, self.config(variant))
        return ("report", "--config", str(path))

    def fingerprint(self, variant: int, out: Path) -> dict:
        return {
            name: (out / name).read_text(encoding="utf-8")
            for name in ("table_metrics.csv", "figure_tuning_trace.csv")
        }

    def rows_loaded(self, out: Path, stdout: str) -> int:
        return _load_rows_from_metrics(out)


class TrainEnsemble:
    """`flowgate train --save-models` with baseline, dt, rf and gbt."""

    name = "train-ensemble"
    n_variants = N_VARIANTS

    def __init__(self, tiny: bool = False) -> None:
        self.n_rows = 1_500 if tiny else 6_000
        self.n_trees = 2 if tiny else 10
        self.n_rounds = 1 if tiny else 5
        self._splits: dict[int, object] = {}

    def variant(self, seed: int, job: int) -> int:
        return (seed + job) % self.n_variants

    def config(self, variant: int) -> dict:
        return {
            "seed": variant,
            "dataset": {
                "kind": "synthetic",
                "n_rows": self.n_rows,
                "profile": "cse2018",
                "n_features": 12,
                "cluster_separation": 4.0,
            },
            "models": [
                "baseline",
                "dt",
                {"type": "rf", "n_trees": self.n_trees},
                {"type": "gbt", "n_rounds": self.n_rounds},
            ],
        }

    def prepare(self, variant: int, cache: Path) -> tuple[str, ...]:
        path = cache / f"{self.name}-{self.n_rows}-{variant}.json"
        _write_json(path, self.config(variant))
        return ("train", "--save-models", "--config", str(path))

    def _test_split(self, variant: int):
        # the split the CLI trains and evaluates on, rebuilt through the library
        if variant not in self._splits:
            from flowgate.config import ExperimentConfig
            from flowgate.harness import build_source
            from flowgate.prep import PrepOptions, preprocess_pipeline

            config = ExperimentConfig.from_dict(self.config(variant))
            source, profile, _ = build_source(config)
            options = PrepOptions(
                split_ratio=config.split_ratio, seed=config.seed + 2, fit_scope=config.fit_scope
            )
            split, _ = preprocess_pipeline(source, profile, options)
            self._splits[variant] = split.test
        return self._splits[variant]

    def fingerprint(self, variant: int, out: Path) -> dict:
        from flowgate.models import load_model

        test = self._test_split(variant)
        predictions = {}
        for kind in ("baseline", "dt", "rf", "gbt"):
            model = load_model(out / f"model_{kind}.json")
            predicted = np.asarray(model.predict(test), dtype=np.int64)
            predictions[kind] = _sha256(predicted.tobytes())
        return {
            "table_metrics.csv": (out / "table_metrics.csv").read_text(encoding="utf-8"),
            "test_predictions_sha256": predictions,
        }

    def rows_loaded(self, out: Path, stdout: str) -> int:
        return _load_rows_from_metrics(out)


class IngestCsv:
    """`flowgate ingest --out` on a corrupted flow CSV with timestamp parts."""

    name = "ingest-csv"
    n_variants = N_VARIANTS

    def __init__(self, tiny: bool = False) -> None:
        self.n_rows = 1_000 if tiny else 16_000
        self.n_features = 12 if tiny else 63

    def variant(self, seed: int, job: int) -> int:
        return seed % self.n_variants

    def profile(self) -> dict:
        return {
            "name": "bench-ingest",
            "label_column": "label",
            "class_names": list(CSE2018_CLASSES),
            "drop_columns": ["flow_id"],
            "timestamp_merge": {
                "start_columns": [f"ts_{p}" for p in TS_PARTS],
                "end_columns": [f"te_{p}" for p in TS_PARTS],
            },
        }

    def prepare(self, variant: int, cache: Path) -> tuple[str, ...]:
        stem = cache / f"{self.name}-{self.n_rows}x{self.n_features}-{variant}"
        csv_path = Path(f"{stem}.csv")
        profile_path = Path(f"{stem}.profile.json")
        if not (csv_path.exists() and profile_path.exists()):
            self._write_csv(variant, csv_path)
            _write_json(profile_path, self.profile())
        return ("ingest", "--csv", str(csv_path), "--profile", str(profile_path))

    def _write_csv(self, variant: int, path: Path) -> None:
        from flowgate.dataset import KIND_CATEGORICAL, KIND_NUMERIC, ColumnSchema
        from flowgate.prep import RawTable, write_csv
        from flowgate.synth import SynthSpec, corrupt, generate_flows

        seed = 5000 + variant
        spec = SynthSpec.from_profile_name(
            "cse2018", n_rows=self.n_rows, n_features=self.n_features,
            cluster_separation=8.0, seed=seed,
        )
        raw, ledger = corrupt(
            generate_flows(spec), dup_rate=0.05, nan_rate=0.01, inf_rate=0.005,
            n_constant_cols=2, seed=seed + 1,
        )
        n = raw.n_rows
        rng = np.random.default_rng(seed + 2)
        start = np.datetime64("2018-02-14T00:00:00") + rng.integers(0, 28 * 86_400, n)
        end = start + rng.integers(0, 7_200, n)
        proto = np.asarray(["tcp", "udp", "icmp"], dtype=object)[
            rng.choice(3, size=n, p=[0.7, 0.25, 0.05])
        ]
        # duplicated rows carry their source's extra cells, so dedup still sees copies
        for src, dst in ledger.duplicate_rows:
            start[dst], end[dst], proto[dst] = start[src], end[src], proto[src]

        schema = [ColumnSchema("flow_id", KIND_CATEGORICAL, 0)]
        cells = [np.asarray([f"flow-{i:07d}" for i in range(n)], dtype=object)]
        for prefix, stamps in (("ts", start), ("te", end)):
            for part, values in zip(TS_PARTS, _calendar_parts(stamps)):
                schema.append(ColumnSchema(f"{prefix}_{part}", KIND_NUMERIC, len(schema)))
                cells.append(values)
        schema.append(ColumnSchema("proto", KIND_CATEGORICAL, len(schema)))
        cells.append(proto)
        for col, arr in zip(raw.schema, raw.cells):
            schema.append(ColumnSchema(col.name, col.kind, len(schema)))
            cells.append(arr)
        table = RawTable(schema, cells)
        _replace_atomically(path, lambda tmp: write_csv(table, tmp))

    def fingerprint(self, variant: int, out: Path) -> dict:
        return {name: _csv_values(out / name) for name in ("train.csv", "test.csv")}

    def rows_loaded(self, out: Path, stdout: str) -> int:
        return int(re.search(r"^load: rows (\d+) ->", stdout, re.MULTILINE).group(1))


def _load_rows_from_metrics(out: Path) -> int:
    """Rows entering the load stage, from the prep report in metrics.json."""
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    return int(doc["prep"][0]["rows_before"])


def _calendar_parts(stamps: np.ndarray) -> list[np.ndarray]:
    """Year..second of datetime64[s] values, as float64 columns."""
    years = stamps.astype("datetime64[Y]")
    months = stamps.astype("datetime64[M]")
    days = stamps.astype("datetime64[D]")
    seconds = (stamps - days).astype(np.int64)
    parts = [
        years.astype(np.int64) + 1970,
        (months - years).astype(np.int64) + 1,
        (days - months).astype(np.int64) + 1,
        seconds // 3600,
        seconds // 60 % 60,
        seconds % 60,
    ]
    return [p.astype(np.float64) for p in parts]


def _csv_values(path: Path) -> dict:
    """Digest of a cleaned CSV by value: header, float64 features, labels."""
    with path.open("r", encoding="utf-8", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    values = np.array([row[:-1] for row in rows], dtype=np.float64).reshape(len(rows), -1)
    labels = "\n".join(row[-1] for row in rows).encode("utf-8")
    return {
        "rows": len(rows),
        "columns": len(header),
        "sha256": _sha256("\n".join(header).encode("utf-8"), values.tobytes(), labels),
    }


WORKLOADS = {w.name: w for w in (TuneGate6, TrainEnsemble, IngestCsv)}
