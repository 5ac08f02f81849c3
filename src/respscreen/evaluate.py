"""Nested cross-validation orchestration, reports, and sweeps.

The outer loop is ten user-disjoint 80/20 splits; the inner loop is a
5-fold user-disjoint grid search. Standardizer, PCA, and classifiers see
training rows only. Augmentation (when enabled, tasks 2-3) expands the
training negatives six-fold; the test side is never augmented and is
always class-balanced.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import augment as aug
from . import features as feat
from .audio_io import TARGET_SAMPLE_RATE, AudioSegment, decode_wav, resample, trim_silence
from .dataset import SampleRecord, apply_task, balance, split_users
from .embeddings import combine, pool
from .errors import ConfigError, EmptyCohort, RespScreenError, SilentSample, TooShort, skip_reason
from .metrics import precision_recall, roc_auc
from .model import GridSpec, PCA_CUTOFFS, fit_pipeline, grid_search
from .util import write_text_atomic

MODALITY_CHOICES = ("cough", "breath", "combined")
FEATURE_TYPES = ("handcrafted", "vggish", "combined-A", "combined-B", "combined-C")
EMBEDDING_FEATURE_TYPES = ("vggish", "combined-A", "combined-B", "combined-C")
METRICS = ("auc", "precision", "recall")


@dataclass(frozen=True)
class RunConfig:
    task_id: int
    modality: str = "cough"
    feature_type: str = "handcrafted"
    pca_cutoff: float = 0.95
    augment: bool = False
    seed: int = 0
    classifier: str | None = None  # default: lr for task 1, svm-rbf otherwise

    def __post_init__(self):
        if self.task_id not in (1, 2, 3):
            raise ConfigError(f"unknown task {self.task_id}")
        if self.modality not in MODALITY_CHOICES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        if self.feature_type not in FEATURE_TYPES:
            raise ConfigError(f"unknown feature type {self.feature_type!r}")
        if self.pca_cutoff not in PCA_CUTOFFS:
            raise ConfigError(f"pca_cutoff must be one of {PCA_CUTOFFS}")
        if self.augment and self.task_id == 1:
            raise ConfigError("augmentation is restricted to tasks 2 and 3")
        if self.augment and self.feature_type != "handcrafted":
            # embedding halves cannot be recomputed without the external network
            raise ConfigError("augmentation requires feature-type=handcrafted")
        if self.classifier not in (None, "lr", "svm-rbf"):
            raise ConfigError(f"unknown classifier {self.classifier!r}")

    @property
    def classifier_kind(self) -> str:
        if self.classifier:
            return self.classifier
        return "lr" if self.task_id == 1 else "svm-rbf"


@dataclass(frozen=True)
class FoldResult:
    auc: float
    precision: float
    recall: float
    hyperparameters: dict
    pca_k: int
    n_train: int
    n_test: int
    n_test_users: int


@dataclass(frozen=True)
class EvaluationReport:
    config: RunConfig
    folds: tuple[FoldResult, ...]
    aggregate: dict  # metric -> {"mean": ..., "std": ...}
    skipped: tuple[tuple[str, str], ...]  # (unit key, "Type: message")


def aggregate_folds(folds) -> dict:
    out = {}
    for metric in METRICS:
        vals = np.array([getattr(f, metric) for f in folds])
        out[metric] = {"mean": float(vals.mean()), "std": float(vals.std())}
    return out


def load_segment(path) -> AudioSegment:
    """The segment every feature is computed from: the decoded recording,
    resampled to the target rate and trimmed of leading/trailing silence.
    Raises `TooShort` for a segment too short for the handcrafted features."""
    seg = trim_silence(resample(decode_wav(Path(path).read_bytes()), TARGET_SAMPLE_RATE))
    feat.check_length(seg)
    return seg


class FeatureStore:
    """Caches each recording's segment, handcrafted vector and pooled
    embedding, by sample id, so folds and sweep cells share work."""

    def __init__(self, base_dir, embeddings: dict[str, np.ndarray] | None = None):
        self.base_dir = Path(base_dir)
        self.embeddings = embeddings
        self._segments: dict[str, AudioSegment | SilentSample | TooShort] = {}
        self._handcrafted: dict[str, np.ndarray] = {}
        self._pooled: dict[str, np.ndarray] = {}

    def segment(self, record: SampleRecord):
        """The recording's segment; a silent or too-short recording raises its
        `SilentSample`/`TooShort` again on every request without reloading."""
        key = record.sample_id
        if key not in self._segments:
            try:
                self._segments[key] = load_segment(self.base_dir / record.audio_path)
            except (SilentSample, TooShort) as exc:
                self._segments[key] = exc
        segment = self._segments[key]
        if isinstance(segment, Exception):
            raise segment.with_traceback(None)
        return segment

    def handcrafted(self, record: SampleRecord) -> np.ndarray:
        key = record.sample_id
        if key not in self._handcrafted:
            self._handcrafted[key] = feat.extract_handcrafted(self.segment(record))
        return self._handcrafted[key]

    def pooled(self, record: SampleRecord) -> np.ndarray:
        if self.embeddings is None:
            raise ConfigError("this feature type needs --embeddings")
        key = record.sample_id
        if key not in self._pooled:
            if key not in self.embeddings:
                raise ConfigError(f"no embedding frames for sample {key!r}")
            self._pooled[key] = pool(self.embeddings[key])
        return self._pooled[key]

    def vector(self, record: SampleRecord, feature_type: str) -> np.ndarray:
        if feature_type == "handcrafted":
            return self.handcrafted(record)
        if feature_type == "vggish":
            return self.pooled(record)
        variant = feature_type.split("-")[1]
        return combine(self.handcrafted(record), self.pooled(record), variant)


@dataclass(frozen=True)
class Unit:
    """One classification instance: a recording, or a cough+breath pair."""

    key: str
    user_id: str
    label: int
    records: tuple[SampleRecord, ...]


def build_units(positives, negatives, modality: str) -> list[Unit]:
    """Classification units for a modality choice; `combined` pairs the two
    modalities of the same user session and drops unpaired sessions."""
    units: list[Unit] = []
    for label, records in ((1, positives), (0, negatives)):
        if modality in ("cough", "breath"):
            for r in sorted(records, key=lambda r: r.sample_id):
                units.append(Unit(r.sample_id, r.user_id, label, (r,)))
        else:
            by_session: dict[tuple, dict[str, SampleRecord]] = {}
            for r in records:
                by_session.setdefault((r.user_id, r.collected_at), {})[r.modality] = r
            for (user_id, ts), mods in sorted(by_session.items()):
                if "cough" in mods and "breath" in mods:
                    units.append(
                        Unit(f"{user_id}@{ts}", user_id, label, (mods["cough"], mods["breath"]))
                    )
    return units


def unit_vector(unit: Unit, store: FeatureStore, feature_type: str) -> np.ndarray:
    return np.concatenate([store.vector(r, feature_type) for r in unit.records])


@dataclass(frozen=True)
class Cohort:
    """A run's classification units and their feature rows, `X[i]` and
    `y[i]` belonging to `units[i]`, plus the units dropped as unusable.
    With augmentation, `augmented[j]` is a variant row of the negative unit
    `units[augmented_unit[j]]`; without, both are empty."""

    units: tuple[Unit, ...]
    X: np.ndarray
    y: np.ndarray
    skipped: tuple[tuple[str, str], ...]  # (unit key, "Type: message")
    augmented: np.ndarray
    augmented_unit: np.ndarray


def build_cohort(records: list[SampleRecord], config: RunConfig, store: FeatureStore) -> Cohort:
    """The task's units for the configured modality and one feature row per unit.

    A unit with a silent or too-short recording is dropped and listed in
    `skipped`, as `extract` does with such recordings. A multi-record
    unit's augmented row j joins variant j of each of its records.
    """
    modalities = ("cough", "breath") if config.modality == "combined" else (config.modality,)
    positives, negatives = apply_task(records, config.task_id, modalities)
    units, rows, skipped = [], [], []
    for unit in build_units(positives, negatives, config.modality):
        try:
            rows.append(unit_vector(unit, store, config.feature_type))
        except (SilentSample, TooShort) as exc:
            skipped.append((unit.key, skip_reason(exc)))
            continue
        units.append(unit)
    y = np.asarray([u.label for u in units])
    for label, name in ((1, "positive"), (0, "negative")):
        if not np.any(y == label):
            raise EmptyCohort(f"task {config.task_id}: no usable {name} units")
    augmented, augmented_unit = [], []
    if config.augment:  # every negative's variants; each fold takes its training ones
        for i in np.flatnonzero(y == 0):
            per_record = [[feat.extract_handcrafted(v.segment)
                           for v in aug.augment_six(store.segment(r), r.sample_id, config.seed)]
                          for r in units[i].records]
            for variant_rows in zip(*per_record):
                augmented.append(np.concatenate(variant_rows))
                augmented_unit.append(i)
    return Cohort(tuple(units), np.asarray(rows), y, tuple(skipped),
                  np.asarray(augmented), np.asarray(augmented_unit, dtype=int))


def run_nested_cv(
    records: list[SampleRecord],
    config: RunConfig,
    base_dir=".",
    embeddings: dict[str, np.ndarray] | None = None,
    grid: GridSpec = GridSpec(),
    store: FeatureStore | None = None,
    cutoffs: tuple[float, ...] | None = None,
) -> EvaluationReport | tuple[EvaluationReport, ...]:
    """User-disjoint nested CV of `config`, reported at `config.pca_cutoff`.

    Given `cutoffs`, the run reports each of them instead and returns one
    report per cutoff, in order. The cutoffs share the cohort, the splits
    and, in every training slice, one standardizer and SVD; each cutoff
    selects its own hyperparameters.
    """
    configs = [config] if cutoffs is None else [replace(config, pca_cutoff=c) for c in cutoffs]
    pca_cutoffs = [c.pca_cutoff for c in configs]
    if store is None:
        store = FeatureStore(base_dir, embeddings)
    cohort = build_cohort(records, config, store)
    units, X, y = cohort.units, cohort.X, cohort.y
    users = np.asarray([u.user_id for u in units])
    splits = split_users([u for u in units if u.label == 1], [u for u in units if u.label == 0],
                         config.seed)

    folds: list[list[FoldResult]] = [[] for _ in configs]  # per cutoff
    for fold_idx, (train_users, test_users) in enumerate(splits):
        assert not train_users & test_users
        train = np.flatnonzero(np.isin(users, list(train_users)))
        test = np.flatnonzero(np.isin(users, list(test_users)))
        assert not set(users[test]) & train_users

        test = test[balance(y[test], seed=hash((config.seed, fold_idx)) % 2**32)]
        if not config.augment:
            train = train[balance(y[train], seed=hash((config.seed, fold_idx, 1)) % 2**32)]

        X_train, y_train, users_train = X[train], y[train], users[train]
        if config.augment:
            # negatives only, training only; originals are retained
            extra = np.isin(cohort.augmented_unit, train)
            X_train = np.vstack([X_train, cohort.augmented[extra]])
            y_train = np.concatenate([y_train, np.zeros(np.count_nonzero(extra), dtype=y.dtype)])
            users_train = np.concatenate([users_train, users[cohort.augmented_unit[extra]]])
        X_test, y_test = X[test], y[test]

        kind = config.classifier_kind
        params = grid_search(X_train, y_train, users_train, kind, grid,
                             seed=config.seed + fold_idx, pca_cutoffs=pca_cutoffs)
        pipelines = fit_pipeline(X_train, y_train, kind, list(zip(pca_cutoffs, params)))
        for cutoff_folds, pipeline, cell in zip(folds, pipelines, params, strict=True):
            scores = pipeline.decision_scores(X_test)
            pr = precision_recall(scores, y_test, pipeline.classifier.threshold)
            cutoff_folds.append(
                FoldResult(
                    auc=roc_auc(scores, y_test),
                    precision=pr.precision,
                    recall=pr.recall,
                    hyperparameters=cell,
                    pca_k=pipeline.pca.k,
                    n_train=len(y_train),
                    n_test=len(y_test),
                    n_test_users=len(set(users[test])),
                )
            )
    reports = tuple(EvaluationReport(c, tuple(f), aggregate_folds(f), cohort.skipped)
                    for c, f in zip(configs, folds))
    return reports[0] if cutoffs is None else reports


# --- report and sweep serialization ----------------------------------------


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "config": asdict(report.config),
        "folds": [asdict(f) for f in report.folds],
        "aggregate": report.aggregate,
        "skipped": [list(entry) for entry in report.skipped],
    }


def save_report(report: EvaluationReport, path) -> None:
    write_text_atomic(path, json.dumps(report_to_dict(report), indent=2))


# A sweep row's metric columns: column name -> (metric, aggregate statistic)
METRIC_COLUMNS = {f"{m}_{stat}": (m, stat) for m in METRICS for stat in ("mean", "std")}


@dataclass(frozen=True)
class SweepRow:
    task: int
    modality: str
    feature_type: str
    pca_cutoff: float
    auc_mean: float | None = None
    auc_std: float | None = None
    precision_mean: float | None = None
    precision_std: float | None = None
    recall_mean: float | None = None
    recall_std: float | None = None
    status: str = "ok"


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def sweep(
    records: list[SampleRecord],
    task_id: int,
    seed: int,
    base_dir=".",
    embeddings: dict[str, np.ndarray] | None = None,
    grid: GridSpec = GridSpec(),
    feature_types=FEATURE_TYPES,
    modalities=MODALITY_CHOICES,
    cutoffs=PCA_CUTOFFS,
) -> list[SweepRow]:
    """Cross product over modalities x cutoffs x feature types.

    Each (modality, feature type) is one nested CV that reports all the
    cutoffs. Cells needing embeddings are marked `skipped` when none are
    loaded; a (modality, feature type) that fails with a `RespScreenError`
    is recorded as `error:<type>` in each of its cutoffs and the sweep
    continues. Other exceptions are bugs and propagate.
    """
    for cutoff in cutoffs:  # an unknown cutoff is the caller's error, not a row
        RunConfig(task_id=task_id, pca_cutoff=cutoff)
    store = FeatureStore(base_dir, embeddings)
    rows = []
    for modality in modalities:
        outcomes = {}  # feature type -> one report per cutoff, or a status
        for feature_type in feature_types:
            if feature_type in EMBEDDING_FEATURE_TYPES and embeddings is None:
                outcomes[feature_type] = "skipped"
                continue
            config = RunConfig(task_id=task_id, modality=modality, feature_type=feature_type,
                               seed=seed)
            try:
                outcomes[feature_type] = run_nested_cv(records, config, grid=grid, store=store,
                                                       cutoffs=tuple(cutoffs))
            except RespScreenError as exc:  # record and continue
                outcomes[feature_type] = f"error:{type(exc).__name__}"
        for i, cutoff in enumerate(cutoffs):
            for feature_type in feature_types:
                base = dict(task=task_id, modality=modality, feature_type=feature_type,
                            pca_cutoff=cutoff)
                outcome = outcomes[feature_type]
                if isinstance(outcome, str):
                    rows.append(SweepRow(**base, status=outcome))
                    continue
                agg = outcome[i].aggregate
                metrics = {col: agg[m][stat] for col, (m, stat) in METRIC_COLUMNS.items()}
                rows.append(SweepRow(**base, **metrics))
    return rows


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(astuple(r) for r in rows)  # csv writes floats by repr, None as ""
    return buf.getvalue()


def sweep_rows_from_csv(text: str) -> list[SweepRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != SWEEP_COLUMNS:
        raise ValueError(f"unexpected sweep header {header}")
    rows = []
    for row in reader:
        cell = dict(zip(SWEEP_COLUMNS, row))
        metrics = {col: None if cell[col] == "" else float(cell[col]) for col in METRIC_COLUMNS}
        rows.append(
            SweepRow(
                task=int(cell["task"]),
                modality=cell["modality"],
                feature_type=cell["feature_type"],
                pca_cutoff=float(cell["pca_cutoff"]),
                status=cell["status"],
                **metrics,
            )
        )
    return rows


def save_sweep(rows: list[SweepRow], path) -> None:
    write_text_atomic(path, sweep_rows_to_csv(rows))
