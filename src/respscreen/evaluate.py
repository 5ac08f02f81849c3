"""Nested cross-validation orchestration, reports, and sweeps.

The outer loop is ten user-disjoint 80/20 splits; the inner loop is a
5-fold user-disjoint grid search. Standardizer, PCA, and classifiers see
training rows only. Augmentation (when enabled, tasks 2-3) expands the
training negatives six-fold; the test side is never augmented and is
always class-balanced.

A nested CV is planned (`plan_nested_cv`), solved and reported
(`nested_cv_reports`). `run_nested_cv` takes one config or several, and a
sweep is one call with all of its configs: each is planned in turn,
keeping arrays only, and the LR configs are solved together.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import augment as aug
from . import features as feat
from .audio_io import TARGET_SAMPLE_RATE, AudioSegment, decode_wav, resample, trim_silence
from .dataset import SampleRecord, apply_task, balance, split_users
from .embeddings import combine, pool
from .errors import (UNUSABLE_RECORDING, ConfigError, EmptyCohort, NonFiniteFeature,
                     RespScreenError, skip_reason)
from .metrics import precision_recall, roc_auc
from .model import (DECISION_THRESHOLD, PCA_CUTOFFS, fit_pipeline, fit_pipelines, fit_slices,
                    grid_search, plan_search)
from .util import csv_text, write_text_atomic

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
    """Keeps each recording's handcrafted vector, its pooled embedding and,
    for an unusable recording, its error, by sample id, so folds and sweep
    cells share work. It keeps no decoded audio: a run holds one recording's
    audio at a time, while it is extracted or augmented."""

    def __init__(self, base_dir, embeddings: dict[str, np.ndarray] | None = None):
        self.base_dir = Path(base_dir)
        self.embeddings = embeddings
        self._errors: dict[str, tuple[type[RespScreenError], tuple]] = {}
        self._handcrafted: dict[str, np.ndarray] = {}
        self._pooled: dict[str, np.ndarray] = {}

    def segment(self, record: SampleRecord) -> AudioSegment:
        """The recording's segment, loaded anew on every call, so augmenting a
        negative decodes it a second time. An unusable recording
        (`UNUSABLE_RECORDING`) raises its error again without reloading, as a
        fresh exception: a stored one would keep the frames it last passed
        through alive in its traceback."""
        key = record.sample_id
        if key not in self._errors:
            try:
                return load_segment(self.base_dir / record.audio_path)
            except UNUSABLE_RECORDING as exc:
                self._errors[key] = (type(exc), exc.args)
        error_type, args = self._errors[key]
        raise error_type(*args)

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
            with np.errstate(over="ignore", invalid="ignore"):  # huge frames overflow the std
                pooled = pool(self.embeddings[key])
            if not np.all(np.isfinite(pooled)):
                raise NonFiniteFeature(f"pooled embedding of sample {key!r} is not finite")
            self._pooled[key] = pooled
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
    """A run's classification units and feature rows, plus the units dropped
    as unusable. Row `i < len(units)` is `units[i]`'s own; with augmentation,
    the six variant rows of each negative unit follow, in unit order. Every
    row has a label `y[i]` and the user `users[i]` who owns it."""

    units: tuple[Unit, ...]
    X: np.ndarray
    y: np.ndarray
    users: np.ndarray
    skipped: tuple[tuple[str, str], ...]  # (unit key, "Type: message")


def build_cohort(records: list[SampleRecord], config: RunConfig, store: FeatureStore) -> Cohort:
    """The task's units for the configured modality and one feature row per unit.

    A unit with an unusable recording (`UNUSABLE_RECORDING`) is dropped and
    listed in `skipped`, as `extract` does with such recordings. A multi-record
    unit's augmented row j joins variant j of each of its records.
    """
    modalities = ("cough", "breath") if config.modality == "combined" else (config.modality,)
    positives, negatives = apply_task(records, config.task_id, modalities)
    units, rows, skipped = [], [], []
    for unit in build_units(positives, negatives, config.modality):
        try:
            rows.append(unit_vector(unit, store, config.feature_type))
        except UNUSABLE_RECORDING as exc:
            skipped.append((unit.key, skip_reason(exc)))
            continue
        units.append(unit)
    y = np.asarray([u.label for u in units])
    for label, name in ((1, "positive"), (0, "negative")):
        if not np.any(y == label):
            raise EmptyCohort(f"task {config.task_id}: no usable {name} units")
    owners = list(range(len(units)))  # the unit each row belongs to
    if config.augment:  # every negative's variants; each fold takes its training users' rows
        for i in np.flatnonzero(y == 0):
            per_record = [[feat.extract_handcrafted(v.segment)
                           for v in aug.augment_six(store.segment(r), r.sample_id, config.seed)]
                          for r in units[i].records]
            for variant_rows in zip(*per_record):
                rows.append(np.concatenate(variant_rows))
                owners.append(i)
    users = np.asarray([units[i].user_id for i in owners])
    return Cohort(tuple(units), np.asarray(rows), y[owners], users, tuple(skipped))


def select_and_fit(X, y, users, slices: list, kind: str, cutoffs):
    """Per training slice `(rows, seed)` and PCA cutoff, the cell an inner
    user-disjoint grid search picks and the pipeline refit on the whole
    slice with it, as `(cell, pipeline)`: a nested CV's selection and
    refit, with pipelines built for a model file. `rows` is an integer
    array of row indices into the run's matrix `X`, whose rows have labels
    `y` and owners `users`."""
    [selected] = grid_search([plan_search(X, y, users, slices, cutoffs)], kind)
    if isinstance(selected, RespScreenError):
        raise selected
    pipelines = fit_pipelines(X, y, [(rows, list(zip(cutoffs, cells)))
                                     for (rows, _), cells in zip(slices, selected)], kind)
    return [list(zip(cells, pipes, strict=True)) for cells, pipes in zip(selected, pipelines)]


@dataclass(frozen=True)
class NestedPlan:
    """A nested CV up to its solves, as arrays: the report configs, one per
    cutoff, the units left out, and per outer fold, its inner folds planned
    for `grid_search`, its training slice planned with the test rows held
    out, and the number of its test users."""

    configs: tuple[RunConfig, ...]
    skipped: tuple[tuple[str, str], ...]
    search: list
    outer: list
    n_test_users: list


def plan_nested_cv(records, config: RunConfig, store: FeatureStore, cutoffs) -> NestedPlan:
    """Build the cohort, the splits and the inner folds of `config`'s nested
    CV, and preprocess every training slice, keeping its projections only.
    With `cutoffs`, the cutoffs share the cohort, the splits and each
    training slice's standardizer and PCA decomposition."""
    configs = (config,) if cutoffs is None else tuple(replace(config, pca_cutoff=c)
                                                      for c in cutoffs)
    pca_cutoffs = [c.pca_cutoff for c in configs]
    cohort = build_cohort(records, config, store)
    units, X, y, users = cohort.units, cohort.X, cohort.y, cohort.users
    splits = split_users([u for u in units if u.label == 1], [u for u in units if u.label == 0],
                         config.seed)

    train_slices, tests = [], []  # per outer fold
    for fold_idx, (train_users, test_users) in enumerate(splits):
        # training takes every row of its users, variants included; test only originals
        train = np.flatnonzero(np.isin(users, list(train_users)))
        test = np.flatnonzero(np.isin(users[:len(units)], list(test_users)))
        assert not set(users[test]) & train_users

        test = test[balance(y[test], seed=hash((config.seed, fold_idx)) % 2**32)]
        if not config.augment:  # augmented training keeps every original and variant
            train = train[balance(y[train], seed=hash((config.seed, fold_idx, 1)) % 2**32)]
        train_slices.append((train, config.seed + fold_idx))
        tests.append(test)

    search = plan_search(X, y, users, train_slices, pca_cutoffs)
    outer = fit_pipeline(X, y, [(train, test) for (train, _), test in zip(train_slices, tests)],
                         pca_cutoffs)
    return NestedPlan(configs, cohort.skipped, search, outer,
                      [len(set(users[test])) for test in tests])


def nested_cv_reports(plan: NestedPlan, cells, refits) -> tuple[EvaluationReport, ...]:
    """One report per cutoff of a planned nested CV, from its selected cells
    and refits per outer fold: an outer fold's test rows are scored for
    every cutoff as one matrix, with one `roc_auc` and one
    `precision_recall` call."""
    folds: list[list[FoldResult]] = [[] for _ in plan.configs]  # per cutoff
    threshold = DECISION_THRESHOLD[plan.configs[0].classifier_kind]
    for outer, fold_cells, refit, n_test_users in zip(plan.outer, cells, refits,
                                                      plan.n_test_users, strict=True):
        scores = refit.scores()
        aucs = roc_auc(scores, outer.held_y)  # one per cutoff
        pr = precision_recall(scores, outer.held_y, threshold)
        for j, (cutoff_folds, config, cell) in enumerate(zip(folds, plan.configs, fold_cells,
                                                             strict=True)):
            cutoff_folds.append(
                FoldResult(
                    auc=float(aucs[j]),
                    precision=float(pr.precision[j]),
                    recall=float(pr.recall[j]),
                    hyperparameters=cell,
                    pca_k=outer.k(config.pca_cutoff),
                    n_train=outer.n,
                    n_test=len(outer.held_y),
                    n_test_users=n_test_users,
                )
            )
    return tuple(EvaluationReport(c, tuple(f), aggregate_folds(f), plan.skipped)
                 for c, f in zip(plan.configs, folds))


def _attempt(catch, fn, *args):
    """`fn(*args)`, or the exception of a type in `catch` that it raised,
    kept without its traceback, whose frames would hold the run's arrays."""
    try:
        return fn(*args)
    except catch as exc:
        return exc.with_traceback(None)


def run_nested_cv(
    records: list[SampleRecord],
    config: RunConfig | Sequence[RunConfig],
    base_dir=None,
    store: FeatureStore | None = None,
    cutoffs: tuple[float, ...] | None = None,
):
    """User-disjoint nested CV of `config`, reported at `config.pca_cutoff`.
    Features come from `store`, or else from `FeatureStore(base_dir)`, which
    holds no embeddings; `base_dir` defaults to the working directory, and
    passing both is a `ValueError`.

    Given `cutoffs`, it returns one report per cutoff, in order. The cutoffs
    share the cohort, the splits and each training slice's standardizer and
    PCA decomposition; each cutoff selects its own hyperparameters.

    Given a sequence of configs, it returns per config what a lone call
    would, or the `RespScreenError` that config raised (without its
    traceback); other exceptions propagate. The configs are one plan: each
    is planned in turn (`plan_nested_cv`), keeping arrays only, then every
    LR config's inner folds are solved by one `grid_search` and its refits
    by one `fit_slices`, so a sweep makes two `fit_lr` calls. An SVM fit
    keeps copies of its support vectors, so each SVM config is solved on its
    own. A `RespScreenError` raised inside a shared solve is raised for the
    whole call.
    """
    lone = isinstance(config, RunConfig)
    configs = [config] if lone else list(config)
    if store is None:
        store = FeatureStore("." if base_dir is None else base_dir)
    elif base_dir is not None:
        raise ValueError("give base_dir or store, not both")
    catch = () if lone else RespScreenError
    outcomes: list = [None] * len(configs)
    # LR fits are arrays, so the LR configs are solved together; an SVM fit
    # keeps copies of its support vectors, so each SVM config is solved alone
    lr = [i for i, c in enumerate(configs) if c.classifier_kind == "lr"]
    batches = ([lr] if lr else []) + [[i] for i in range(len(configs)) if i not in lr]
    for batch in batches:
        kind = configs[batch[0]].classifier_kind
        for i in batch:
            outcomes[i] = _attempt(catch, plan_nested_cv, records, configs[i], store, cutoffs)
        planned = [i for i in batch if isinstance(outcomes[i], NestedPlan)]
        chosen = []  # (config, its cells per outer fold)
        for i, cells in zip(planned, grid_search([outcomes[i].search for i in planned], kind)):
            if isinstance(cells, RespScreenError):
                if lone:
                    raise cells
                outcomes[i] = cells
            else:
                chosen.append((i, cells))
        outers = [(outer, fold_cells) for i, cells in chosen
                  for outer, fold_cells in zip(outcomes[i].outer, cells)]
        refits = iter(fit_slices([outer for outer, _ in outers],
                                 [list(zip(outer.cutoffs, cells)) for outer, cells in outers],
                                 kind))
        for i, cells in chosen:
            plan = outcomes[i]
            outcomes[i] = _attempt(catch, nested_cv_reports, plan, cells,
                                   [next(refits) for _ in plan.outer])
    if cutoffs is None:
        outcomes = [o if isinstance(o, RespScreenError) else o[0] for o in outcomes]
    return outcomes[0] if lone else outcomes


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
) -> list[SweepRow]:
    """Cross product over `MODALITY_CHOICES` x `PCA_CUTOFFS` x `FEATURE_TYPES`.

    Each (modality, feature type) is one nested CV that reports all the
    cutoffs, and all of them are one `run_nested_cv` call: one plan, whose
    LR fits take two solver calls. Cells needing embeddings are marked
    `skipped` when none are loaded; a (modality, feature type) that fails
    with a `RespScreenError` is recorded as `error:<type>: <message>` in each
    of its cutoffs, and the other rows are as their lone runs give. Other
    exceptions are bugs and propagate.
    """
    store = FeatureStore(base_dir, embeddings)
    configs = [RunConfig(task_id=task_id, modality=modality, feature_type=feature_type, seed=seed)
               for modality in MODALITY_CHOICES for feature_type in FEATURE_TYPES
               if embeddings is not None or feature_type not in EMBEDDING_FEATURE_TYPES]
    outcomes = run_nested_cv(records, configs, store=store, cutoffs=PCA_CUTOFFS)
    by_cell = {(c.modality, c.feature_type): o for c, o in zip(configs, outcomes, strict=True)}
    rows = []
    for modality in MODALITY_CHOICES:
        for i, cutoff in enumerate(PCA_CUTOFFS):
            for feature_type in FEATURE_TYPES:
                base = dict(task=task_id, modality=modality, feature_type=feature_type,
                            pca_cutoff=cutoff)
                outcome = by_cell.get((modality, feature_type))
                if outcome is None:
                    rows.append(SweepRow(**base, status="skipped"))
                elif isinstance(outcome, RespScreenError):
                    rows.append(SweepRow(**base, status=f"error:{skip_reason(outcome)}"))
                else:
                    agg = outcome[i].aggregate
                    metrics = {col: agg[m][stat] for col, (m, stat) in METRIC_COLUMNS.items()}
                    rows.append(SweepRow(**base, **metrics))
    return rows


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    return csv_text(SWEEP_COLUMNS, (astuple(r) for r in rows))


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
