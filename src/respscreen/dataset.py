"""Manifest ingestion, cohort filtering, downsampling, user-disjoint splits.

Manifest CSV schema (header mandatory, UTF-8):
  sample_id, user_id, modality, audio_path, covid_tested_positive,
  symptoms, medical_history, smoker, country, collected_at, [split]
symptoms and medical_history are semicolon-joined token sets; smoker is
one of never/ex/current/unknown; covid_tested_positive is true/false.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DuplicateSample, EmptyCohort, SchemaError, TooFewUsers

MODALITIES = ("cough", "breath")
SMOKER_VALUES = ("never", "ex", "current", "unknown")

# Countries where the disease was not prevalent during collection; the
# negative-class filter for all tasks requires membership here.
COUNTRY_ALLOWLIST = frozenset(
    {"AL", "BG", "CY", "GR", "JO", "LB", "LK", "TN", "VN"}
)

MANIFEST_COLUMNS = (
    "sample_id",
    "user_id",
    "modality",
    "audio_path",
    "covid_tested_positive",
    "symptoms",
    "medical_history",
    "smoker",
    "country",
    "collected_at",
)

N_OUTER_FOLDS = 10
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class SampleRecord:
    sample_id: str
    user_id: str
    modality: str
    audio_path: str
    covid_tested_positive: bool
    symptoms: frozenset[str]
    medical_history: frozenset[str]
    smoker: str
    country: str | None
    collected_at: str
    split: str | None = None


# Task cohort rules. The two predicates are disjoint by construction:
# positives always require a declared positive test, negatives its absence.


def is_positive(r: SampleRecord, task_id: int) -> bool:
    if not r.covid_tested_positive:
        return False
    return task_id == 1 or "cough" in r.symptoms  # tasks 2 and 3: with cough


def is_negative(r: SampleRecord, task_id: int) -> bool:
    if r.covid_tested_positive or r.country not in COUNTRY_ALLOWLIST:
        return False
    if task_id == 1:
        return not r.symptoms and not r.medical_history and r.smoker == "never"
    if task_id == 2:  # cough as the only symptom
        return r.symptoms == {"cough"} and not r.medical_history and r.smoker == "never"
    return "cough" in r.symptoms and "asthma" in r.medical_history


def _parse_bool(value: str, line_no: int) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise SchemaError(f"row {line_no}: bad boolean {value!r}")


def _parse_tokens(value: str) -> frozenset[str]:
    return frozenset(t.strip() for t in value.split(";") if t.strip())


def parse_manifest_rows(rows, columns) -> list[SampleRecord]:
    """Validate dict-style rows (used by both CSV loading and tests)."""
    has_split = "split" in columns
    missing = [c for c in MANIFEST_COLUMNS if c not in columns]
    if missing:
        raise SchemaError(f"missing columns: {missing}")

    records: list[SampleRecord] = []
    seen: set[str] = set()
    for line_no, row in enumerate(rows, start=2):
        modality = row["modality"].strip()
        if modality not in MODALITIES:
            raise SchemaError(f"row {line_no}: unknown modality {modality!r}")
        smoker = row["smoker"].strip() or "unknown"
        if smoker not in SMOKER_VALUES:
            raise SchemaError(f"row {line_no}: unknown smoker value {smoker!r}")
        user_id = row["user_id"].strip()
        if not user_id:
            raise SchemaError(f"row {line_no}: empty user_id")
        sample_id = row["sample_id"].strip()
        if not sample_id:
            raise SchemaError(f"row {line_no}: empty sample_id")
        if sample_id in seen:
            raise DuplicateSample(f"row {line_no}: duplicate sample_id {sample_id!r}")
        seen.add(sample_id)
        records.append(
            SampleRecord(
                sample_id=sample_id,
                user_id=user_id,
                modality=modality,
                audio_path=row["audio_path"].strip(),
                covid_tested_positive=_parse_bool(row["covid_tested_positive"], line_no),
                symptoms=_parse_tokens(row["symptoms"]),
                medical_history=_parse_tokens(row["medical_history"]),
                smoker=smoker,
                country=row["country"].strip() or None,
                collected_at=row["collected_at"].strip(),
                split=(row.get("split") or "").strip() or None if has_split else None,
            )
        )
    return records


def load_manifest(path) -> list[SampleRecord]:
    with open(Path(path), newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError("empty manifest")
        return parse_manifest_rows(reader, reader.fieldnames)


def apply_task(
    records, task_id: int, modalities: tuple[str, ...] = MODALITIES
) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Partition the records of `modalities` into (positives, negatives) by
    the task's rules; non-matching rows drop out."""
    if task_id not in (1, 2, 3):
        raise ValueError(f"unknown task {task_id}")
    in_modality = [r for r in records if r.modality in modalities]
    positives = [r for r in in_modality if is_positive(r, task_id)]
    negatives = [r for r in in_modality if is_negative(r, task_id)]
    if not positives:
        raise EmptyCohort(f"task {task_id}: no positive users")
    if not negatives:
        raise EmptyCohort(f"task {task_id}: no negative users")
    return positives, negatives


def split_users(
    positives, negatives, seed: int
) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
    """Ten independent seeded 80/20 user partitions, stratified per class,
    as (train_users, test_users) pairs."""
    pos_users = sorted({r.user_id for r in positives})
    neg_users = sorted({r.user_id for r in negatives})
    if len(pos_users) < 2 or len(neg_users) < 2:
        raise TooFewUsers("need at least 2 users per class")

    folds = []
    for fold in range(N_OUTER_FOLDS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, fold]))
        test: set[str] = set()
        train: set[str] = set()
        for users in (pos_users, neg_users):
            perm = list(rng.permutation(users))
            n_test = max(1, round(TEST_FRACTION * len(users)))
            n_test = min(n_test, len(users) - 1)  # keep at least one train user
            test.update(perm[:n_test])
            train.update(perm[n_test:])
        assert not train & test
        folds.append((frozenset(train), frozenset(test)))
    return tuple(folds)


def balance(labels, seed: int) -> list[int]:
    """Indices of a class-balanced subset (majority downsampled, seeded,
    without replacement). Returns sorted indices into `labels`."""
    labels = np.asarray(labels)
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    n = min(len(pos_idx), len(neg_idx))
    rng = np.random.default_rng(seed)
    keep = []
    for idx in (pos_idx, neg_idx):
        if len(idx) > n:
            keep.extend(rng.choice(idx, size=n, replace=False))
        else:
            keep.extend(idx)
    return sorted(int(i) for i in keep)

