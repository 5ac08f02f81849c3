"""The benchmark's three batch workloads.

Each workload builds its inputs from a seed with `synth` (set-up), runs
one job in-process on those files, and checks the job's outputs. A job is
what a researcher waits for: one `extract` run, one sweep, or one nested
cross-validation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Traced functions are called through their modules, so the traced run's
# patches see the calls; encode_wav and write_bytes_atomic are not traced.
from respscreen import cli, dataset, embeddings, evaluate, synth
from respscreen.audio_io import encode_wav
from respscreen.util import write_bytes_atomic

# Outputs for this workload seed are also compared with perfbench/reference/.
DEFAULT_SEED = 0
# The workload seed makes the input files; jobs run with respscreen's default
# --seed, so fold splits and augmentation parameters (whose FIR design cost
# varies tenfold with the drawn rate) are the same for every workload seed.
PROGRAM_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Bindings every workload that extracts handcrafted features must call.
FEATURE_BINDINGS = (
    "dsp.stft", "dsp.frame_signal", "dsp.mel_filterbank", "dsp.dct_ii",
    "features.extract_handcrafted", "features.onset_envelope", "features.frame_features",
    "features.mfcc_features", "features.summarize",
)
# Bindings every nested cross-validation calls; `evaluate.*` and
# `model.roc_auc` are names re-bound by `from ... import`.
NESTED_CV_BINDINGS = (
    "evaluate.decode_wav", "evaluate.resample", "evaluate.trim_silence",
    "evaluate.run_nested_cv", "evaluate.unit_vector", "evaluate.FeatureStore.handcrafted",
    "evaluate.split_users", "evaluate.balance", "evaluate.grid_search",
    "evaluate.fit_pipeline", "model.fit_pipeline", "model.fit_pca",
    "evaluate.roc_auc", "model.roc_auc", "evaluate.precision_recall",
)


@dataclass
class Inputs:
    """Files written by set-up, and what set-up loaded from them."""

    root: Path
    manifest: Path
    records: list
    embeddings: dict | None = None


def _split_sizes(n_users: int) -> tuple[int, int]:
    """(test, train) users per class of an outer fold: the 80/20 rule
    stated by the evaluation protocol, derived here independently."""
    n_test = min(max(1, round(dataset.TEST_FRACTION * n_users)), n_users - 1)
    return n_test, n_users - n_test


class ExtractLong:
    """`respscreen extract --jobs 1` over ~10 s clips at 44.1/48 kHz."""

    name = "extract-long"
    USERS_PER_CLASS = 3  # covid and healthy users; two recordings each
    CLIP_SECONDS = 10.0
    SAMPLE_RATES = (44100, 48000)
    size = (f"{4 * USERS_PER_CLASS} recordings of {CLIP_SECONDS:g} s, "
            "re-rendered at 44.1/48 kHz alternating")
    bindings = FEATURE_BINDINGS + (
        "synth.generate_cohort", "dataset.load_manifest",
        "cli.decode_wav", "cli.resample", "cli.trim_silence",
    )

    def setup(self, seed: int, root: Path) -> Inputs:
        spec = synth.CohortSpec(n_covid=self.USERS_PER_CLASS, n_healthy=self.USERS_PER_CLASS,
                                n_cough=0, n_asthma=0, clip_seconds=self.CLIP_SECONDS)
        manifest = synth.generate_cohort(root, seed, spec)
        records = dataset.load_manifest(manifest)
        # synth writes 22.05 kHz, where resampling is the identity; re-render
        # each clip at a source rate so `resample` does real work.
        rng = np.random.default_rng(seed)
        for i, r in enumerate(sorted(records, key=lambda r: r.sample_id)):
            freq = synth.POSITIVE_FREQ_HZ if r.covid_tested_positive else synth.NEGATIVE_FREQ_HZ
            sr = self.SAMPLE_RATES[i % len(self.SAMPLE_RATES)]
            clip = synth.burst_clip(rng, freq, self.CLIP_SECONDS, sr=sr)
            write_bytes_atomic(root / r.audio_path, encode_wav(clip))
        return Inputs(root, manifest, records)

    def job(self, inputs: Inputs, out_dir: Path) -> dict[str, bytes]:
        out = out_dir / "features.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["extract", "--manifest", str(inputs.manifest),
                             "--out", str(out), "--jobs", "1"])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"respscreen extract exited {code}")
        skipped = out.with_suffix(".skipped.csv")
        return {out.name: out.read_bytes(), skipped.name: skipped.read_bytes()}

    def check(self, outputs: dict[str, bytes], inputs: Inputs, seed: int) -> list[str]:
        rows = list(csv.reader(io.StringIO(outputs["features.csv"].decode())))
        skipped = list(csv.reader(io.StringIO(outputs["features.skipped.csv"].decode())))
        header, body = rows[0], rows[1:]
        problems = []
        if len(header) != 478 or header[0] != "sample_id":
            problems.append(f"feature CSV has {len(header)} columns, expected sample_id + 477")
        if len(skipped) != 1:
            problems.append(f"{len(skipped) - 1} recordings skipped")
        expected_ids = sorted(r.sample_id for r in inputs.records)
        if [row[0] for row in body] != expected_ids:
            problems.append("feature rows do not match the manifest's recordings")
        values = np.array([[float(v) for v in row[1:]] for row in body])
        if not np.all(np.isfinite(values)):
            problems.append("non-finite feature values")
        if seed == DEFAULT_SEED and not problems:
            problems += self._compare_reference(header, body)
        return problems

    def _compare_reference(self, header, body) -> list[str]:
        """Values agree to the CSV's 9 significant digits (one unit in the
        ninth digit, so a last-bit change at a rounding edge still passes)."""
        ref = list(csv.reader(io.StringIO((REFERENCE_DIR / "extract-long.csv").read_text())))
        if ref[0] != header or [r[0] for r in ref[1:]] != [r[0] for r in body]:
            return ["feature CSV header or rows differ from the reference"]
        bad = [(row[0], header[j + 1], v, w)
               for row, ref_row in zip(body, ref[1:])
               for j, (v, w) in enumerate(zip(row[1:], ref_row[1:]))
               if not math.isclose(float(v), float(w), rel_tol=1e-8)]
        return [f"{len(bad)} feature values differ from the reference, first {bad[0]}"] if bad else []


class SweepEmbed:
    """`evaluate.sweep`, task 1 (LR), all 60 cells, over embeddings and ~1 s clips."""

    name = "sweep-embed"
    USERS_PER_CLASS = 6  # covid and healthy users
    CLIP_SECONDS = 1.0
    n_cells = (len(evaluate.MODALITY_CHOICES) * len(evaluate.PCA_CUTOFFS)
               * len(evaluate.FEATURE_TYPES))
    size = (f"{2 * USERS_PER_CLASS} users, {n_cells} cells "
            f"(3 modalities x 4 PCA cutoffs x 5 feature types), {CLIP_SECONDS:g} s clips")
    bindings = FEATURE_BINDINGS + NESTED_CV_BINDINGS + (
        "synth.generate_cohort", "synth.generate_embeddings", "dataset.load_manifest",
        "embeddings.load_embeddings", "evaluate.sweep", "evaluate.pool", "evaluate.combine",
        "model.fit_lr",
    )

    def setup(self, seed: int, root: Path) -> Inputs:
        spec = synth.CohortSpec(n_covid=self.USERS_PER_CLASS, n_healthy=self.USERS_PER_CLASS,
                                n_cough=0, n_asthma=0, clip_seconds=self.CLIP_SECONDS)
        manifest = synth.generate_cohort(root, seed, spec)
        records = dataset.load_manifest(manifest)
        emb_path = synth.generate_embeddings(records, root / "embeddings.csv", seed)
        return Inputs(root, manifest, records, embeddings.load_embeddings(emb_path))

    def job(self, inputs: Inputs, out_dir: Path) -> dict[str, bytes]:
        rows = evaluate.sweep(inputs.records, 1, PROGRAM_SEED, base_dir=inputs.root,
                              embeddings=inputs.embeddings)
        return {"sweep.csv": evaluate.sweep_rows_to_csv(rows).encode()}

    def check(self, outputs: dict[str, bytes], inputs: Inputs, seed: int) -> list[str]:
        rows = evaluate.sweep_rows_from_csv(outputs["sweep.csv"].decode())
        problems = []
        cells = {(r.modality, r.pca_cutoff, r.feature_type) for r in rows}
        if len(rows) != self.n_cells or len(cells) != self.n_cells:
            problems.append(f"{len(rows)} sweep rows, expected {self.n_cells} distinct cells")
        not_ok = [r for r in rows if r.status != "ok"]
        if not_ok:
            problems.append(f"{len(not_ok)} cells not ok, first {not_ok[0].status}")
        if seed == DEFAULT_SEED and not problems:
            ref = evaluate.sweep_rows_from_csv((REFERENCE_DIR / "sweep-embed.csv").read_text())
            for r, q in zip(rows, ref):
                for metric in ("auc_mean", "auc_std", "precision_mean", "precision_std",
                               "recall_mean", "recall_std"):
                    a, b = getattr(r, metric), getattr(q, metric)
                    if (r.modality, r.pca_cutoff, r.feature_type) != (
                            q.modality, q.pca_cutoff, q.feature_type) or abs(a - b) > 1e-9:
                        problems.append(f"{r.feature_type}@{r.pca_cutoff} {metric} {a!r}, "
                                        f"reference {b!r}")
        return problems


class EvaluateAugment:
    """`evaluate.run_nested_cv`, task 2 (SVM) with 6x augmentation, ~1.5 s clips."""

    name = "evaluate-augment"
    USERS_PER_CLASS = 6  # covid users (positives) and cough users (negatives)
    CLIP_SECONDS = 1.5
    AUC_FLOOR = 0.9  # the cohort is spectrally separable
    size = f"{2 * USERS_PER_CLASS} users, 10 outer folds, {CLIP_SECONDS:g} s clips"
    bindings = FEATURE_BINDINGS + NESTED_CV_BINDINGS + (
        "synth.generate_cohort", "dataset.load_manifest",
        "augment.augment_six", "augment.pitch_speed", "augment.add_white_noise",
        "augment.resample", "model.fit_svm_rbf", "model.rbf_kernel",
    )

    def setup(self, seed: int, root: Path) -> Inputs:
        spec = synth.CohortSpec(n_covid=self.USERS_PER_CLASS, n_healthy=0,
                                n_cough=self.USERS_PER_CLASS, n_asthma=0,
                                clip_seconds=self.CLIP_SECONDS)
        manifest = synth.generate_cohort(root, seed, spec)
        return Inputs(root, manifest, dataset.load_manifest(manifest))

    def job(self, inputs: Inputs, out_dir: Path) -> dict[str, bytes]:
        config = evaluate.RunConfig(task_id=2, augment=True, seed=PROGRAM_SEED)
        report = evaluate.run_nested_cv(inputs.records, config, base_dir=inputs.root)
        return {"report.json": json.dumps(evaluate.report_to_dict(report), sort_keys=True).encode()}

    def check(self, outputs: dict[str, bytes], inputs: Inputs, seed: int) -> list[str]:
        """Invariants only: augmented outputs are expected to change."""
        report = json.loads(outputs["report.json"])
        folds = report["folds"]
        n_test, n_train = _split_sizes(self.USERS_PER_CLASS)
        # one cough recording per user; negatives gain six augmented copies
        expected_train = n_train + 7 * n_train
        problems = []
        if len(folds) != dataset.N_OUTER_FOLDS:
            problems.append(f"{len(folds)} folds, expected {dataset.N_OUTER_FOLDS}")
        for i, f in enumerate(folds):
            if f["n_train"] != expected_train:
                problems.append(f"fold {i}: n_train {f['n_train']}, expected {expected_train}")
            if f["n_test"] != 2 * n_test or f["n_test_users"] != f["n_test"]:
                problems.append(f"fold {i}: test side {f['n_test']} rows from "
                                f"{f['n_test_users']} users, expected {n_test} per class")
        auc = report["aggregate"]["auc"]["mean"]
        if not auc >= self.AUC_FLOOR:
            problems.append(f"mean AUC {auc} below {self.AUC_FLOOR}")
        return problems


WORKLOADS = {w.name: w for w in (ExtractLong(), SweepEmbed(), EvaluateAugment())}
