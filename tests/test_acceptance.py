"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with the measured quantity so a plain
`pytest -s tests/test_acceptance.py` doubles as a release checklist.
"""

import time

import numpy as np
import pytest

from respscreen import synth
from respscreen.audio_io import AudioSegment
from respscreen.dataset import apply_task, load_manifest, split_users
from respscreen.embeddings import VARIANT_LENGTHS, combine, load_embeddings, pool
from respscreen.evaluate import RunConfig, build_units, run_nested_cv, sweep
from respscreen.features import (
    FEATURE_NAMES,
    STAT_NAMES,
    analyze,
    envelope_period,
    extract_handcrafted,
    frame_features,
    summarize,
)
from respscreen.model import PCA_CUTOFFS, fit_lr, fit_pca, fit_svm_rbf
from respscreen.augment import augment_six
from respscreen.cli import EXIT_OK, main

from . import oracles
from .conftest import SR, sine


def _report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    d = tmp_path_factory.mktemp("acc_cohort")
    manifest = synth.generate_cohort(d, seed=1)
    records = load_manifest(manifest)
    emb = d / "emb.csv"
    synth.generate_embeddings(records, emb, seed=1)
    return d, records, load_embeddings(emb)


def test_criterion_01_dimensionality_and_speed(cohort):
    d, records, embeddings = cohort
    clip = AudioSegment(
        np.sin(2 * np.pi * 300 * np.arange(10 * SR) / SR) * 0.4, SR
    )
    start = time.perf_counter()
    vec = extract_handcrafted(clip)
    elapsed = time.perf_counter() - start
    assert len(vec) == 477
    assert len(FEATURE_NAMES) == 477
    assert len(set(FEATURE_NAMES)) == 477
    assert elapsed < 1.0

    hand = extract_handcrafted(AudioSegment(clip.samples[: 2 * SR], SR))
    pooled = pool(embeddings[records[0].sample_id])
    dims = {v: len(combine(hand, pooled, v)) for v in ("A", "B", "C")}
    assert dims == {"A": 260, "B": 447, "C": 733} == dict(VARIANT_LENGTHS)
    _report("dimensionality", f"477/260/447/733 exact; 10 s clip in {elapsed:.3f} s")


def test_criterion_02_dsp_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    window = np.hanning(2049)[:-1]  # periodic Hann, matches the frame window
    checked = 0
    for trial in range(20):
        kind = trial % 3
        n = 4 * SR
        t = np.arange(n) / SR
        if kind == 0:  # sine
            f = rng.uniform(200, 4000)
            x = 0.5 * np.sin(2 * np.pi * f * t)
        elif kind == 1:  # chirp
            f0, f1 = sorted(rng.uniform(100, 3000, size=2))
            x = 0.5 * np.sin(2 * np.pi * (f0 + (f1 - f0) * t / t[-1] / 2) * t)
        else:  # amplitude-modulated noise
            rate = rng.uniform(1.0, 4.0)
            x = rng.normal(0, 0.2, n) * (0.6 + 0.4 * np.sin(2 * np.pi * rate * t))
        seg = AudioSegment(x, SR)
        analysis = analyze(seg)
        rms, centroid, rolloff, zcr = frame_features(analysis)

        # mid-signal frame, recomputed with brute-force oracles
        frame_idx = len(rms) // 2
        start_sample = frame_idx * 512 - 1024  # centered framing offset
        frame = x[start_sample : start_sample + 2048]
        assert centroid[frame_idx] == pytest.approx(
            oracles.centroid_oracle(frame, window, SR), rel=0.02)
        assert zcr[frame_idx] == pytest.approx(
            oracles.zcr_oracle(frame), rel=0.02)
        ro = oracles.rolloff_oracle(frame, window, SR)
        bin_hz = SR / 2048
        assert abs(rolloff[frame_idx] - ro) <= bin_hz + 1e-9

        if kind == 2:
            period = envelope_period(rms, analysis.frame_rate)
            if period > 0:
                assert period == pytest.approx(rate, rel=0.10)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 20 and elapsed < 60
    _report("dsp-oracles", f"20 signals within tolerance in {elapsed:.1f} s")


def test_criterion_03_statistics_oracle():
    s = dict(zip(STAT_NAMES, summarize(np.array([1.0, 2.0, 3.0, 4.0]))))
    assert s["mean"] == pytest.approx(2.5)
    assert s["std"] == pytest.approx(1.118033988749895, rel=1e-12)
    assert s["rms"] == pytest.approx(np.sqrt(30 / 4), rel=1e-12)
    assert s["iqr"] == pytest.approx(1.5)
    assert s["kurt"] == pytest.approx(-1.36, abs=1e-9)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), size=rng.integers(2, 60))
        got = dict(zip(STAT_NAMES, summarize(x)))
        want = oracles.stats_oracle(x)
        for field, expect in want.items():
            val = got[field]
            err = abs(val - expect) / max(abs(expect), 1.0)
            worst = max(worst, err)
            assert err < 1e-9, field
    _report("statistics-oracle", f"1000 series, worst relative error {worst:.2e}")


def test_criterion_04_augmentation_protocol(cohort):
    d, records, _ = cohort
    seg = sine(500, seconds=1.0)
    variants = augment_six(seg, "sample_x", 0)
    assert len(variants) == 6
    methods = sorted(v.method for v in variants)
    assert methods == ["amplify", "amplify", "noise", "noise",
                       "pitch_speed", "pitch_speed"]
    for v in variants:
        if v.method == "amplify":
            assert 1.15 <= v.parameter <= 2.0
        elif v.method == "pitch_speed":
            assert 0.8 <= v.parameter <= 0.99

    # no augmented rows ever reach a test partition: augmented unit counts
    # appear only in n_train, and n_test matches the unaugmented run exactly
    base = run_nested_cv(records, RunConfig(task_id=2, seed=0), base_dir=d)
    augd = run_nested_cv(records, RunConfig(task_id=2, seed=0, augment=True), base_dir=d)
    for b, a in zip(base.folds, augd.folds):
        assert a.n_test == b.n_test
        assert a.n_train > b.n_train
    _report("augmentation", "6 variants, ranges honored, test partitions untouched")


def test_criterion_05_cv_hygiene():
    # 200-user synthetic manifest (no audio needed for split instrumentation)
    from respscreen.dataset import SampleRecord

    records = []
    for i in range(60):
        records.append(SampleRecord(f"p{i}_cough", f"pu{i}", "cough", "x.wav",
                                    True, frozenset({"cough"}), frozenset(),
                                    "never", "GB", "2020-05-01"))
    for i in range(140):
        records.append(SampleRecord(f"n{i}_cough", f"nu{i}", "cough", "x.wav",
                                    False, frozenset(), frozenset(),
                                    "never", "GR", "2020-05-01"))
    checked_folds = 0
    for task_id in (1,):
        pos, neg = apply_task(records, task_id)
        units = build_units(pos, neg, "cough")
        for seed in (0, 1, 2):
            splits = split_users([u for u in units if u.label == 1],
                                 [u for u in units if u.label == 0], seed)
            for train_users, test_users in splits:
                assert not train_users & test_users
                checked_folds += 1
    assert checked_folds == 30
    _report("cv-hygiene", f"{checked_folds} folds user-disjoint on 200-user manifest")


def test_criterion_06_pca_contract():
    X = np.random.default_rng(3).normal(size=(120, 25)) * np.linspace(5, 0.1, 25)
    mean = X.mean(axis=0)
    _, s, _ = np.linalg.svd(X - mean, full_matrices=False)
    cumulative = np.cumsum(s**2 / np.sum(s**2))
    for cutoff in PCA_CUTOFFS:
        [pca] = fit_pca(X, [cutoff])
        G = pca.components @ pca.components.T
        assert np.allclose(G, np.eye(pca.k), atol=1e-8)
        assert cumulative[pca.k - 1] >= cutoff - 1e-12
        if pca.k > 1:
            assert cumulative[pca.k - 2] < cutoff  # minimality
    _report("pca-contract", f"orthonormal + minimal k for cutoffs {PCA_CUTOFFS}")


def test_criterion_07_classifier_sanity():
    rng = np.random.default_rng(7)
    centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    X = np.vstack([c + rng.normal(0, 0.08, size=(10, 2)) for c in centers])
    y = np.array([0] * 20 + [1] * 20)
    [[clf]] = fit_svm_rbf([(X, y, [{"C": 10.0, "gamma": 2.0}])])
    acc = float(np.mean((clf.decision_scores(X) > 0) == (y == 1)))
    assert acc >= 0.95
    _, _, oracle_decision = oracles.svm_dual_qp_oracle(X, 2.0 * y - 1.0, 10.0, 2.0)
    agree = float(np.mean(np.sign(clf.decision_scores(X)) == np.sign(oracle_decision(X))))
    assert agree >= 0.95

    Xl, yl = rng.normal(size=(40, 3)), rng.integers(0, 2, size=40)
    yl[:2] = [0, 1]
    [[lr]] = fit_lr([(Xl, yl, [{"C": 1.0}])])
    _, grad = oracles.lr_loss_grad(lr.weights, Xl, yl.astype(float), 1.0)
    gnorm = float(np.linalg.norm(grad))
    assert gnorm < 1e-6
    eps = 1e-6
    for j in range(len(lr.weights)):
        e = np.zeros(len(lr.weights))
        e[j] = eps
        lp, _ = oracles.lr_loss_grad(lr.weights + e, Xl, yl.astype(float), 1.0)
        lm, _ = oracles.lr_loss_grad(lr.weights - e, Xl, yl.astype(float), 1.0)
        fd = (lp - lm) / (2 * eps)
        assert grad[j] == pytest.approx(fd, abs=1e-4)
    _report("classifier-sanity",
            f"XOR acc {acc:.2f}, oracle sign agreement {agree:.2f}, LR |grad| {gnorm:.1e}")


def test_criterion_08_end_to_end_discrimination(tmp_path):
    start = time.perf_counter()
    spec = synth.CohortSpec(n_covid=24, n_healthy=24, clip_seconds=1.5)
    d1 = tmp_path / "sep"
    records = load_manifest(synth.generate_cohort(d1, seed=3, spec=spec))
    sep = run_nested_cv(records, RunConfig(task_id=1, seed=0), base_dir=d1)
    assert sep.aggregate["auc"]["mean"] >= 0.95

    d2 = tmp_path / "null"
    null_spec = synth.CohortSpec(n_covid=24, n_healthy=24, clip_seconds=1.5,
                                 informative=False)
    null_records = load_manifest(synth.generate_cohort(d2, seed=3, spec=null_spec))
    null = run_nested_cv(null_records, RunConfig(task_id=1, seed=0), base_dir=d2)
    assert 0.35 <= null.aggregate["auc"]["mean"] <= 0.65
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _report("end-to-end",
            f"separable AUC {sep.aggregate['auc']['mean']:.3f}, "
            f"scrambled AUC {null.aggregate['auc']['mean']:.3f}, {elapsed:.0f} s")


def test_criterion_09_cli_determinism(tmp_path):
    d = tmp_path / "cohort"
    assert main(["synth-manifest", "--out", str(d), "--seed", "6",
                 "--covid-users", "6", "--healthy-users", "6",
                 "--cough-users", "5", "--asthma-users", "5",
                 "--clip-seconds", "1.0"]) == EXIT_OK
    manifest = str(d / "manifest.csv")

    feats = []
    for name in ("f1.csv", "f2.csv"):
        out = tmp_path / name
        assert main(["extract", "--manifest", manifest, "--out", str(out)]) == EXIT_OK
        feats.append(out.read_bytes())
    assert feats[0] == feats[1]

    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["evaluate", "--manifest", manifest, "--task", "1",
                     "--seed", "2", "--report", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    _report("cli-determinism", "feature CSVs and reports byte-identical on rerun")


def test_criterion_10_sweep_completeness(cohort):
    d, records, embeddings = cohort
    rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings)
    assert len(rows) == 60  # 3 modalities x 4 cutoffs x 5 feature types
    combos = {(r.modality, r.pca_cutoff, r.feature_type) for r in rows}
    assert len(combos) == 60
    assert all(r.status for r in rows)  # every cell carries an explicit status
    _report("sweep-completeness", "60/60 cells present with explicit statuses")
