from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from respscreen import evaluate, model, synth
from respscreen.audio_io import AudioSegment, encode_wav
from respscreen.dataset import N_OUTER_FOLDS, load_manifest
from respscreen.embeddings import load_embeddings
from respscreen.errors import ConfigError, EmptyCohort
from respscreen.evaluate import (
    EMBEDDING_FEATURE_TYPES,
    FEATURE_TYPES,
    FeatureStore,
    RunConfig,
    SweepRow,
    aggregate_folds,
    build_cohort,
    build_units,
    report_to_dict,
    run_nested_cv,
    sweep,
    sweep_rows_from_csv,
    sweep_rows_to_csv,
)
from respscreen.model import PCA_CUTOFFS, GridSpec, Standardizer, _inner_user_folds

FAST_GRID = GridSpec(lr_c=(1.0,), svm_c=(1.0,), svm_gamma=("scale",))


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    d = tmp_path_factory.mktemp("eval_cohort")
    spec = synth.CohortSpec(n_covid=10, n_healthy=10, n_cough=8, n_asthma=8,
                            clip_seconds=1.0)
    manifest = synth.generate_cohort(d, seed=7, spec=spec)
    records = load_manifest(manifest)
    emb_path = d / "embeddings.csv"
    synth.generate_embeddings(records, emb_path, seed=7)
    return d, records, load_embeddings(emb_path)


class TestRunConfig:
    def test_augment_rejected_for_task1(self):
        with pytest.raises(ConfigError):
            RunConfig(task_id=1, augment=True)

    @pytest.mark.parametrize("feature_type", EMBEDDING_FEATURE_TYPES)
    def test_augment_rejected_for_embedding_features(self, feature_type):
        with pytest.raises(ConfigError, match="handcrafted"):
            RunConfig(task_id=2, augment=True, feature_type=feature_type)

    def test_bad_cutoff(self):
        with pytest.raises(ConfigError):
            RunConfig(task_id=1, pca_cutoff=0.5)

    def test_default_classifier_by_task(self):
        assert RunConfig(task_id=1).classifier_kind == "lr"
        assert RunConfig(task_id=2).classifier_kind == "svm-rbf"
        assert RunConfig(task_id=2, classifier="lr").classifier_kind == "lr"


class TestBuildUnits:
    def rec(self, user, modality, ts="t0"):
        from respscreen.dataset import SampleRecord

        return SampleRecord(
            sample_id=f"{user}_{ts}_{modality}", user_id=user, modality=modality,
            audio_path="x.wav", covid_tested_positive=False, symptoms=frozenset(),
            medical_history=frozenset(), smoker="never", country="GR",
            collected_at=ts,
        )

    def test_single_modality(self):
        units = build_units([self.rec("a", "cough")], [self.rec("b", "cough")], "cough")
        assert [(u.label, u.user_id) for u in units] == [(1, "a"), (0, "b")]

    def test_combined_pairs_and_drops_unpaired(self):
        pos = [self.rec("a", "cough"), self.rec("a", "breath"), self.rec("c", "cough")]
        units = build_units(pos, [], "combined")
        assert len(units) == 1
        assert units[0].user_id == "a"
        assert tuple(r.modality for r in units[0].records) == ("cough", "breath")


class TestNestedCv:
    def test_separable_cohort_scores_high(self, small_cohort):
        d, records, _ = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, seed=0),
                               base_dir=d, grid=FAST_GRID)
        assert len(report.folds) == 10
        assert report.aggregate["auc"]["mean"] >= 0.95

    def test_deterministic(self, small_cohort):
        d, records, _ = small_cohort
        cfg = RunConfig(task_id=1, seed=3)
        r1 = run_nested_cv(records, cfg, base_dir=d, grid=FAST_GRID)
        r2 = run_nested_cv(records, cfg, base_dir=d, grid=FAST_GRID)
        assert report_to_dict(r1) == report_to_dict(r2)

    def test_test_side_balanced(self, small_cohort):
        d, records, _ = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, seed=0),
                               base_dir=d, grid=FAST_GRID)
        for fold in report.folds:
            assert fold.n_test % 2 == 0

    def test_standardizer_sees_training_rows_only(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        seen = []
        orig = Standardizer.fit

        def spy(X):
            seen.append(np.asarray(X).shape[0])
            return orig(X)

        monkeypatch.setattr(Standardizer, "fit", spy)
        report = run_nested_cv(records, RunConfig(task_id=1, seed=0),
                               base_dir=d, grid=FAST_GRID)
        total = sum(f.n_train + f.n_test for f in report.folds)
        # every fit call is on a training slice, never the full fold
        assert seen and max(seen) <= max(f.n_train for f in report.folds)
        assert total > 0

    def test_augmentation_expands_training_negatives(self, small_cohort):
        d, records, _ = small_cohort
        base = run_nested_cv(records, RunConfig(task_id=2, seed=0, augment=False),
                             base_dir=d, grid=FAST_GRID)
        augd = run_nested_cv(records, RunConfig(task_id=2, seed=0, augment=True),
                             base_dir=d, grid=FAST_GRID)
        for b, a in zip(base.folds, augd.folds):
            # unaugmented training is balanced; augmented keeps all originals
            # and adds 6 variants per negative
            assert a.n_train > b.n_train
            assert a.n_test == b.n_test  # the test side is untouched

    def test_augment_requires_handcrafted(self, small_cohort):
        d, records, embeddings = small_cohort
        with pytest.raises(ConfigError):
            cfg = RunConfig(task_id=2, augment=True, feature_type="vggish")
            run_nested_cv(records, cfg, base_dir=d, embeddings=embeddings,
                          grid=FAST_GRID)

    def test_embedding_feature_types_need_embeddings(self, small_cohort):
        d, records, _ = small_cohort
        with pytest.raises(ConfigError):
            run_nested_cv(records, RunConfig(task_id=1, feature_type="vggish"),
                          base_dir=d, grid=FAST_GRID)

    def test_vggish_run(self, small_cohort):
        d, records, embeddings = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, feature_type="vggish"),
                               base_dir=d, embeddings=embeddings, grid=FAST_GRID)
        assert report.aggregate["auc"]["mean"] >= 0.9

    def test_one_row_and_one_augmentation_per_unit(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        cfg = RunConfig(task_id=2, seed=0, augment=True)
        n_units = len(build_cohort(records, cfg, FeatureStore(d)).units)
        rows, augmented = [], []
        unit_vector, augment_six = evaluate.unit_vector, evaluate.aug.augment_six
        monkeypatch.setattr(evaluate, "unit_vector",
                            lambda unit, *args: rows.append(unit.key) or unit_vector(unit, *args))
        monkeypatch.setattr(evaluate.aug, "augment_six",
                            lambda seg, sample_id, cfg: augmented.append(sample_id)
                            or augment_six(seg, sample_id, cfg))
        run_nested_cv(records, cfg, base_dir=d, grid=FAST_GRID)
        assert len(rows) == len(set(rows)) == n_units
        assert augmented and len(augmented) == len(set(augmented))

    def test_aggregate_recomputation(self, small_cohort):
        d, records, _ = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, seed=1),
                               base_dir=d, grid=FAST_GRID)
        aucs = np.array([f.auc for f in report.folds])
        assert report.aggregate["auc"]["mean"] == pytest.approx(aucs.mean(), abs=1e-12)
        assert report.aggregate["auc"]["std"] == pytest.approx(aucs.std(), abs=1e-12)
        assert report_to_dict(report)["aggregate"] == report.aggregate


class TestAggregate:
    def test_population_std(self):
        from respscreen.evaluate import FoldResult

        folds = [FoldResult(a, 0.0, 0.0, {}, 1, 1, 1, 1) for a in (0.4, 0.6)]
        agg = aggregate_folds(folds)
        assert agg["auc"]["mean"] == pytest.approx(0.5)
        assert agg["auc"]["std"] == pytest.approx(0.1)


class TestSweep:
    def test_grid_shape_and_skips(self, small_cohort):
        d, records, _ = small_cohort
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=None,
                     grid=FAST_GRID)
        assert len(rows) == 60  # 3 modalities x 4 cutoffs x 5 feature types
        skipped = [r for r in rows if r.status == "skipped"]
        assert len(skipped) == 48  # the 4 embedding-based types per cell
        assert all(r.feature_type != "handcrafted" for r in skipped)
        combos = {(r.modality, r.pca_cutoff, r.feature_type) for r in rows}
        assert len(combos) == 60

    def test_with_embeddings_no_skips(self, small_cohort):
        d, records, embeddings = small_cohort
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings,
                     grid=FAST_GRID, modalities=("cough",), cutoffs=(0.9,))
        assert len(rows) == len(FEATURE_TYPES)
        assert all(r.status == "ok" for r in rows)

    def test_pipeline_errors_become_rows(self, small_cohort, monkeypatch):
        def fail(*args, **kwargs):
            raise EmptyCohort("no users")

        d, records, _ = small_cohort
        monkeypatch.setattr(evaluate, "run_nested_cv", fail)
        rows = sweep(records, task_id=1, seed=0, base_dir=d, feature_types=("handcrafted",),
                     modalities=("cough",), cutoffs=(0.9,))
        assert [r.status for r in rows] == ["error:EmptyCohort"]

    def test_programming_errors_propagate(self, small_cohort, monkeypatch):
        def fail(*args, **kwargs):
            raise TypeError("a bug")

        d, records, _ = small_cohort
        monkeypatch.setattr(evaluate, "run_nested_cv", fail)
        with pytest.raises(TypeError, match="a bug"):
            sweep(records, task_id=1, seed=0, base_dir=d, feature_types=("handcrafted",),
                  modalities=("cough",), cutoffs=(0.9,))

    def test_rows_equal_single_cutoff_runs(self, small_cohort, monkeypatch):
        d, records, embeddings = small_cohort
        store = FeatureStore(d, embeddings)
        run, fit_pca, reports, slice_ks = evaluate.run_nested_cv, model.fit_pca, {}, []

        def spy_run(records, config, **kw):
            reports[(config.modality, config.feature_type)] = run(records, config, **kw)
            return reports[(config.modality, config.feature_type)]

        def spy_pca(X, cutoffs):
            pcas = fit_pca(X, cutoffs)
            slice_ks.append([p.k for p in pcas])
            return pcas

        monkeypatch.setattr(evaluate, "run_nested_cv", spy_run)
        monkeypatch.setattr(model, "fit_pca", spy_pca)
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings,
                     modalities=("cough", "combined"),
                     feature_types=("handcrafted", "vggish", "combined-B"))
        assert any(len(set(ks)) < len(ks) for ks in slice_ks)  # two cutoffs share k
        monkeypatch.setattr(evaluate, "run_nested_cv", run)
        assert len(rows) == 2 * 4 * 3
        for row in rows:
            cfg = RunConfig(task_id=1, modality=row.modality, feature_type=row.feature_type,
                            pca_cutoff=row.pca_cutoff)
            alone = run_nested_cv(records, cfg, store=store)
            agg = alone.aggregate
            assert row.status == "ok"
            assert (row.auc_mean, row.auc_std, row.precision_mean, row.precision_std,
                    row.recall_mean, row.recall_std) == (
                agg["auc"]["mean"], agg["auc"]["std"], agg["precision"]["mean"],
                agg["precision"]["std"], agg["recall"]["mean"], agg["recall"]["std"])
            shared = reports[(row.modality, row.feature_type)][PCA_CUTOFFS.index(row.pca_cutoff)]
            assert shared.config == cfg
            assert [asdict(f) for f in shared.folds] == [asdict(f) for f in alone.folds]

    def test_one_nested_cv_and_one_basis_per_slice(self, small_cohort, monkeypatch):
        d, records, embeddings = small_cohort
        runs, bases, usable_inner = [], [], []
        run, fit_pca, grid_search = (evaluate.run_nested_cv, model.fit_pca,
                                     evaluate.grid_search)
        monkeypatch.setattr(evaluate, "run_nested_cv", lambda records, config, **kw: runs
                            .append((config.modality, config.feature_type, kw["cutoffs"]))
                            or run(records, config, **kw))
        monkeypatch.setattr(model, "fit_pca", lambda X, cutoffs: bases.append(tuple(cutoffs))
                            or fit_pca(X, cutoffs))

        def spy(X, y, users, kind, grid, seed, pca_cutoffs):
            usable_inner.extend(f for f in _inner_user_folds(users, seed)
                                if all(len(np.unique(y[idx])) == 2 for idx in f))
            return grid_search(X, y, users, kind, grid, seed, pca_cutoffs=pca_cutoffs)

        monkeypatch.setattr(evaluate, "grid_search", spy)
        sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings,
              grid=GridSpec(lr_c=(0.1, 1.0)), modalities=("cough", "breath"),
              feature_types=("handcrafted", "vggish"))
        assert sorted(runs) == [(m, f, PCA_CUTOFFS) for m in ("breath", "cough")
                                for f in ("handcrafted", "vggish")]
        n_outer = N_OUTER_FOLDS * len(runs)
        assert len(bases) == n_outer + len(usable_inner)  # 4 per slice, one per cutoff, before
        assert set(bases) == {PCA_CUTOFFS}

    def test_unknown_cutoff_raises(self, small_cohort):
        d, records, _ = small_cohort
        with pytest.raises(ConfigError):
            sweep(records, task_id=1, seed=0, base_dir=d, cutoffs=(0.9, 0.5))

    def test_csv_round_trip(self):
        rows = [
            SweepRow(1, "cough", "handcrafted", 0.9, 0.123456789012345, 0.01,
                     0.5, 0.1, 0.7, 0.05, "ok"),
            SweepRow(1, "breath", "vggish", 0.7, status="skipped"),
            SweepRow(1, "combined", "combined-C", 0.95, status="error:EmptyCohort"),
        ]
        assert sweep_rows_from_csv(sweep_rows_to_csv(rows)) == rows

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            sweep_rows_from_csv("bad,header\n1,2\n")


class TestFeatureStore:
    def test_loads_an_unusable_recording_once(self, tmp_path, monkeypatch):
        spec = synth.CohortSpec(n_covid=6, n_healthy=6, n_cough=0, n_asthma=0,
                                clip_seconds=0.5)
        records = load_manifest(synth.generate_cohort(tmp_path, seed=1, spec=spec))
        synth.generate_embeddings(records, tmp_path / "embeddings.csv", seed=1)
        silent = min((r for r in records if r.modality == "cough"), key=lambda r: r.sample_id)
        (tmp_path / silent.audio_path).write_bytes(
            encode_wav(AudioSegment(np.zeros(11025), 22050)))
        loads = []
        load_segment = evaluate.load_segment
        monkeypatch.setattr(evaluate, "load_segment",
                            lambda path: loads.append(path.name) or load_segment(path))
        rows = sweep(records, task_id=1, seed=0, base_dir=tmp_path,
                     embeddings=load_embeddings(tmp_path / "embeddings.csv"), grid=FAST_GRID,
                     modalities=("cough", "combined"), feature_types=("handcrafted", "combined-A"))
        assert {r.status for r in rows} == {"ok"}
        assert loads.count(Path(silent.audio_path).name) == 1
        assert len(loads) == len(set(loads))

    def test_caches_by_sample(self, small_cohort):
        d, records, _ = small_cohort
        store = FeatureStore(d)
        v1 = store.vector(records[0], "handcrafted")
        v2 = store.vector(records[0], "handcrafted")
        assert v1 is v2

    def test_missing_embeddings_raise(self, small_cohort):
        d, records, _ = small_cohort
        with pytest.raises(ConfigError):
            FeatureStore(d).vector(records[0], "vggish")

    def test_pools_once_per_recording_and_feature_type(self, small_cohort, monkeypatch):
        d, records, embeddings = small_cohort
        pooled = []
        orig = evaluate.pool
        monkeypatch.setattr(evaluate, "pool", lambda frames: pooled.append(id(frames)) or orig(frames))
        store = FeatureStore(d, embeddings)
        cfg = RunConfig(task_id=1, feature_type="vggish")
        for _ in range(2):
            run_nested_cv(records, cfg, base_dir=d, embeddings=embeddings, grid=FAST_GRID,
                          store=store)
        assert pooled and len(pooled) == len(set(pooled))

    def test_pools_each_recording_once_across_feature_types(self, small_cohort, monkeypatch):
        d, records, embeddings = small_cohort
        pooled = []
        orig = evaluate.pool
        monkeypatch.setattr(evaluate, "pool", lambda frames: pooled.append(id(frames)) or orig(frames))
        store = FeatureStore(d, embeddings)
        subset = records[:4]
        for feature_type in EMBEDDING_FEATURE_TYPES:
            for r in subset:
                store.vector(r, feature_type)
        assert sorted(pooled) == sorted(id(embeddings[r.sample_id]) for r in subset)
