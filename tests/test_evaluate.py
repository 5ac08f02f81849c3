import gc
import tracemalloc
import types
import weakref
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from respscreen import evaluate, features, model, synth
from respscreen.audio_io import AudioSegment, encode_wav
from respscreen.augment import augment_six
from respscreen.dataset import N_OUTER_FOLDS, balance, is_positive, load_manifest
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
from respscreen.metrics import precision_recall, roc_auc
from respscreen.model import PCA_CUTOFFS, Standardizer, _inner_user_folds


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


def frames_reachable_from(root) -> set[str]:
    """Names of the functions whose frames `root` keeps alive, through any
    chain of objects other than classes, modules and functions."""
    names, seen, stack = set(), set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FrameType):
            names.add(obj.f_code.co_name)
        stack.extend(gc.get_referents(obj))
    return names


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
        report = run_nested_cv(records, RunConfig(task_id=1, seed=0), base_dir=d)
        assert len(report.folds) == 10
        assert report.aggregate["auc"]["mean"] >= 0.95

    def test_deterministic(self, small_cohort):
        d, records, _ = small_cohort
        cfg = RunConfig(task_id=1, seed=3)
        r1 = run_nested_cv(records, cfg, base_dir=d)
        r2 = run_nested_cv(records, cfg, base_dir=d)
        assert report_to_dict(r1) == report_to_dict(r2)

    def test_store_and_base_dir_are_exclusive(self, small_cohort, monkeypatch):
        # features come from one place: a store, or a store on base_dir
        # (the working directory when neither is given)
        d, records, _ = small_cohort
        with pytest.raises(ValueError, match="base_dir"):
            run_nested_cv(records, RunConfig(task_id=1), base_dir=d / "no-such-dir",
                          store=FeatureStore(d))
        stores = []
        monkeypatch.setattr(evaluate, "build_cohort",
                            lambda records, config, store: stores.append(store) or 1 / 0)
        monkeypatch.chdir(d)
        with pytest.raises(ZeroDivisionError):
            run_nested_cv(records, RunConfig(task_id=1))
        [store] = stores
        assert store.base_dir == Path(".") and store.embeddings is None

    def test_test_side_balanced(self, small_cohort):
        d, records, _ = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, seed=0), base_dir=d)
        for fold in report.folds:
            assert fold.n_test % 2 == 0

    def test_standardizer_sees_training_rows_only(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        seen = []
        orig = Standardizer.fit

        def spy(X):
            seen.append(np.asarray(X).shape[-2])  # rows per slice; X may be a stack
            return orig(X)

        monkeypatch.setattr(Standardizer, "fit", spy)
        report = run_nested_cv(records, RunConfig(task_id=1, seed=0), base_dir=d)
        total = sum(f.n_train + f.n_test for f in report.folds)
        # every fit call is on a training slice, never the full fold
        assert seen and max(seen) <= max(f.n_train for f in report.folds)
        assert total > 0

    def test_augmentation_expands_training_negatives(self, small_cohort):
        d, records, _ = small_cohort
        base = run_nested_cv(records, RunConfig(task_id=2, seed=0, augment=False), base_dir=d)
        augd = run_nested_cv(records, RunConfig(task_id=2, seed=0, augment=True), base_dir=d)
        for b, a in zip(base.folds, augd.folds):
            # unaugmented training is balanced; augmented keeps all originals
            # and adds 6 variants per negative
            assert a.n_train > b.n_train
            assert a.n_test == b.n_test  # the test side is untouched

    def test_augmented_training_slice_is_its_users_rows(self, small_cohort, monkeypatch):
        # each fold trains on its training units' rows, then six variant rows
        # per training negative, and on no row of a test user
        d, records, _ = small_cohort
        cfg = RunConfig(task_id=2, seed=0, augment=True)
        splits, calls = [], []
        split_users, select_and_fit = evaluate.split_users, evaluate.select_and_fit
        monkeypatch.setattr(evaluate, "split_users",
                            lambda *a: splits.extend(split_users(*a)) or tuple(splits))
        monkeypatch.setattr(evaluate, "select_and_fit",
                            lambda *a: calls.append(a) or select_and_fit(*a))
        report = run_nested_cv(records, cfg, base_dir=d)

        units = build_cohort(records, RunConfig(task_id=2), FeatureStore(d)).units
        rows, variants = {}, {}  # unit key -> its row, its variant rows
        for u in units:
            [r] = u.records
            seg = evaluate.load_segment(d / r.audio_path)
            rows[u.key] = features.extract_handcrafted(seg)
            variants[u.key] = [] if u.label else [
                features.extract_handcrafted(v.segment)
                for v in augment_six(seg, r.sample_id, cfg.seed)]
        [(X_run, y_run, users_run, slices, _, _)] = calls
        assert len(slices) == len(splits) == N_OUTER_FOLDS
        for (train_rows, _), (train_users, test_users), fold in zip(slices, splits,
                                                                   report.folds):
            X, y, users = X_run[train_rows], y_run[train_rows], users_run[train_rows]
            train = [u for u in units if u.user_id in train_users]
            owners = train + [u for u in train for _ in variants[u.key]]
            expected = np.asarray([rows[u.key] for u in train]
                                  + [v for u in train for v in variants[u.key]])
            assert X.shape == expected.shape and X.tobytes() == expected.tobytes()
            assert len(owners) == len(train) + 6 * sum(u.label == 0 for u in train)
            assert list(y) == [u.label for u in train] + [0] * (len(owners) - len(train))
            assert list(users) == [u.user_id for u in owners]
            assert not set(users) & test_users
            assert fold.n_train == len(owners)

    @pytest.mark.parametrize("task, augment", [(1, False), (2, True)])
    def test_selection_reads_the_cohort_matrix_by_row_indices(self, small_cohort, monkeypatch,
                                                               task, augment):
        # no fold copy: selection and every fit get the cohort's own arrays,
        # and each outer fold is an integer array of its training rows
        d, records, _ = small_cohort
        cohorts, calls, fitted = [], [], []
        build, select_and_fit = evaluate.build_cohort, evaluate.select_and_fit
        monkeypatch.setattr(evaluate, "build_cohort",
                            lambda *a: cohorts.append(build(*a)) or cohorts[-1])
        monkeypatch.setattr(evaluate, "select_and_fit",
                            lambda *a: calls.append(a) or select_and_fit(*a))
        for module in (evaluate, model):
            monkeypatch.setattr(module, "fit_pipeline", lambda X, *a, fit=module.fit_pipeline:
                                fitted.append(X) or fit(X, *a))
        report = run_nested_cv(records, RunConfig(task_id=task, augment=augment), base_dir=d)
        [cohort], [(X, y, users, slices, _, _)] = cohorts, calls
        assert X is cohort.X and y is cohort.y and users is cohort.users
        assert len(fitted) == 2 and all(X is cohort.X for X in fitted)
        assert len(slices) == N_OUTER_FOLDS
        for (rows, _), fold in zip(slices, report.folds, strict=True):
            assert isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype.kind == "i"
            assert fold.n_train == len(rows)

    def test_augment_requires_handcrafted(self, small_cohort):
        d, records, embeddings = small_cohort
        with pytest.raises(ConfigError):
            cfg = RunConfig(task_id=2, augment=True, feature_type="vggish")
            run_nested_cv(records, cfg, store=FeatureStore(d, embeddings))

    def test_embedding_feature_types_need_embeddings(self, small_cohort):
        d, records, _ = small_cohort
        with pytest.raises(ConfigError):
            run_nested_cv(records, RunConfig(task_id=1, feature_type="vggish"), base_dir=d)

    def test_vggish_run(self, small_cohort):
        d, records, embeddings = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, feature_type="vggish"),
                               store=FeatureStore(d, embeddings))
        assert report.aggregate["auc"]["mean"] >= 0.9

    def test_non_finite_pooled_embedding_skips_its_unit(self, small_cohort):
        # finite frames pass load_embeddings, but their pooled std overflows
        d, records, embeddings = small_cohort
        bad = min((r for r in records if r.modality == "breath" and is_positive(r, 1)),
                  key=lambda r: r.sample_id)
        frames = embeddings[bad.sample_id].copy()
        frames[:2, 0] = 1e200, -1e200
        huge = {**embeddings, bad.sample_id: frames}
        reason = f"NonFiniteFeature: pooled embedding of sample {bad.sample_id!r} is not finite"
        for feature_type in EMBEDDING_FEATURE_TYPES:
            config = RunConfig(task_id=1, modality="breath", feature_type=feature_type)
            report = run_nested_cv(records, config, store=FeatureStore(d, huge))
            assert report.skipped == ((bad.sample_id, reason),)
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=huge)
        assert {r.status for r in rows} == {"ok"}

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
        run_nested_cv(records, cfg, base_dir=d)
        assert len(rows) == len(set(rows)) == n_units
        assert augmented and len(augmented) == len(set(augmented))

    def test_two_lr_solves_and_one_grid_search(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        solves, searches = [], []
        fit_lr, grid_search = model.fit_lr, evaluate.grid_search
        monkeypatch.setattr(model, "fit_lr", lambda *a, **k: solves.append(1) or fit_lr(*a, **k))
        monkeypatch.setattr(evaluate, "grid_search",
                            lambda *a, **k: searches.append(1) or grid_search(*a, **k))
        run_nested_cv(records, RunConfig(task_id=1, seed=0), base_dir=d)
        assert (len(solves), len(searches)) == (2, 1)  # inner fits, then outer refits

    def test_two_svm_solves_and_one_grid_search(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        solves, searches = [], []
        fit_svm_rbf, grid_search = model.fit_svm_rbf, evaluate.grid_search
        monkeypatch.setattr(model, "fit_svm_rbf",
                            lambda *a, **k: solves.append(1) or fit_svm_rbf(*a, **k))
        monkeypatch.setattr(evaluate, "grid_search",
                            lambda *a, **k: searches.append(1) or grid_search(*a, **k))
        run_nested_cv(records, RunConfig(task_id=2, seed=0), base_dir=d)
        assert (len(solves), len(searches)) == (2, 1)  # inner fits, then outer refits

    @pytest.mark.parametrize("task", [1, 2])
    def test_one_pipeline_per_outer_slice_and_cutoff(self, small_cohort, monkeypatch, task):
        # inner folds build none; select_and_fit builds the refits it returns
        d, records, _ = small_cohort
        built, init = [], model.Pipeline.__init__
        monkeypatch.setattr(model.Pipeline, "__init__",
                            lambda self, *a: built.append(1) or init(self, *a))
        per_call, select_and_fit = [], evaluate.select_and_fit

        def spy(*a):
            before = len(built)
            fits = select_and_fit(*a)
            per_call.append(len(built) - before)
            return fits

        monkeypatch.setattr(evaluate, "select_and_fit", spy)
        run_nested_cv(records, RunConfig(task_id=task, seed=0), base_dir=d, cutoffs=PCA_CUTOFFS)
        assert per_call == [len(built)] == [N_OUTER_FOLDS * len(PCA_CUTOFFS)]

    @pytest.mark.parametrize("task, kind", [(1, "lr"), (2, "svm-rbf")])
    def test_each_cutoff_scores_as_its_pipeline_alone(self, tmp_path, monkeypatch, task, kind):
        # an outer fold's test rows are scored for all cutoffs in one pass;
        # each cutoff's metrics are those of its refit pipeline scoring them.
        # Audio uninformative of the label makes the cutoffs' metrics differ.
        spec = synth.CohortSpec(n_covid=8, n_healthy=8, n_cough=8, n_asthma=0,
                                clip_seconds=1.0, informative=False)
        records = load_manifest(synth.generate_cohort(tmp_path, seed=7, spec=spec))
        cfg = RunConfig(task_id=task, classifier=kind, seed=0)
        splits, calls, fits = [], [], []
        split_users, select_and_fit = evaluate.split_users, evaluate.select_and_fit
        monkeypatch.setattr(evaluate, "split_users",
                            lambda *a: splits.extend(split_users(*a)) or tuple(splits))
        monkeypatch.setattr(evaluate, "select_and_fit",
                            lambda *a: calls.append(a) or fits.extend(select_and_fit(*a)) or fits)
        reports = run_nested_cv(records, cfg, base_dir=tmp_path, cutoffs=PCA_CUTOFFS)
        [(X, y, users, _, _, _)] = calls
        for i, ((_, test_users), fold_fits) in enumerate(zip(splits, fits, strict=True)):
            # the test side: the test users' units, class-balanced by the fold's seed
            test = np.flatnonzero(np.isin(users, list(test_users)))
            test = test[balance(y[test], seed=hash((cfg.seed, i)) % 2**32)]
            for report, (cell, pipe) in zip(reports, fold_fits, strict=True):
                fold = report.folds[i]
                scores = pipe.decision_scores(X[test])
                pr = precision_recall(scores, y[test], pipe.classifier.threshold)
                assert (fold.hyperparameters, fold.pca_k, fold.n_test) == (cell, pipe.pca.k,
                                                                           len(test))
                assert type(fold.auc) is float
                assert (fold.auc, fold.precision, fold.recall) == (
                    roc_auc(scores, y[test]), pr.precision, pr.recall)

    def test_aggregate_recomputation(self, small_cohort):
        d, records, _ = small_cohort
        report = run_nested_cv(records, RunConfig(task_id=1, seed=1), base_dir=d)
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
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=None)
        assert len(rows) == 60  # 3 modalities x 4 cutoffs x 5 feature types
        skipped = [r for r in rows if r.status == "skipped"]
        assert len(skipped) == 48  # the 4 embedding-based types per cell
        assert all(r.feature_type != "handcrafted" for r in skipped)
        combos = {(r.modality, r.pca_cutoff, r.feature_type) for r in rows}
        assert len(combos) == 60

    def test_with_embeddings_no_skips(self, small_cohort):
        d, records, embeddings = small_cohort
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings)
        assert len(rows) == 3 * len(PCA_CUTOFFS) * len(FEATURE_TYPES)
        assert all(r.status == "ok" for r in rows)

    def test_pipeline_errors_become_rows(self, small_cohort, monkeypatch):
        def fail(*args, **kwargs):
            raise EmptyCohort("no users")

        d, records, _ = small_cohort
        monkeypatch.setattr(evaluate, "run_nested_cv", fail)
        rows = sweep(records, task_id=1, seed=0, base_dir=d)
        assert len(rows) == 60
        assert {r.status for r in rows if r.feature_type == "handcrafted"} == {
            "error:EmptyCohort: no users"}
        assert {r.status for r in rows if r.feature_type != "handcrafted"} == {"skipped"}

    def test_error_rows_keep_the_message(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        negatives = [r for r in records if not is_positive(r, 1)]
        rows = sweep(negatives, task_id=1, seed=0, base_dir=d)
        assert {r.status for r in rows if r.feature_type == "handcrafted"} == {
            "error:EmptyCohort: task 1: no positive users"}

        def fail(*args, **kwargs):
            raise EmptyCohort("no users, no units")

        monkeypatch.setattr(evaluate, "run_nested_cv", fail)
        rows = sweep(records, task_id=1, seed=0, base_dir=d)
        assert {r.status for r in rows if r.feature_type == "handcrafted"} == {
            "error:EmptyCohort: no users, no units"}
        assert sweep_rows_from_csv(sweep_rows_to_csv(rows)) == rows

    def test_programming_errors_propagate(self, small_cohort, monkeypatch):
        def fail(*args, **kwargs):
            raise TypeError("a bug")

        d, records, _ = small_cohort
        monkeypatch.setattr(evaluate, "run_nested_cv", fail)
        with pytest.raises(TypeError, match="a bug"):
            sweep(records, task_id=1, seed=0, base_dir=d)

    def test_rows_equal_single_cutoff_runs(self, small_cohort, monkeypatch):
        d, records, embeddings = small_cohort
        store = FeatureStore(d, embeddings)
        run, fit_pca, reports, slice_ks = evaluate.run_nested_cv, model.fit_pca, {}, []

        def spy_run(records, config, **kw):
            reports[(config.modality, config.feature_type)] = run(records, config, **kw)
            return reports[(config.modality, config.feature_type)]

        def spy_pca(X, cutoffs):
            pcas = fit_pca(X, cutoffs)
            # one entry per slice decomposed: fit_pca takes a stack of slices
            slice_ks.extend([p.k for p in slice_pcas]
                            for slice_pcas in (pcas if np.ndim(X) == 3 else [pcas]))
            return pcas

        monkeypatch.setattr(evaluate, "run_nested_cv", spy_run)
        monkeypatch.setattr(model, "fit_pca", spy_pca)
        rows = sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings)
        assert any(len(set(ks)) < len(ks) for ks in slice_ks)  # two cutoffs share k
        monkeypatch.setattr(evaluate, "run_nested_cv", run)
        assert len(rows) == 60
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
        # one entry per slice decomposed: fit_pca takes a stack of slices
        monkeypatch.setattr(model, "fit_pca", lambda X, cutoffs: bases.extend(
            [tuple(cutoffs)] * (len(X) if np.ndim(X) == 3 else 1)) or fit_pca(X, cutoffs))

        def spy(X, y, users, slices, kind, pca_cutoffs):
            for rows, seed in slices:
                usable_inner.extend(f for f in _inner_user_folds(users[rows], seed)
                                    if all(len(np.unique(y[rows][idx])) == 2 for idx in f))
            return grid_search(X, y, users, slices, kind, pca_cutoffs=pca_cutoffs)

        monkeypatch.setattr(evaluate, "grid_search", spy)
        monkeypatch.setattr(model, "LR_C_GRID", (0.1, 1.0))
        sweep(records, task_id=1, seed=0, base_dir=d, embeddings=embeddings)
        assert sorted(runs) == [(m, f, PCA_CUTOFFS) for m in sorted(evaluate.MODALITY_CHOICES)
                                for f in sorted(FEATURE_TYPES)]
        n_outer = N_OUTER_FOLDS * len(runs)
        assert len(bases) == n_outer + len(usable_inner)  # 4 per slice, one per cutoff, before
        assert set(bases) == {PCA_CUTOFFS}

    def test_every_lr_fit_of_the_benchmark_sweep_converges(self, tmp_path, monkeypatch):
        # the cohort of the benchmark's sweep-embed workload at its seed 0
        spec = synth.CohortSpec(n_covid=6, n_healthy=6, n_cough=0, n_asthma=0,
                                clip_seconds=1.0)
        records = load_manifest(synth.generate_cohort(tmp_path, seed=0, spec=spec))
        synth.generate_embeddings(records, tmp_path / "embeddings.csv", seed=0)
        classifiers, fit_lr = [], model.fit_lr

        def spy(problems):
            fits = fit_lr(problems)
            classifiers.extend(clf for per_problem in fits for clf in per_problem)
            return fits

        monkeypatch.setattr(model, "fit_lr", spy)
        sweep(records, task_id=1, seed=0, base_dir=tmp_path,
              embeddings=load_embeddings(tmp_path / "embeddings.csv"))
        assert classifiers and all(clf.converged is True for clf in classifiers)

    def test_csv_round_trip(self):
        rows = [
            SweepRow(1, "cough", "handcrafted", 0.9, 0.123456789012345, 0.01,
                     0.5, 0.1, 0.7, 0.05, "ok"),
            SweepRow(1, "breath", "vggish", 0.7, status="skipped"),
            SweepRow(1, "combined", "combined-C", 0.95,
                     status="error:EmptyCohort: task 1: no usable positive units"),
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
                     embeddings=load_embeddings(tmp_path / "embeddings.csv"))
        assert {r.status for r in rows} == {"ok"}
        assert loads.count(Path(silent.audio_path).name) == 1
        assert len(loads) == len(set(loads))

    def test_stored_error_keeps_no_caller_frame(self, tmp_path):
        # a stored exception that is raised again carries the traceback of
        # its last raise, and with it build_cohort's frame, rows and store
        spec = synth.CohortSpec(n_covid=3, n_healthy=3, n_cough=0, n_asthma=0,
                                clip_seconds=0.5)
        records = load_manifest(synth.generate_cohort(tmp_path, seed=1, spec=spec))
        silent = min((r for r in records if r.modality == "cough"), key=lambda r: r.sample_id)
        (tmp_path / silent.audio_path).write_bytes(
            encode_wav(AudioSegment(np.zeros(11025), 22050)))
        store = FeatureStore(tmp_path)
        config = RunConfig(task_id=1, modality="cough")
        for _ in range(2):  # loaded, then raised again from the store
            cohort = build_cohort(records, config, store)
            assert cohort.skipped == ((silent.sample_id, "SilentSample: all-zero signal"),)
        assert "build_cohort" not in frames_reachable_from(store)

    def test_keeps_no_segment(self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        segments = []
        load_segment = evaluate.load_segment

        def load_and_watch(path):
            seg = load_segment(path)
            segments.append(weakref.ref(seg))
            return seg

        monkeypatch.setattr(evaluate, "load_segment", load_and_watch)
        store = FeatureStore(d)
        for r in records:
            store.vector(r, "handcrafted")
        gc.collect()
        assert len(segments) == len(records)
        assert [ref() for ref in segments] == [None] * len(records)

    def test_memory_after_build_cohort_is_below_two_recordings(self, tmp_path):
        spec = synth.CohortSpec(n_covid=3, n_healthy=3, n_cough=0, n_asthma=0,
                                clip_seconds=10.0)
        records = load_manifest(synth.generate_cohort(tmp_path, seed=2, spec=spec))
        two_recordings = 2 * int(spec.clip_seconds * synth.SAMPLE_RATE) * 8  # float64 samples
        store = FeatureStore(tmp_path)
        gc.collect()
        tracemalloc.start()
        try:
            cohort = build_cohort(records, RunConfig(task_id=1, modality="combined"), store)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cohort.X.shape == (6, 2 * features.N_FEATURES)
        assert held < two_recordings

    def test_augmented_run_loads_a_positive_once_and_a_negative_at_most_twice(
            self, small_cohort, monkeypatch):
        d, records, _ = small_cohort
        units = build_cohort(records, RunConfig(task_id=2), FeatureStore(d)).units
        loads = Counter()
        load_segment = evaluate.load_segment
        monkeypatch.setattr(evaluate, "load_segment",
                            lambda path: loads.update([path.name]) or load_segment(path))
        run_nested_cv(records, RunConfig(task_id=2, seed=0, augment=True), base_dir=d)
        for u in units:
            [r] = u.records
            assert 1 <= loads[Path(r.audio_path).name] <= (1 if u.label else 2)

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
            run_nested_cv(records, cfg, store=store)
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
