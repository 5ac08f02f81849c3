import json

import numpy as np
import pytest

from respscreen.errors import DegenerateData, NonFiniteFeature, SingleClass, TooFewUsers
from respscreen.metrics import roc_auc
from respscreen import model
from respscreen.model import (
    LR_C_GRID,
    LR_GRADIENT_TOL,
    PCA_CUTOFFS,
    Classifier,
    GridSpec,
    PcaModel,
    Pipeline,
    Standardizer,
    fit_lr,
    fit_pca,
    fit_pipeline,
    fit_svm_rbf,
    _inner_user_folds,
    grid_search,
    load_pipeline,
    lr_loss_grad,
    pipeline_from_dict,
    pipeline_to_dict,
    rbf_kernel,
    resolve_gamma,
    save_pipeline,
)

from .oracles import newton_lr_oracle, svm_dual_qp_oracle


def blobs(n_per=20, d=5, sep=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(n_per, d)),
        rng.normal(sep, 1.0, size=(n_per, d)),
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


class TestStandardizer:
    def test_transform(self):
        X = np.array([[1.0, 10.0], [3.0, 30.0]])
        Z = Standardizer.fit(X).transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0)
        assert np.allclose(Z.std(axis=0), 1.0)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0]])
        Z = Standardizer.fit(X).transform(X)
        assert np.allclose(Z[:, 0], 0.0)


class TestPca:
    def test_components_orthonormal(self):
        X = np.random.default_rng(1).normal(size=(40, 12))
        [pca] = fit_pca(X, [0.95])
        G = pca.components @ pca.components.T
        assert np.allclose(G, np.eye(pca.k), atol=1e-8)

    def test_minimal_k_per_cutoff(self):
        rng = np.random.default_rng(2)
        # planted spectrum: variances proportional to [8, 4, 2, 1, ...]
        X = rng.normal(size=(200, 8)) * np.array([8, 4, 2, 1, 0.5, 0.25, 0.1, 0.05])
        mean = X.mean(axis=0)
        _, s, _ = np.linalg.svd(X - mean, full_matrices=False)
        ratio = s**2 / np.sum(s**2)
        cumulative = np.cumsum(ratio)
        for cutoff in PCA_CUTOFFS:
            [pca] = fit_pca(X, [cutoff])
            assert cumulative[pca.k - 1] >= cutoff - 1e-12
            if pca.k > 1:
                assert cumulative[pca.k - 2] < cutoff

    def test_monotone_in_cutoff(self):
        X = np.random.default_rng(3).normal(size=(60, 10))
        ks = [fit_pca(X, [c])[0].k for c in PCA_CUTOFFS]
        assert ks == sorted(ks)

    def test_exact_two_dim_example(self):
        # all the variance lies along one axis, so one component suffices
        X = np.array([[t, 0.0] for t in np.linspace(-1, 1, 9)])
        [pca] = fit_pca(X, [0.95])
        assert pca.k == 1
        assert abs(pca.components[0, 0]) == pytest.approx(1.0)

    def test_reconstruction_captures_variance(self):
        X = np.random.default_rng(4).normal(size=(100, 20))
        [pca] = fit_pca(X, [0.9])
        Z = pca.transform(X)
        Xr = Z @ pca.components + pca.mean
        resid = np.sum((X - Xr) ** 2)
        total = np.sum((X - X.mean(axis=0)) ** 2)
        assert 1.0 - resid / total >= 0.9 - 1e-12

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateData):
            fit_pca(np.ones((5, 3)), [0.9])


class TestLogisticRegression:
    def test_gradient_norm_at_solution(self):
        X, y = blobs(seed=5)
        clf = fit_lr(X, y, C=1.0)
        _, grad = lr_loss_grad(clf.weights, X, y.astype(float), 1.0)
        assert np.linalg.norm(grad) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 4))
        y = rng.integers(0, 2, size=15).astype(float)
        y[:2] = [0, 1]
        w = rng.normal(size=5)
        _, grad = lr_loss_grad(w, X, y, C=0.5)
        eps = 1e-6
        for j in range(5):
            e = np.zeros(5)
            e[j] = eps
            lp, _ = lr_loss_grad(w + e, X, y, 0.5)
            lm, _ = lr_loss_grad(w - e, X, y, 0.5)
            assert grad[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-4)

    def test_separable_high_auc(self):
        X, y = blobs(sep=4.0, seed=7)
        clf = fit_lr(X, y, C=10.0)
        assert roc_auc(clf.decision_scores(X), y) == 1.0

    def test_scores_are_probabilities(self):
        X, y = blobs(seed=8)
        s = fit_lr(X, y).decision_scores(X)
        assert np.all((s >= 0) & (s <= 1))

    def test_row_duplication_invariant(self):
        # mean-based loss: duplicating every row must not change the optimum
        X, y = blobs(n_per=10, seed=9)
        w1 = fit_lr(X, y, C=1.0).weights
        w2 = fit_lr(np.vstack([X, X]), np.concatenate([y, y]), C=1.0).weights
        assert np.allclose(w1, w2, atol=1e-6)

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            fit_lr(np.ones((4, 2)), [1, 1, 1, 1])

    def test_non_finite_raises(self):
        X = np.ones((4, 2))
        X[0, 0] = np.nan
        with pytest.raises(NonFiniteFeature):
            fit_lr(X, [0, 1, 0, 1])

    # the line search of this input stalls at machine precision short of
    # the gradient tolerance (final norm 1.27e-8)
    STALL = dict(n_per=4, d=6, seed=54)

    def random_problems(self):
        rng = np.random.default_rng(55)
        for _ in range(8):
            n, d = int(rng.integers(6, 30)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0)
            y = rng.integers(0, 2, size=n)
            y[:2] = [0, 1]
            yield X, y, float(rng.choice([0.01, 0.1, 1.0, 10.0, 100.0]))

    def sweep_shaped_problems(self):
        """The sweep's inner fits: 8 or 10 rows of separable PCA scores with
        d = 3..9, at every C of the LR grid (2-10 Newton steps each, as in
        the sweep)."""
        rng = np.random.default_rng(56)
        for d in range(3, 10):
            for C in LR_C_GRID:
                n = int(rng.choice([8, 10]))
                y = np.arange(n) % 2
                X = (rng.normal(size=(n, d)) * np.linspace(12.0, 3.0, d)
                     + y[:, None] * rng.uniform(0.0, 20.0, size=d))
                yield X, y, C

    def test_weights_bitwise_equal_newton_oracle(self):
        X, y = blobs(**self.STALL)
        problems = [(X, y, 1.0), *self.random_problems(), *self.sweep_shaped_problems()]
        for X, y, C in problems:
            w = fit_lr(X, y, C=C).weights
            assert w.tobytes() == newton_lr_oracle(X, y, C).tobytes()

    def test_stalled_line_search_stops_at_fixed_point(self, monkeypatch):
        calls = []
        orig = model._lr_loss  # every loss evaluation of the solver

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(model, "_lr_loss", counting)
        X, y = blobs(**self.STALL)
        fit_lr(X, y, C=1.0)
        assert 0 < len(calls) <= 100  # 5,692 when the stall ran to max_iter

    def test_reports_solver_status(self):
        X, y = blobs(seed=5)
        clf = fit_lr(X, y, C=1.0)
        assert clf.converged is True and 0 < clf.n_iter < 200

        X, y = blobs(**self.STALL)
        clf = fit_lr(X, y, C=1.0)
        _, grad = lr_loss_grad(clf.weights, X, y.astype(float), 1.0)
        assert np.linalg.norm(grad) >= LR_GRADIENT_TOL
        assert clf.converged is False and clf.n_iter < 200

        clf = fit_lr(*blobs(seed=5), C=1.0, max_iter=1)
        assert (clf.n_iter, clf.converged) == (1, False)


class TestSvm:
    def test_xor_against_qp_oracle(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        X = np.vstack([c + rng.normal(0, 0.08, size=(10, 2)) for c in centers])
        y = np.array([0] * 20 + [1] * 20)
        y_pm = 2.0 * y - 1.0
        gamma = 2.0

        clf = fit_svm_rbf(X, y, C=10.0, gamma=gamma)
        _, _, oracle_decision = svm_dual_qp_oracle(X, y_pm, 10.0, gamma)

        grid = np.array([[a, b] for a in np.linspace(-0.3, 1.3, 9)
                         for b in np.linspace(-0.3, 1.3, 9)])
        ours = clf.decision_scores(grid)
        theirs = oracle_decision(grid)
        agree = np.mean(np.sign(ours) == np.sign(theirs))
        assert agree >= 0.95
        acc = np.mean((clf.decision_scores(X) > 0) == (y == 1))
        assert acc == 1.0

    def test_kkt_conditions_on_blobs(self):
        X, y = blobs(n_per=15, d=3, sep=2.0, seed=11)
        C = 1.0
        clf = fit_svm_rbf(X, y, C=C, gamma=0.5)
        y_pm = 2.0 * y - 1.0
        f = clf.decision_scores(X)
        m = y_pm * f  # functional margin
        # reconstruct alpha per training point from the stored SVs
        alpha = np.zeros(len(X))
        for sv, coef in zip(clf.support_vectors, clf.dual_coef):
            idx = np.flatnonzero(np.all(np.isclose(X, sv), axis=1))[0]
            alpha[idx] = abs(coef)
        tol = 2e-3
        assert np.all(m[alpha < 1e-10] >= 1 - tol)  # non-SVs outside margin
        free = (alpha > 1e-10) & (alpha < C - 1e-10)
        assert np.all(np.abs(m[free] - 1) <= tol)  # free SVs on margin
        assert np.all(m[alpha > C - 1e-10] <= 1 + tol)  # bound SVs inside

    def test_dual_objective_matches_oracle(self):
        X, y = blobs(n_per=8, d=2, sep=1.0, seed=12)
        y_pm = 2.0 * y - 1.0
        gamma, C = 0.7, 5.0
        clf = fit_svm_rbf(X, y, C=C, gamma=gamma)
        alpha_o, _, _ = svm_dual_qp_oracle(X, y_pm, C, gamma)
        K = rbf_kernel(X, X, gamma)
        Q = np.outer(y_pm, y_pm) * K

        alpha = np.zeros(len(X))
        for sv, coef in zip(clf.support_vectors, clf.dual_coef):
            idx = np.flatnonzero(np.all(np.isclose(X, sv), axis=1))[0]
            alpha[idx] = abs(coef)

        def dual(a):
            return 0.5 * a @ Q @ a - a.sum()

        assert dual(alpha) <= dual(alpha_o) + 1e-3

    def test_gamma_scale_resolution(self):
        X = np.random.default_rng(13).normal(size=(30, 4))
        g = resolve_gamma("scale", X)
        assert g == pytest.approx(1.0 / (4 * X.var()))
        assert resolve_gamma(0.01, X) == 0.01

    def test_permutation_invariant_decisions(self):
        X, y = blobs(n_per=10, seed=14)
        perm = np.random.default_rng(15).permutation(len(X))
        c1 = fit_svm_rbf(X, y, C=1.0, gamma=0.2)
        c2 = fit_svm_rbf(X[perm], y[perm], C=1.0, gamma=0.2)
        probe = np.random.default_rng(16).normal(size=(20, X.shape[1]))
        # agreement is bounded by the SMO stopping tolerance, not exact
        assert np.allclose(c1.decision_scores(probe), c2.decision_scores(probe), atol=5e-3)

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            fit_svm_rbf(np.ones((4, 2)), [0, 0, 0, 0])

    def test_reports_solver_status(self):
        X, y = blobs(n_per=15, d=3, sep=2.0, seed=11)
        clf = fit_svm_rbf(X, y, C=1.0, gamma=0.5)
        assert clf.converged is True and clf.n_iter > 1
        capped = fit_svm_rbf(X, y, C=1.0, gamma=0.5, max_iter=1)
        assert (capped.n_iter, capped.converged) == (1, False)


class TestGridSearch:
    def users(self, n):
        # two samples per user so folds stay user-disjoint but non-trivial
        return [f"u{i // 2}" for i in range(n)]

    def test_planted_best_cell(self):
        # XOR layout: a near-linear kernel (tiny gamma) cannot rank it, so
        # the moderate gamma must win on inner-fold AUC despite sorting last
        rng = np.random.default_rng(17)
        centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        X = np.vstack([c + rng.normal(0, 0.08, size=(15, 2)) for c in centers])
        y = np.array([0] * 30 + [1] * 30)
        users = self.users(len(X))
        grid = GridSpec(svm_c=(1.0,), svm_gamma=(1e-5, 1.0))
        [best] = grid_search(X, y, users, "svm-rbf", grid, seed=0, pca_cutoffs=[0.95])
        assert best == {"C": 1.0, "gamma": 1.0}

    def test_deterministic(self):
        X, y = blobs(n_per=20, d=3, seed=18)
        users = self.users(len(X))
        grid = GridSpec(svm_c=(0.1, 1.0), svm_gamma=("scale", 0.01))
        [a] = grid_search(X, y, users, "svm-rbf", grid, seed=0, pca_cutoffs=[0.95])
        [b] = grid_search(X, y, users, "svm-rbf", grid, seed=0, pca_cutoffs=[0.95])
        assert a == b

    def test_single_cell_short_circuit(self):
        X, y = blobs(n_per=5, seed=19)
        [best] = grid_search(X, y, self.users(len(X)), "lr", GridSpec(lr_c=(0.5,)), seed=0,
                             pca_cutoffs=[0.95])
        assert best == {"C": 0.5}

    def test_too_few_users(self):
        X, y = blobs(n_per=4, seed=20)
        with pytest.raises(TooFewUsers):
            grid_search(X, y, ["u0"] * 4 + ["u1"] * 4, "lr", GridSpec(), seed=0,
                        pca_cutoffs=[0.95])

    def test_tie_breaks_toward_smaller_c(self):
        # perfectly separable data: every C wins, smallest must be chosen
        X, y = blobs(n_per=30, d=2, sep=10.0, seed=21)
        [best] = grid_search(X, y, self.users(len(X)), "lr", GridSpec(), seed=0,
                             pca_cutoffs=[0.95])
        assert best == {"C": 0.01}

    def test_pipeline_mode_runs(self):
        X, y = blobs(n_per=30, d=6, sep=3.0, seed=22)
        [best] = grid_search(X, y, self.users(len(X)), "lr", GridSpec(lr_c=(0.1, 1.0)),
                             seed=0, pca_cutoffs=[0.9])
        assert best["C"] in (0.1, 1.0)

    def test_one_basis_per_usable_inner_fold(self, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "fit_pca", lambda *a, **k: calls.append(1) or fit_pca(*a, **k))
        X, y = blobs(n_per=20, d=6, seed=24)
        users = self.users(len(X))
        grid = GridSpec()
        assert len(grid.cells("lr")) == 4
        usable = [f for f in _inner_user_folds(users, 0)
                  if all(len(np.unique(y[idx])) == 2 for idx in f)]
        grid_search(X, y, users, "lr", grid, seed=0, pca_cutoffs=[0.9])
        assert len(calls) == len(usable) > 0  # 4 per fold, one per C, before


    def test_each_cutoff_selects_as_if_alone(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(40, 8))
        y = (X[:, 5] + X[:, 6] + rng.normal(0, 1.0, 40) > 0).astype(int)
        users = self.users(len(X))
        best = grid_search(X, y, users, "lr", GridSpec(), seed=0, pca_cutoffs=PCA_CUTOFFS)
        assert len({cell["C"] for cell in best}) == 3  # the cutoffs disagree
        for cutoff, cell in zip(PCA_CUTOFFS, best):
            assert grid_search(X, y, users, "lr", GridSpec(), seed=0,
                               pca_cutoffs=[cutoff]) == [cell]


class TestFitPipeline:
    def test_cutoffs_with_one_k_share_a_classifier(self, monkeypatch):
        # one strong common factor: cutoffs 0.7 and 0.8 both keep k = 1
        rng = np.random.default_rng(26)
        z = rng.normal(size=(24, 1))
        X = z * np.ones(5) + rng.normal(size=(24, 5)) * np.array([0.2, 0.3, 0.5, 0.8, 1.0])
        y = (z[:, 0] + rng.normal(0, 0.5, 24) > 0).astype(int)
        lr_fits = []
        fit_lr = model.fit_lr
        monkeypatch.setattr(model, "fit_lr", lambda *a, **k: lr_fits.append(1) or fit_lr(*a, **k))
        fits = [(cutoff, {"C": c}) for cutoff in PCA_CUTOFFS for c in (0.1, 1.0)]
        pipes = fit_pipeline(X, y, "lr", fits)
        assert [p.pca.k for p in pipes] == [1, 1, 1, 1, 2, 2, 3, 3]
        assert [p.pca.cutoff for p in pipes] == [cutoff for cutoff, _ in fits]
        assert len(lr_fits) == 3 * 2  # one per distinct (k, cell)
        assert pipes[0].classifier is pipes[2].classifier
        assert pipes[1].classifier is pipes[3].classifier
        assert len({id(p.classifier) for p in pipes}) == 6
        for fit, pipe in zip(fits, pipes):
            [alone] = fit_pipeline(X, y, "lr", [fit])
            assert json.dumps(pipeline_to_dict(alone)) == json.dumps(pipeline_to_dict(pipe))

    def test_cells_share_one_preprocessing(self):
        X, y = blobs(n_per=12, d=5, seed=25)
        cells = [{"C": 0.1, "gamma": "scale"}, {"C": 10.0, "gamma": 0.01}]
        pipes = fit_pipeline(X, y, "svm-rbf", [(0.9, cell) for cell in cells])
        assert [p.classifier.hyperparameters["C"] for p in pipes] == [0.1, 10.0]
        assert all(p.pca is pipes[0].pca and p.standardizer is pipes[0].standardizer
                   for p in pipes)
        for cell, pipe in zip(cells, pipes):
            [alone] = fit_pipeline(X, y, "svm-rbf", [(0.9, cell)])
            assert np.array_equal(alone.decision_scores(X), pipe.decision_scores(X))


class TestPipelinePersistence:
    def make(self, kind):
        X, y = blobs(n_per=12, d=5, seed=23)
        params = {"C": 1.0} if kind == "lr" else {"C": 1.0, "gamma": 0.1}
        return fit_pipeline(X, y, kind, [(0.9, params)])[0], X

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_json_round_trip_exact(self, kind, tmp_path):
        pipe, X = self.make(kind)
        path = tmp_path / "model.json"
        save_pipeline(pipe, path)
        loaded = load_pipeline(path)
        assert np.array_equal(pipe.decision_scores(X), loaded.decision_scores(X))
        # serialization itself is stable
        assert json.dumps(pipeline_to_dict(pipe)) == json.dumps(pipeline_to_dict(loaded))

    def test_version_check(self):
        pipe, _ = self.make("lr")
        d = pipeline_to_dict(pipe)
        d["format_version"] = 99
        with pytest.raises(ValueError):
            pipeline_from_dict(d)


# Model files of two hand-built pipelines, as the layout stood before the
# codec became one field table; the bytes must not drift.
PINNED_MODEL_FILES = {
    "lr": (
        '{"format_version": 1, "standardizer": {"mean": [1.0, -2.5, 0.1], "std": [2.0, 0.5, '
        '1e-12]}, "pca": {"components": [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], '
        '"explained_variance_ratio": [0.75, 0.2], "cutoff": 0.9, "mean": [0.0, 0.25, -0.125]}, '
        '"classifier": {"kind": "lr", "hyperparameters": {"C": 0.1}, "intercept": 0.0, '
        '"weights": [1.5, -0.3, 0.2]}}'
    ),
    "svm-rbf": (
        '{"format_version": 1, "standardizer": {"mean": [1.0, -2.5, 0.1], "std": [2.0, 0.5, '
        '1e-12]}, "pca": {"components": [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], '
        '"explained_variance_ratio": [0.75, 0.2], "cutoff": 0.9, "mean": [0.0, 0.25, -0.125]}, '
        '"classifier": {"kind": "svm-rbf", "hyperparameters": {"C": 10.0, "gamma": 0.01}, '
        '"intercept": -0.0625, "support_vectors": [[0.5, -1.0], [2.0, 0.125]], '
        '"dual_coef": [0.7, -0.7]}}'
    ),
}


class TestModelFileLayout:
    def make(self, kind):
        std = Standardizer(mean=np.array([1.0, -2.5, 0.1]), std=np.array([2.0, 0.5, 1e-12]))
        pca = PcaModel(components=np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
                       explained_variance_ratio=np.array([0.75, 0.2]), cutoff=0.9,
                       mean=np.array([0.0, 0.25, -0.125]))
        if kind == "lr":
            clf = Classifier(kind="lr", hyperparameters={"C": 0.1},
                             weights=np.array([1.5, -0.3, 0.2]))
        else:
            clf = Classifier(kind="svm-rbf", hyperparameters={"C": 10.0, "gamma": 0.01},
                             support_vectors=np.array([[0.5, -1.0], [2.0, 0.125]]),
                             dual_coef=np.array([0.7, -0.7]), intercept=-0.0625)
        return Pipeline(std, pca, clf)

    @pytest.mark.parametrize("kind", sorted(PINNED_MODEL_FILES))
    def test_bytes_pinned(self, kind):
        assert json.dumps(pipeline_to_dict(self.make(kind))) == PINNED_MODEL_FILES[kind]

    @pytest.mark.parametrize("kind", sorted(PINNED_MODEL_FILES))
    def test_pinned_file_scores_like_the_pipeline(self, kind):
        X = np.random.default_rng(27).normal(size=(6, 3))
        loaded = pipeline_from_dict(json.loads(PINNED_MODEL_FILES[kind]))
        assert np.array_equal(loaded.decision_scores(X), self.make(kind).decision_scores(X))
