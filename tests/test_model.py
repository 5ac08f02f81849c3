import dataclasses
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from respscreen.errors import DegenerateData, NonFiniteFeature, SingleClass, TooFewUsers
from respscreen.metrics import roc_auc
from respscreen import model
from respscreen.model import (
    LR_C_GRID,
    LR_DECREMENT_TOL,
    LR_GRADIENT_TOL,
    PCA_CUTOFFS,
    STD_FLOOR,
    SVM_C_GRID,
    SVM_GAMMA_GRID,
    Classifier,
    PcaModel,
    Pipeline,
    Standardizer,
    fit_lr,
    fit_pca,
    fit_pipeline,
    fit_pipelines,
    fit_slices,
    fit_svm_rbf,
    _inner_user_folds,
    grid_cells,
    grid_search,
    load_pipeline,
    plan_search,
    pipeline_from_dict,
    pipeline_to_dict,
    rbf_kernel,
    resolve_gamma,
    save_pipeline,
)

from .oracles import lr_loss_grad, newton_lr_oracle, smo_oracle, svm_dual_qp_oracle


def blobs(n_per=20, d=5, sep=3.0, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(0.0, 1.0, size=(n_per, d)),
        rng.normal(sep, 1.0, size=(n_per, d)),
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def every_row(X) -> np.ndarray:
    """The training slice of all of X's rows, as row indices."""
    return np.arange(len(X))


def lone_lr(X, y, C) -> Classifier:
    [fit] = fit_lr([(X, y, [{"C": C}])])
    return fit.classifier(0)


def search(X, y, users, slices, kind, pca_cutoffs) -> list[list[dict]]:
    """Per slice and cutoff, the cell one planned grid search selects."""
    [selected] = grid_search([plan_search(X, y, users, slices, pca_cutoffs)], kind)
    if isinstance(selected, Exception):
        raise selected
    return selected


def classifiers(solved) -> list[Classifier]:
    """A solver's result on one problem as one `Classifier` per cell."""
    if isinstance(solved, model.LrFit):
        return [solved.classifier(c) for c in range(len(solved.cells))]
    return solved


def lone_svm(X, y, cell) -> Classifier:
    [[clf]] = fit_svm_rbf([(X, y, [cell])])
    return clf


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

    def test_huge_finite_column_keeps_its_spread(self):
        # squaring 1e200 overflows; the column must not standardize to 0
        big = np.finfo(np.float64).max
        X = np.array([[1e200, 1.0, big], [-1e200, 2.0, -big], [1e200, 3.0, big],
                      [-1e200, 4.0, -big]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            std = Standardizer.fit(X)
            Z = std.transform(X)
        assert np.all(np.isfinite(std.std))
        assert std.std[0] == pytest.approx(1e200) and std.std[2] == big
        assert np.array_equal(Z[:, [0, 2]], [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]])

    def test_ordinary_columns_fit_bitwise_as_numpy(self):
        # dividing by a power of two and multiplying back is exact
        rng = np.random.default_rng(0)
        for _ in range(50):
            X = rng.normal(size=(rng.integers(2, 60), 40)) * 10.0 ** rng.uniform(-8, 8, 40)
            X += rng.normal(size=40) * 10.0 ** rng.uniform(-8, 8, 40)
            std = Standardizer.fit(X)
            assert std.mean.tobytes() == X.mean(axis=0).tobytes()
            assert std.std.tobytes() == np.maximum(X.std(axis=0), STD_FLOOR).tobytes()


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


def sign_fixed(V):
    """Rows of V with each row's largest-magnitude entry made positive."""
    return V * np.sign(V[np.arange(len(V)), np.abs(V).argmax(axis=1)])[:, None]


class TestGramPca:
    """Every slice takes the eigendecomposition of its smaller Gram matrix:
    Xc Xc' with fewer rows than columns, Xc' Xc otherwise. The SVD of the
    centered slice is the oracle."""

    def slices(self):
        rng = np.random.default_rng(61)
        # rank-deficient: 10 distinct rows, each four times
        duplicated = np.repeat(rng.normal(size=(10, 477)), 4, axis=0)
        scaled = rng.normal(size=(40, 477)) * rng.uniform(0.1, 3.0, size=477)
        wide = {"8x300": rng.normal(size=(8, 300)), "40x477": scaled,
                "duplicate rows": duplicated}
        rng = np.random.default_rng(62)
        tall = {
            "120x25": rng.normal(size=(120, 25)),
            "616x477": rng.normal(size=(616, 477)) * rng.uniform(0.1, 3.0, size=477),
            "477x477": rng.normal(size=(477, 477)),  # n = d takes the d x d matrix
            # rank-deficient: 40 distinct rows, each 15 times
            "tall duplicate rows": np.repeat(rng.normal(size=(40, 300)), 15, axis=0),
        }
        rng = np.random.default_rng(63)
        tall["low rank plus noise"] = (rng.normal(size=(300, 5)) @ rng.normal(size=(5, 60))
                                       + 1e-3 * rng.normal(size=(300, 60)))
        return {**wide, **tall}

    def assert_agrees_with_svd(self, X, cutoffs, monkeypatch):
        eigh, grams = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda G: grams.append(G.shape) or eigh(G))
        pcas = fit_pca(X, cutoffs)
        assert grams == [(min(X.shape),) * 2]
        _, s, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
        ratio = s**2 / np.sum(s**2)
        cumulative = np.cumsum(ratio)
        for cutoff, pca in zip(cutoffs, pcas):
            k = min(int(np.searchsorted(cumulative, cutoff - 1e-12) + 1), len(ratio))
            assert pca.k == k
            assert np.allclose(pca.components @ pca.components.T, np.eye(k), rtol=0, atol=1e-8)
            assert np.allclose(pca.explained_variance_ratio, ratio[:k], rtol=0, atol=1e-13)
            assert np.allclose(sign_fixed(pca.components), sign_fixed(vt[:k]), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("name", ["8x300", "40x477", "duplicate rows", "120x25", "616x477",
                                      "477x477", "tall duplicate rows"])
    def test_agrees_with_svd(self, name, monkeypatch):
        self.assert_agrees_with_svd(self.slices()[name], (*PCA_CUTOFFS, 1.0), monkeypatch)

    def test_low_rank_tall_slice_agrees_at_shipped_cutoffs(self, monkeypatch):
        # Cutoff 1.0 would keep noise components down to variance ratio
        # r ~ 1e-9, which agree with the SVD only to about eps / r (5e-7
        # here); each shipped cutoff keeps signal components only.
        self.assert_agrees_with_svd(self.slices()["low rank plus noise"], PCA_CUTOFFS,
                                    monkeypatch)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateData):
            fit_pca(np.ones((5, 30)), [0.9])


class TestLogisticRegression:
    def test_gradient_norm_at_solution(self):
        X, y = blobs(seed=5)
        clf = lone_lr(X, y, 1.0)
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
        clf = lone_lr(X, y, 10.0)
        assert roc_auc(clf.decision_scores(X), y) == 1.0

    def test_stacked_scores_bitwise_equal_lone_scores(self):
        # both branches of `_score_columns`: LR as one stacked product, SVMs
        # column by column
        def lone_lr_scores(clf, Z):
            w = clf.weights
            return 1.0 / (1.0 + np.exp(-np.clip(Z @ w[:-1] + w[-1], -500, 500)))

        def lone_svm_scores(clf, Z):
            K = rbf_kernel(Z, clf.support_vectors, clf.hyperparameters["gamma"])
            return K @ clf.dual_coef + clf.intercept

        rng = np.random.default_rng(62)
        for k in range(1, 10):
            X = rng.normal(size=(30, k))
            y = (X[:, 0] + rng.normal(0, 1.0, 30) > 0).astype(int)
            [lr] = fit_lr([(X, y, grid_cells("lr"))])
            [svm] = fit_svm_rbf([(X, y, grid_cells("svm-rbf"))])
            for n in range(2, 41):
                Z = rng.normal(size=(n, k))
                for solved, lone in ((lr, lone_lr_scores), (svm, lone_svm_scores)):
                    stacked = model._score_columns(solved, Z)
                    assert stacked.shape == (n, len(classifiers(solved)))
                    for j, clf in enumerate(classifiers(solved)):
                        assert np.array_equal(stacked[:, j], clf.decision_scores(Z))
                        assert np.array_equal(stacked[:, j], lone(clf, Z))

    def test_scores_are_probabilities(self):
        X, y = blobs(seed=8)
        s = lone_lr(X, y, 1.0).decision_scores(X)
        assert np.all((s >= 0) & (s <= 1))

    def test_row_duplication_invariant(self):
        # mean-based loss: duplicating every row must not change the optimum
        X, y = blobs(n_per=10, seed=9)
        w1 = lone_lr(X, y, 1.0).weights
        w2 = lone_lr(np.vstack([X, X]), np.concatenate([y, y]), 1.0).weights
        assert np.allclose(w1, w2, atol=1e-6)

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            fit_lr([(np.ones((4, 2)), [1, 1, 1, 1], [{"C": 1.0}])])

    def test_non_finite_raises(self):
        X = np.ones((4, 2))
        X[0, 0] = np.nan
        with pytest.raises(NonFiniteFeature):
            fit_lr([(X, [0, 1, 0, 1], [{"C": 1.0}])])

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

    def deep_stall_problem(self):
        """PCA scores of a sweep inner fold (8 x 4, C = 0.1): at its optimum
        rounding holds ||g|| above the gradient tolerance, and some line
        searches run past step size 2^-30 before one is accepted. The
        decrement stop ends it at n_iter 5; without that stop it took 41
        Newton steps to a bitwise fixed point."""
        X = np.array([
            [-11.076181211087825, 9.737491294519755, -1.5649094743841363, -6.250334426096999],
            [-13.813821984067285, -9.633403557107986, 13.594765478402362, 3.7720193307056555],
            [-14.012390260192975, 1.495859597307792, -1.9610794794815347, 2.975344111229277],
            [-12.20820789322417, 0.7230535301977514, -9.859955439290408, -1.6155435722407974],
            [11.421492868637113, -15.448534452044825, -6.067373874936957, -7.818259708180957],
            [12.423469749161658, 2.908683475188481, -4.325239937921941, 11.248501381951222],
            [12.724687805620068, 2.0291545807690525, 1.3425493197027412, 6.601219046453759],
            [14.54095092515342, 8.187695531169979, 8.841243407909873, -8.91294616382116],
        ])
        return X, np.array([1, 1, 1, 1, 0, 0, 0, 0]), 0.1

    def test_weights_bitwise_equal_newton_oracle(self):
        X, y = blobs(**self.STALL)
        problems = [(X, y, 1.0), *self.random_problems(), *self.sweep_shaped_problems(),
                    self.deep_stall_problem()]
        for X, y, C in problems:
            clf = lone_lr(X, y, C)
            assert clf.weights.tobytes() == newton_lr_oracle(X, y, C, max_iter=clf.n_iter).tobytes()

    def test_batch_bitwise_equal_to_lone_fits(self, monkeypatch):
        X, y = blobs(**self.STALL)
        fits = [(X, y, 1.0), (*blobs(seed=5), 1.0), *self.random_problems(),
                *self.sweep_shaped_problems(), self.deep_stall_problem()]
        # one problem per input, and the stall input once more at every C of the grid
        problems = [(X, y, [{"C": C}]) for X, y, C in fits] + [(X, y, grid_cells("lr"))]
        assert len({X.shape for X, _, _ in problems}) > 1
        for max_iter in (200, 1):  # a cap of 1 stops each solve after one step
            monkeypatch.setattr(model, "LR_MAX_ITER", max_iter)
            batch = fit_lr(problems)
            for (X, y, cells), solved in zip(problems, batch, strict=True):
                for cell, clf in zip(cells, classifiers(solved), strict=True):
                    alone = lone_lr(X, y, cell["C"])
                    assert clf.weights.tobytes() == alone.weights.tobytes()
                    assert (clf.n_iter, clf.converged) == (alone.n_iter, alone.converged)
                    assert clf.hyperparameters == cell and clf.hyperparameters is not cell

    def test_batch_with_a_bad_problem_raises(self):
        X, y = blobs(seed=5)
        cells = [{"C": 1.0}]
        with pytest.raises(SingleClass):
            fit_lr([(X, y, cells), (np.ones((4, 2)), [1, 1, 1, 1], cells), (X, y, cells)])
        bad = np.ones((4, 2))
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteFeature):
            fit_lr([(X, y, cells), (bad, [0, 1, 0, 1], cells)])

    def test_stalled_line_search_stops_at_fixed_point(self, monkeypatch):
        calls = []
        orig = model._lr_loss  # every loss evaluation of the solver

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(model, "_lr_loss", counting)
        X, y = blobs(**self.STALL)
        lone_lr(X, y, 1.0)
        assert 0 < len(calls) <= 100  # 5,692 when the stall ran to max_iter

    def rounding_stall_problem(self):
        """A sweep-shaped C = 0.01 problem (10 x 5) at its optimum after a
        few Newton steps, where rounding then holds ||g|| at 1.5e-8, above
        the gradient tolerance: without the decrement stop it took 69 tiny
        accepted steps to a bitwise fixed point and reported
        `converged=False`."""
        rng = np.random.default_rng(2230)
        d, n = int(rng.integers(3, 10)), int(rng.choice([8, 10]))
        y = np.arange(n) % 2
        X = (rng.normal(size=(n, d)) * np.linspace(12.0, 3.0, d)
             + y[:, None] * rng.uniform(0.0, 20.0, size=d))
        return X, y, 0.01

    def test_rounding_stall_stops_converged(self):
        X, y, C = self.rounding_stall_problem()
        clf = lone_lr(X, y, C)
        assert clf.converged is True and clf.n_iter <= 10
        fixed_point = newton_lr_oracle(X, y, C)  # the stall's end: 200 steps, no early exit
        assert np.max(np.abs(clf.weights - fixed_point)) <= 2e-8
        loss, _ = lr_loss_grad(clf.weights, X, y, C)
        fixed_loss, _ = lr_loss_grad(fixed_point, X, y, C)
        assert abs(loss - fixed_loss) <= np.finfo(float).eps * abs(fixed_loss)
        # the stop is per problem: in a lockstep group it stops as when alone
        problems = [*self.sweep_shaped_problems(), (X, y, C)]
        assert sum(P.shape == X.shape for P, _, _ in problems) > 1
        [in_batch] = classifiers(fit_lr([(X, y, [{"C": C}]) for X, y, C in problems])[-1])
        assert in_batch.weights.tobytes() == clf.weights.tobytes()
        assert (in_batch.n_iter, in_batch.converged) == (clf.n_iter, clf.converged)

    def sweep_cap_problem(self):
        """PCA scores of an inner fold of the benchmark's seed-0 sweep-embed
        job (10 x 9, C = 0.01): at its optimum (loss 0.42095) rounding holds
        ||g|| at 1.29e-7, and with the decrement bound at eps / 4 its Newton
        steps wandered to `LR_MAX_ITER` and reported `converged=False`."""
        X = np.array([
            [-19.273641253230878, 5.64765146637873, -2.795399798896037, 17.386537715567904,
             -2.77207411474872, -7.875883467133577, -21.574310479619704, 8.986272411179364,
             2.1365897997608094],
            [-20.261723811804835, -4.386162682321444, -8.098833373441549, 17.287110765190135,
             -0.9434057209185702, 10.979377737669335, 19.985117651711768, 6.241683812860476,
             4.638074536543055],
            [-22.516669790568557, -0.45477993808083395, 3.615344200078943, -6.864911374082292,
             -17.54608763636263, -10.814021479683475, 3.5447927577066114, -17.958709606670553,
             7.593274559110011],
            [-22.08391915908581, -1.0859683922191563, -0.6332735141920265, -6.587398149063434,
             2.3761003075886036, 1.318003533026972, 0.8251196982416114, -1.5579754956908065,
             -25.196095903641787],
            [-22.223198969921775, -3.0496300227025555, 6.008106325159339, -18.98588398932946,
             18.770062993758792, 7.159401515265046, -4.362684383553491, 4.435452592961266,
             11.074153864411674],
            [19.5404811572711, 21.071728315230544, 13.610677420489331, 11.994188105304874,
             14.776530332351747, 0.4889045754896977, 2.767674205756604, -12.922860000738108,
             -0.6689510961817985],
            [21.727906547393953, 12.340573305718335, -14.398769612172647, -8.199302371083595,
             -12.845514793407258, 19.74236148856068, -7.620065586144874, -1.757762153116018,
             0.9438851868531468],
            [21.421929489678206, -0.6195770356940076, -23.713377727839145, -5.777742561338073,
             9.087572397939716, -18.6423149533072, 5.649687742936439, 2.561455032624852,
             0.9875833077205971],
            [19.060099213186454, 4.2464038052055955, 20.177667562591818, -6.696950544157584,
             -11.892627367092015, -6.1627055622596885, 6.965152900050953, 17.901287057093747,
             -0.7812284272854431],
            [24.60873657708212, -33.710238821515205, 6.227858518221965, 6.44435240299152,
             0.9894436008903369, 3.8068766123722115, -6.180484507085916, -5.928843650504218,
             -0.7272858272902719],
        ])
        return X, np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0]), 0.01

    def test_sweep_fit_at_the_cap_stops_converged(self):
        X, y, C = self.sweep_cap_problem()
        clf = lone_lr(X, y, C)
        assert clf.converged is True and clf.n_iter <= 10
        assert clf.weights.tobytes() == newton_lr_oracle(X, y, C, max_iter=clf.n_iter).tobytes()

    def test_converged_is_earned(self):
        """Every `converged=True` model meets the gradient tolerance or the
        Newton-decrement stop at its returned weights."""
        X, y = blobs(**self.STALL)
        problems = [(X, y, 1.0), *self.random_problems(), *self.sweep_shaped_problems(),
                    self.deep_stall_problem(), self.rounding_stall_problem()]
        by_decrement = 0
        for X, y, C in problems:
            clf = lone_lr(X, y, C)
            if not clf.converged:
                continue
            loss, grad = lr_loss_grad(clf.weights, X, y, C)
            if np.linalg.norm(grad) < LR_GRADIENT_TOL:
                continue
            n, d = X.shape
            Xb = np.hstack([X, np.ones((n, 1))])
            p = 1.0 / (1.0 + np.exp(-(Xb @ clf.weights)))
            H = (Xb * (p * (1.0 - p) / n)[:, None]).T @ Xb + np.diag([1.0 / C] * d + [0.0])
            decrement = grad @ np.linalg.solve(H, grad)  # lambda^2 = g' H^-1 g
            assert decrement / 2 <= LR_DECREMENT_TOL * np.finfo(float).eps * abs(loss)
            # no further step moves it: 200 oracle steps end where it stopped
            assert np.max(np.abs(clf.weights - newton_lr_oracle(X, y, C))) <= 2e-8
            by_decrement += 1
        assert by_decrement >= 1

    def test_reports_solver_status(self, monkeypatch):
        # read from the solver's arrays: one entry per cell
        X, y = blobs(seed=5)
        [fit] = fit_lr([(X, y, [{"C": 1.0}])])
        assert fit.converged.tolist() == [True] and 0 < fit.n_iter[0] < 200

        X, y = blobs(**self.STALL)
        [fit] = fit_lr([(X, y, [{"C": 1.0}])])
        _, grad = lr_loss_grad(fit.weights[0], X, y.astype(float), 1.0)
        assert np.linalg.norm(grad) >= LR_GRADIENT_TOL
        assert fit.converged.tolist() == [True] and fit.n_iter[0] < 200

        X, y = blobs(seed=5)
        monkeypatch.setattr(model, "LR_MAX_ITER", 1)
        [fit] = fit_lr([(X, y, [{"C": 1.0}])])
        assert (fit.n_iter.tolist(), fit.converged.tolist()) == ([1], [False])


class TestSvm:
    def test_xor_against_qp_oracle(self):
        rng = np.random.default_rng(10)
        centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        X = np.vstack([c + rng.normal(0, 0.08, size=(10, 2)) for c in centers])
        y = np.array([0] * 20 + [1] * 20)
        y_pm = 2.0 * y - 1.0
        gamma = 2.0

        clf = lone_svm(X, y, {"C": 10.0, "gamma": gamma})
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
        clf = lone_svm(X, y, {"C": C, "gamma": 0.5})
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
        clf = lone_svm(X, y, {"C": C, "gamma": gamma})
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
        c1 = lone_svm(X, y, {"C": 1.0, "gamma": 0.2})
        c2 = lone_svm(X[perm], y[perm], {"C": 1.0, "gamma": 0.2})
        probe = np.random.default_rng(16).normal(size=(20, X.shape[1]))
        # agreement is bounded by the SMO stopping tolerance, not exact
        assert np.allclose(c1.decision_scores(probe), c2.decision_scores(probe), atol=5e-3)

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            fit_svm_rbf([(np.ones((4, 2)), [0, 0, 0, 0], [{"C": 1.0, "gamma": "scale"}])])

    def test_reports_solver_status(self, monkeypatch):
        X, y = blobs(n_per=15, d=3, sep=2.0, seed=11)
        clf = lone_svm(X, y, {"C": 1.0, "gamma": 0.5})
        assert clf.converged is True and clf.n_iter > 1
        monkeypatch.setattr(model, "SVM_MAX_ITER", 1)
        capped = lone_svm(X, y, {"C": 1.0, "gamma": 0.5})
        assert (capped.n_iter, capped.converged) == (1, False)

    def grid_problems(self):
        """Two problems at every cell of the SVM grid, on two row counts: a
        blob pair and 32 rows of PCA-score-like features, 8 positives as in
        an augmented inner fold."""
        rng = np.random.default_rng(57)
        y = np.array([1] * 8 + [0] * 24)
        scores = rng.normal(size=(32, 6)) * np.linspace(6.0, 1.0, 6) + 1.5 * y[:, None]
        for X, y in (blobs(n_per=8, d=2, sep=1.0, seed=12), (scores, y)):
            yield X, y, grid_cells("svm-rbf")

    def test_batch_bitwise_equal_to_lone_fits(self, monkeypatch):
        rng = np.random.default_rng(10)
        centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        xor = np.vstack([c + rng.normal(0, 0.08, size=(10, 2)) for c in centers])
        X, y = blobs(n_per=10, seed=14)
        perm = np.random.default_rng(15).permutation(len(X))
        problems = [(xor, np.array([0] * 20 + [1] * 20), [{"C": 10.0, "gamma": 2.0}]),
                    (*blobs(n_per=15, d=3, sep=2.0, seed=11), [{"C": 1.0, "gamma": 0.5}]),
                    (*blobs(n_per=8, d=2, sep=1.0, seed=12), [{"C": 5.0, "gamma": 0.7}]),
                    (X, y, [{"C": 1.0, "gamma": 0.2}]),
                    (X[perm], y[perm], [{"C": 1.0, "gamma": 0.2}]),
                    *self.grid_problems()]
        assert len({len(X) for X, _, _ in problems}) > 1
        # a cap of 1 stops each solve after one step; 25 stops some of a batch
        for max_iter in (200_000, 25, 1):
            monkeypatch.setattr(model, "SVM_MAX_ITER", max_iter)
            batch = fit_svm_rbf(problems)
            for (X, y, cells), solved in zip(problems, batch, strict=True):
                for cell, clf in zip(cells, classifiers(solved), strict=True):
                    alone = lone_svm(X, y, cell)
                    expected = smo_oracle(X, y, cell["C"], cell["gamma"], max_iter=max_iter)
                    for fitted in (clf, alone):
                        for field in dataclasses.fields(Classifier):
                            ours, theirs = getattr(fitted, field.name), expected[field.name]
                            if isinstance(theirs, np.ndarray):
                                assert ours.shape == theirs.shape
                                assert ours.tobytes() == theirs.tobytes()
                            else:
                                assert repr(ours) == repr(theirs)
                    assert clf.hyperparameters is not cell

    def test_solver_state_matches_a_fresh_computation(self, monkeypatch):
        # SMO keeps m = -y * grad and the index sets up and low across steps,
        # and updates them at i and j only. Each state it returns in the batch
        # test above (caps 200,000, 25 and 1) is checked against the same
        # quantities computed from alpha: the sets bitwise, m to within
        # rounding drift (at most 1.2e-13 measured, so 1e-12).
        drift = []
        smo = model._smo_lockstep

        def checking(KT, kernel_of, Y_pm, C):
            alpha, mt, up, low, n_iter, converged = smo(KT, kernel_of, Y_pm, C)
            pos = Y_pm > 0
            below_c, above_0 = alpha < C[:, None], alpha > 0.0
            assert np.array_equal(up, np.where(pos, below_c, above_0))
            assert np.array_equal(low, np.where(pos, above_0, below_c))
            K = KT[kernel_of].transpose(0, 2, 1)
            fresh = Y_pm - (K @ (alpha * Y_pm)[:, :, None])[:, :, 0]
            drift.append(np.max(np.abs(mt - fresh)))
            return alpha, mt, up, low, n_iter, converged

        monkeypatch.setattr(model, "_smo_lockstep", checking)
        self.test_batch_bitwise_equal_to_lone_fits(monkeypatch)
        assert len(drift) > 3 and max(drift) <= 1e-12

    def test_one_kernel_per_distinct_x_and_gamma(self, monkeypatch):
        # one training kernel per (problem, resolved gamma), shared by its cells
        built = []

        def counting(A, B, gamma):
            if A is B:  # a training kernel
                built.append((A.shape, gamma))
            return rbf_kernel(A, B, gamma)

        monkeypatch.setattr(model, "rbf_kernel", counting)
        problems = list(self.grid_problems())
        X, y = blobs(n_per=8, d=2, sep=1.0, seed=12)  # the first problem's X, in a third problem
        problems.append((X, y, [{"C": 1.0, "gamma": "scale"}, {"C": 10.0, "gamma": "scale"}]))
        fit_svm_rbf(problems)
        distinct = {(p, X.shape, resolve_gamma(cell["gamma"], X))
                    for p, (X, _, cells) in enumerate(problems) for cell in cells}
        n_fits = sum(len(cells) for _, _, cells in problems)
        assert len(distinct) == 2 * len(SVM_GAMMA_GRID) + 1 < n_fits
        assert sorted(built) == sorted((shape, gamma) for _, shape, gamma in distinct)

    def test_batch_with_a_bad_problem_raises(self):
        X, y = blobs(seed=5)
        cell = {"C": 1.0, "gamma": "scale"}
        with pytest.raises(SingleClass):
            fit_svm_rbf([(X, y, [cell]), (np.ones((4, 2)), [1, 1, 1, 1], [cell]), (X, y, [cell])])
        bad = np.ones((4, 2))
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteFeature):
            fit_svm_rbf([(X, y, [cell]), (bad, [0, 1, 0, 1], [cell])])


class TestIntake:
    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_shared_x_and_y_checked_once(self, kind, monkeypatch):
        # both solvers convert and check a problem's X and y once, for all its cells
        checked = []
        check_labels = model._check_labels
        monkeypatch.setattr(model, "_check_labels",
                            lambda y: checked.append(1) or check_labels(y))
        X, y = blobs(n_per=10, seed=16)
        extra = {} if kind == "lr" else {"gamma": "scale"}
        cells = [{"C": c, **extra} for c in (0.1, 1.0, 10.0)]
        fit = fit_lr if kind == "lr" else fit_svm_rbf
        [shared] = map(classifiers, fit([(X, y, cells)]))
        assert len(checked) == 1 and len(shared) == len(cells)
        # copies of the input in separate problems give identical classifiers
        separate = [clf for [clf] in map(classifiers,
                                         fit([(X.copy(), y.copy(), [cell]) for cell in cells]))]
        assert len(checked) == 1 + len(cells)
        for ours, theirs in zip(shared, separate, strict=True):
            for field in dataclasses.fields(Classifier):
                a, b = getattr(ours, field.name), getattr(theirs, field.name)
                if isinstance(b, np.ndarray):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                else:
                    assert repr(a) == repr(b)

    def test_grid_search_checks_each_slices_labels_once(self, monkeypatch):
        # an inner fold's cutoffs keep several k, so the slice is several
        # solver problems; its labels are still checked once
        checked = []
        check_labels = model._check_labels
        monkeypatch.setattr(model, "_check_labels",
                            lambda y: checked.append(1) or check_labels(y))
        solved = []
        solver = model.fit_lr
        monkeypatch.setattr(model, "fit_lr", lambda problems: solved.append(len(problems))
                            or solver(problems))
        X, y = blobs(n_per=20, d=6, seed=24)
        users = [f"u{i // 2}" for i in range(len(X))]
        usable = [f for f in _inner_user_folds(users, 0)
                  if all(len(np.unique(y[idx])) == 2 for idx in f)]
        search(X, y, users, [(every_row(X), 0)], "lr", pca_cutoffs=PCA_CUTOFFS)
        assert solved[0] > len(usable)  # more than one problem per slice
        assert len(checked) == len(usable) > 0


class TestGridSearch:
    def users(self, n):
        # two samples per user so folds stay user-disjoint but non-trivial
        return [f"u{i // 2}" for i in range(n)]

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_cells_in_tie_break_order(self, kind):
        # `_select` keeps the first best cell: smaller C, then smaller gamma, 'scale' first
        cells = grid_cells(kind)
        keys = [(cell["C"], -1 if cell.get("gamma") == "scale" else cell.get("gamma", 0))
                for cell in cells]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert len(cells) == (len(LR_C_GRID) if kind == "lr"
                              else len(SVM_C_GRID) * len(SVM_GAMMA_GRID))

    def test_planted_best_cell(self, monkeypatch):
        # XOR layout: a near-linear kernel (tiny gamma) cannot rank it, so
        # the moderate gamma must win on inner-fold AUC despite sorting last
        rng = np.random.default_rng(17)
        centers = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        X = np.vstack([c + rng.normal(0, 0.08, size=(15, 2)) for c in centers])
        y = np.array([0] * 30 + [1] * 30)
        users = self.users(len(X))
        monkeypatch.setattr(model, "SVM_C_GRID", (1.0,))
        monkeypatch.setattr(model, "SVM_GAMMA_GRID", (1e-5, 1.0))
        [[best]] = search(X, y, users, [(every_row(X), 0)], "svm-rbf",
                          pca_cutoffs=[0.95])
        assert best == {"C": 1.0, "gamma": 1.0}

    def test_deterministic(self, monkeypatch):
        X, y = blobs(n_per=20, d=3, seed=18)
        users = self.users(len(X))
        monkeypatch.setattr(model, "SVM_C_GRID", (0.1, 1.0))
        monkeypatch.setattr(model, "SVM_GAMMA_GRID", ("scale", 0.01))
        [[a]] = search(X, y, users, [(every_row(X), 0)], "svm-rbf", pca_cutoffs=[0.95])
        [[b]] = search(X, y, users, [(every_row(X), 0)], "svm-rbf", pca_cutoffs=[0.95])
        assert a == b

    def test_too_few_users(self):
        X, y = blobs(n_per=4, seed=20)
        with pytest.raises(TooFewUsers):
            search(X, y, ["u0"] * 4 + ["u1"] * 4, [(every_row(X), 0)], "lr",
                   pca_cutoffs=[0.95])

    def test_tie_breaks_toward_smaller_c(self):
        # perfectly separable data: every C wins, smallest must be chosen
        X, y = blobs(n_per=30, d=2, sep=10.0, seed=21)
        [[best]] = search(X, y, self.users(len(X)), [(every_row(X), 0)], "lr",
                          pca_cutoffs=[0.95])
        assert best == {"C": 0.01}

    def test_pipeline_mode_runs(self, monkeypatch):
        X, y = blobs(n_per=30, d=6, sep=3.0, seed=22)
        monkeypatch.setattr(model, "LR_C_GRID", (0.1, 1.0))
        [[best]] = search(X, y, self.users(len(X)), [(every_row(X), 0)], "lr",
                          pca_cutoffs=[0.9])
        assert best["C"] in (0.1, 1.0)

    def test_one_basis_per_usable_inner_fold(self, monkeypatch):
        calls = []
        # one entry per slice decomposed: fit_pca takes a stack of slices
        monkeypatch.setattr(model, "fit_pca", lambda X, cutoffs: calls.extend(
            [1] * (len(X) if np.ndim(X) == 3 else 1)) or fit_pca(X, cutoffs))
        X, y = blobs(n_per=20, d=6, seed=24)
        users = self.users(len(X))
        assert len(grid_cells("lr")) == 4
        usable = [f for f in _inner_user_folds(users, 0)
                  if all(len(np.unique(y[idx])) == 2 for idx in f)]
        search(X, y, users, [(every_row(X), 0)], "lr", pca_cutoffs=[0.9])
        assert len(calls) == len(usable) > 0  # 4 per fold, one per C, before

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_builds_no_pipeline(self, kind, monkeypatch):
        # inner folds are fit and scored as arrays
        built, init = [], Pipeline.__init__
        monkeypatch.setattr(Pipeline, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        monkeypatch.setattr(model, "SVM_C_GRID", (0.1, 1.0))
        X, y = blobs(n_per=20, d=6, seed=24)
        [best] = search(X, y, self.users(len(X)), [(every_row(X), 0)], kind,
                        pca_cutoffs=PCA_CUTOFFS)
        assert len(best) == len(PCA_CUTOFFS) and built == []

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_one_auc_call_per_usable_inner_fold(self, kind, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "roc_auc", lambda *a: calls.append(1) or roc_auc(*a))
        monkeypatch.setattr(model, "SVM_C_GRID", (0.1, 1.0))
        X, y = blobs(n_per=20, d=6, seed=24)
        users = self.users(len(X))
        usable = [f for f in _inner_user_folds(users, 0)
                  if all(len(np.unique(y[idx])) == 2 for idx in f)]
        search(X, y, users, [(every_row(X), 0)], kind, pca_cutoffs=PCA_CUTOFFS)
        assert len(calls) == len(usable) > 0  # one per distinct classifier, before

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_rows_select_as_their_copy(self, kind, monkeypatch):
        # slices are row indices into one matrix: unsorted strict subsets
        # pick the cells that copies of their rows pick
        monkeypatch.setattr(model, "SVM_C_GRID", (0.1, 1.0))
        X, y = blobs(n_per=20, d=6, sep=1.5, seed=29)
        users = np.asarray(self.users(len(X)))
        rng = np.random.default_rng(29)
        slices = [(rng.permutation(len(X))[:30], 3), (rng.permutation(len(X))[:34], 4)]
        for rows, _ in slices:
            assert np.any(np.diff(rows) < 0) and set(y[rows]) == {0, 1}
        on_rows = search(X, y, users, slices, kind, pca_cutoffs=PCA_CUTOFFS)
        on_copies = [search(X[rows], y[rows], users[rows], [(every_row(rows), seed)], kind,
                            pca_cutoffs=PCA_CUTOFFS)[0] for rows, seed in slices]
        assert on_rows == on_copies

    def test_near_tie_moves_only_past_1e_12(self):
        # a later cell wins only by more than 1e-12 over the best so far: an
        # argmax would pick C=10, "first within 1e-12 of the max" C=0.1
        row = np.array([0.5, 0.5 + 6e-13, 0.5 + 1.2e-12, 0.5 + 1.5e-12])
        assert model._select(grid_cells("lr"), [row]) == [{"C": 1.0}]

    def test_each_cutoff_selects_as_if_alone(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(40, 8))
        y = (X[:, 5] + X[:, 6] + rng.normal(0, 1.0, 40) > 0).astype(int)
        users = self.users(len(X))
        [best] = search(X, y, users, [(every_row(X), 0)], "lr", pca_cutoffs=PCA_CUTOFFS)
        assert len({cell["C"] for cell in best}) == 3  # the cutoffs disagree
        for cutoff, cell in zip(PCA_CUTOFFS, best):
            assert search(X, y, users, [(every_row(X), 0)], "lr",
                          pca_cutoffs=[cutoff]) == [[cell]]


class TestFitPipeline:
    def one_factor(self):
        """A slice with one strong common factor: cutoffs 0.7 and 0.8 both
        keep k = 1, 0.9 keeps 2 and 0.95 keeps 3."""
        rng = np.random.default_rng(26)
        z = rng.normal(size=(24, 1))
        X = z * np.ones(5) + rng.normal(size=(24, 5)) * np.array([0.2, 0.3, 0.5, 0.8, 1.0])
        y = (z[:, 0] + rng.normal(0, 0.5, 24) > 0).astype(int)
        return X, y

    def plan(self, X, y, cutoffs) -> list:
        """The plan of the slice of all of X's rows, none held out."""
        return fit_pipeline(X, y, [(every_row(X), every_row(X)[:0])], cutoffs)

    def spy(self, monkeypatch, kind) -> list:
        """Per solver call, the (k, cells) of each problem it gets."""
        name = "fit_lr" if kind == "lr" else "fit_svm_rbf"
        solver, calls = getattr(model, name), []

        def spying(problems):
            calls.append([(X.shape[1], list(cells)) for X, _, cells in problems])
            return solver(problems)

        monkeypatch.setattr(model, name, spying)
        return calls

    def test_cutoffs_with_one_k_share_a_classifier(self, monkeypatch):
        X, y = self.one_factor()
        calls = self.spy(monkeypatch, "lr")
        cells = [{"C": 0.1}, {"C": 1.0}]
        fits = [(cutoff, cell) for cutoff in PCA_CUTOFFS for cell in cells]
        [pipes] = fit_pipelines(X, y, [(every_row(X), fits)], "lr")
        assert [p.pca.k for p in pipes] == [1, 1, 1, 1, 2, 2, 3, 3]
        assert [p.pca.cutoff for p in pipes] == [cutoff for cutoff, _ in fits]
        assert calls == [[(1, cells), (2, cells), (3, cells)]]  # one problem per distinct k
        # fits 0 and 2, and 1 and 3, are one (problem, cell) fit each: 6 distinct
        [refit] = fit_slices(self.plan(X, y, PCA_CUTOFFS), [fits], "lr")
        assert refit.at[0] == refit.at[2] and refit.at[1] == refit.at[3]
        assert len(set(refit.at)) == 6
        for fit, pipe in zip(fits, pipes):
            [[alone]] = fit_pipelines(X, y, [(every_row(X), [fit])], "lr")
            assert json.dumps(pipeline_to_dict(alone)) == json.dumps(pipeline_to_dict(pipe))

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    @pytest.mark.parametrize("same_cell", [False, True], ids=["other-cell", "same-cell"])
    def test_refit_cutoffs_with_one_k(self, kind, same_cell, monkeypatch):
        # a refit's fits: one selected cell per cutoff, where 0.7 and 0.8 keep
        # k = 1 and select another cell or an equal copy of the same one; 0.8
        # comes after 0.9, so the (problem, cell) order is not the fit order
        X, y = self.one_factor()
        a, b = grid_cells(kind)[0], grid_cells(kind)[-1]
        fits = [(0.7, a), (0.9, b), (0.8, dict(a) if same_cell else b), (0.95, a)]
        calls = self.spy(monkeypatch, kind)
        [pipes] = fit_pipelines(X, y, [(every_row(X), fits)], kind)
        assert [p.pca.k for p in pipes] == [1, 2, 1, 3]
        assert calls == [[(1, [a] if same_cell else [a, b]), (2, [b]), (3, [a])]]
        [refit] = fit_slices(self.plan(X, y, [cutoff for cutoff, _ in fits]), [fits], kind)
        assert (refit.at[0] == refit.at[2]) == same_cell  # one (problem, cell) fit
        for fit, pipe in zip(fits, pipes):
            [[alone]] = fit_pipelines(X, y, [(every_row(X), [fit])], kind)
            assert json.dumps(pipeline_to_dict(alone)) == json.dumps(pipeline_to_dict(pipe))

    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    @pytest.mark.parametrize("layout", ["inner-fold", "refit"])
    def test_slice_scores_are_each_pipelines_scores(self, kind, layout):
        # an inner fold's fits are cutoff-major over every cell, where 0.7 and
        # 0.8 keep the same k; a refit's are one cell per cutoff, out of
        # (problem, cell) order as in `test_refit_cutoffs_with_one_k`
        X, y = self.one_factor()
        cells = grid_cells(kind)
        if layout == "inner-fold":
            fits = [(cutoff, cell) for cutoff in PCA_CUTOFFS for cell in cells]
        else:
            fits = [(0.7, cells[0]), (0.9, cells[-1]), (0.8, cells[-1]), (0.95, cells[0])]
        [pipes] = fit_pipelines(X, y, [(every_row(X), fits)], kind)
        assert [p.pca.k for p in pipes] == [{0.7: 1, 0.8: 1, 0.9: 2, 0.95: 3}[c] for c, _ in fits]
        held_out = np.random.default_rng(27).normal(size=(9, 5))
        # the held-out rows follow the slice's rows in one matrix
        X_all, y_all = np.vstack([X, held_out]), np.concatenate([y, np.arange(9) % 2])
        plans = fit_pipeline(X_all, y_all, [(every_row(X), np.arange(len(X), len(X_all)))],
                             PCA_CUTOFFS)
        [fitted] = fit_slices(plans, [fits], kind)
        scores = fitted.scores()
        assert scores.shape == (len(held_out), len(fits))
        for j, pipe in enumerate(pipes):
            assert np.array_equal(scores[:, j], pipe.decision_scores(held_out))

    def test_cells_share_one_preprocessing(self):
        X, y = blobs(n_per=12, d=5, seed=25)
        cells = [{"C": 0.1, "gamma": "scale"}, {"C": 10.0, "gamma": 0.01}]
        [pipes] = fit_pipelines(X, y, [(every_row(X), [(0.9, cell) for cell in cells])],
                                "svm-rbf")
        assert [p.classifier.hyperparameters["C"] for p in pipes] == [0.1, 10.0]
        assert all(p.pca is pipes[0].pca and p.standardizer is pipes[0].standardizer
                   for p in pipes)
        for cell, pipe in zip(cells, pipes):
            [[alone]] = fit_pipelines(X, y, [(every_row(X), [(0.9, cell)])], "svm-rbf")
            assert np.array_equal(alone.decision_scores(X), pipe.decision_scores(X))


    @pytest.mark.parametrize("kind", ["lr", "svm-rbf"])
    def test_rows_fit_as_their_copy(self, kind):
        # an unsorted strict subset of rows fits as a copy of those rows does
        X, y = blobs(n_per=15, d=5, seed=28)
        rows = np.random.default_rng(28).permutation(len(X))[:20]
        assert np.any(np.diff(rows) < 0) and set(y[rows]) == {0, 1}
        fits = [(cutoff, cell) for cutoff in PCA_CUTOFFS for cell in grid_cells(kind)[::3]]
        [pipes] = fit_pipelines(X, y, [(rows, fits)], kind)
        [copied] = fit_pipelines(X[rows], y[rows], [(every_row(rows), fits)], kind)
        assert ([json.dumps(pipeline_to_dict(p)) for p in pipes]
                == [json.dumps(pipeline_to_dict(p)) for p in copied])


def lone_preprocess(X, X_val, cutoffs) -> SimpleNamespace:
    """One training slice X standardized, decomposed and projected with
    lone-slice numpy, as `fit_pipeline` once did slice by slice; `X_val` is
    projected as `fit_pipeline` projects held-out rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X.mean(axis=0), X.std(axis=0)
    big = ~np.isfinite(std)
    scale = np.ldexp(0.5, np.frexp(np.abs(X[:, big]).max(axis=0, initial=0.0))[1])
    scaled = X[:, big] / scale
    mean[big], std[big] = scaled.mean(axis=0) * scale, scaled.std(axis=0) * scale
    std = np.maximum(std, STD_FLOOR)
    Z = (X - mean) / std
    n, d = Z.shape
    center = Z.mean(axis=0)
    Zc = Z - center
    eigenvalues, U = np.linalg.eigh(Zc @ Zc.T if n < d else Zc.T @ Zc)
    variances, U = np.maximum(eigenvalues[::-1], 0.0), U[:, ::-1]
    variances[variances < model.GRAM_FLOOR * variances[0]] = 0.0
    ratio = variances / variances.sum()
    ks = [min(int(np.searchsorted(np.cumsum(ratio), c - 1e-12) + 1), len(ratio)) for c in cutoffs]
    top = U[:, :max(ks)].T
    top = top @ Zc / np.sqrt(variances[:max(ks), None]) if n < d else top.copy()
    Z_val = (X_val - mean) / std - center
    return SimpleNamespace(mean=mean, std=std, center=center, ks=ks, top=top, ratio=ratio,
                           train={k: Zc @ top[:k].T for k in ks},
                           val={k: Z_val @ top[:k].T for k in ks})


def same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedPreprocessing:
    """`fit_pipeline` preprocesses the slices of one row count as stacks.
    Every slice's standardizer, PCA and projections must be bitwise those
    of the lone-slice computation."""

    def data(self):
        """Four wide slices (6 rows of 10 features) and two tall ones (14
        rows), disjoint, and validation rows. Only the first slice takes the
        rows whose column 3 is about 1e200, so only it needs the rescue."""
        rng = np.random.default_rng(41)
        X = rng.normal(size=(66, 10)) * rng.uniform(0.5, 3.0, 10)
        X[:6, 3] *= 1e200
        y = np.arange(66) % 2
        rest = 6 + rng.permutation(60)
        slices = [np.arange(6), *(rest[i:i + 6] for i in (0, 6, 12)),
                  *(rest[i:i + 14] for i in (18, 32))]
        assert all(set(y[rows]) == {0, 1} for rows in slices)
        return X, y, slices, rest[46:]

    @pytest.mark.parametrize("stack_entries, stacks",
                             [(model.STACK_ENTRIES, [4, 2]), (130, [2, 2, 1, 1])])
    def test_each_slice_as_if_alone(self, stack_entries, stacks, monkeypatch):
        X, y, slices, val = self.data()
        with np.errstate(over="ignore"):
            assert not np.isfinite(X[slices[0]].std(axis=0)).all()
        monkeypatch.setattr(model, "STACK_ENTRIES", stack_entries)
        seen = []  # slices per fit_pca call
        problems = []  # the solver's problems, slice by slice
        monkeypatch.setattr(model, "fit_pca",
                            lambda Z, cutoffs: seen.append(len(Z)) or fit_pca(Z, cutoffs))
        monkeypatch.setattr(model, "fit_lr", lambda batch: problems.extend(batch) or fit_lr(batch))
        fits = [(cutoff, {"C": 1.0}) for cutoff in PCA_CUTOFFS]
        # the plans, and the standardizer and PCA models only `fit_pipelines` keeps
        prepared = dict(model._prepare(X, y, [(rows, val) for rows in slices], PCA_CUTOFFS))
        plans = model._plans([prepared[s][0] for s in range(len(slices))], PCA_CUTOFFS)
        assert seen == stacks
        fit_slices(plans, [fits] * len(plans), "lr")
        for s, rows in enumerate(slices):
            plan, (standardizer, pcas) = plans[s], prepared[s][1]
            alone = lone_preprocess(X[rows], X[val], PCA_CUTOFFS)
            assert [pcas[c].k for c in PCA_CUTOFFS] == [plan.k(c) for c in PCA_CUTOFFS] == alone.ks
            for cutoff, k in zip(PCA_CUTOFFS, alone.ks):
                pca = pcas[cutoff]
                assert same_bytes(standardizer.mean, alone.mean)
                assert same_bytes(standardizer.std, alone.std)
                assert same_bytes(pca.mean, alone.center)
                assert same_bytes(pca.components, alone.top[:k])
                assert same_bytes(pca.explained_variance_ratio, alone.ratio[:k])
            ks = list(dict.fromkeys(alone.ks))  # one problem per distinct k
            mine, problems[:len(ks)] = problems[:len(ks)], []
            for (Z, _, _), k in zip(mine, ks, strict=True):
                assert same_bytes(Z, alone.train[k])
            assert len(plan.ks) == len(ks)
            for i, k in enumerate(ks):  # held-out rows, projected
                Z_val = plan.held(i)
                assert same_bytes(Z_val, alone.val[k])
        assert problems == []

    def test_a_zero_variance_slice_raises(self):
        X, y, slices, _ = self.data()
        X[slices[2]] = 0.0
        with pytest.raises(DegenerateData):
            fit_pipeline(X, y, [(rows, rows[:0]) for rows in slices], PCA_CUTOFFS)
        with pytest.raises(DegenerateData):
            fit_pca(X[np.stack(slices[1:3])], PCA_CUTOFFS)


class TestPipelinePersistence:
    def make(self, kind):
        X, y = blobs(n_per=12, d=5, seed=23)
        params = {"C": 1.0} if kind == "lr" else {"C": 1.0, "gamma": 0.1}
        [[pipe]] = fit_pipelines(X, y, [(every_row(X), [(0.9, params)])], kind)
        return pipe, X

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
