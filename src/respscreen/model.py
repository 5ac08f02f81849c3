"""Standardization, PCA with explained-variance cutoffs, and the two
shallow classifiers (L2 logistic regression, SVM with RBF kernel).

All solvers are deterministic: LR runs damped Newton from a zero start,
the SVM uses most-violating-pair SMO. Fitted pipelines serialize to
versioned JSON and round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import TooFewUsers
from .errors import DegenerateData, NonFiniteFeature, SingleClass
from .metrics import roc_auc
from .util import write_text_atomic

MODEL_FORMAT_VERSION = 1

PCA_CUTOFFS = (0.7, 0.8, 0.9, 0.95)

LR_GRADIENT_TOL = 1e-8
SVM_KKT_TOL = 1e-3
STD_FLOOR = 1e-12

N_INNER_FOLDS = 5

LR_C_GRID = (0.01, 0.1, 1.0, 10.0)
SVM_C_GRID = (0.1, 1.0, 10.0, 100.0)
SVM_GAMMA_GRID = ("scale", 1e-3, 1e-2, 1e-1)


@dataclass
class Standardizer:
    """Per-feature mean/std learned on training data."""

    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        self.mean = X.mean(axis=0)
        self.std = np.maximum(X.std(axis=0), STD_FLOOR)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("not fitted")
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.std


@dataclass
class PcaModel:
    """Orthonormal components [k x d] retaining >= cutoff explained variance
    with minimal k."""

    components: np.ndarray
    explained_variance_ratio: np.ndarray
    cutoff: float
    mean: np.ndarray

    @property
    def k(self) -> int:
        return self.components.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) @ self.components.T


def fit_pca(X: np.ndarray, cutoffs) -> list[PcaModel]:
    """PCA by SVD of the (already standardized) data matrix, one model per
    cutoff: each truncates the same SVD to its own minimal k."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    mean = X.mean(axis=0)
    _, s, vt = np.linalg.svd(X - mean, full_matrices=False)
    variances = s**2
    total = variances.sum()
    if total <= 0:
        raise DegenerateData("zero total variance")
    ratio = variances / total
    cumulative = np.cumsum(ratio)
    models = []
    for cutoff in cutoffs:
        k = min(int(np.searchsorted(cumulative, cutoff - 1e-12) + 1), len(ratio))
        models.append(PcaModel(vt[:k].copy(), ratio[:k].copy(), cutoff, mean))
    return models


def _check_labels(y) -> np.ndarray:
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClass("need both classes present")
    if not np.array_equal(classes, [0, 1]):
        raise ValueError("labels must be 0/1")
    return y.astype(np.float64)


@dataclass
class Classifier:
    """A fitted shallow classifier with a real-valued decision score.

    LR scores are probabilities (natural threshold 0.5); SVM scores are
    margins (threshold 0).
    """

    kind: str  # "lr" | "svm-rbf"
    hyperparameters: dict
    weights: np.ndarray | None = None  # LR: [d + 1], last entry intercept
    support_vectors: np.ndarray | None = None  # SVM
    dual_coef: np.ndarray | None = None  # SVM: alpha_i * y_i over SVs
    intercept: float = 0.0
    # solver status; not serialized, so None on a pipeline loaded from JSON
    n_iter: int | None = None
    converged: bool | None = None

    @property
    def threshold(self) -> float:
        return 0.5 if self.kind == "lr" else 0.0

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.kind == "lr":
            z = np.clip(X @ self.weights[:-1] + self.weights[-1], -500, 500)
            return 1.0 / (1.0 + np.exp(-z))
        K = rbf_kernel(X, self.support_vectors, self.hyperparameters["gamma"])
        return K @ self.dual_coef + self.intercept


def _lr_loss(w, X, y_pm, C: float):
    """(loss, margins z = y_pm * f(X)) of `lr_loss_grad`, without the gradient."""
    z = y_pm * (X @ w[:-1] + w[-1])
    loss = float(np.logaddexp(0.0, -z).sum() / len(z)) + 0.5 * float(w[:-1] @ w[:-1]) / C
    return loss, z


def _lr_grad(w, z, XT, neg_y_pm, C: float):
    """Gradient of `lr_loss_grad` at `w` from its margins `z`; XT is X.T."""
    sig = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(z, -500.0), 500.0)))  # sigmoid(-z)
    coef = neg_y_pm * sig / len(z)
    grad = np.empty_like(w)
    grad[:-1] = XT @ coef + w[:-1] / C
    grad[-1] = coef.sum()
    return grad


def lr_loss_grad(w, X, y01, C: float):
    """Mean logistic loss plus ||w||^2 / (2C); intercept unpenalized.

    Exposed for the finite-difference checks in the test suite.
    """
    X = np.asarray(X, dtype=np.float64)
    y_pm = 2.0 * np.asarray(y01, dtype=np.float64) - 1.0
    loss, z = _lr_loss(w, X, y_pm, C)
    return loss, _lr_grad(w, z, X.T, -y_pm, C)


def fit_lr(X, y, C: float = 1.0, max_iter: int = 200) -> Classifier:
    """L2-regularized logistic regression via damped Newton from zero init,
    run until the gradient norm drops below 1e-8.

    Line-search trials evaluate the loss only; the gradient is computed at
    the accepted point. An iteration is a deterministic function of the
    weights, so a step that leaves them bitwise unchanged is a fixed point:
    every further iteration would repeat it, and the solver stops there
    with `converged=False`.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("non-finite feature value")
    y_pm = 2.0 * _check_labels(y) - 1.0
    neg_y_pm = -y_pm
    XT = X.T
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    ridge = np.eye(d) / C
    jitter = 1e-12 * np.eye(d + 1)  # guard against exact singularity

    w = np.zeros(d + 1)
    loss, z = _lr_loss(w, X, y_pm, C)
    grad = _lr_grad(w, z, XT, neg_y_pm, C)
    converged = False
    for n_iter in range(max_iter):
        if math.sqrt(grad @ grad) < LR_GRADIENT_TOL:
            converged = True
            break
        p = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(Xb @ w, -500.0), 500.0)))
        r = p * (1.0 - p)
        H = (Xb * (r / n)[:, None]).T @ Xb
        H[:d, :d] += ridge
        H += jitter
        step = np.linalg.solve(H, grad)
        # backtracking keeps Newton globally convergent on this convex loss
        t = 1.0
        descent = float(grad @ step)
        for _ls in range(60):
            w_next = w - t * step
            next_loss, z = _lr_loss(w_next, X, y_pm, C)
            if next_loss <= loss - 1e-4 * t * descent:
                break
            t *= 0.5
        else:  # no sufficient decrease: step by the last, unevaluated halving
            w_next = w - t * step
            next_loss, z = _lr_loss(w_next, X, y_pm, C)
        if (w_next == w).all():
            break
        w, loss, grad = w_next, next_loss, _lr_grad(w_next, z, XT, neg_y_pm, C)
    else:
        n_iter = max_iter
    return Classifier(kind="lr", hyperparameters={"C": C}, weights=w,
                      n_iter=n_iter, converged=converged)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq = (
        np.sum(A**2, axis=1)[:, None]
        + np.sum(B**2, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def resolve_gamma(gamma, X: np.ndarray) -> float:
    """'scale' maps to 1 / (d * var(X)), mirroring common practice."""
    if gamma == "scale":
        return 1.0 / (X.shape[1] * max(float(X.var()), STD_FLOOR))
    return float(gamma)


def fit_svm_rbf(X, y, C: float = 1.0, gamma="scale", max_iter: int = 200_000) -> Classifier:
    """RBF-kernel SVM trained by most-violating-pair SMO (KKT tolerance 1e-3).

    Solves the standard dual: min 1/2 a'Qa - e'a subject to 0 <= a <= C and
    y'a = 0, with Q_ij = y_i y_j K_ij. The model reports `converged=False`
    when SMO stops at `max_iter` or on an empty clipped step.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature("non-finite feature value")
    y01 = _check_labels(y)
    y_pm = 2.0 * y01 - 1.0
    n = X.shape[0]
    gamma = resolve_gamma(gamma, X)

    K = rbf_kernel(X, X, gamma)
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective, Q alpha - e
    pos = y_pm > 0

    converged = False
    for n_iter in range(max_iter):
        # m_t = -y_t * grad_t; pick the most violating pair
        m = -y_pm * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (pos & (alpha > 0)) | (~pos & (alpha < C))
        i = int(np.argmax(np.where(up, m, -np.inf)))
        j = int(np.argmin(np.where(low, m, np.inf)))
        if m[i] - m[j] < SVM_KKT_TOL:
            converged = True
            break

        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        delta = (m[i] - m[j]) / quad
        # joint box constraints: alpha_i += y_i*delta, alpha_j -= y_j*delta
        delta = min(delta, C - alpha[i] if pos[i] else alpha[i])
        delta = min(delta, alpha[j] if pos[j] else C - alpha[j])
        if delta <= 0:
            break
        di = y_pm[i] * delta
        dj = -y_pm[j] * delta
        alpha[i] += di
        alpha[j] += dj
        # grad_t = y_t * f_t - 1 with f = K (alpha * y); rank-two update
        grad += y_pm * (K[:, i] * (y_pm[i] * di) + K[:, j] * (y_pm[j] * dj))
    else:
        n_iter = max_iter

    m = -y_pm * grad  # equals y_t - f_t
    free = (alpha > 1e-10) & (alpha < C - 1e-10)
    if np.any(free):
        b = float(np.mean(m[free]))
    else:
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (pos & (alpha > 0)) | (~pos & (alpha < C))
        hi = np.max(np.where(up, m, -np.inf))
        lo = np.min(np.where(low, m, np.inf))
        b = float((hi + lo) / 2.0)

    sv = alpha > 1e-10
    return Classifier(
        kind="svm-rbf",
        hyperparameters={"C": C, "gamma": gamma},
        support_vectors=X[sv].copy(),
        dual_coef=(alpha * y_pm)[sv].copy(),
        intercept=b,
        n_iter=n_iter,
        converged=converged,
    )


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter grids for model selection."""

    lr_c: tuple[float, ...] = LR_C_GRID
    svm_c: tuple[float, ...] = SVM_C_GRID
    svm_gamma: tuple = SVM_GAMMA_GRID

    def cells(self, kind: str) -> list[dict]:
        if kind == "lr":
            return [{"C": c} for c in self.lr_c]
        return [{"C": c, "gamma": g} for c in self.svm_c for g in self.svm_gamma]


def fit_classifier(kind: str, X, y, params: dict) -> Classifier:
    if kind == "lr":
        return fit_lr(X, y, **params)
    return fit_svm_rbf(X, y, **params)


def _inner_user_folds(users, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """User-disjoint inner folds as (train_mask, val_mask) index arrays."""
    unique_users = sorted(set(users))
    if len(unique_users) < N_INNER_FOLDS:
        raise TooFewUsers(f"need >= {N_INNER_FOLDS} users for inner CV, got {len(unique_users)}")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(unique_users))
    chunks = [order[k::N_INNER_FOLDS] for k in range(N_INNER_FOLDS)]
    users = np.asarray(users)
    folds = []
    for chunk in chunks:
        val = np.isin(users, list(chunk))
        folds.append((np.flatnonzero(~val), np.flatnonzero(val)))
    return folds


def grid_search(X, y, users, kind: str, grid: GridSpec, seed: int,
                pca_cutoffs) -> list[dict]:
    """Pick, for each PCA cutoff, the hyperparameters maximizing mean
    inner-fold ROC-AUC.

    Inner folds are user-disjoint. Each inner fold's training slice gets one
    standardize -> SVD fit, shared by every cutoff and grid cell, so
    selection sees the same preprocessing as the outer fit and never leaks
    validation rows. Ties break toward smaller C then smaller gamma
    ('scale' is evaluated on each fold's projected training slice).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = _inner_user_folds(users, seed)
    cells = grid.cells(kind)
    if len(cells) == 1:
        return [cells[0] for _ in pca_cutoffs]

    def sort_key(cell):
        gamma = cell.get("gamma", 0.0)
        return (cell["C"], -1.0 if gamma == "scale" else float(gamma))

    cells = sorted(cells, key=sort_key)
    fits = [(cutoff, cell) for cutoff in pca_cutoffs for cell in cells]
    aucs: list[list[float]] = [[] for _ in fits]
    for train_idx, val_idx in folds:
        if len(np.unique(y[train_idx])) < 2 or len(np.unique(y[val_idx])) < 2:
            continue  # degenerate fold at desk scale; score on the rest
        pipes = fit_pipeline(X[train_idx], y[train_idx], kind, fits)
        X_val = pipes[0].standardizer.transform(X[val_idx])  # every fit shares it
        Z_val: dict[int, np.ndarray] = {}  # pca.k -> projected validation slice
        scores: dict[int, float] = {}  # id(classifier) -> validation AUC
        for fit_aucs, pipe in zip(aucs, pipes):
            if id(pipe.classifier) not in scores:
                if pipe.pca.k not in Z_val:
                    Z_val[pipe.pca.k] = pipe.pca.transform(X_val)
                scores[id(pipe.classifier)] = roc_auc(
                    pipe.classifier.decision_scores(Z_val[pipe.pca.k]), y[val_idx])
            fit_aucs.append(scores[id(pipe.classifier)])

    best = []
    for i in range(len(pca_cutoffs)):
        best_cell, best_auc = None, -np.inf
        for cell, cell_aucs in zip(cells, aucs[i * len(cells):(i + 1) * len(cells)]):
            mean_auc = float(np.mean(cell_aucs)) if cell_aucs else -np.inf
            if mean_auc > best_auc + 1e-12:
                best_auc, best_cell = mean_auc, cell
        if best_cell is None:
            raise SingleClass("no inner fold had both classes")
        best.append(best_cell)
    return best


# --- JSON persistence ------------------------------------------------------


@dataclass
class Pipeline:
    """Standardizer -> PCA -> classifier, fit on training data only."""

    standardizer: Standardizer
    pca: PcaModel
    classifier: Classifier

    def transform(self, X) -> np.ndarray:
        return self.pca.transform(self.standardizer.transform(X))

    def decision_scores(self, X) -> np.ndarray:
        return self.classifier.decision_scores(self.transform(X))


def fit_pipeline(X, y, kind: str, fits) -> list[Pipeline]:
    """One pipeline per (PCA cutoff, hyperparameter cell) in `fits`, all on
    one preprocessing.

    The standardizer and the SVD are fit once on `X`, and each cutoff
    truncates that SVD. The slice is projected once per distinct k, and a
    classifier is fit once per distinct (k, cell): cutoffs that keep the
    same k share their classifier objects. All pipelines share the
    standardizer, and those of one cutoff share its PCA model.
    """
    std = Standardizer().fit(X)
    Xs = std.transform(X)
    cutoffs = list(dict.fromkeys(cutoff for cutoff, _ in fits))
    pcas = dict(zip(cutoffs, fit_pca(Xs, cutoffs)))
    projected: dict[int, np.ndarray] = {}  # pca.k -> projected slice
    classifiers: dict[tuple, Classifier] = {}  # (pca.k, cell) -> classifier
    pipelines = []
    for cutoff, params in fits:
        pca = pcas[cutoff]
        key = (pca.k, *sorted(params.items()))
        if key not in classifiers:
            if pca.k not in projected:
                projected[pca.k] = pca.transform(Xs)
            classifiers[key] = fit_classifier(kind, projected[pca.k], y, params)
        pipelines.append(Pipeline(std, pca, classifiers[key]))
    return pipelines


def pipeline_to_dict(p: Pipeline) -> dict:
    clf = {
        "kind": p.classifier.kind,
        "hyperparameters": p.classifier.hyperparameters,
        "intercept": p.classifier.intercept,
    }
    if p.classifier.kind == "lr":
        clf["weights"] = p.classifier.weights.tolist()
    else:
        clf["support_vectors"] = p.classifier.support_vectors.tolist()
        clf["dual_coef"] = p.classifier.dual_coef.tolist()
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "standardizer": {"mean": p.standardizer.mean.tolist(), "std": p.standardizer.std.tolist()},
        "pca": {
            "components": p.pca.components.tolist(),
            "explained_variance_ratio": p.pca.explained_variance_ratio.tolist(),
            "cutoff": p.pca.cutoff,
            "mean": p.pca.mean.tolist(),
        },
        "classifier": clf,
    }


def pipeline_from_dict(d: dict) -> Pipeline:
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {d.get('format_version')}")
    std = Standardizer(np.array(d["standardizer"]["mean"]), np.array(d["standardizer"]["std"]))
    pca = PcaModel(
        np.array(d["pca"]["components"]),
        np.array(d["pca"]["explained_variance_ratio"]),
        d["pca"]["cutoff"],
        np.array(d["pca"]["mean"]),
    )
    c = d["classifier"]
    if c["kind"] == "lr":
        clf = Classifier("lr", c["hyperparameters"], weights=np.array(c["weights"]),
                         intercept=c["intercept"])
    else:
        clf = Classifier(
            "svm-rbf",
            c["hyperparameters"],
            support_vectors=np.array(c["support_vectors"]),
            dual_coef=np.array(c["dual_coef"]),
            intercept=c["intercept"],
        )
    return Pipeline(std, pca, clf)


def save_pipeline(p: Pipeline, path) -> None:
    write_text_atomic(path, json.dumps(pipeline_to_dict(p)))


def load_pipeline(path) -> Pipeline:
    with open(path, encoding="utf-8") as fh:
        return pipeline_from_dict(json.load(fh))
