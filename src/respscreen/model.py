"""Standardization, PCA with explained-variance cutoffs, and the two
shallow classifiers (L2 logistic regression, SVM with RBF kernel).

PCA takes the eigendecomposition of the smaller Gram matrix of each
slice, Xc' Xc or Xc Xc'. Model selection is plan, solve, select.
`fit_pipeline` preprocesses training slices of one row count as bounded
stacks, each slice bitwise as it would be alone, and projects each slice's
training and held-out rows once per distinct k while its components are
live; a `SlicePlan` keeps only those arrays. `fit_slices` fits any number
of planned slices with one solver call, and `grid_search` selects the
cells of any number of planned searches from one such call, so a sweep
fits all of its inner folds at once and all of its refits at once. LR fits
stay arrays (`LrFit`) from solve to score; an LR `Classifier` and a
`Pipeline` are built only for a model file (`fit_pipelines`).

All solvers are deterministic and take a batch of problems, each one input
with the cells fit on it. LR runs damped Newton from a zero start in
lockstep over the fits of one shape, and the SVM runs most-violating-pair
SMO in lockstep over those of one row count, one kernel per problem and
gamma. Either way a fit's model is bitwise that of a lone fit. Fitted
pipelines serialize to versioned JSON and round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .dataset import TooFewUsers
from .errors import DegenerateData, NonFiniteFeature, RespScreenError, SingleClass
from .metrics import roc_auc
from .util import write_text_atomic

MODEL_FORMAT_VERSION = 1

PCA_CUTOFFS = (0.7, 0.8, 0.9, 0.95)

LR_GRADIENT_TOL = 1e-8
LR_MAX_ITER = 200  # Newton steps; a problem stopped by this cap reports converged=False
# Newton-decrement stop: lambda^2 / 2 <= LR_DECREMENT_TOL * eps * |loss|,
# a few eps because the loss itself is evaluated with that much rounding
LR_DECREMENT_TOL = 4.0
# fit_lr solves the fits of one shape in lockstep stacks of about this many
# entries of X (64 KiB), so a step's stacked arrays and copies stay small
LR_STACK_ENTRIES = 2**13
# Backtracking step sizes 2^-j after t = 1, j = 1..59, in blocks of 2, 4,
# 8, ... that a search tries at once: a search stalled at rounding level,
# which runs through 20-60 of them, takes a few stacked loss evaluations.
LS_BLOCKS = [0.5**j for j in np.split(np.arange(1, 60), [2, 6, 14, 30])]
SVM_KKT_TOL = 1e-3
SVM_MAX_ITER = 200_000  # SMO steps; likewise
STD_FLOOR = 1e-12
# the decision score at and above which a row is predicted positive: LR
# scores are probabilities, SVM scores margins
DECISION_THRESHOLD = {"lr": 0.5, "svm-rbf": 0.0}
# PCA: Gram eigenvalues below this fraction of the largest are zero
# variance, i.e. singular values below 1e-10 of the largest
GRAM_FLOOR = 1e-20

N_INNER_FOLDS = 5
# fit_pipeline preprocesses slices of one row count as stacks of at most
# this many float64 entries (512 KiB), so a stack and its copies stay small
STACK_ENTRIES = 2**16

LR_C_GRID = (0.01, 0.1, 1.0, 10.0)
SVM_C_GRID = (0.1, 1.0, 10.0, 100.0)
SVM_GAMMA_GRID = ("scale", 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean/std learned on training data."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        """Column means and stds of a slice X [n x d], or [s x d] of a stack
        X [s x n x d] of slices, each bitwise as that slice alone gives."""
        X = np.asarray(X, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = X.mean(axis=-2), X.std(axis=-2)
        # a finite column above about 1e154 overflows when squared: take that
        # slice's column again divided by the power of two in (max |x| / 2,
        # max |x|], which is exact
        n, d = X.shape[-2:]
        slices, means, stds = X.reshape(-1, n, d), mean.reshape(-1, d), std.reshape(-1, d)
        for i in np.flatnonzero(~np.isfinite(stds).all(axis=1)):
            big = ~np.isfinite(stds[i])
            scale = np.ldexp(0.5, np.frexp(np.abs(slices[i][:, big]).max(axis=0, initial=0.0))[1])
            scaled = slices[i][:, big] / scale
            means[i, big], stds[i, big] = scaled.mean(axis=0) * scale, scaled.std(axis=0) * scale
        return cls(mean, np.maximum(std, STD_FLOOR))

    def transform(self, X: np.ndarray) -> np.ndarray:
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


def fit_pca(X: np.ndarray, cutoffs) -> list:
    """PCA of the (already standardized) data matrix X [n x d], one model per
    cutoff: each truncates the same decomposition to its own minimal k, and
    all of them share one copy of the leading components. Of a stack X
    [s x n x d] of slices, one such list per slice, each bitwise as that
    slice alone gives: the means, one `eigh` and every cutoff's k run over
    the stack, and the Gram matrices and components slice by slice, since a
    stacked Gram product is not bitwise the lone one (numpy computes a lone
    `Xc @ Xc.T` with `syrk`).

    Every slice takes the eigendecomposition of its smaller Gram matrix. A
    tall slice (n >= d rows) takes Xc' Xc = V S^2 V' of its centered rows Xc,
    and its leading eigenvectors are the components. A wide one takes
    Xc Xc' = U S^2 U', with the same nonzero spectrum (the method of
    snapshots; Sirovich, Q. Appl. Math. 45, 1987), and forms only the kept
    components, U' Xc / s. Eigenvalues below a relative floor count as zero
    variance, so no kept component divides by a rounding residue. A kept
    component of variance ratio r agrees with the SVD's to roughly eps / r,
    as the Gram matrix squares the spectrum; r exceeds (1 - cutoff) /
    min(n, d), so at 0.95 and 477 features the error is below about 2e-12.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape[-2:]
    if n < 2:
        raise ValueError("need at least 2 rows")
    g = min(n, d)
    stack = X.reshape(-1, n, d)
    mean = stack.mean(axis=1)
    Xc = stack - mean[:, None]
    grams = np.stack([x @ x.T if n < d else x.T @ x for x in Xc])
    eigenvalues, U = np.linalg.eigh(grams.reshape(*X.shape[:-2], g, g))
    variances = np.maximum(eigenvalues.reshape(-1, g)[:, ::-1], 0.0)
    variances[variances < GRAM_FLOOR * variances[:, :1]] = 0.0
    total = variances.sum(axis=1)
    if np.any(total <= 0):
        raise DegenerateData("zero total variance")
    ratio = variances / total[:, None]
    # as searchsorted: k is one more than the cumulative ratios below the cutoff
    below = np.cumsum(ratio, axis=1)[:, None] < np.subtract(cutoffs, 1e-12)[:, None]
    ks = np.minimum(below.sum(axis=2) + 1, g).tolist()
    models = []
    for x, u, s, r, m, slice_ks in zip(Xc, U.reshape(-1, g, g)[:, :, ::-1], np.sqrt(variances),
                                      ratio, mean, ks):
        kmax = max(slice_ks, default=0)
        top = u[:, :kmax].T  # each cutoff's components are a prefix view of these
        top = top @ x / s[:kmax, None] if n < d else top.copy()
        r = r[:kmax].copy()
        models.append([PcaModel(top[:k], r[:k], cutoff, m) for cutoff, k in zip(cutoffs, slice_ks)])
    return models if X.ndim == 3 else models[0]


def _check_labels(y) -> None:
    classes = np.unique(np.asarray(y))
    if len(classes) < 2:
        raise SingleClass("need both classes present")
    if not np.array_equal(classes, [0, 1]):
        raise ValueError("labels must be 0/1")


def _intake(problems, group_key):
    """A solver batch of problems `(X, y, cells)`: per problem, its X
    (finite float64) and its checked 0/1 labels y, as two lists, and the
    problems' indices grouped by `group_key(X)`. Each problem's X is
    converted and checked once, and all of its cells share it. So is its y,
    once for a run of problems that pass the same y object, as the problems
    of one planned slice do."""
    Xs, ys, groups = [], [], {}
    y_last = None
    for p, (X, y, _) in enumerate(problems):
        X = np.asarray(X, dtype=np.float64)
        if not np.all(np.isfinite(X)):
            raise NonFiniteFeature("non-finite feature value")
        if y is not y_last:
            _check_labels(y)
            y_last = y
        Xs.append(X)
        ys.append(y)
        groups.setdefault(group_key(X), []).append(p)
    return Xs, ys, groups


@dataclass
class Classifier:
    """A fitted shallow classifier with a real-valued decision score.

    LR scores are probabilities, SVM scores margins (`DECISION_THRESHOLD`).
    Only a model file needs one for LR: `fit_lr` returns arrays (`LrFit`).
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
        return DECISION_THRESHOLD[self.kind]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.kind == "lr":
            return _lr_scores(X, self.weights[None])[0]
        return _score_columns([self], X)[:, 0]


@dataclass(frozen=True, slots=True)
class LrFit:
    """The LR fits of one problem, one per cell in order: weights
    [cells x d+1] (last entry intercept), Newton steps taken, and whether
    each fit converged. They are rows `start` on of the arrays `solved`
    (weights, steps, flags) of the lockstep stack that solved them, so a
    fit holds no arrays of its own."""

    cells: list
    solved: tuple
    start: int

    @property
    def weights(self) -> np.ndarray:
        return self.solved[0][self.start:self.start + len(self.cells)]

    @property
    def n_iter(self) -> np.ndarray:
        return self.solved[1][self.start:self.start + len(self.cells)]

    @property
    def converged(self) -> np.ndarray:
        return self.solved[2][self.start:self.start + len(self.cells)]

    def classifier(self, c: int) -> Classifier:
        """Cell c's fit as a `Classifier`, for a model file; its
        `hyperparameters` is a copy of the cell."""
        return Classifier(kind="lr", hyperparameters=dict(self.cells[c]), weights=self.weights[c],
                          n_iter=int(self.n_iter[c]), converged=bool(self.converged[c]))


def _lr_scores(X, W) -> np.ndarray:
    """Probabilities [m x n] of a stack of LR weights W [m x d+1] (last entry
    intercept) on one X [n x d]. Each row is computed by the same BLAS gemv
    as a lone `X @ w`, so a classifier's scores do not depend on the stack."""
    z = (X[None] @ W[:, :-1, None])[:, :, 0] + W[:, -1:]
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500.0), 500.0)))


def _dot(a, b):
    """Row-wise dot products of two [m x d] stacks, each by the same BLAS dot
    as the 1-D `a[i] @ b[i]`, so results do not depend on the stack."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lr_loss(W, X, Y_pm, C):
    """(losses, margins Z = Y_pm * f(X)) over a stack of problems: the mean
    logistic loss plus ||w||^2 / (2C), intercept unpenalized. W [m x d+1],
    X [m x n x d], Y_pm [m x n] in {-1, +1}, C [m]."""
    Z = Y_pm * ((X @ W[:, :-1, None])[:, :, 0] + W[:, -1:])
    loss = np.logaddexp(0.0, -Z).sum(axis=1) / Z.shape[1] + 0.5 * _dot(W[:, :-1], W[:, :-1]) / C
    return loss, Z


def _lr_grad(W, Z, XT, neg_Y_pm, C):
    """Gradients of `_lr_loss` over a stack, from its margins `Z`; XT is X
    transposed per problem."""
    sig = 1.0 / (1.0 + np.exp(np.minimum(np.maximum(Z, -500.0), 500.0)))  # sigmoid(-z)
    coef = neg_Y_pm * sig / Z.shape[1]
    grad = np.empty_like(W)
    grad[:, :-1] = (XT @ coef[:, :, None])[:, :, 0] + W[:, :-1] / C[:, None]
    grad[:, -1] = coef.sum(axis=1)
    return grad


def fit_lr(problems) -> list[LrFit]:
    """L2-regularized logistic regression of each problem `(X, y, cells)`
    at each of its cells ({"C": ...}), via damped Newton from zero init, run
    until the gradient norm drops below 1e-8 or the Newton decrement shows a
    floating-point optimum. Returns, per problem, an `LrFit`: one row of
    weights, one step count and one convergence flag per cell, in order.

    The fits of all problems of one shape are solved in lockstep, in
    (problem, cell) order, as stacks of about `LR_STACK_ENTRIES` entries of
    X: one stacked Newton solve per step, each fit with its own
    backtracking step size, and a fit leaves the stack when it stops. Every
    stacked operation computes each fit as a lone fit would, so a fit's
    result does not depend on the others in its batch, and a sweep can
    solve the fits of all of its nested CVs in one call.

    Rounding can hold the gradient norm just above its tolerance at the
    optimum. A problem whose last accepted step did not lower the loss, and
    whose squared Newton decrement lambda^2 = g'H^-1g (the line search's
    `descent`) meets lambda^2 / 2 <= LR_DECREMENT_TOL * eps * |loss|, can
    gain nothing from another step in floating point; it stops there with
    `converged=True` (Boyd & Vandenberghe, Convex Optimization, 9.5.1).

    Line-search trials evaluate the loss only; the gradient is computed at
    the accepted point. After t = 1, a searching problem tries the step
    sizes of each of `LS_BLOCKS` as one stack and takes the first that
    decreases its loss enough, the step a one-at-a-time search would take.
    A fit that meets neither stop within `LR_MAX_ITER` steps reports
    `converged=False`.
    """
    cells = [cells for _, _, cells in problems]
    Xs, ys, groups = _intake(problems, lambda X: X.shape)
    fitted = [None] * len(cells)
    for (n, d), group in groups.items():
        size, stacks, count = max(1, LR_STACK_ENTRIES // (n * d)), [[]], 0
        for p in group:  # a stack ends at the problem that brings it to `size` fits
            if count >= size:
                stacks.append([])
                count = 0
            stacks[-1].append(p)
            count += len(cells[p])
        for stack in stacks:
            fits = [(p, cell) for p in stack for cell in cells[p]]
            X = np.stack([Xs[p] for p, _ in fits])
            Y_pm = 2.0 * np.stack([ys[p] for p, _ in fits]) - 1.0
            C = np.array([cell["C"] for _, cell in fits], dtype=np.float64)
            solved, start = _newton_lockstep(X, Y_pm, C), 0
            for p in stack:
                fitted[p] = LrFit(cells[p], solved, start)
                start += len(cells[p])
    return fitted


def _newton_lockstep(X, Y_pm, C):
    """Damped Newton on a stack of same-shape problems; returns the weights
    [m x d+1], iteration counts and convergence flags."""
    m, n, d = X.shape
    W_out = np.zeros((m, d + 1))
    n_iter = np.full(m, LR_MAX_ITER)
    converged = np.zeros(m, dtype=bool)
    Xb = np.concatenate([X, np.ones((m, n, 1))], axis=2)
    diag = np.arange(d)  # the weights' entries of H's diagonal
    jitter = 1e-12 * np.eye(d + 1)  # guard against exact singularity
    floor = LR_DECREMENT_TOL * np.finfo(np.float64).eps  # bound on lambda^2 / 2 per unit |loss|

    act = np.arange(m)  # stack positions of the problems still running
    W = np.zeros((m, d + 1))
    loss, Z = _lr_loss(W, X, Y_pm, C)
    grad = _lr_grad(W, Z, X.transpose(0, 2, 1), -Y_pm, C)
    flat = np.zeros(m, dtype=bool)  # the last accepted step did not lower the loss
    for k in range(LR_MAX_ITER):
        done = np.sqrt(_dot(grad, grad)) < LR_GRADIENT_TOL
        if done.any():
            converged[act[done]], n_iter[act[done]], W_out[act[done]] = True, k, W[done]
            act, W, loss, grad, flat, X, Xb, Y_pm, C = (
                a[~done] for a in (act, W, loss, grad, flat, X, Xb, Y_pm, C))
            if not len(act):
                break
        P = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum((Xb @ W[:, :, None])[:, :, 0],
                                                        -500.0), 500.0)))
        H = (Xb * (P * (1.0 - P) / n)[:, :, None]).transpose(0, 2, 1) @ Xb
        H[:, diag, diag] += 1.0 / C[:, None]  # the L2 penalty, intercept unpenalized
        H += jitter
        step = np.linalg.solve(H, grad[:, :, None])[:, :, 0]
        descent = _dot(grad, step)  # the squared Newton decrement
        # At a floating-point optimum no step lowers the loss: the last one
        # did not, and the decrement predicts less than rounding can resolve.
        done = flat & (0.5 * descent <= floor * np.abs(loss))
        if done.any():
            converged[act[done]], n_iter[act[done]], W_out[act[done]] = True, k, W[done]
            act, W, loss, grad, step, descent, X, Xb, Y_pm, C = (
                a[~done] for a in (act, W, loss, grad, step, descent, X, Xb, Y_pm, C))
            if not len(act):
                break
        # backtracking keeps Newton globally convergent on this convex loss;
        # each problem takes the first t = 2^-j, j < 60, whose loss decreases
        # enough: t = 1 first, then the t of each of LS_BLOCKS at once
        W_next = W - step
        next_loss, Z = _lr_loss(W_next, X, Y_pm, C)
        trial = np.flatnonzero(~(next_loss <= loss - 1e-4 * descent))  # problems still searching
        for t in LS_BLOCKS:
            if not len(trial):
                break
            W_try = (W[trial, None] - t[:, None] * step[trial, None]).reshape(-1, d + 1)
            each = np.repeat(trial, len(t))
            loss_try, Z_try = _lr_loss(W_try, X[each], Y_pm[each], C[each])
            ok = loss_try.reshape(-1, len(t)) <= loss[trial, None] - 1e-4 * t * descent[trial, None]
            hit = ok.any(axis=1)
            rows = np.flatnonzero(hit) * len(t) + ok[hit].argmax(axis=1)  # each one's first t
            W_next[trial[hit]], next_loss[trial[hit]], Z[trial[hit]] = (
                W_try[rows], loss_try[rows], Z_try[rows])
            trial = trial[~hit]
        else:  # no sufficient decrease: step by the last, unevaluated halving
            W_next[trial] = W[trial] - 0.5**60 * step[trial]
            next_loss[trial], Z[trial] = _lr_loss(W_next[trial], X[trial], Y_pm[trial], C[trial])
        flat = next_loss >= loss
        W, loss, grad = W_next, next_loss, _lr_grad(W_next, Z, X.transpose(0, 2, 1), -Y_pm, C)
    else:
        W_out[act] = W
    return W_out, n_iter, converged


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


def fit_svm_rbf(problems) -> list[list[Classifier]]:
    """RBF-kernel SVM of each problem `(X, y, cells)` at each of its cells
    ({"C": ..., "gamma": ...}), trained by most-violating-pair SMO (KKT
    tolerance 1e-3). Returns, per problem, one classifier per cell in order;
    its `hyperparameters` is a copy of the cell with gamma resolved.

    Solves the standard dual: min 1/2 a'Qa - e'a subject to 0 <= a <= C and
    y'a = 0, with Q_ij = y_i y_j K_ij. The fits of all problems with the
    same row count are solved in lockstep, in (problem, cell) order, over a
    stack of kernels, one per problem and resolved gamma, and a fit leaves
    the lockstep when it stops. Every stacked step is elementwise or a
    first-index argmax/argmin per fit, so a fit's model does not depend on
    the others in its batch. A model reports `converged=False` when SMO
    stops at `SVM_MAX_ITER` instead of on the KKT gap.
    """
    Xs, ys, groups = _intake(problems, lambda X: X.shape[0])
    classifiers = [[None] * len(cells) for _, _, cells in problems]
    for n, group in groups.items():
        fits = [(p, c, cell) for p in group for c, cell in enumerate(problems[p][2])]
        gammas = [resolve_gamma(cell["gamma"], Xs[p]) for p, _, cell in fits]
        kernels: dict = {}  # (problem, gamma) -> stack position
        kernel_of = np.array([kernels.setdefault((p, gamma), len(kernels))
                              for (p, _, _), gamma in zip(fits, gammas)])
        KT = np.empty((len(kernels), n, n))  # each kernel, transposed
        for (p, gamma), k in kernels.items():
            KT[k] = rbf_kernel(Xs[p], Xs[p], gamma).T
        Y_pm = 2.0 * np.stack([ys[p] for p, _, _ in fits]) - 1.0
        C = np.array([cell["C"] for _, _, cell in fits], dtype=np.float64)
        *state, n_iter, converged = _smo_lockstep(KT, kernel_of, Y_pm, C)
        for j, ((p, c, cell), gamma) in enumerate(zip(fits, gammas)):
            classifiers[p][c] = _svm_classifier(Xs[p], Y_pm[j], {**cell, "gamma": gamma},
                                                *(a[j] for a in state), int(n_iter[j]),
                                                bool(converged[j]))
    return classifiers


def _smo_lockstep(KT, kernel_of, Y_pm, C):
    """Most-violating-pair SMO on m problems whose kernels are in the stack
    KT [kernels x n x n], problem r's at KT[kernel_of[r]], each transposed
    so that row t of a kernel is its column t; returns its state [m x n]:
    alpha, m = -y * grad (the dual gradient grad = Q alpha - e) and the
    index sets up and low, then iteration counts and convergence flags.

    Entry t of a running problem is read by flat index: base + t into the
    [running x n] state arrays, and kernel_of[act] * n + t into the rows of
    KT viewed as [kernels * n x n], which is never compacted.
    """
    m, n = Y_pm.shape
    n_iter = np.full(m, SVM_MAX_ITER)
    converged = np.zeros(m, dtype=bool)

    act = np.arange(m)  # stack positions of the problems still running
    alpha = np.zeros((m, n))
    mt = Y_pm.copy()  # -y * grad at alpha = 0, where grad = -e
    pos = Y_pm > 0
    up, low = pos.copy(), ~pos  # alpha_t can move along +y_t, along -y_t
    out = [np.empty_like(a) for a in (alpha, mt, up, low)]
    C_row = np.repeat(C, n).reshape(m, n)  # per-entry bound: a per-class C changes only this
    base, kernel_base = act * n, kernel_of * n
    rows = KT.reshape(-1, n)
    for k in range(SVM_MAX_ITER):
        # pick the most violating pair
        ti = np.where(up, mt, -np.inf).argmax(axis=1)
        tj = np.where(low, mt, np.inf).argmin(axis=1)
        i, j = base + ti, base + tj
        gap = mt.take(i) - mt.take(j)

        K_i = rows.take(kernel_base + ti, axis=0)  # kernel columns i and j
        K_j = rows.take(kernel_base + tj, axis=0)
        delta = gap / np.maximum(K_i.take(i) + K_j.take(j) - 2.0 * K_j.take(i), 1e-12)
        # joint box constraints: alpha_i += y_i*delta, alpha_j -= y_j*delta
        alpha_i, alpha_j = alpha.take(i), alpha.take(j)
        delta = np.minimum(delta, np.where(pos.take(i), C_row.take(i) - alpha_i, alpha_i))
        delta = np.minimum(delta, np.where(pos.take(j), alpha_j, C_row.take(j) - alpha_j))
        stop = gap < SVM_KKT_TOL
        n_stop = np.count_nonzero(stop)
        if n_stop:  # a stopped problem keeps its state from before this step
            done = act[stop]
            converged[done], n_iter[done] = True, k
            if n_stop == len(act):
                break
            for o, a in zip(out, (alpha, mt, up, low)):
                o[done] = a[stop]
        alpha.put(i, alpha_i + Y_pm.take(i) * delta)
        alpha.put(j, alpha_j - Y_pm.take(j) * delta)
        ij = np.concatenate((i, j))  # only alpha_i and alpha_j moved
        alpha_ij, pos_ij = alpha.take(ij), pos.take(ij)
        below_c, above_0 = alpha_ij < C_row.take(ij), alpha_ij > 0.0
        up.put(ij, np.where(pos_ij, below_c, above_0))
        low.put(ij, np.where(pos_ij, above_0, below_c))
        # m_t = y_t - f_t with f = K (alpha * y); rank-two update. Its
        # coefficients y_i * d_i and y_j * d_j are exactly delta and -delta,
        # since y = +-1.
        delta = delta[:, None]
        mt -= K_i * delta - K_j * delta
        if n_stop:
            keep = ~stop
            act, Y_pm, C_row, pos, alpha, mt, up, low = (
                a[keep] for a in (act, Y_pm, C_row, pos, alpha, mt, up, low))
            base, kernel_base = base[:len(act)], kernel_of[act] * n
    for o, a in zip(out, (alpha, mt, up, low)):  # the problems that stopped last, or at the cap
        o[act] = a
    return (*out, n_iter, converged)


def _svm_classifier(X, y_pm, params, alpha, m, up, low, n_iter: int, converged: bool) -> Classifier:
    """The fitted SVM of one problem at `params` (a cell, gamma resolved)
    from its SMO state: intercept and support vectors."""
    C = params["C"]
    free = (alpha > 1e-10) & (alpha < C - 1e-10)
    if np.any(free):
        b = float(np.mean(m[free]))
    else:
        hi = np.max(np.where(up, m, -np.inf))
        lo = np.min(np.where(low, m, np.inf))
        b = float((hi + lo) / 2.0)

    sv = alpha > 1e-10
    return Classifier(kind="svm-rbf", hyperparameters=params, support_vectors=X[sv],
                      dual_coef=(alpha * y_pm)[sv], intercept=b, n_iter=n_iter, converged=converged)


def grid_cells(kind: str) -> list[dict]:
    """The model-selection cells of a classifier kind, in `grid_search`'s tie-break order."""
    if kind == "lr":
        return [{"C": c} for c in LR_C_GRID]
    return [{"C": c, "gamma": g} for c in SVM_C_GRID for g in SVM_GAMMA_GRID]


def _inner_user_folds(users, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """User-disjoint inner folds as (train, val) arrays of positions in `users`:
    the sorted users in a seeded random order, where the i-th validates in
    fold i mod N_INNER_FOLDS."""
    unique_users, user_of = np.unique(np.asarray(users), return_inverse=True)
    if len(unique_users) < N_INNER_FOLDS:
        raise TooFewUsers(f"need >= {N_INNER_FOLDS} users for inner CV, got {len(unique_users)}")
    fold_of = np.empty(len(unique_users), dtype=np.intp)
    fold_of[np.random.default_rng(seed).permutation(len(unique_users))] = (
        np.arange(len(unique_users)) % N_INNER_FOLDS)
    fold = fold_of[user_of]
    return [(np.flatnonzero(fold != k), np.flatnonzero(fold == k)) for k in range(N_INNER_FOLDS)]


def plan_search(X, y, users, slices, pca_cutoffs) -> list[list[SlicePlan]]:
    """The inner folds of each training slice `(rows, seed)`, planned for
    `grid_search`: per slice, the `SlicePlan` of each usable inner fold,
    with the fold's validation rows held out. `rows`, and every inner fold,
    is an integer array of row indices into the run's matrix `X`, whose
    rows have labels `y` and owners `users`.

    Inner folds are user-disjoint and seeded by their slice's `seed`. All
    usable folds go to one `fit_pipeline` call, so each fold's training
    slice gets one standardize -> PCA fit, shared by every cutoff and grid
    cell: selection sees the same preprocessing as the outer fit and never
    leaks validation rows. The plans keep arrays only.
    """
    users = np.asarray(users)
    folds = [(s, rows[train_idx], rows[val_idx]) for s, (rows, seed) in enumerate(slices)
             for train_idx, val_idx in _inner_user_folds(users[rows], seed)]
    # degenerate folds at desk scale are left out; each slice selects on the rest
    inner = [(s, train, val) for s, train, val in folds
             if len(np.unique(y[train])) >= 2 and len(np.unique(y[val])) >= 2]
    plans = fit_pipeline(X, y, [(train, val) for _, train, val in inner], pca_cutoffs)
    search = [[] for _ in slices]
    for (s, _, _), plan in zip(inner, plans, strict=True):
        search[s].append(plan)
    return search


def grid_search(searches, kind: str) -> list:
    """For each planned search (`plan_search`), per training slice and PCA
    cutoff of its plans, the cell of `grid_cells(kind)` that maximizes mean
    inner-fold ROC-AUC. Ties break toward smaller C then smaller gamma
    ('scale' first, resolved on each fold's projected training slice).

    Solve, then select: every inner fold of every search is fit at every
    (cutoff, cell) by one `fit_slices` call, so a sweep makes one solver
    call for all of its inner folds. Each fold is scored as arrays on its
    projected validation rows, and one `roc_auc` call on those columns
    gives its row of AUCs, one per fit. A search whose selection raises a
    `RespScreenError` (a slice with no usable inner fold) gets that error,
    without its traceback, in place of its cells; the others keep theirs.
    """
    cells = grid_cells(kind)
    plans = [plan for search in searches for slice_plans in search for plan in slice_plans]
    grid: dict = {}  # cutoffs -> every (cutoff, cell), one list for the plans that have them
    for plan in plans:
        if plan.cutoffs not in grid:
            grid[plan.cutoffs] = [(cutoff, cell) for cutoff in plan.cutoffs for cell in cells]
    fitted = iter(fit_slices(plans, [grid[plan.cutoffs] for plan in plans], kind))
    selected = []
    for search in searches:
        aucs = [[roc_auc(fit.scores(), fit.plan.held_y) for fit in islice(fitted, len(slice_plans))]
                for slice_plans in search]
        try:
            selected.append([_select(cells, rows) for rows in aucs])
        except RespScreenError as exc:
            selected.append(exc.with_traceback(None))
    return selected


def _select(cells, rows) -> list[dict]:
    """Per cutoff, the first cell (in tie-break order) with the best mean AUC
    over the fold rows, each over the (cutoff, cell) fits in cutoff-major
    order; a later cell wins only by more than 1e-12."""
    if not rows:
        raise SingleClass("no inner fold had both classes")
    means = np.mean(rows, axis=0).reshape(-1, len(cells)).tolist()
    best = []
    for cutoff_means in means:
        best_auc = -np.inf
        for cell, mean_auc in zip(cells, cutoff_means):
            if mean_auc > best_auc + 1e-12:
                best_auc, best_cell = mean_auc, cell
        best.append(best_cell)
    return best


@dataclass
class Pipeline:
    """Standardizer -> PCA -> classifier, fit on training data only."""

    standardizer: Standardizer
    pca: PcaModel
    classifier: Classifier

    def decision_scores(self, X) -> np.ndarray:
        return self.classifier.decision_scores(self.pca.transform(self.standardizer.transform(X)))


@dataclass(eq=False, slots=True)
class SlicePlan:
    """A training slice preprocessed for its fits, kept as arrays: the
    labels of its n training rows and then of its h held-out rows, and per
    distinct k of its PCA `cutoffs`, in first-seen order (`ks`), those rows
    projected to k components. Cutoff `cutoffs[j]` keeps the
    `k_index[j]`-th k. The plans of one `fit_pipeline` call share two
    buffers, `labels` from entry `start` and `projected` from entry
    `offset`, so a plan holds no arrays of its own: a sweep keeps thousands
    of plans, and `y`, `held_y`, `train(i)` and `held(i)` are views."""

    labels: np.ndarray
    projected: np.ndarray
    start: int
    offset: int
    n: int
    h: int
    cutoffs: tuple
    k_index: tuple
    ks: tuple

    @property
    def y(self) -> np.ndarray:
        return self.labels[self.start:self.start + self.n]

    @property
    def held_y(self) -> np.ndarray:
        return self.labels[self.start + self.n:self.start + self.n + self.h]

    def rows(self, i: int) -> np.ndarray:
        """The training and then the held-out rows projected to the i-th k."""
        m, k = self.n + self.h, self.ks[i]
        first = self.offset + m * sum(self.ks[:i])
        return self.projected[first:first + m * k].reshape(m, k)

    def train(self, i: int) -> np.ndarray:
        return self.rows(i)[:self.n]

    def held(self, i: int) -> np.ndarray:
        return self.rows(i)[self.n:]

    def index(self, cutoff) -> int:
        """The index of the distinct k that `cutoff` keeps."""
        return self.k_index[self.cutoffs.index(cutoff)]

    def k(self, cutoff) -> int:
        return self.ks[self.index(cutoff)]


def _plans(parts, cutoffs) -> list[SlicePlan]:
    """The `SlicePlan`s of slices preprocessed by `_preprocess`, their parts
    `(labels, n, k_index, projections)` packed into two shared buffers."""
    if not parts:
        return []
    labels = np.concatenate([part[0] for part in parts])
    projected = np.concatenate([Z.ravel() for *_, Zs in parts for Z in Zs])
    tuples: dict = {}  # one object per distinct k_index and ks, shared by the plans
    plans, start, offset = [], 0, 0
    for slice_labels, n, k_index, Zs in parts:
        ks = tuple(Z.shape[1] for Z in Zs)
        plans.append(SlicePlan(labels, projected, start, offset, n, len(slice_labels) - n,
                               cutoffs, tuples.setdefault(k_index, k_index),
                               tuples.setdefault(ks, ks)))
        start += len(slice_labels)
        offset += sum(Z.size for Z in Zs)
    return plans


def _preprocess(X, y, rows, held, cutoffs) -> list:
    """Per slice of a stack `rows` [s x n] of row indices into X, with its
    held-out rows `held[i]`: its plan's parts (labels of its training and
    held-out rows, n, `k_index`, and per distinct k those rows projected),
    and its standardizer with its PCA model per cutoff, each bitwise as the
    slice alone gives. The stack is gathered once, standardized and centred
    in place, and freed on return; held-out rows are projected while their
    slice's components are live."""
    Z = X[rows]
    standardizer = Standardizer.fit(Z)
    Z -= standardizer.mean[:, None]
    Z /= standardizer.std[:, None]
    prepared = []
    for r, h, mean, std, pcas, Zc in zip(rows, held, standardizer.mean, standardizer.std,
                                         fit_pca(Z, cutoffs), Z):
        bases: dict[int, PcaModel] = {}  # k -> the first PCA model keeping it
        for pca in pcas:
            bases.setdefault(pca.k, pca)
        if pcas:
            Zc -= pcas[0].mean  # the slice's PCA models share one mean
        slice_standardizer = Standardizer(mean, std)
        Z_held = slice_standardizer.transform(X[h])
        ks = list(bases)
        part = (y[np.concatenate((r, h))], len(r), tuple(ks.index(pca.k) for pca in pcas),
                [np.concatenate((Zc @ pca.components.T, pca.transform(Z_held)))
                 for pca in bases.values()])
        prepared.append((part, (slice_standardizer, dict(zip(cutoffs, pcas)))))
    return prepared


def _prepare(X, y, slices, cutoffs):
    """Each training slice `(rows, held)` preprocessed at the PCA `cutoffs`,
    stack by stack: per slice, (its index, (its plan's parts, its
    standardizer with its PCA model per cutoff)). Slices with the same row
    count are preprocessed together, as stacks of at most `STACK_ENTRIES`
    entries (a bigger slice is a stack of one): one gather, one `fit_pca`
    call, and each slice's projections. A consumer that drops the models
    holds one stack's components at a time."""
    X, cutoffs = np.asarray(X, dtype=np.float64), tuple(cutoffs)
    stacks: dict = {}  # row count -> the slices that have it, in order
    for s, (rows, _) in enumerate(slices):
        stacks.setdefault(len(rows), []).append(s)
    for n, members in stacks.items():
        size = max(1, STACK_ENTRIES // max(1, n * X.shape[1]))
        for start in range(0, len(members), size):
            stack = members[start:start + size]
            yield from zip(stack, _preprocess(X, y, np.stack([slices[s][0] for s in stack]),
                                              [slices[s][1] for s in stack], cutoffs))


def fit_pipeline(X, y, slices, cutoffs) -> list[SlicePlan]:
    """Each training slice `(rows, held)` preprocessed for its fits at the
    PCA `cutoffs`, as its `SlicePlan`. `rows` and `held` are integer arrays
    of row indices into `X`, with labels `y`: the training rows, and the
    rows held out for scoring (validation or test rows).

    A slice's standardizer and PCA decomposition are fit once on `X[rows]`,
    and each cutoff truncates that decomposition. A slice's training and
    held-out rows are projected once per distinct k while its components
    are live, and only the projections are kept: a call holds one stack's
    components at a time (`_prepare`).
    """
    parts = [None] * len(slices)
    for s, (part, _) in _prepare(X, y, slices, cutoffs):
        parts[s] = part
    return _plans(parts, tuple(cutoffs))


@dataclass(eq=False, slots=True)
class SliceFit:
    """The fits of one planned slice, kept as arrays: per distinct k that a
    fit keeps, by its index in the plan, the solver's result on that
    problem (an `LrFit`, or SVM `Classifier`s), and per fit, its (distinct
    k, cell) position."""

    plan: SlicePlan
    solved: tuple  # per distinct k: LrFit | list[Classifier], or None if no fit keeps it
    at: list  # (distinct k index, cell index) per fit

    def scores(self) -> np.ndarray:
        """Decision scores [h x fits] on the plan's held-out rows, one
        `_score_columns` call per distinct k."""
        blocks = [None if solved is None else _score_columns(solved, self.plan.held(i))
                  for i, solved in enumerate(self.solved)]
        start = list(accumulate((0 if b is None else b.shape[1] for b in blocks), initial=0))
        return np.concatenate([b for b in blocks if b is not None], axis=1)[
            :, [start[i] + c for i, c in self.at]]

    def classifier(self, j: int) -> Classifier:
        """Fit j as a `Classifier`, for a model file."""
        i, c = self.at[j]
        solved = self.solved[i]
        return solved.classifier(c) if isinstance(solved, LrFit) else solved[c]


def _score_columns(solved, Z) -> np.ndarray:
    """Decision scores [n x m] of one problem's m fits on its projected rows
    Z: an `LrFit`'s weights as one `_lr_scores` product, SVMs one by one."""
    if isinstance(solved, LrFit):
        return _lr_scores(Z, solved.weights).T
    return np.column_stack([rbf_kernel(Z, c.support_vectors, c.hyperparameters["gamma"])
                            @ c.dual_coef + c.intercept for c in solved])


def fit_slices(plans, fits, kind: str) -> list[SliceFit]:
    """Each planned slice fit at its fits `(cutoff, cell)`, all of them by
    one `fit_lr` or `fit_svm_rbf` call: per slice, its `SliceFit`.

    Each distinct k that a slice's fits keep is one solver problem: the
    slice's training rows projected to k, with the distinct cells of the
    fits that keep k, in first-seen order. So cutoffs that keep the same k
    share their fits. A slice's problems share its one label vector, which
    the solver checks once.
    """
    problems, layouts, last = [], [], None
    for plan, slice_fits in zip(plans, fits, strict=True):
        if slice_fits is not last:  # a run of slices that pass one fits list shares layouts
            shared: dict = {}  # (cutoffs, k_index) -> layout
            last = slice_fits
        key = (plan.cutoffs, plan.k_index)
        if key not in shared:
            shared[key] = _layout(plan, slice_fits)
        cells, at = shared[key]
        y = plan.y  # one label vector for the slice's problems, checked once
        problems.extend((plan.train(i), y, k_cells) for i, k_cells in enumerate(cells) if k_cells)
        layouts.append((cells, at))
    solved = iter((fit_lr if kind == "lr" else fit_svm_rbf)(problems))
    return [SliceFit(plan, tuple(next(solved) if k_cells else None for k_cells in cells), at)
            for plan, (cells, at) in zip(plans, layouts)]


def _layout(plan: SlicePlan, fits) -> tuple[list, list]:
    """A slice's solver layout for its fits `(cutoff, cell)`: per distinct k,
    the distinct cells of the fits that keep it, in first-seen order, and
    per fit, its (distinct k, cell) position. It depends only on the fits
    and the plan's cutoffs and `k_index`, so slices that share them share
    it, which keeps a sweep's inner solve from holding one copy per fold."""
    cells = [[] for _ in plan.ks]
    at = []
    for cutoff, cell in fits:
        i = plan.index(cutoff)
        if cell not in cells[i]:
            cells[i].append(cell)
        at.append((i, cells[i].index(cell)))
    return cells, at


def fit_pipelines(X, y, slices, kind: str) -> list[list[Pipeline]]:
    """Per training slice `(rows, fits)`, the `Pipeline` of each fit
    `(cutoff, cell)`, as a model file stores it: the slice preprocessed as
    `fit_pipeline` does, with no rows held out and its standardizer and PCA
    models kept, and fit by `fit_slices`. `rows` is an integer array of row
    indices into `X`, with labels `y`."""
    cutoffs = list(dict.fromkeys(cutoff for _, fits in slices for cutoff, _ in fits))
    prepared = dict(_prepare(X, y, [(rows, rows[:0]) for rows, _ in slices], cutoffs))
    plans = _plans([prepared[s][0] for s in range(len(slices))], tuple(cutoffs))
    refits = fit_slices(plans, [fits for _, fits in slices], kind)
    pipelines = []
    for s, ((_, fits), refit) in enumerate(zip(slices, refits)):
        standardizer, pcas = prepared[s][1]
        pipelines.append([Pipeline(standardizer, pcas[cutoff], refit.classifier(j))
                          for j, (cutoff, _) in enumerate(fits)])
    return pipelines


# --- JSON persistence ------------------------------------------------------


# Saved fields of each pipeline part, in file order. Fields that are None
# (the other classifier kind's arrays) are left out; solver status is not saved.
MODEL_FIELDS = {
    "standardizer": ("mean", "std"),
    "pca": ("components", "explained_variance_ratio", "cutoff", "mean"),
    "classifier": ("kind", "hyperparameters", "intercept", "weights", "support_vectors",
                   "dual_coef"),
}


def pipeline_to_dict(p: Pipeline) -> dict:
    d: dict = {"format_version": MODEL_FORMAT_VERSION}
    for part, names in MODEL_FIELDS.items():
        values = {name: getattr(getattr(p, part), name) for name in names}
        d[part] = {name: v.tolist() if isinstance(v, np.ndarray) else v
                   for name, v in values.items() if v is not None}
    return d


def pipeline_from_dict(d: dict) -> Pipeline:
    if d.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format {d.get('format_version')}")
    parts = {}
    for part, names in MODEL_FIELDS.items():
        saved = d[part]
        parts[part] = {name: np.array(saved[name]) if isinstance(saved[name], list) else saved[name]
                       for name in names if name in saved}
    return Pipeline(Standardizer(**parts["standardizer"]), PcaModel(**parts["pca"]),
                    Classifier(**parts["classifier"]))


def save_pipeline(p: Pipeline, path) -> None:
    write_text_atomic(path, json.dumps(pipeline_to_dict(p)))


def load_pipeline(path) -> Pipeline:
    with open(path, encoding="utf-8") as fh:
        return pipeline_from_dict(json.load(fh))
