"""Standardization, PCA with explained-variance cutoffs, and the two
shallow classifiers (L2 logistic regression, SVM with RBF kernel).

PCA takes the eigendecomposition of the smaller Gram matrix of each
slice, Xc' Xc or Xc Xc'. `fit_pipeline` preprocesses training slices of one
row count as bounded stacks, each slice bitwise as it would be alone.
Inner folds stay arrays (`SliceFit`) from fit to score; `Pipeline` objects
are built for the refits only. Every held-out slice, an inner fold's
validation rows or an outer fold's test rows, is scored in one pass by
`slice_scores`: one standardization, then one projection and one stacked
LR product per distinct k of an inner fold, or per refit of an outer one.

All solvers are deterministic and take a batch of problems, each one input
with the cells fit on it. LR runs damped Newton from a zero start in
lockstep over the fits of one shape, and the SVM runs most-violating-pair
SMO in lockstep over those of one row count, one kernel per problem and
gamma. Either way a fit's model is bitwise that of a lone fit. Fitted
pipelines serialize to versioned JSON and round-trip exactly.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import accumulate
from dataclasses import dataclass

import numpy as np

from .dataset import TooFewUsers
from .errors import DegenerateData, NonFiniteFeature, SingleClass
from .metrics import roc_auc
from .util import write_text_atomic

MODEL_FORMAT_VERSION = 1

PCA_CUTOFFS = (0.7, 0.8, 0.9, 0.95)

LR_GRADIENT_TOL = 1e-8
LR_MAX_ITER = 200  # Newton steps; a problem stopped by this cap reports converged=False
# Newton-decrement stop: lambda^2 / 2 <= LR_DECREMENT_TOL * eps * |loss|,
# a few eps because the loss itself is evaluated with that much rounding
LR_DECREMENT_TOL = 4.0
# Backtracking step sizes 2^-j after t = 1, j = 1..59, in blocks of 2, 4,
# 8, ... that a search tries at once: a search stalled at rounding level,
# which runs through 20-60 of them, takes a few stacked loss evaluations.
LS_BLOCKS = [0.5**j for j in np.split(np.arange(1, 60), [2, 6, 14, 30])]
SVM_KKT_TOL = 1e-3
SVM_MAX_ITER = 200_000  # SMO steps; likewise
STD_FLOOR = 1e-12
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


def _check_labels(y) -> np.ndarray:
    y = np.asarray(y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise SingleClass("need both classes present")
    if not np.array_equal(classes, [0, 1]):
        raise ValueError("labels must be 0/1")
    return y.astype(np.float64)


def _intake(problems, group_key):
    """A solver batch of problems `(X, y, cells)` as (X finite float64,
    y in {-1, +1}, cells), and its fits `(problem, cell index, cell)`
    grouped by `group_key(X)`. Each problem's X is converted and checked
    once, and all of its cells share it. So is its y, once for a run of
    problems that pass the same y object, as the problems of one
    `fit_pipeline` slice do."""
    checked, groups = [], {}
    y_last = y_pm = None
    for p, (X, y, cells) in enumerate(problems):
        X = np.asarray(X, dtype=np.float64)
        if not np.all(np.isfinite(X)):
            raise NonFiniteFeature("non-finite feature value")
        if y is not y_last:
            y_last, y_pm = y, 2.0 * _check_labels(y) - 1.0
        checked.append((X, y_pm, cells))
        groups.setdefault(group_key(X), []).extend((p, c, cell) for c, cell in enumerate(cells))
    return checked, groups


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
        return _score_columns([self], np.asarray(X, dtype=np.float64))[:, 0]


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


def fit_lr(problems) -> list[list[Classifier]]:
    """L2-regularized logistic regression of each problem `(X, y, cells)`
    at each of its cells ({"C": ...}), via damped Newton from zero init, run
    until the gradient norm drops below 1e-8 or the Newton decrement shows a
    floating-point optimum. Returns, per problem, one classifier per cell in
    order; its `hyperparameters` is a copy of the cell.

    The fits of all problems of one shape are solved in lockstep as a stack,
    in (problem, cell) order: one stacked Newton solve per step, each fit
    with its own backtracking step size, and a fit leaves the stack when it
    stops. Every stacked operation computes each fit as a lone fit would, so
    a fit's result does not depend on the others in its batch.

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
    problems, groups = _intake(problems, lambda X: X.shape)
    classifiers = [[None] * len(cells) for _, _, cells in problems]
    for fits in groups.values():
        X = np.stack([problems[p][0] for p, _, _ in fits])
        Y_pm = np.stack([problems[p][1] for p, _, _ in fits])
        C = np.array([cell["C"] for _, _, cell in fits], dtype=np.float64)
        W, n_iter, converged = _newton_lockstep(X, Y_pm, C)
        for j, (p, c, cell) in enumerate(fits):
            classifiers[p][c] = Classifier(kind="lr", hyperparameters=dict(cell), weights=W[j],
                                           n_iter=int(n_iter[j]), converged=bool(converged[j]))
    return classifiers


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
    problems, groups = _intake(problems, lambda X: X.shape[0])
    classifiers = [[None] * len(cells) for _, _, cells in problems]
    for n, fits in groups.items():
        gammas = [resolve_gamma(cell["gamma"], problems[p][0]) for p, _, cell in fits]
        kernels: dict = {}  # (problem, gamma) -> stack position
        kernel_of = np.array([kernels.setdefault((p, gamma), len(kernels))
                              for (p, _, _), gamma in zip(fits, gammas)])
        KT = np.empty((len(kernels), n, n))  # each kernel, transposed
        for (p, gamma), k in kernels.items():
            KT[k] = rbf_kernel(problems[p][0], problems[p][0], gamma).T
        Y_pm = np.stack([problems[p][1] for p, _, _ in fits])
        C = np.array([cell["C"] for _, _, cell in fits], dtype=np.float64)
        *state, n_iter, converged = _smo_lockstep(KT, kernel_of, Y_pm, C)
        for j, ((p, c, cell), gamma) in enumerate(zip(fits, gammas)):
            classifiers[p][c] = _svm_classifier(problems[p][0], Y_pm[j], {**cell, "gamma": gamma},
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


def grid_search(X, y, users, slices, kind: str, pca_cutoffs) -> list[list[dict]]:
    """For each training slice `(rows, seed)`, pick per PCA cutoff the cell
    of `grid_cells(kind)` maximizing mean inner-fold ROC-AUC. `rows`, and
    every inner fold, is an integer array of row indices into the run's
    matrix `X`, whose rows have labels `y` and owners `users`.

    Plan, solve, select: the usable inner folds of every slice are planned
    first, all of them are fit in one `fit_pipeline` call, and each slice
    then selects from its own folds' scores. Inner folds are user-disjoint
    and seeded by their slice's `seed`. Each inner fold's training slice
    gets one standardize -> PCA fit, shared by every cutoff and grid cell,
    so selection sees the same preprocessing as the outer fit and never
    leaks validation rows. Ties break toward smaller C then smaller gamma
    ('scale' first, resolved on each fold's projected training slice).

    Inner folds stay arrays: each is scored by one `slice_scores` call on
    its `SliceFit` and validation rows, and one `roc_auc` call on those
    columns gives the fold's row of AUCs, one per fit. No `Pipeline` is
    built.
    """
    users = np.asarray(users)
    folds = [(s, rows[train_idx], rows[val_idx]) for s, (rows, seed) in enumerate(slices)
             for train_idx, val_idx in _inner_user_folds(users[rows], seed)]
    cells = grid_cells(kind)
    fits = [(cutoff, cell) for cutoff in pca_cutoffs for cell in cells]
    # degenerate folds at desk scale are left out; each slice scores on the rest
    inner = [(s, train, val) for s, train, val in folds
             if len(np.unique(y[train])) >= 2 and len(np.unique(y[val])) >= 2]
    fitted = fit_pipeline(X, y, [(train, fits) for _, train, _ in inner], kind)
    aucs = [[] for _ in slices]  # per slice, one AUC row over `fits` per usable fold
    for (s, _, val), fold_fit in zip(inner, fitted, strict=True):
        aucs[s].append(roc_auc(slice_scores(fold_fit, X[val]), y[val]))
    return [_select(cells, slice_aucs, len(pca_cutoffs)) for slice_aucs in aucs]


def slice_scores(pipes, X) -> np.ndarray:
    """Decision scores [n x m] on rows X of m pipelines that share one
    standardizer: a `SliceFit`, or a list of pipelines of one `fit_pipeline`
    slice. X is standardized once. A `SliceFit` is projected once per
    distinct k, and that k's classifiers are scored by one `_score_columns`
    call (one `_lr_scores` product for LR); a list is projected and scored
    pipeline by pipeline."""
    if isinstance(pipes, SliceFit):
        standardizer, problems, columns = pipes.standardizer, pipes.problems, pipes.columns
    else:
        standardizer, columns = pipes[0].standardizer, slice(None)
        problems = [(p.pca, [p.classifier]) for p in pipes]
    Z = standardizer.transform(X)
    return np.concatenate([_score_columns(classifiers, pca.transform(Z))
                           for pca, classifiers in problems], axis=1)[:, columns]


def _score_columns(classifiers, Z) -> np.ndarray:
    """Decision scores [n x m] of m classifiers of one kind on one projected
    slice Z: LR weights as one stacked product, SVMs one by one."""
    if classifiers[0].kind == "lr":
        return _lr_scores(Z, np.array([c.weights for c in classifiers])).T
    return np.column_stack([rbf_kernel(Z, c.support_vectors, c.hyperparameters["gamma"])
                            @ c.dual_coef + c.intercept for c in classifiers])


def _select(cells, rows, n_cutoffs: int) -> list[dict]:
    """Per cutoff, the first cell (in tie-break order) with the best mean AUC
    over the fold rows; a later cell wins only by more than 1e-12."""
    if not rows:
        raise SingleClass("no inner fold had both classes")
    means = np.mean(rows, axis=0).reshape(n_cutoffs, len(cells)).tolist()
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
        return slice_scores([self], X)[:, 0]


@dataclass(eq=False)
class SliceFit(Sequence):
    """The fits of one `fit_pipeline` slice, kept as arrays for scoring: the
    slice's standardizer and, per distinct k in first-seen order, a PCA
    model keeping k with the classifiers of that problem's cells. Fit j has
    its cutoff's PCA model `pcas[j]` and the classifier in column
    `columns[j]` of the problems' classifiers, in order. Item j is fit j's
    `Pipeline`, built when read."""

    standardizer: Standardizer
    problems: list  # (PcaModel, [Classifier]) per distinct k
    pcas: list  # PcaModel per fit
    columns: np.ndarray  # classifier column per fit

    def __len__(self) -> int:
        return len(self.pcas)

    def __getitem__(self, j: int) -> Pipeline:
        classifiers = [c for _, problem in self.problems for c in problem]
        return Pipeline(self.standardizer, self.pcas[j], classifiers[self.columns[j]])


def _preprocess(X, rows, cutoffs) -> list:
    """Per slice of a stack `rows` [s x n] of row indices into X: its
    standardizer, its PCA model per cutoff, and (PCA model, projected rows)
    per distinct k in first-seen order, each bitwise as the slice alone
    gives. The stack is gathered once, standardized and centred in place,
    and freed on return."""
    Z = X[rows]
    standardizer = Standardizer.fit(Z)
    Z -= standardizer.mean[:, None]
    Z /= standardizer.std[:, None]
    prepared = []
    for mean, std, pcas, Zc in zip(standardizer.mean, standardizer.std, fit_pca(Z, cutoffs), Z):
        bases: dict[int, PcaModel] = {}  # k -> the first PCA model keeping it
        for pca in pcas:
            bases.setdefault(pca.k, pca)
        if pcas:
            Zc -= pcas[0].mean  # the slice's PCA models share one mean
        prepared.append((Standardizer(mean, std), dict(zip(cutoffs, pcas)),
                         [(pca, Zc @ pca.components.T) for pca in bases.values()]))
    return prepared


def fit_pipeline(X, y, slices, kind: str) -> list[SliceFit]:
    """For each training slice `(rows, fits)`, its `SliceFit`: one pipeline
    per (PCA cutoff, hyperparameter cell) in `fits`, all on that slice's one
    preprocessing. `rows` is an integer array of row indices into `X`, with
    labels `y`.

    A slice's standardizer and PCA decomposition are fit once on `X[rows]`,
    and each cutoff truncates that decomposition. Slices with the same row
    count and cutoffs are preprocessed together, as stacks of at most
    `STACK_ENTRIES` entries (a bigger slice is a stack of one): one gather,
    one `fit_pca` call, and each slice's projections. Each distinct k of a
    slice is one solver problem: the slice projected once to k components,
    with the distinct cells of the fits that keep k, in first-seen order.
    So cutoffs that keep the same k share their classifier objects. Every
    slice's problems go to one `fit_lr` or `fit_svm_rbf` call, and share
    the slice's one label vector, which the solver checks once.
    """
    X = np.asarray(X, dtype=np.float64)
    stacks: dict = {}  # (row count, cutoffs) -> the slices that have them, in order
    for s, (rows, fits) in enumerate(slices):
        stacks.setdefault((len(rows), tuple(dict.fromkeys(c for c, _ in fits))), []).append(s)
    prepared = [None] * len(slices)
    for (n, cutoffs), members in stacks.items():
        size = max(1, STACK_ENTRIES // max(1, n * X.shape[1]))
        for start in range(0, len(members), size):
            stack = members[start:start + size]
            rows = np.stack([slices[s][0] for s in stack])
            for s, slice_prepared in zip(stack, _preprocess(X, rows, cutoffs)):
                prepared[s] = slice_prepared

    problems = []  # (projected slice, y, cells) per (slice, k)
    plans = []  # per slice: its first problem, and (PCA model, problem, cell index) per fit
    for (rows, fits), (_, pcas, projected) in zip(slices, prepared):
        first, y_rows = len(problems), y[rows]
        problems.extend((Z, y_rows, []) for _, Z in projected)
        index_of = {pca.k: i for i, (pca, _) in enumerate(projected)}
        plan = []
        for cutoff, cell in fits:
            pca = pcas[cutoff]
            cells = problems[first + index_of[pca.k]][2]
            if cell not in cells:
                cells.append(cell)
            plan.append((pca, index_of[pca.k], cells.index(cell)))
        plans.append((first, plan))
    classifiers = (fit_lr if kind == "lr" else fit_svm_rbf)(problems)

    fitted = []
    for (standardizer, _, projected), (first, plan) in zip(prepared, plans):
        own = classifiers[first:first + len(projected)]
        offsets = list(accumulate(map(len, own), initial=0))  # each problem's first column
        fitted.append(SliceFit(standardizer, [(pca, c) for (pca, _), c in zip(projected, own)],
                               [pca for pca, _, _ in plan],
                               np.array([offsets[p] + c for _, p, c in plan], dtype=np.intp)))
    return fitted


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
