"""Independent brute-force oracles used to check the DSP and stats paths.

Everything here is deliberately naive (O(n^2) DFTs, direct formula
evaluation) and shares no code with the implementation under test, except
`lr_loss_grad`, which is the solver's own loss and gradient for the
finite-difference checks.
"""

import math

import numpy as np

from respscreen import features, model


def naive_dft_magnitudes(x):
    """O(n^2) DFT magnitude of the first half-spectrum."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    basis = np.exp(-2j * math.pi * np.outer(k, t) / n)
    return np.abs(basis @ x)


def dominant_frequency(x, sr):
    """Frequency (Hz) of the largest half-spectrum bin, excluding DC."""
    mags = naive_dft_magnitudes(x)
    k = 1 + int(np.argmax(mags[1:]))
    return k * sr / len(x)


def resample_poly_oracle(x, source_rate, target_rate):
    """`scipy.signal.resample_poly` at the reduced ratio, cut or edge-padded
    to round(len * target / source) samples (at least one), then clipped."""
    from fractions import Fraction

    from scipy.signal import resample_poly

    ratio = Fraction(target_rate, source_rate)
    out = resample_poly(x, ratio.numerator, ratio.denominator)
    n_out = max(min(len(x), 1), round(len(x) * target_rate / source_rate))
    out = out[:n_out] if len(out) >= n_out else np.pad(out, (0, n_out - len(out)), mode="edge")
    return np.clip(out, -1.0, 1.0)


def naive_dct_ii(x):
    """Orthonormal DCT-II by direct cosine summation."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        s = sum(x[i] * math.cos(math.pi * k * (2 * i + 1) / (2 * n)) for i in range(n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def reflect_pad_oracle(x, pad):
    """`x` with `pad` samples added on each side by mirroring about the end
    samples (period 2(n - 1)), or zeros for a single sample."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n == 1:
        return np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    period = 2 * (n - 1)
    out = []
    for i in range(-pad, n + pad):
        j = i % period
        out.append(x[j] if j < n else x[period - j])
    return np.array(out)


def stats_oracle(x):
    """The 11 summary statistics via direct formula evaluation."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    std = math.sqrt(m2)
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    kurt = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    srt = np.sort(x)

    def quantile(q):
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        return srt[lo] * (1 - frac) + srt[hi] * frac

    return {
        "mean": mean,
        "median": quantile(0.5),
        "rms": math.sqrt(sum(v * v for v in x) / n),
        "max": float(srt[-1]),
        "min": float(srt[0]),
        "q1": quantile(0.25),
        "q3": quantile(0.75),
        "iqr": quantile(0.75) - quantile(0.25),
        "std": std,
        "skew": skew,
        "kurt": kurt,
    }


def summarize_oracle(series):
    """The 11 statistics of one series in `STAT_NAMES` order.

    This is the one-series `features.summarize` as it was before it took a
    matrix, kept verbatim (numpy reductions on the 1-D series, scalar
    Python `pow` for the moments) to check that the batched form gives
    bitwise the same values row by row.
    """
    x = np.asarray(series, dtype=np.float64)
    mean = float(np.mean(x))
    std = float(np.std(x))
    m2 = std * std
    if m2**2 > 0:  # m2**2 underflows before m2**1.5 does
        centered = x - mean
        skew = float(np.mean(centered**3)) / m2**1.5
        kurt = float(np.mean(centered**4)) / m2**2 - 3.0
    else:
        skew = kurt = 0.0
    q1, med, q3 = (float(v) for v in np.percentile(x, [25, 50, 75]))
    rms = float(np.sqrt(np.mean(x**2)))
    return np.array([mean, med, rms, np.max(x), np.min(x), q1, q3, q3 - q1, std, skew, kurt])


def frame_rms_oracle(x, frame_length, hop_length):
    """RMS of each non-centered frame starting every `hop_length` samples,
    partial tail frames included, by a loop over frames."""
    out = []
    for s in range(0, max(len(x), 1), hop_length):
        frame = x[s : s + frame_length]
        out.append(math.sqrt(float(np.mean(frame**2))))
    return np.array(out)


def onset_count_oracle(env, frame_rate):
    """Peaks picked by one pass over the frames: a strict local maximum over
    +-ONSET_LOCAL_MAX_RADIUS frames, above the moving mean plus the
    threshold, merged into the previous peak when closer than the minimum
    separation (the larger one is kept)."""
    if env.size == 0 or env.max() <= 0:
        return 0
    threshold = features.ONSET_THRESHOLD_FRACTION * env.max()
    width = features.ONSET_MEAN_WINDOW
    padded = np.pad(env, width // 2, mode="edge")
    moving_mean = np.convolve(padded, np.ones(width) / width, mode="valid")
    min_sep = max(1, round(features.ONSET_MIN_SEPARATION_SEC * frame_rate))

    peaks = []
    r = features.ONSET_LOCAL_MAX_RADIUS
    for t in range(len(env)):
        lo, hi = max(0, t - r), min(len(env), t + r + 1)
        window = env[lo:hi]
        if env[t] < window.max() or (window == env[t]).sum() > 1:
            continue
        if env[t] <= moving_mean[t] + threshold:
            continue
        if peaks and t - peaks[-1] < min_sep:
            if env[t] > env[peaks[-1]]:
                peaks[-1] = t
            continue
        peaks.append(t)
    return len(peaks)


def zcr_oracle(frame):
    """Sign-change count per sample over one frame."""
    signs = np.signbit(np.asarray(frame))
    return int(np.count_nonzero(signs[1:] != signs[:-1])) / len(frame)


def centroid_oracle(frame, window, sr):
    """Spectral centroid of one windowed frame via the naive DFT."""
    mags = naive_dft_magnitudes(np.asarray(frame) * window)
    freqs = np.arange(len(mags)) * sr / len(frame)
    return float((freqs * mags).sum() / mags.sum())


def rolloff_oracle(frame, window, sr, fraction=0.85):
    """Lowest bin frequency where cumulative energy reaches `fraction`."""
    mags = naive_dft_magnitudes(np.asarray(frame) * window)
    energy = mags**2
    cum = np.cumsum(energy)
    k = int(np.argmax(cum >= fraction * cum[-1]))
    return k * sr / len(frame)


def svm_dual_qp_oracle(X, y_pm, C, gamma):
    """Solve the SVM dual directly with a generic constrained optimizer."""
    from scipy.optimize import minimize

    X = np.asarray(X, dtype=np.float64)
    n = len(y_pm)
    sq = np.sum(X**2, axis=1)
    K = np.exp(-gamma * np.maximum(sq[:, None] + sq[None, :] - 2 * X @ X.T, 0))
    Q = np.outer(y_pm, y_pm) * K

    def obj(a):
        return 0.5 * a @ Q @ a - a.sum()

    def grad(a):
        return Q @ a - np.ones(n)

    res = minimize(
        obj,
        np.zeros(n),
        jac=grad,
        bounds=[(0, C)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y_pm, "jac": lambda a: y_pm}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    alpha = res.x
    f = K @ (alpha * y_pm)
    free = (alpha > 1e-6) & (alpha < C - 1e-6)
    if np.any(free):
        b = float(np.mean((y_pm - f)[free]))
    else:
        b = float(np.median(y_pm - f))
    return alpha, b, lambda Z: (
        np.exp(
            -gamma
            * np.maximum(
                np.sum(Z**2, axis=1)[:, None] + sq[None, :] - 2 * Z @ X.T, 0
            )
        )
        @ (alpha * y_pm)
        + b
    )


def newton_lr_oracle(X, y01, C, max_iter=200):
    """Damped Newton for L2 logistic regression, run for all `max_iter`
    iterations unless the gradient norm drops below 1e-8.

    This is the solver loop as it was before the fixed-point stop, kept
    verbatim (loss and gradient recomputed at every iteration, no early
    exit on a stalled line search) to check that the faster loop takes
    bitwise the same iterates.
    """
    X = np.asarray(X, dtype=np.float64)
    y01 = np.asarray(y01, dtype=np.float64)
    y_pm = 2.0 * y01 - 1.0
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])

    def loss_grad(w):
        z = y_pm * (X @ w[:-1] + w[-1])
        loss = float(np.mean(np.logaddexp(0.0, -z))) + 0.5 * float(w[:-1] @ w[:-1]) / C
        sig = 1.0 / (1.0 + np.exp(np.clip(z, -500, 500)))
        coef = -y_pm * sig / n
        grad = np.empty_like(w)
        grad[:-1] = X.T @ coef + w[:-1] / C
        grad[-1] = coef.sum()
        return loss, grad

    w = np.zeros(d + 1)
    for _ in range(max_iter):
        loss, grad = loss_grad(w)
        if np.linalg.norm(grad) < 1e-8:
            break
        z = np.clip(Xb @ w, -500, 500)
        p = 1.0 / (1.0 + np.exp(-z))
        r = p * (1.0 - p)
        H = (Xb * (r / n)[:, None]).T @ Xb
        H[:d, :d] += np.eye(d) / C
        H += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(H, grad)
        t = 1.0
        descent = float(grad @ step)
        for _ls in range(60):
            new_loss, _ = loss_grad(w - t * step)
            if new_loss <= loss - 1e-4 * t * descent:
                break
            t *= 0.5
        w = w - t * step
    return w


def lr_loss_grad(w, X, y01, C: float):
    """Mean logistic loss plus ||w||^2 / (2C) and its gradient at `w` (last
    entry the unpenalized intercept), from the solver's stacked
    `model._lr_loss` and `model._lr_grad` on a stack of one problem."""
    X = np.asarray(X, dtype=np.float64)[None]
    y_pm = 2.0 * np.asarray(y01, dtype=np.float64)[None] - 1.0
    W, Cs = np.asarray(w, dtype=np.float64)[None], np.array([float(C)])
    loss, Z = model._lr_loss(W, X, y_pm, Cs)
    return float(loss[0]), model._lr_grad(W, Z, X.transpose(0, 2, 1), -y_pm, Cs)[0]


def smo_oracle(X, y01, C, gamma, max_iter=200_000):
    """Most-violating-pair SMO on one problem, as a dict of the fitted
    classifier's fields.

    This is the per-problem solver loop as it was before problems were
    solved in lockstep, kept verbatim (scalar indexing, Python `min`/`max`
    clips, the kernel built in place) to check that the batch solver takes
    bitwise the same steps.
    """
    X = np.asarray(X, dtype=np.float64)
    y_pm = 2.0 * np.asarray(y01).astype(np.float64) - 1.0
    n = X.shape[0]
    if gamma == "scale":
        gamma = 1.0 / (X.shape[1] * max(float(X.var()), 1e-12))
    gamma = float(gamma)

    sq = np.sum(X**2, axis=1)[:, None] + np.sum(X**2, axis=1)[None, :] - 2.0 * X @ X.T
    K = np.exp(-gamma * np.maximum(sq, 0.0))
    alpha = np.zeros(n)
    grad = -np.ones(n)
    pos = y_pm > 0

    converged = False
    for n_iter in range(max_iter):
        m = -y_pm * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (pos & (alpha > 0)) | (~pos & (alpha < C))
        i = int(np.argmax(np.where(up, m, -np.inf)))
        j = int(np.argmin(np.where(low, m, np.inf)))
        if m[i] - m[j] < 1e-3:
            converged = True
            break

        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        delta = (m[i] - m[j]) / quad
        delta = min(delta, C - alpha[i] if pos[i] else alpha[i])
        delta = min(delta, alpha[j] if pos[j] else C - alpha[j])
        if delta <= 0:
            break
        di = y_pm[i] * delta
        dj = -y_pm[j] * delta
        alpha[i] += di
        alpha[j] += dj
        grad += y_pm * (K[:, i] * (y_pm[i] * di) + K[:, j] * (y_pm[j] * dj))
    else:
        n_iter = max_iter

    m = -y_pm * grad
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
    return {
        "kind": "svm-rbf",
        "hyperparameters": {"C": C, "gamma": gamma},
        "weights": None,
        "support_vectors": X[sv].copy(),
        "dual_coef": (alpha * y_pm)[sv].copy(),
        "intercept": b,
        "n_iter": n_iter,
        "converged": converged,
    }
