"""Shared spectral primitives: framing, STFT, Mel filterbank, DCT.

Fixed project-wide analysis parameters: 2048-sample frames, hop 512,
the periodic Hann window `HANN_WINDOW`, centered frames with reflect
padding, 128 Slaney mel bands spanning 0 Hz to Nyquist.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

LOG_FLOOR = 1e-10  # added to power before taking log

# Framing of all short-time analysis
FRAME_LENGTH = 2048
HOP_LENGTH = 512
N_MELS = 128

# Slaney mel scale: linear at 200/3 Hz per mel below the 1 kHz break,
# logarithmic above it with ln(6.4)/27 per mel
MEL_HZ_PER_MEL = 200.0 / 3
MEL_BREAK_HZ = 1000.0
MEL_BREAK = MEL_BREAK_HZ / MEL_HZ_PER_MEL  # the break on the mel axis
MEL_LOG_STEP = np.log(6.4) / 27.0


def _periodic_hann(n: int) -> np.ndarray:
    # scipy's general_cosine arithmetic, so the result is bitwise equal to
    # scipy.signal.get_window("hann", n, fftbins=True) without importing
    # scipy.signal; np.hanning and 0.5 - 0.5 cos(2 pi k / n) differ from it
    # in the last bit
    fac = np.linspace(-np.pi, np.pi, n + 1)
    w = np.zeros(n + 1)
    for k, a in ((0, 0.5), (1, 0.5)):
        w += a * np.cos(k * fac)
    w = w[:-1]
    w.flags.writeable = False
    return w


# Periodic Hann window of the STFT, read-only
HANN_WINDOW = _periodic_hann(FRAME_LENGTH)


def _pad_centered(x: np.ndarray) -> np.ndarray:
    # reflect mirrors again where the pad exceeds len(x) - 1
    mode = "reflect" if len(x) > 1 else "constant"
    return np.pad(x, FRAME_LENGTH // 2, mode=mode)


def frame_signal(x: np.ndarray) -> np.ndarray:
    """Centered, reflect-padded frames as a read-only strided view
    [FRAME_LENGTH x n_frames] of the padded signal."""
    padded = _pad_centered(np.asarray(x, dtype=np.float64))
    windows = np.lib.stride_tricks.sliding_window_view(padded, FRAME_LENGTH)
    return windows[::HOP_LENGTH].T


def bin_frequencies(sr: int) -> np.ndarray:
    """Frequency in Hz of each of the FRAME_LENGTH // 2 + 1 STFT bins at rate `sr`."""
    return np.fft.rfftfreq(FRAME_LENGTH, d=1.0 / sr)


def stft(frames: np.ndarray) -> np.ndarray:
    """Magnitudes [FRAME_LENGTH // 2 + 1 x n_frames] of the Hann-windowed
    DFT of each column of `frames`, as `frame_signal` lays them out."""
    return np.abs(np.fft.rfft(frames * HANN_WINDOW[:, None], axis=0))


def _hz_to_mel(hz):
    """Slaney mel: linear below 1 kHz, logarithmic above."""
    hz = np.asarray(hz, dtype=np.float64)
    above = MEL_BREAK + np.log(np.maximum(hz, MEL_BREAK_HZ) / MEL_BREAK_HZ) / MEL_LOG_STEP
    return np.where(hz >= MEL_BREAK_HZ, above, hz / MEL_HZ_PER_MEL)


def _mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    above = MEL_BREAK_HZ * np.exp(MEL_LOG_STEP * (mel - MEL_BREAK))
    return np.where(mel >= MEL_BREAK, above, mel * MEL_HZ_PER_MEL)


@lru_cache(maxsize=16)
def mel_filterbank(sr: int) -> np.ndarray:
    """N_MELS triangular filters equally spaced on the Slaney mel scale,
    0..sr/2, as read-only weights [N_MELS x (FRAME_LENGTH // 2 + 1)].

    Built once per sample rate and shared.
    """
    fft_freqs = bin_frequencies(sr)
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sr / 2.0), N_MELS + 2)
    hz_pts = _mel_to_hz(mel_pts)

    weights = np.zeros((N_MELS, len(fft_freqs)))
    for m in range(N_MELS):
        lower, center, upper = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (fft_freqs - lower) / max(center - lower, 1e-12)
        down = (upper - fft_freqs) / max(upper - center, 1e-12)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
        # Slaney area normalization keeps response comparable across bands
        weights[m] *= 2.0 / (upper - lower)
    weights.flags.writeable = False
    return weights


# Sample rate -> (lo, hi) per filter of mel_filterbank(sr): the band of bins
# outside which its weights are 0
_MEL_BANDS: dict[int, list[tuple[int, int]]] = {}


def mel_energies(power: np.ndarray, sr: int) -> np.ndarray:
    """`mel_filterbank(sr) @ power` for a power spectrum [FRAME_LENGTH // 2 + 1
    x n_frames], as [N_MELS x n_frames].

    Each filter is applied over its band of nonzero weights only. The dense
    product is rounded differently with each BLAS thread count; these
    products of at most a few dozen bins are not.
    """
    weights = mel_filterbank(sr)
    bands = _MEL_BANDS.get(sr)
    if bands is None:
        bands = _MEL_BANDS[sr] = [(i[0], i[-1] + 1) if len(i) else (0, 0)
                                  for i in map(np.flatnonzero, weights)]
    out = np.empty((N_MELS, power.shape[1]))
    for m, (lo, hi) in enumerate(bands):
        out[m] = weights[m, lo:hi] @ power[lo:hi]
    return out


def dct_ii(matrix: np.ndarray, n_out: int) -> np.ndarray:
    """Orthonormal DCT-II along axis 0, keeping the first n_out coefficients.

    The product with `_dct_ii_basis` is summed by einsum's own loop, not
    BLAS, so the result does not depend on the BLAS thread count. It agrees
    with scipy.fft.dct(matrix, type=2, axis=0, norm="ortho")[:n_out] to
    within 1e-14 times each column's 2-norm, not bitwise.
    """
    if n_out > matrix.shape[0]:
        raise ValueError("n_out must not exceed the input dimension")
    return np.einsum("ki,ij->kj", _dct_ii_basis(n_out, matrix.shape[0]), matrix)


@lru_cache(maxsize=4)
def _dct_ii_basis(n_out: int, n: int) -> np.ndarray:
    """The first n_out orthonormal DCT-II basis vectors of length n, as
    read-only rows [n_out x n]: sqrt(2 / n) cos(pi k (2 i + 1) / (2 n)),
    and sqrt(1 / n) for k = 0."""
    k = np.arange(n_out)[:, None]
    i = np.arange(n)
    # k (2 i + 1) reduced mod 4 n keeps every cosine argument below 2 pi
    basis = np.cos(np.pi * (k * (2 * i + 1) % (4 * n)) / (2 * n)) * np.sqrt(2.0 / n)
    basis[0] = np.sqrt(1.0 / n)
    basis.flags.writeable = False
    return basis
