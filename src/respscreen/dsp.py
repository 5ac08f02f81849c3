"""Shared spectral primitives: framing, STFT, Mel filterbank, DCT.

Fixed project-wide analysis parameters: 2048-sample frames, hop 512,
periodic Hann window, centered frames with reflect padding, 128 Slaney
mel bands spanning 0 Hz to Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.signal import get_window

from .audio_io import AudioSegment

LOG_FLOOR = 1e-10  # added to power before taking log

# Framing of all short-time analysis
FRAME_LENGTH = 2048
HOP_LENGTH = 512
WINDOW = "hann"
N_MELS = 128


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude spectrogram [n_bins x n_frames] with bin frequencies in Hz."""

    magnitudes: np.ndarray
    bin_frequencies: np.ndarray


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


def stft(seg: AudioSegment) -> Spectrogram:
    """Magnitude STFT of a segment."""
    frames = frame_signal(seg.samples)
    window = get_window(WINDOW, FRAME_LENGTH, fftbins=True)
    mags = np.abs(np.fft.rfft(frames * window[:, None], axis=0))
    freqs = np.fft.rfftfreq(FRAME_LENGTH, d=1.0 / seg.sample_rate)
    return Spectrogram(mags, freqs)


def _hz_to_mel(hz):
    """Slaney mel: linear below 1 kHz, logarithmic above."""
    hz = np.asarray(hz, dtype=np.float64)
    f_sp = 200.0 / 3
    min_log_hz = 1000.0
    logstep = np.log(6.4) / 27.0
    mel = hz / f_sp
    above = hz >= min_log_hz
    mel = np.where(above, min_log_hz / f_sp + np.log(np.maximum(hz, min_log_hz) / min_log_hz) / logstep, mel)
    return mel


def _mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    f_sp = 200.0 / 3
    min_log_mel = 1000.0 / f_sp
    logstep = np.log(6.4) / 27.0
    hz = mel * f_sp
    above = mel >= min_log_mel
    hz = np.where(above, 1000.0 * np.exp(logstep * (mel - min_log_mel)), hz)
    return hz


@lru_cache(maxsize=16)
def mel_filterbank(sr: int) -> np.ndarray:
    """N_MELS triangular filters equally spaced on the Slaney mel scale,
    0..sr/2, as read-only weights [N_MELS x (FRAME_LENGTH // 2 + 1)].

    Built once per sample rate and shared.
    """
    fft_freqs = np.fft.rfftfreq(FRAME_LENGTH, d=1.0 / sr)
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


def mel_power(spec: Spectrogram, fb: np.ndarray) -> np.ndarray:
    """Mel-band power [N_MELS x n_frames] under filterbank weights `fb`."""
    return fb @ (spec.magnitudes**2)


def log_compress(power: np.ndarray) -> np.ndarray:
    """Natural log of power with a small floor to avoid -inf."""
    return np.log(power + LOG_FLOOR)


def dct_ii(matrix: np.ndarray, n_out: int) -> np.ndarray:
    """Orthonormal DCT-II along axis 0, keeping the first n_out coefficients."""
    if n_out > matrix.shape[0]:
        raise ValueError("n_out must not exceed the input dimension")
    return scipy.fft.dct(matrix, type=2, axis=0, norm="ortho")[:n_out]
