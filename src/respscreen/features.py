"""The 477-dimensional handcrafted feature vector.

Layout (canonical order, 4 + 4*11 + 3*13*11 = 477):
  duration, onsets, tempo, period,
  then 11 statistics for each of rms, centroid, rolloff, zcr,
  then 11 statistics for each of 13 MFCC, 13 delta-MFCC, 13 delta2-MFCC.

Data flow: `analyze` makes a recording's one short-time analysis (one
framing, one power spectrum, one log-mel); each family is a pure function
of that `Analysis` or of a series from it (onset envelope -> onsets,
tempo; RMS -> period), and `extract_handcrafted` chains analyze ->
families -> one `summarize` of the [43 x n_frames] stack of series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsp
from .audio_io import AudioSegment
from .errors import EmptySeries, TooShort

N_MFCC = 13
DELTA_WIDTH = 9  # frames in the local linear-regression window

STAT_NAMES = ("mean", "median", "rms", "max", "min", "q1", "q3", "iqr", "std", "skew", "kurt")
FRAME_FAMILIES = ("rms", "centroid", "rolloff", "zcr")
SEGMENT_FEATURES = ("duration", "onsets", "tempo", "period")

ROLLOFF_FRACTION = 0.85

# Onset peak picking
ONSET_LOCAL_MAX_RADIUS = 3  # strict local max over +-3 frames
ONSET_MEAN_WINDOW = 11  # moving-mean window (frames)
ONSET_THRESHOLD_FRACTION = 0.3  # of the envelope max, added to the moving mean
ONSET_MIN_SEPARATION_SEC = 0.1

# Tempo search
TEMPO_BPM_MIN = 30.0
TEMPO_BPM_MAX = 300.0
TEMPO_PRIOR_BPM = 120.0
TEMPO_PRIOR_OCTAVES = 1.0

PERIOD_MIN_MODE = 4  # DFT modes below this are dominated by the nonzero mean
PERIOD_MIN_FRAMES = 8


# Canonical 477 feature names, order-stable across runs
FEATURE_NAMES = (
    *SEGMENT_FEATURES,
    *(f"{fam}_{s}" for fam in FRAME_FAMILIES for s in STAT_NAMES),
    *(f"{fam}{i:02d}_{s}" for fam in ("mfcc", "dmfcc", "d2mfcc")
      for i in range(N_MFCC) for s in STAT_NAMES),
)
N_FEATURES = len(FEATURE_NAMES)  # 477


def summarize(series) -> np.ndarray:
    """The 11 statistics of each row of a [rows x n] matrix, as a [rows x 11]
    float64 array with columns in `STAT_NAMES` order; a 1-D series is the
    one-row case and gives an (11,) array.

    Quartiles use linear interpolation; std is population (N); skewness is
    the biased Fisher-Pearson coefficient and kurtosis the biased excess.
    Zero-variance rows, and those whose squared variance underflows to 0,
    get skewness = kurtosis = 0.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size == 0:
        raise EmptySeries("cannot summarize an empty series")
    rows = np.atleast_2d(x)
    mean = np.mean(rows, axis=1)
    std = np.std(rows, axis=1)
    m2 = std * std
    centered = rows - mean[:, None]
    m3 = np.mean(centered**3, axis=1)
    m4 = np.mean(centered**4, axis=1)
    # Scalar pow per row: numpy's array power may round differently, and
    # v**2 underflows before v**1.5 does.
    moments = [(c3 / v**1.5, c4 / v**2 - 3.0) if v**2 > 0 else (0.0, 0.0)
               for v, c3, c4 in zip(m2.tolist(), m3.tolist(), m4.tolist())]
    skew, kurt = np.array(moments).T
    q1, med, q3 = np.percentile(rows, [25, 50, 75], axis=1)
    rms = np.sqrt(np.mean(rows**2, axis=1))
    stats = np.stack([mean, med, rms, rows.max(axis=1), rows.min(axis=1), q1, q3, q3 - q1, std,
                      skew, kurt], axis=1)
    return stats if x.ndim == 2 else stats[0]


@dataclass(frozen=True)
class Analysis:
    """One recording's short-time analysis at the `dsp` framing."""

    segment: AudioSegment
    frames: np.ndarray  # [dsp.FRAME_LENGTH x n_frames], from dsp.frame_signal
    magnitudes: np.ndarray  # [FRAME_LENGTH // 2 + 1 x n_frames], from dsp.stft
    power: np.ndarray  # magnitudes**2
    logmel: np.ndarray  # [dsp.N_MELS x n_frames], natural log of mel power
    frame_rate: float  # frames per second


def analyze(seg: AudioSegment) -> Analysis:
    """One framing, one power spectrum and one log-mel of a trimmed segment."""
    frames = dsp.frame_signal(seg.samples)
    mags = dsp.stft(frames)
    power = mags**2
    logmel = np.log(dsp.mel_energies(power, seg.sample_rate) + dsp.LOG_FLOOR)
    return Analysis(seg, frames, mags, power, logmel, seg.sample_rate / dsp.HOP_LENGTH)


def check_length(seg: AudioSegment) -> None:
    """Raise `TooShort` unless the segment spans the DELTA_WIDTH analysis
    frames that the MFCC deltas need (centered framing: 1 + len // hop)."""
    n_frames = 1 + len(seg) // dsp.HOP_LENGTH
    if n_frames < DELTA_WIDTH:
        raise TooShort(f"need >= {DELTA_WIDTH} frames, got {n_frames}")


def onset_envelope(a: Analysis) -> np.ndarray:
    """Onset strength: per-frame sum of positive log-mel first differences."""
    rises = np.maximum(0.0, np.diff(a.logmel, axis=1)).sum(axis=0)
    return np.concatenate(([0.0], rises))


def onset_count(env: np.ndarray, frame_rate: float) -> int:
    """Number of picked peaks in the onset strength envelope."""
    if env.size == 0 or env.max() <= 0:
        return 0
    threshold = ONSET_THRESHOLD_FRACTION * env.max()
    half = ONSET_MEAN_WINDOW // 2
    padded = np.pad(env, half, mode="edge")
    moving_mean = np.convolve(padded, np.ones(ONSET_MEAN_WINDOW) / ONSET_MEAN_WINDOW, mode="valid")
    min_sep = max(1, round(ONSET_MIN_SEPARATION_SEC * frame_rate))

    r = ONSET_LOCAL_MAX_RADIUS
    windows = sliding_window_view(np.pad(env, r, constant_values=-np.inf), 2 * r + 1)
    # a candidate is above the threshold and the one value of its +-r window
    # that is at least as large as itself: a strict local maximum
    strict_max = (windows >= env[:, None]).sum(axis=1) == 1
    candidates = np.flatnonzero(strict_max & (env > moving_mean + threshold))

    peaks: list[int] = []
    for t in candidates.tolist():
        if peaks and t - peaks[-1] < min_sep:
            if env[t] > env[peaks[-1]]:
                peaks[-1] = t
            continue
        peaks.append(t)
    return len(peaks)


def tempo(env: np.ndarray, frame_rate: float) -> float:
    """Global tempo (BPM) from the onset envelope autocorrelation.

    Candidate lags in [30, 300] BPM are scored by autocorrelation times a
    log-normal prior centered at 120 BPM with sigma of one octave; returns
    0 for an identically zero envelope.
    """
    if env.max() <= 0:
        return 0.0
    env = env - env.mean()
    ac = np.correlate(env, env, mode="full")[len(env) - 1 :]
    min_lag = max(1, int(np.ceil(60.0 * frame_rate / TEMPO_BPM_MAX)))
    max_lag = min(len(ac) - 1, int(np.floor(60.0 * frame_rate / TEMPO_BPM_MIN)))
    if max_lag < min_lag:
        return 0.0
    lags = np.arange(min_lag, max_lag + 1)
    bpms = 60.0 * frame_rate / lags
    prior = np.exp(-0.5 * ((np.log2(bpms) - np.log2(TEMPO_PRIOR_BPM)) / TEMPO_PRIOR_OCTAVES) ** 2)
    scores = ac[lags] * prior
    return float(bpms[int(np.argmax(scores))])


def envelope_period(rms: np.ndarray, frame_rate: float) -> float:
    """Dominant modulation frequency (Hz) of the RMS envelope.

    The envelope spectrum's lowest modes carry the nonzero mean, so the
    argmax is taken over DFT modes >= 4. Returns 0 when the envelope has
    fewer than 8 frames.
    """
    if len(rms) < PERIOD_MIN_FRAMES:
        return 0.0
    spectrum = np.abs(np.fft.rfft(rms))  # >= 5 modes, as len(rms) >= 8
    k = PERIOD_MIN_MODE + int(np.argmax(spectrum[PERIOD_MIN_MODE:]))
    return k * frame_rate / len(rms)


def frame_features(a: Analysis) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame (rms, centroid, rolloff, zcr) time series."""
    mags = a.magnitudes
    freqs = dsp.bin_frequencies(a.segment.sample_rate)

    rms = np.sqrt(np.mean(a.power, axis=0))

    col_sum = mags.sum(axis=0)
    centroid = (freqs[:, None] * mags).sum(axis=0) / np.where(col_sum > 0, col_sum, 1.0)

    cum = np.cumsum(a.power, axis=0)
    rolloff = freqs[np.argmax(cum >= ROLLOFF_FRACTION * cum[-1], axis=0)]

    signs = np.signbit(a.frames)
    zcr = np.count_nonzero(signs[1:] != signs[:-1], axis=0) / dsp.FRAME_LENGTH

    return rms, centroid, rolloff, zcr


def delta(matrix: np.ndarray) -> np.ndarray:
    """Local linear-regression slope over a DELTA_WIDTH-frame window, edge-replicated."""
    half = DELTA_WIDTH // 2
    taps = np.arange(-half, half + 1, dtype=np.float64)
    denom = np.sum(taps**2)
    padded = np.pad(matrix, ((0, 0), (half, half)), mode="edge")
    out = np.zeros_like(matrix, dtype=np.float64)
    for j, n in enumerate(taps):
        out += n * padded[:, j : j + matrix.shape[1]]
    return out / denom


def mfcc_features(a: Analysis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MFCC, delta-MFCC and delta2-MFCC matrices, each [13 x n_frames]."""
    check_length(a.segment)
    mfcc = dsp.dct_ii(a.logmel, N_MFCC)
    d1 = delta(mfcc)
    d2 = delta(d1)
    return mfcc, d1, d2


def extract_handcrafted(seg: AudioSegment) -> np.ndarray:
    """The (477,) float64 vector of a trimmed segment, laid out as `FEATURE_NAMES`."""
    a = analyze(seg)
    env = onset_envelope(a)
    series = frame_features(a)
    segment_features = [
        seg.duration,
        float(onset_count(env, a.frame_rate)),
        tempo(env, a.frame_rate),
        envelope_period(series[0], a.frame_rate),
    ]
    stats = summarize(np.vstack([*series, *mfcc_features(a)]))  # rows in FEATURE_NAMES order
    return np.concatenate([segment_features, stats.ravel()])
