"""Training-set audio augmentation: amplify, white noise, pitch/speed.

Each original expands into six variants (two per method). Parameters are
drawn from the fixed ranges below with a per-sample seed derived from
(global seed, sample id, method, copy index), so parallel processing
order never changes results. A drawn playback rate is snapped to the
RATE_GRID grid before it is applied and recorded. The operators are
class-agnostic; the evaluation pipeline enforces the negatives-only,
training-only policy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioSegment, resample
from .errors import SilentSample

METHODS = ("amplify", "noise", "pitch_speed")
COPIES_PER_METHOD = 2  # fixed by the protocol

# Parameter ranges, drawn uniformly
AMP_RANGE = (1.15, 2.0)  # amplification factor
RATE_RANGE = (0.8, 0.99)  # playback rate
NOISE_SNR_DB_RANGE = (20.0, 40.0)

# Applied playback rates are RATE_GRID / k, so at 22050 Hz the resampling
# ratio is k/490 and its polyphase filter stays short (resampling to an
# unsnapped round(22050 / rate) Hz, e.g. 22273 Hz, needs a FIR of about
# 20 x 22273 taps).
RATE_GRID = 490
RATE_K_RANGE = (math.ceil(RATE_GRID / RATE_RANGE[1]), math.floor(RATE_GRID / RATE_RANGE[0]))


@dataclass(frozen=True)
class Augmented:
    """One augmented variant plus its provenance."""

    segment: AudioSegment
    method: str
    parameter: float
    copy_index: int


def amplify(seg: AudioSegment, factor: float) -> AudioSegment:
    """Scale by `factor`, hard-clipping to [-1, 1]."""
    return AudioSegment(np.clip(seg.samples * factor, -1.0, 1.0), seg.sample_rate)


def add_white_noise(seg: AudioSegment, snr_db: float, rng: np.random.Generator) -> AudioSegment:
    """Add zero-mean Gaussian noise at the requested signal-to-noise ratio."""
    signal_power = float(np.mean(seg.samples**2))
    if signal_power <= 0:
        raise SilentSample("SNR undefined for a silent signal")
    noise_power = signal_power / 10.0 ** (snr_db / 10.0)
    noise = rng.normal(0.0, np.sqrt(noise_power), size=len(seg.samples))
    return AudioSegment(np.clip(seg.samples + noise, -1.0, 1.0), seg.sample_rate)


def pitch_speed(seg: AudioSegment, rate: float) -> AudioSegment:
    """Playback-rate change: duration becomes len/rate, pitch scales by rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    stretched = resample(seg, round(seg.sample_rate / rate))
    return AudioSegment(stretched.samples, seg.sample_rate)


def snap_rate(rate: float) -> float:
    """The grid rate RATE_GRID / k nearest `rate`, with k clamped so that the
    result stays inside RATE_RANGE."""
    k = min(max(round(RATE_GRID / rate), RATE_K_RANGE[0]), RATE_K_RANGE[1])
    return RATE_GRID / k


def derive_seed(global_seed: int, sample_id: str, method: str, copy_index: int) -> int:
    """Stable per-variant seed; independent of processing order."""
    key = f"{global_seed}|{sample_id}|{method}|{copy_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def augment_six(seg: AudioSegment, sample_id: str, seed: int) -> list[Augmented]:
    """Two amplified + two noised + two pitch/speed variants of one segment."""
    out: list[Augmented] = []
    for method in METHODS:
        for copy_index in range(COPIES_PER_METHOD):
            rng = np.random.default_rng(derive_seed(seed, sample_id, method, copy_index))
            if method == "amplify":
                factor = rng.uniform(*AMP_RANGE)
                out.append(Augmented(amplify(seg, factor), method, factor, copy_index))
            elif method == "noise":
                snr = rng.uniform(*NOISE_SNR_DB_RANGE)
                out.append(Augmented(add_white_noise(seg, snr, rng), method, snr, copy_index))
            else:
                rate = snap_rate(rng.uniform(*RATE_RANGE))
                out.append(Augmented(pitch_speed(seg, rate), method, rate, copy_index))
    return out
