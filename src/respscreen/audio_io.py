"""WAV decoding, resampling, and silence trimming.

Everything downstream operates on mono float segments in [-1, 1] at
22050 Hz; this module produces them from raw RIFF/WAVE byte streams.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MalformedWav, SilentSample, UnsupportedEncoding

TARGET_SAMPLE_RATE = 22050
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Trim parameters: frame RMS compared against peak frame RMS.
TRIM_FRAME_LENGTH = 2048
TRIM_HOP_LENGTH = 512
TRIM_THRESHOLD_DB = 60.0

# Cephes' Chebyshev coefficients of exp(-x) I0(x) on [0, 8], in the variable
# x / 2 - 2 (numpy's _i0A)
I0_CHEBYSHEV = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)


@dataclass(frozen=True)
class AudioSegment:
    """Mono waveform plus its sample rate."""

    samples: np.ndarray  # float64, amplitudes in [-1, 1]
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def decode_wav(data: bytes) -> AudioSegment:
    """Decode a RIFF/WAVE byte stream (PCM16 or float32, mono or stereo).

    A WAVE_FORMAT_EXTENSIBLE stream is read by its subformat. Stereo is
    downmixed by per-frame channel average; 16-bit integers are scaled by
    1/32768. Non-finite float samples are rejected as malformed.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWav("not a RIFF/WAVE stream")

    fmt = None
    payload = None  # (offset, size) of the data chunk, read in place
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body_size = min(chunk_size, len(data) - pos - 8)  # what the stream holds of it
        if chunk_id == b"fmt ":
            if body_size < 16:
                raise MalformedWav("fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE and body_size >= 40:
                # the subformat GUID at offset 24 leads with the plain format code
                (subformat,) = struct.unpack_from("<H", data, pos + 8 + 24)
                fmt = (subformat, *fmt[1:])
        elif chunk_id == b"data":
            if body_size < chunk_size:
                raise MalformedWav("data chunk truncated")
            payload = (pos + 8, chunk_size)
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise MalformedWav("missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels not in (1, 2):
        raise UnsupportedEncoding(f"{n_channels} channels not supported")
    if sample_rate <= 0:
        raise MalformedWav("non-positive sample rate")
    dtype = {(1, 16): "<i2", (3, 32): "<f4"}.get((audio_format, bits))
    if dtype is None:
        raise UnsupportedEncoding(f"format={audio_format} bits={bits}")

    # whole samples only: an odd trailing byte, or a stereo stream's unpaired
    # last sample, is dropped; the one float array is then scaled and clipped in place
    offset, size = payload
    raw = np.frombuffer(data, dtype, count=size // (bits // 8), offset=offset)
    if audio_format == 3 and not np.all(np.isfinite(raw)):
        raise MalformedWav("non-finite float samples")
    samples = raw[: len(raw) - len(raw) % n_channels].astype(np.float64)
    if audio_format == 1:
        samples /= 32768.0
    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    if len(samples) == 0:
        raise MalformedWav("empty data chunk")
    return AudioSegment(np.clip(samples, -1.0, 1.0, out=samples), sample_rate)


def encode_wav(seg: AudioSegment) -> bytes:
    """Encode a segment as 16-bit PCM mono WAV."""
    # one float temporary, rounded and clipped in place: writing a batch of
    # clips then faults in fewer fresh pages per clip
    pcm = seg.samples * 32768.0
    np.clip(np.round(pcm, out=pcm), -32768, 32767, out=pcm)
    pcm = pcm.astype("<i2")
    body = pcm.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(body),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        seg.sample_rate,
        seg.sample_rate * 2,
        2,
        16,
        b"data",
        len(body),
    )
    return header + body


def resample(seg: AudioSegment, target_rate: int) -> AudioSegment:
    """Band-limited resampling by polyphase FIR decimation.

    The low-pass filter is `scipy.signal.resample_poly`'s default (a
    Kaiser-windowed sinc, beta 5, 20 * max(up, down) + 1 taps), designed
    in numpy by `_lowpass_taps`, so the samples are resample_poly's up to
    summation order, computed with numpy only. Output length is
    round(len * target / source), and at least one sample for a nonempty
    segment; identity when the rates are already equal.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == seg.sample_rate:
        return seg
    ratio = Fraction(target_rate, seg.sample_rate)
    up, down = ratio.numerator, ratio.denominator
    n_in = len(seg)
    n_out = max(min(n_in, 1), round(n_in * target_rate / seg.sample_rate))
    half_len = 10 * max(up, down)
    # zero taps in front centre the kept outputs, as in resample_poly
    n_pre_pad = down - half_len % down
    first = (half_len + n_pre_pad) // down
    h = np.concatenate([np.zeros(n_pre_pad), _lowpass_taps(up, down)])
    taps_per_phase = -(-len(h) // up)
    # phases[p, m] = h[p + m * up], reversed along m to meet windows in time order
    # (contiguous, so that numpy hands each product to BLAS where it can)
    phases = np.pad(h, (0, taps_per_phase * up - len(h))).reshape(-1, up).T[:, ::-1].copy()
    # output k is phases[(k * down) % up] . x[b - taps_per_phase + 1 : b + 1],
    # b = (k * down) // up; xpad[i] is x[i - taps_per_phase + 1], zero outside
    last = (first + n_out - 1) * down // up
    xpad = np.concatenate([np.zeros(taps_per_phase - 1), seg.samples,
                           np.zeros(max(last + 1 - n_in, 0))])
    windows = sliding_window_view(xpad, taps_per_phase)
    out = np.empty(n_out)
    for r in range(min(up, n_out)):
        t = (first + r) * down
        rows = windows[t // up :: down][: len(range(r, n_out, up))]
        if taps_per_phase > down:
            # overlapping rows are no BLAS matrix, and matmul's own loop
            # takes about twice einsum's time on them
            out[r::up] = np.einsum("ij,j->i", rows, phases[t % up])
        else:
            out[r::up] = rows @ phases[t % up]
    return AudioSegment(np.clip(out, -1.0, 1.0), target_rate)


def _lowpass_taps(up: int, down: int) -> np.ndarray:
    """resample_poly's default anti-aliasing filter for `up`/`down`:
    firwin(20 m + 1, 1 / m, window=("kaiser", 5.0)) * up with
    m = max(up, down), in firwin's arithmetic so the taps are bitwise equal.
    The window's I0 is `_i0`, not scipy.special.i0."""
    m = max(up, down)
    half_len = 10 * m
    t = np.arange(2 * half_len + 1, dtype=np.float64) - half_len
    h = (1.0 / m) * np.sinc((1.0 / m) * t)
    # the window is symmetric, bitwise: evaluate its first half only; its
    # last value, at t = 0, is I0(5.0)
    rising = _i0(5.0 * np.sqrt(1 - (t[: half_len + 1] / half_len) ** 2.0))
    h *= np.concatenate([rising, rising[-2::-1]]) / rising[-1]
    h /= np.sum(h)  # unity gain at DC
    return h * up


def _i0(x: np.ndarray) -> np.ndarray:
    """Modified Bessel function I0 for 0 <= x <= 8, bitwise equal to
    scipy.special.i0: Cephes' exp(x) chbevl(x / 2 - 2, A, 30). exp is libm's,
    one element at a time; np.exp's SIMD loop differs in the last bits."""
    y = x / 2.0 - 2.0
    b0, b1 = np.full_like(y, I0_CHEBYSHEV[0]), np.zeros_like(y)
    for c in I0_CHEBYSHEV[1:]:
        b2, b1 = b1, b0
        b0 = y * b1
        b0 -= b2
        b0 += c
    return np.fromiter(map(math.exp, x.tolist()), np.float64, len(x)) * (0.5 * (b0 - b2))


def _frame_rms(x: np.ndarray) -> np.ndarray:
    """RMS per frame over non-centered TRIM_FRAME_LENGTH frames, every
    TRIM_HOP_LENGTH samples, covering the signal."""
    sq = x**2
    if len(x) >= TRIM_FRAME_LENGTH:
        windows = sliding_window_view(sq, TRIM_FRAME_LENGTH)[::TRIM_HOP_LENGTH]
        full = np.sqrt(np.mean(windows, axis=1))
    else:
        full = np.empty(0)
    # partial tail frames, at most TRIM_FRAME_LENGTH / TRIM_HOP_LENGTH of them
    tail = [math.sqrt(float(np.mean(sq[s : s + TRIM_FRAME_LENGTH])))
            for s in range(len(full) * TRIM_HOP_LENGTH, max(len(x), 1), TRIM_HOP_LENGTH)]
    return np.concatenate([full, tail])


def trim_silence(seg: AudioSegment) -> AudioSegment:
    """Drop leading/trailing frames more than TRIM_THRESHOLD_DB below peak RMS.

    Raises SilentSample when nothing remains.
    """
    rms = _frame_rms(seg.samples)
    peak = rms.max()
    if peak <= 0:
        raise SilentSample("all-zero signal")
    keep = rms > peak * 10.0 ** (-TRIM_THRESHOLD_DB / 20.0)
    idx = np.flatnonzero(keep)
    if len(idx) == 0:
        raise SilentSample("nothing above the trim threshold")
    start = idx[0] * TRIM_HOP_LENGTH
    end = min(idx[-1] * TRIM_HOP_LENGTH + TRIM_FRAME_LENGTH, len(seg.samples))
    return AudioSegment(seg.samples[start:end], seg.sample_rate)
