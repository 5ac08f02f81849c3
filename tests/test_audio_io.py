import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.signal import firwin

from respscreen.audio_io import (
    TRIM_FRAME_LENGTH,
    TRIM_HOP_LENGTH,
    AudioSegment,
    _frame_rms,
    _i0,
    _lowpass_taps,
    decode_wav,
    encode_wav,
    resample,
    trim_silence,
)
from respscreen.augment import RATE_GRID, RATE_K_RANGE
from respscreen.errors import MalformedWav, SilentSample, UnsupportedEncoding

from .oracles import dominant_frequency, frame_rms_oracle, resample_poly_oracle

SR = 22050
# Every (source, target) rate pair the program resamples at: recordings to
# 22.05 kHz, and pitch_speed's playback rates RATE_GRID / k at 22.05 kHz.
RATE_PAIRS = [(sr, SR) for sr in (8000, 16000, 44100, 48000)] + [
    (SR, round(SR / (RATE_GRID / k))) for k in range(RATE_K_RANGE[0], RATE_K_RANGE[1] + 1)]


def make_wav(samples_i16, sample_rate=SR, channels=1, fmt=1, bits=16):
    if fmt == 1:
        body = np.asarray(samples_i16, dtype="<i2").tobytes()
    else:
        body = np.asarray(samples_i16, dtype="<f4").tobytes()
    return (
        struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(body), b"WAVE", b"fmt ", 16,
            fmt, channels, sample_rate,
            sample_rate * channels * bits // 8, channels * bits // 8, bits,
            b"data", len(body),
        )
        + body
    )


def make_extensible_wav(samples, fmt=1, bits=16, sample_rate=SR):
    """A mono WAVE_FORMAT_EXTENSIBLE stream whose subformat GUID leads with `fmt`."""
    dtype = "<i2" if fmt == 1 else "<f4"
    body = np.asarray(samples, dtype=dtype).tobytes()
    guid_tail = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    fmt_chunk = struct.pack("<HHIIHHHHI", 0xFFFE, 1, sample_rate, sample_rate * bits // 8,
                            bits // 8, bits, 22, bits, 0x4) + struct.pack("<H", fmt) + guid_tail
    chunks = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


FUZZ_SEEDS = (
    make_wav([0, 1000, -1000, 32767, -32768, 5]),
    make_wav(np.array([0.1, -0.2, 0.3, 0.4], dtype="<f4"), channels=2, fmt=3, bits=32),
    make_extensible_wav([0, 1000, -1000, 32767]),
    make_extensible_wav(np.array([0.1, -0.2, 0.3], dtype="<f4"), fmt=3, bits=32),
)


def decodes_finite_or_rejects(data: bytes) -> None:
    try:
        seg = decode_wav(data)
    except (MalformedWav, UnsupportedEncoding):
        return
    assert len(seg) > 0 and np.all(np.isfinite(seg.samples))


class TestDecode:
    def test_pcm16_scaling(self):
        seg = decode_wav(make_wav([0, 16384, -32768]))
        assert np.allclose(seg.samples, [0.0, 0.5, -1.0])
        assert seg.sample_rate == SR

    def test_stereo_downmix(self):
        raw = np.array([0.2, 0.4], dtype="<f4")
        seg = decode_wav(make_wav(raw, channels=2, fmt=3, bits=32))
        assert np.allclose(seg.samples, [0.3])

    def test_truncated_header(self):
        with pytest.raises(MalformedWav):
            decode_wav(make_wav([0, 1, 2])[:8])

    def test_not_riff(self):
        with pytest.raises(MalformedWav):
            decode_wav(b"OggS" + b"\x00" * 100)

    def test_unsupported_codec(self):
        with pytest.raises(UnsupportedEncoding):
            decode_wav(make_wav([0, 1], fmt=6))  # a-law

    def test_float32(self):
        seg = decode_wav(make_wav(np.array([0.25, -0.75], dtype="<f4"), fmt=3, bits=32))
        assert np.allclose(seg.samples, [0.25, -0.75])

    @pytest.mark.parametrize("fmt, bits, values", [
        (1, 16, [0, 16384, -32768]),
        (3, 32, np.array([0.25, -0.75], dtype="<f4")),
    ])
    def test_extensible_read_by_subformat(self, fmt, bits, values):
        plain = decode_wav(make_wav(values, fmt=fmt, bits=bits))
        seg = decode_wav(make_extensible_wav(values, fmt=fmt, bits=bits))
        assert np.array_equal(seg.samples, plain.samples)
        assert seg.sample_rate == SR

    def test_extensible_needs_full_fmt_chunk(self):
        data = bytearray(make_wav([0, 1, 2]))
        struct.pack_into("<H", data, 20, 0xFFFE)  # format tag of a 16-byte fmt chunk
        with pytest.raises(UnsupportedEncoding):
            decode_wav(bytes(data))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, bad):
        with pytest.raises(MalformedWav):
            decode_wav(make_wav(np.array([0.1, bad, 0.2], dtype="<f4"), fmt=3, bits=32))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=120))
    @example(make_wav(np.array([0.1, np.nan, 0.2], dtype="<f4"), fmt=3, bits=32)[12:])
    def test_fuzz_arbitrary_chunks(self, tail):
        decodes_finite_or_rejects(b"RIFF" + struct.pack("<I", 4 + len(tail)) + b"WAVE" + tail)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_SEEDS),
           st.lists(st.tuples(st.integers(0, 80), st.integers(0, 255)), min_size=1, max_size=6),
           st.integers(0, 80))
    def test_fuzz_mutated_wavs(self, wav, edits, cut):
        data = bytearray(wav)
        for pos, value in edits:
            data[pos % len(data)] = value
        decodes_finite_or_rejects(bytes(data[: len(data) - cut]))

    def test_pcm16_decodes_into_one_float_array(self):
        # the data chunk is read in place, and one float array is scaled and
        # clipped in place: a 10 s 48 kHz clip peaks below 1.5x the output
        rng = np.random.default_rng(1)
        data = make_wav(rng.integers(-32768, 32768, 480_000), sample_rate=48000)
        tracemalloc.start()
        try:
            seg = decode_wav(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * seg.samples.nbytes
        assert np.array_equal(seg.samples, np.frombuffer(data[44:], "<i2") / 32768.0)

    def test_roundtrip_within_one_lsb(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.99, 0.99, 4096)
        seg = decode_wav(encode_wav(AudioSegment(x, SR)))
        assert np.max(np.abs(seg.samples - x)) <= 1.0 / 32768


class TestResample:
    def test_length_ratio(self):
        seg = AudioSegment(np.zeros(44100), 44100)
        out = resample(seg, 22050)
        assert len(out) == 22050 and out.sample_rate == 22050

    def test_dc_preserved(self):
        seg = AudioSegment(np.full(44100, 0.5), 44100)
        out = resample(seg, 22050)
        interior = out.samples[200:-200]
        assert np.max(np.abs(interior - 0.5)) < 1e-6

    def test_identity_when_equal(self):
        seg = AudioSegment(np.arange(100) / 100.0, SR)
        assert resample(seg, SR) is seg

    def test_tone_survives_downsampling(self):
        t = np.arange(44100) / 44100
        seg = AudioSegment(0.5 * np.sin(2 * np.pi * 440 * t), 44100)
        out = resample(seg, 22050)
        # naive O(n^2) DFT on a slice of the output
        chunk = out.samples[:4410]
        freq = dominant_frequency(chunk, 22050)
        assert abs(freq - 440) <= 22050 / len(chunk)

    def test_round_trip_preserves_tone(self):
        t = np.arange(2 * SR) / SR
        seg = AudioSegment(0.5 * np.sin(2 * np.pi * 1000 * t), SR)
        back = resample(resample(seg, 16000), SR)
        chunk = back.samples[1000:1000 + 4410]
        freq = dominant_frequency(chunk, SR)
        assert abs(freq - 1000) <= SR / len(chunk)


    @pytest.mark.parametrize("source,target", RATE_PAIRS)
    def test_matches_scipy_resample_poly(self, source, target):
        # the same filter, summed in another order: equal to rounding
        ratio = Fraction(target, source)
        up, down = ratio.numerator, ratio.denominator
        m = max(up, down)
        expected_taps = firwin(2 * 10 * m + 1, 1 / m, window=("kaiser", 5.0)) * up
        assert _lowpass_taps(up, down).tobytes() == expected_taps.tobytes()
        rng = np.random.default_rng(source + target)
        for n in (1, 2, 3, 7, 50, 1000, int(1.5 * source)):
            x = rng.uniform(-0.99, 0.99, n)
            out = resample(AudioSegment(x, source), target)
            expected = resample_poly_oracle(x, source, target)
            assert out.sample_rate == target and len(out) == len(expected)
            assert np.max(np.abs(out.samples - expected)) <= 1e-13

    def test_i0_is_scipys_bitwise(self):
        # every Kaiser window argument of every ratio, and a dense grid on [0, 5]
        args = [np.linspace(0.0, 5.0, 200_001)]
        for source, target in RATE_PAIRS:
            ratio = Fraction(target, source)
            half_len = 10 * max(ratio.numerator, ratio.denominator)
            t = np.arange(2 * half_len + 1, dtype=np.float64) - half_len
            args.append(5.0 * np.sqrt(1 - (t / half_len) ** 2.0))
        x = np.concatenate(args)
        assert _i0(x).tobytes() == special.i0(x).tobytes()


class TestTrim:
    def burst_with_padding(self, lead, tail):
        rng = np.random.default_rng(1)
        burst = rng.uniform(-0.8, 0.8, 6000)
        return np.concatenate([np.zeros(lead), burst, np.zeros(tail)]), burst

    def test_trims_to_burst_span(self):
        x, burst = self.burst_with_padding(8192, 8192)
        out = trim_silence(AudioSegment(x, SR))
        # frame-granular: the burst must survive intact, padding mostly gone
        assert len(out) < len(x)
        assert len(out) >= len(burst)
        corr = np.correlate(out.samples, burst, mode="valid")
        assert corr.max() > 0.9 * np.sum(burst**2)

    def test_all_zero_raises(self):
        with pytest.raises(SilentSample):
            trim_silence(AudioSegment(np.zeros(10000), SR))

    def test_no_silent_edges_identity(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.5, 0.5, 10000)
        out = trim_silence(AudioSegment(x, SR))
        assert np.array_equal(out.samples, x)

    def test_idempotent(self):
        x, _ = self.burst_with_padding(5120, 7168)
        once = trim_silence(AudioSegment(x, SR))
        twice = trim_silence(once)
        assert np.array_equal(once.samples, twice.samples)

    @pytest.mark.parametrize("n", [1, 5, 511, 512, 2047, 2048, 2049, 2560, 33_075, 220_500,
                                   441_000])
    def test_frame_rms_bitwise_equal_loop_oracle(self, n):
        x = np.random.default_rng(n).uniform(-0.8, 0.8, n)
        x[: n // 3] *= 1e-4  # a quiet lead, so trimming cuts somewhere
        got = _frame_rms(x)
        assert got.tobytes() == frame_rms_oracle(x, TRIM_FRAME_LENGTH, TRIM_HOP_LENGTH).tobytes()
