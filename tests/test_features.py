import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import get_window

from respscreen import dsp, synth
from respscreen.audio_io import AudioSegment
from respscreen.dsp import frame_signal
from respscreen.errors import EmptySeries, TooShort
from respscreen.features import (
    FEATURE_NAMES,
    N_FEATURES,
    STAT_NAMES,
    analyze,
    delta,
    envelope_period,
    extract_handcrafted,
    frame_features,
    mfcc_features,
    onset_count,
    onset_envelope,
    summarize,
    tempo,
)

from .conftest import click_train, run_python, sine
from .oracles import (
    centroid_oracle,
    onset_count_oracle,
    rolloff_oracle,
    stats_oracle,
    summarize_oracle,
    zcr_oracle,
)

SR = 22050


def onsets_of(seg):
    a = analyze(seg)
    return onset_count(onset_envelope(a), a.frame_rate)


def tempo_of(seg):
    a = analyze(seg)
    return tempo(onset_envelope(a), a.frame_rate)


def period_of(seg):
    a = analyze(seg)
    return envelope_period(frame_features(a)[0], a.frame_rate)


def stats(series) -> dict[str, float]:
    """`summarize(series)` by statistic name."""
    return dict(zip(STAT_NAMES, summarize(series), strict=True))


class TestSummarize:
    def test_constant_series(self):
        s = stats([3.0] * 7)
        assert s["mean"] == s["median"] == s["min"] == s["max"] == s["q1"] == s["q3"] == 3.0
        assert s["std"] == s["iqr"] == 0.0
        assert s["rms"] == 3.0
        assert s["skew"] == s["kurt"] == 0.0

    def test_worked_example(self):
        s = stats([1, 2, 3, 4])
        assert s["mean"] == pytest.approx(2.5)
        assert s["median"] == pytest.approx(2.5)
        assert s["q1"] == pytest.approx(1.75)
        assert s["q3"] == pytest.approx(3.25)
        assert s["iqr"] == pytest.approx(1.5)
        assert s["std"] == pytest.approx(1.1180, abs=1e-4)
        assert s["rms"] == pytest.approx(2.7386, abs=1e-4)
        assert s["skew"] == pytest.approx(0.0, abs=1e-12)
        assert s["kurt"] == pytest.approx(-1.36, abs=1e-4)

    def test_empty_series(self):
        with pytest.raises(EmptySeries):
            summarize([])

    def test_matches_oracle_on_random_series(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            x = rng.normal(scale=rng.uniform(0.1, 100), size=n)
            got = stats(x)
            want = stats_oracle(x)
            for name, expected in want.items():
                value = got[name]
                assert value == pytest.approx(expected, rel=1e-9, abs=1e-12), name

    def test_matrix_rows_bitwise_equal_oracle(self):
        rng = np.random.default_rng(8)
        stacks = [np.full((3, 5), 2.5), rng.normal(size=(7, 1)), rng.normal(size=(1, 9))]
        for _ in range(60):
            rows, n = int(rng.choice([2, 43])), int(rng.integers(1, 400))
            X = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-4, 4, size=(rows, 1))
            X[0] = X[0, 0]  # constant row
            X[1] *= 1e-160  # squared variance underflows to 0
            stacks.append(X)
        for X in stacks:
            got = summarize(X)
            assert got.shape == (len(X), len(STAT_NAMES))
            for row, stats_row in zip(X, got, strict=True):
                assert stats_row.tobytes() == summarize_oracle(row).tobytes()
                assert summarize(row).tobytes() == stats_row.tobytes()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @example([0.0, 3.804734908287693e-154])  # variance squared underflows to 0
    @settings(max_examples=50, deadline=None)
    def test_order_statistics_invariants(self, xs):
        s = stats(xs)
        assert s["min"] <= s["q1"] + 1e-9
        assert s["q1"] <= s["median"] + 1e-9
        assert s["median"] <= s["q3"] + 1e-9
        assert s["q3"] <= s["max"] + 1e-9
        assert s["iqr"] == pytest.approx(s["q3"] - s["q1"])
        assert s["std"] >= 0


class TestDuration:
    def test_one_second(self):
        assert AudioSegment(np.ones(22050), SR).duration == 1.0

    def test_half_second(self):
        assert AudioSegment(np.ones(11025), SR).duration == 0.5

    def test_single_sample(self):
        assert AudioSegment(np.ones(1), SR).duration == pytest.approx(1 / 22050)


def onset_envelopes(rng, n_rounds):
    """Empty, all-zero and short envelopes, then `n_rounds` each of random,
    tied, plateau and sparse ones."""
    yield np.empty(0)
    yield np.zeros(50)
    for n in (1, 2, 3, 7, 8):
        yield rng.random(n)
    for _ in range(n_rounds):
        n = int(rng.integers(1, 160))
        env = rng.random(n) ** 3
        yield env
        yield np.round(env * 4) / 4
        yield np.repeat(rng.random(n // 4 + 1), 4)[:n]
        sparse = np.zeros(n)
        sparse[rng.integers(0, n, size=n // 10 + 1)] = rng.random(n // 10 + 1)
        yield sparse


class TestOnsets:
    def test_matches_frame_loop_oracle(self):
        rng = np.random.default_rng(31)
        for env in onset_envelopes(rng, 200):
            for frame_rate in (10.0, SR / 512, 100.0):
                assert onset_count(env, frame_rate) == onset_count_oracle(env, frame_rate), env

    def test_silence_has_none(self):
        assert onsets_of(AudioSegment(np.full(3 * SR, 0.3), SR)) == 0

    def test_single_burst(self):
        rng = np.random.default_rng(8)
        x = np.zeros(2 * SR)
        x[SR : SR + 2000] = rng.uniform(-0.8, 0.8, 2000)
        seg = AudioSegment(x, SR)
        assert onsets_of(seg) == 1
        # manual envelope check: exactly one region of positive strength
        env = onset_envelope(analyze(seg))
        assert env.max() > 0
        strong = env > 0.3 * env.max()
        assert np.ptp(np.flatnonzero(strong)) < 10

    def test_three_separated_bursts(self):
        rng = np.random.default_rng(9)
        x = np.zeros(4 * SR)
        for k in range(3):
            start = int((0.5 + 1.2 * k) * SR)
            x[start : start + 2000] = rng.uniform(-0.8, 0.8, 2000)
        assert onsets_of(AudioSegment(x, SR)) == 3


class TestTempo:
    def test_two_clicks_per_second(self):
        assert tempo_of(click_train(2.0)) == pytest.approx(120, abs=6)

    def test_one_and_a_half_clicks_per_second(self):
        assert tempo_of(click_train(1.5)) == pytest.approx(90, abs=6)

    def test_silence_is_zero(self):
        assert tempo_of(AudioSegment(np.zeros(2 * SR), SR)) == 0.0

    def test_matches_autocorrelation_argmax_oracle(self):
        seg = click_train(2.0)
        env = onset_envelope(analyze(seg))
        env = env - env.mean()
        ac = np.correlate(env, env, "full")[len(env) - 1 :]
        frame_rate = SR / 512
        # the click period is 0.5 s by construction; the autocorrelation
        # argmax within +-20% of that lag is the oracle's tempo estimate
        lo = int(0.4 * frame_rate)
        hi = int(0.6 * frame_rate)
        best = lo + int(np.argmax(ac[lo : hi + 1]))
        assert tempo_of(seg) == pytest.approx(60 * frame_rate / best, abs=6)


class TestEnvelopePeriod:
    def test_amplitude_modulated_noise(self):
        rng = np.random.default_rng(10)
        t = np.arange(5 * SR) / SR
        x = (0.5 + 0.45 * np.sin(2 * np.pi * 3 * t)) * 0.3 * rng.standard_normal(len(t))
        assert period_of(AudioSegment(x, SR)) == pytest.approx(3.0, abs=0.3)

    def test_constant_tone_envelope_is_flat(self):
        seg = sine(1000, seconds=3.0)
        env = frame_features(analyze(seg))[0]
        spectrum = np.abs(np.fft.rfft(env))
        interior = spectrum[4:]
        assert interior.max() < 1e-3 * spectrum[0]

    def test_short_segment_contract(self):
        seg = sine(500, seconds=1.5)
        value = period_of(seg)
        assert np.isfinite(value) and value >= 0

    def test_too_few_frames_returns_zero(self):
        assert period_of(AudioSegment(np.ones(1024), SR)) == 0.0


class TestFrameFeatures:
    def test_centroid_of_sine(self):
        seg = sine(1000)
        _, centroid, _, _ = frame_features(analyze(seg))
        assert np.median(centroid) == pytest.approx(1000, abs=20)
        # independent check on one interior frame
        window = get_window("hann", 2048, fftbins=True)
        frame = frame_signal(seg.samples)[:, 10]
        assert centroid_oracle(frame, window, SR) == pytest.approx(np.median(centroid), rel=0.02)

    def test_zcr_of_sine(self):
        seg = sine(1000)
        _, _, _, zcr = frame_features(analyze(seg))
        assert np.median(zcr) == pytest.approx(2 * 1000 / SR, rel=0.02)
        frame = frame_signal(seg.samples)[:, 10]
        assert zcr_oracle(frame) == pytest.approx(np.median(zcr), rel=0.02)

    def test_rolloff_of_sine(self):
        seg = sine(1000)
        _, _, rolloff, _ = frame_features(analyze(seg))
        bin_width = SR / 2048
        assert abs(np.median(rolloff) - 1000) <= bin_width
        window = get_window("hann", 2048, fftbins=True)
        frame = frame_signal(seg.samples)[:, 10]
        assert abs(rolloff_oracle(frame, window, SR) - np.median(rolloff)) <= bin_width

    def test_rms_scales_linearly(self):
        seg = sine(700)
        half = AudioSegment(seg.samples * 0.5, SR)
        rms_full, *_ = frame_features(analyze(seg))
        rms_half, *_ = frame_features(analyze(half))
        assert np.allclose(rms_half, 0.5 * rms_full, rtol=1e-6)


class TestMfcc:
    def test_shapes(self):
        m, d1, d2 = mfcc_features(analyze(sine(800)))
        assert m.shape[0] == d1.shape[0] == d2.shape[0] == 13
        assert m.shape[1] == d1.shape[1] == d2.shape[1]

    def test_deltas_of_constant_are_zero(self):
        const = np.tile(np.arange(13.0)[:, None], (1, 40))
        assert np.max(np.abs(delta(const))) < 1e-9

    def test_delta_of_linear_is_slope(self):
        slope = 0.37
        lin = slope * np.arange(40.0)[None, :] * np.ones((13, 1))
        d1 = delta(lin)
        interior = d1[:, 4:-4]
        assert np.allclose(interior, slope, atol=1e-9)
        d2 = delta(d1)
        assert np.max(np.abs(d2[:, 8:-8])) < 1e-9

    def test_too_short(self):
        with pytest.raises(TooShort):
            mfcc_features(analyze(AudioSegment(np.ones(600), SR)))


class TestExtract:
    def test_length_and_names(self):
        assert N_FEATURES == 477
        assert len(set(FEATURE_NAMES)) == 477

    def test_deterministic(self):
        seg = sine(900)
        a = extract_handcrafted(seg)
        b = extract_handcrafted(seg)
        assert np.array_equal(a, b)

    def test_chirp_all_finite(self):
        t = np.arange(2 * SR) / SR
        x = 0.5 * np.sin(2 * np.pi * (300 + 400 * t) * t)
        v = extract_handcrafted(AudioSegment(x, SR))
        assert len(v) == 477
        assert np.all(np.isfinite(v))

    def test_amplitude_scale_invariances(self):
        rng = np.random.default_rng(11)
        t = np.arange(2 * SR) / SR
        x = 0.8 * np.sin(2 * np.pi * 600 * t) * (0.5 + 0.5 * np.sin(2 * np.pi * 2 * t))
        x += 0.01 * rng.standard_normal(len(x))
        full = dict(zip(FEATURE_NAMES, extract_handcrafted(AudioSegment(x, SR))))
        scaled = dict(zip(FEATURE_NAMES, extract_handcrafted(AudioSegment(0.5 * x, SR))))
        for fam in ("centroid", "rolloff", "zcr"):
            assert scaled[f"{fam}_mean"] == pytest.approx(full[f"{fam}_mean"], rel=1e-6)
        assert scaled["onsets"] == full["onsets"]
        assert scaled["rms_mean"] == pytest.approx(0.5 * full["rms_mean"], rel=1e-6)

    def test_bitwise_equal_per_row_summaries(self):
        rng = np.random.default_rng(9)
        for i in range(20):
            seg = synth.burst_clip(rng, freq=300.0 + 70.0 * i, seconds=0.5 + 0.1 * i)
            a = analyze(seg)
            env = onset_envelope(a)
            series = frame_features(a)
            head = [seg.duration, float(onset_count(env, a.frame_rate)), tempo(env, a.frame_rate),
                    envelope_period(series[0], a.frame_rate)]
            rows = [*series, *(row for m in mfcc_features(a) for row in m)]
            expected = np.concatenate([head, *(summarize_oracle(r) for r in rows)])
            assert extract_handcrafted(seg).tobytes() == expected.tobytes()

    def test_one_spectral_analysis_per_recording(self, monkeypatch):
        # one framing feeds the STFT and the zero-crossing rate alike
        calls = {"frame_signal": 0, "stft": 0, "mel_filterbank": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(dsp, name, counting(name, getattr(dsp, name)))
        extract_handcrafted(sine(900))
        assert calls == {"frame_signal": 1, "stft": 1, "mel_filterbank": 1}

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a large product across threads and rounds it
        # differently with each count; full-precision vectors must not show it
        code = """
            import numpy as np
            from respscreen import synth
            from respscreen.features import extract_handcrafted
            rng = np.random.default_rng(23)
            for i, seconds in enumerate((1.0, 1.5, 10.0) * 4):
                seg = synth.burst_clip(rng, freq=300.0 + 70.0 * i, seconds=seconds)
                print(extract_handcrafted(seg).tobytes().hex())
        """
        one = run_python(code, OPENBLAS_NUM_THREADS="1").split()
        two = run_python(code, OPENBLAS_NUM_THREADS="2").split()
        assert len(one) == len(two) == 12
        assert [i for i, (a, b) in enumerate(zip(one, two)) if a != b] == []

    def test_resampled_bytes_do_not_depend_on_the_blas_thread_count(self):
        # resample hands each polyphase product at 48 kHz to BLAS; the
        # resampled samples and their vectors must not show the thread count
        code = """
            import hashlib
            import numpy as np
            from respscreen import synth
            from respscreen.audio_io import decode_wav, encode_wav, resample
            from respscreen.features import extract_handcrafted
            rng = np.random.default_rng(29)
            for i, (sr, seconds) in enumerate([(44100, 1.5), (48000, 1.5), (44100, 10.0), (48000, 10.0)]):
                wav = encode_wav(synth.burst_clip(rng, freq=300.0 + 70.0 * i, seconds=seconds, sr=sr))
                seg = resample(decode_wav(wav), 22050)
                print(hashlib.sha256(seg.samples.tobytes()).hexdigest(),
                      extract_handcrafted(seg).tobytes().hex())
        """
        one = run_python(code, OPENBLAS_NUM_THREADS="1").split()
        two = run_python(code, OPENBLAS_NUM_THREADS="2").split()
        assert len(one) == len(two) == 8
        assert [i for i, (a, b) in enumerate(zip(one, two)) if a != b] == []
