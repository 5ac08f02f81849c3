import numpy as np
import pytest
from scipy.signal import get_window

from respscreen.dsp import (
    FRAME_LENGTH,
    HANN_WINDOW,
    HOP_LENGTH,
    _pad_centered,
    bin_frequencies,
    dct_ii,
    frame_signal,
    mel_filterbank,
    stft,
)

from .oracles import naive_dct_ii, naive_dft_magnitudes, reflect_pad_oracle

SR = 22050


class TestStft:
    def test_window_is_scipys_periodic_hann_and_read_only(self):
        expected = get_window("hann", FRAME_LENGTH, fftbins=True)
        assert HANN_WINDOW.dtype == expected.dtype
        assert HANN_WINDOW.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            HANN_WINDOW[0] = 1.0

    def test_constant_signal_is_dc(self):
        energy = stft(frame_signal(np.full(4 * 2048, 0.5)))**2
        cols = energy[:, 2:-2]  # interior frames, unaffected by padding
        assert np.all(np.argmax(cols, axis=0) == 0)
        # the Hann window leaks exactly into bin 1; together with DC that
        # accounts for everything
        assert np.all(cols[:2].sum(axis=0) / cols.sum(axis=0) >= 0.99)

    def test_bin_center_sine_argmax(self):
        k = 100  # exact bin center: k * sr / frame_length
        freq = k * SR / 2048
        t = np.arange(8192) / SR
        frames = frame_signal(0.5 * np.sin(2 * np.pi * freq * t))
        mags = stft(frames)
        mid = mags.shape[1] // 2
        assert int(np.argmax(mags[:, mid])) == k
        # cross-check the same frame against the naive O(n^2) DFT
        window = get_window("hann", 2048, fftbins=True)
        oracle = naive_dft_magnitudes(frames[:, mid] * window)
        assert int(np.argmax(oracle)) == k
        assert np.allclose(mags[:, mid], oracle, atol=1e-8)

    def test_zero_signal(self):
        assert np.all(stft(frame_signal(np.zeros(4096))) == 0)

    def test_shapes_and_bins(self):
        assert stft(frame_signal(np.ones(5000))).shape[0] == 1025
        freqs = bin_frequencies(SR)
        assert freqs.shape == (1025,)
        assert freqs[0] == 0
        assert freqs[-1] == pytest.approx(SR / 2)

    def test_parseval_per_column(self):
        rng = np.random.default_rng(3)
        frames = frame_signal(rng.uniform(-0.5, 0.5, 8192))
        spectrum = stft(frames)
        window = get_window("hann", 2048, fftbins=True)
        for t in (3, 7):
            windowed = frames[:, t] * window
            time_energy = np.sum(windowed**2)
            mags = spectrum[:, t]
            spec_energy = (mags[0] ** 2 + 2 * np.sum(mags[1:-1] ** 2) + mags[-1] ** 2) / 2048
            assert spec_energy == pytest.approx(time_energy, rel=1e-6)


class TestMelFilterbank:
    def test_shape(self):
        fb = mel_filterbank(SR)
        assert fb.shape == (128, 1025)

    def test_rows_positive(self):
        fb = mel_filterbank(SR)
        assert np.all(fb >= 0)
        assert np.all(fb.sum(axis=1) > 0)

    def test_adjacent_overlap(self):
        fb = mel_filterbank(SR)
        for m in range(127):
            shared = (fb[m] > 0) & (fb[m + 1] > 0)
            assert shared.any()

    def test_deterministic(self):
        a = mel_filterbank(16000)
        mel_filterbank.cache_clear()
        b = mel_filterbank(16000)
        assert a is not b and np.array_equal(a, b)

    def test_built_once_and_read_only(self):
        fb = mel_filterbank(16000)
        assert mel_filterbank(16000) is fb
        assert mel_filterbank(44100) is not fb
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0


class TestPadCentered:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 700, 1025, 5001])
    def test_matches_mirror_index_oracle(self, n):
        x = np.random.default_rng(n).normal(size=n)
        expected = reflect_pad_oracle(x, FRAME_LENGTH // 2)
        assert np.array_equal(_pad_centered(x), expected)


class TestFrameSignal:
    @pytest.mark.parametrize("n", [1, 700, 2048, 5001])
    def test_matches_explicit_frames(self, n):
        x = np.random.default_rng(n).normal(size=n)
        padded = _pad_centered(x)
        n_frames = 1 + n // HOP_LENGTH  # centered frames, even frame length
        expected = np.stack([padded[t * HOP_LENGTH:][:FRAME_LENGTH]
                             for t in range(n_frames)], axis=1)
        assert np.array_equal(frame_signal(x), expected)


class TestDct:
    def test_constant_column(self):
        c = 0.7
        col = np.full((128, 1), c)
        out = dct_ii(col, 128)
        assert out[0, 0] == pytest.approx(c * np.sqrt(128))
        assert np.all(np.abs(out[1:, 0]) < 1e-9)

    def test_single_cosine_basis(self):
        n = 128
        k = 5
        i = np.arange(n)
        basis = np.cos(np.pi * k * (2 * i + 1) / (2 * n)) * np.sqrt(2.0 / n)
        out = dct_ii(basis[:, None], n)[:, 0]
        assert out[k] == pytest.approx(1.0)
        mask = np.ones(n, dtype=bool)
        mask[k] = False
        assert np.all(np.abs(out[mask]) < 1e-9)

    def test_energy_preserved_and_matches_oracle(self):
        rng = np.random.default_rng(4)
        col = rng.normal(size=128)
        out = dct_ii(col[:, None], 128)[:, 0]
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(col), abs=1e-9)
        assert np.allclose(out, naive_dct_ii(col), atol=1e-9)

    def test_invertible_round_trip(self):
        import scipy.fft

        rng = np.random.default_rng(5)
        col = rng.normal(size=(128, 3))
        back = scipy.fft.idct(dct_ii(col, 128), type=2, axis=0, norm="ortho")
        assert np.max(np.abs(back - col)) < 1e-9

    def test_n_out_truncation(self):
        col = np.random.default_rng(6).normal(size=(128, 2))
        assert dct_ii(col, 13).shape == (13, 2)

    @pytest.mark.parametrize("n_out", [13, 128])
    def test_agrees_with_scipy_dct(self, n_out):
        # the basis product is not scipy's FFT: equal within 1e-14 of each
        # column's 2-norm (observed: 5 eps), on log-mel-like columns and on
        # noise, for every column count a clip of up to 10 s has
        import scipy.fft

        rng = np.random.default_rng(n_out)
        logmel = np.log(rng.gamma(0.5, 1e-3, size=(128, 431)) + 1e-10)
        noise = rng.normal(size=(128, 431)) * 1e3
        for x in (logmel, noise):
            for n_cols in range(1, 432):
                cols = x[:, :n_cols]
                out = dct_ii(cols, n_out)
                expected = scipy.fft.dct(cols, type=2, axis=0, norm="ortho")[:n_out]
                assert out.shape == expected.shape
                assert np.all(np.abs(out - expected) <= 1e-14 * np.linalg.norm(cols, axis=0))

