from fractions import Fraction

import numpy as np
import pytest

from respscreen.audio_io import AudioSegment
from respscreen.augment import (
    AMP_RANGE,
    NOISE_SNR_DB_RANGE,
    RATE_GRID,
    RATE_RANGE,
    add_white_noise,
    amplify,
    augment_six,
    derive_seed,
    pitch_speed,
    snap_rate,
)
from respscreen.errors import SilentSample

from .conftest import sine
from .oracles import dominant_frequency

SR = 22050


class TestAmplify:
    def test_scaling(self):
        out = amplify(AudioSegment([0.1, -0.2], SR), 2.0)
        assert np.allclose(out.samples, [0.2, -0.4])

    def test_clipping(self):
        out = amplify(AudioSegment([0.9], SR), 2.0)
        assert np.allclose(out.samples, [1.0])

    def test_zero_signal(self):
        out = amplify(AudioSegment(np.zeros(10), SR), 1.15)
        assert np.all(out.samples == 0)


class TestWhiteNoise:
    def test_noise_power_at_20db(self):
        rng = np.random.default_rng(15)
        t = np.arange(100_000) / SR
        x = np.sqrt(2) * 0.5 * np.sin(2 * np.pi * 440 * t)  # ~0.25 power
        seg = AudioSegment(x, SR)
        noisy = add_white_noise(seg, 20.0, np.random.default_rng(1))
        added = noisy.samples - np.clip(seg.samples, -1, 1)
        signal_power = np.mean(seg.samples**2)
        noise_power = np.mean(added**2)
        assert noise_power == pytest.approx(signal_power / 100, rel=0.12)

    def test_40db_barely_changes_unit_sine(self):
        seg = sine(500, seconds=2.0, amplitude=0.9)
        noisy = add_white_noise(seg, 40.0, np.random.default_rng(2))
        assert np.max(np.abs(noisy.samples - seg.samples)) < 0.05

    def test_silent_raises(self):
        with pytest.raises(SilentSample):
            add_white_noise(AudioSegment(np.zeros(100), SR), 20.0, np.random.default_rng(0))


class TestPitchSpeed:
    def test_duration_stretch(self):
        seg = AudioSegment(np.ones(SR), SR)
        out = pitch_speed(seg, 0.8)
        assert out.duration == pytest.approx(1.25, abs=2048 / SR)
        assert out.sample_rate == SR

    def test_pitch_shift(self):
        seg = sine(1000, seconds=1.0)
        out = pitch_speed(seg, 0.9)
        chunk = out.samples[2000:2000 + 8820]
        assert dominant_frequency(chunk, SR) == pytest.approx(900, abs=10)

    def test_rate_near_one(self):
        seg = AudioSegment(np.ones(SR), SR)
        out = pitch_speed(seg, 0.99)
        assert out.duration / seg.duration == pytest.approx(1 / 0.99, rel=0.002)


class TestAugmentSix:
    def test_exactly_six_outputs(self):
        outs = augment_six(sine(700), "s1", 3)
        assert len(outs) == 6
        assert sorted(o.method for o in outs) == sorted(
            ["amplify", "amplify", "noise", "noise", "pitch_speed", "pitch_speed"]
        )

    def test_deterministic_given_seed(self):
        a = augment_six(sine(700), "s1", 3)
        b = augment_six(sine(700), "s1", 3)
        for va, vb in zip(a, b):
            assert va.parameter == vb.parameter
            assert np.array_equal(va.segment.samples, vb.segment.samples)

    def test_distinct_seeds_differ(self):
        a = augment_six(sine(700), "s1", 3)
        b = augment_six(sine(700), "s1", 4)
        noise_a = next(o for o in a if o.method == "noise")
        noise_b = next(o for o in b if o.method == "noise")
        assert np.max(np.abs(noise_a.segment.samples - noise_b.segment.samples)) > 0

    def test_parameters_in_ranges(self):
        for o in augment_six(sine(700), "sX", 5):
            if o.method == "amplify":
                assert AMP_RANGE[0] <= o.parameter <= AMP_RANGE[1]
            elif o.method == "pitch_speed":
                assert RATE_RANGE[0] <= o.parameter <= RATE_RANGE[1]
            else:
                assert NOISE_SNR_DB_RANGE[0] <= o.parameter <= NOISE_SNR_DB_RANGE[1]

    def test_outputs_bounded_and_finite(self):
        for o in augment_six(sine(400, amplitude=0.95), "sY", 6):
            assert np.all(np.isfinite(o.segment.samples))
            assert np.max(np.abs(o.segment.samples)) <= 1.0


class TestSnapRate:
    def test_grid_values_inside_the_range(self):
        lo, hi = RATE_RANGE
        for rate in (lo, hi, lo + 1e-9, hi - 1e-9, lo + 3e-4, hi - 3e-4, 0.9):
            snapped = snap_rate(rate)
            assert lo <= snapped <= hi
            assert 490 / snapped == round(490 / snapped)
        assert snap_rate(lo) == 490 / 612
        assert snap_rate(hi) == 490 / 495

    def test_nearest_grid_rate(self):
        assert RATE_GRID == 490
        assert snap_rate(490 / 550.4) == 490 / 550
        assert snap_rate(490 / 550.6) == 490 / 551

    def test_augment_six_applies_grid_rates(self):
        seg = sine(700, seconds=0.5)
        rates = [o.parameter for seed in range(8) for o in augment_six(seg, "sZ", seed)
                 if o.method == "pitch_speed"]
        assert len(set(rates)) > 1
        for rate in rates:
            k = 490 / rate
            assert k == round(k) and 495 <= k <= 612
            assert 490 % Fraction(round(SR / rate), SR).denominator == 0


def test_derived_seed_is_stable():
    assert derive_seed(1, "a", "noise", 0) == derive_seed(1, "a", "noise", 0)
    assert derive_seed(1, "a", "noise", 0) != derive_seed(1, "a", "noise", 1)
    assert derive_seed(1, "a", "noise", 0) != derive_seed(2, "a", "noise", 0)
