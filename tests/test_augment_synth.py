import numpy as np
import pytest

from pitchkit.augment import (AugmentConfig, augment, mix_at_snr, noise_excerpt,
                              noise_gamma)
from pitchkit import dsp
from pitchkit.errors import ArgumentError, RangeError, SkipExample
from pitchkit.synth import SynthSpec, f0_trajectory, random_spec, synth_example


# -- augmentation -----------------------------------------------------------

def test_gamma_closed_form():
    assert noise_gamma(1.0, 1.0, 10.0) == pytest.approx(10.0 ** -0.5, abs=1e-12)


def test_silent_segment_skipped():
    cfg = AugmentConfig()
    with pytest.raises(SkipExample):
        augment(np.zeros(8000), cfg, np.random.default_rng(0))


def test_output_in_range():
    rng = np.random.default_rng(1)
    cfg = AugmentConfig(snr_db_range=(0.0, 5.0))
    for _ in range(20):
        x = rng.uniform(-1, 1, 8000)
        out = augment(x, cfg, rng)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_high_snr_zero_gain_identity_limit():
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.5, 0.5, 8000)
    cfg = AugmentConfig(gain_db_range=(0.0, 0.0), snr_db_range=(200.0, 200.0))
    out = augment(x, cfg, rng)
    np.testing.assert_allclose(out, x, atol=1e-8)


def test_measured_snr_matches_target():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, 8000)
    cfg = AugmentConfig(gain_db_range=(0.0, 0.0), snr_db_range=(15.0, 15.0))
    out_clean = x
    mixed = augment(x, cfg, rng)
    added = mixed - out_clean
    # clamp may bite at extreme samples; measure before it does
    assert np.abs(mixed).max() <= 1.0
    snr = 10.0 * np.log10(np.mean(x ** 2) / np.mean(added ** 2))
    assert snr == pytest.approx(15.0, abs=0.1)


def test_environmental_mixing_uses_sources():
    rng = np.random.default_rng(4)
    x = np.full(8000, 0.1)
    tone = np.sin(2 * np.pi * 1234.0 * np.arange(16000) / 16000)
    cfg = AugmentConfig(gain_db_range=(0.0, 0.0), snr_db_range=(10.0, 10.0),
                        noise_signals=[tone])
    outs = [augment(x, cfg, rng) for _ in range(10)]
    assert any(np.std(o) > 0.01 for o in outs)


def test_noise_excerpt_cuts_n_samples():
    long_src = np.arange(1000.0)
    for seed in range(20):
        out = noise_excerpt([long_src], 300, np.random.default_rng(seed))
        assert len(out) == 300
        # a contiguous run of the source from a start in [0, len - n]
        assert 0 <= out[0] <= 700
        np.testing.assert_array_equal(out, np.arange(out[0], out[0] + 300))
    short_src = np.arange(7.0)
    out = noise_excerpt([short_src], 50, np.random.default_rng(0))
    assert len(out) == 50
    # tiled, then cut from a start in [0, 56 - 50]
    start = int(out[0])
    assert 0 <= start <= 6
    np.testing.assert_array_equal(out, np.tile(short_src, 8)[start:start + 50])
    a, b = [noise_excerpt([long_src, short_src], 40, np.random.default_rng(9))
            for _ in range(2)]
    np.testing.assert_array_equal(a, b)


def test_gaussian_fallback_without_sources():
    rng = np.random.default_rng(5)
    x = np.full(8000, 0.1)
    cfg = AugmentConfig(gain_db_range=(0.0, 0.0), snr_db_range=(10.0, 10.0))
    out = augment(x, cfg, rng)
    assert np.std(out - x) > 0.0


@pytest.mark.parametrize("kwargs", [{"gain_db_range": (np.nan, 6.0)},
                                    {"snr_db_range": (10.0, np.inf)},
                                    {"noise_signals": [np.zeros(0)]},
                                    # 10 ** (snr / 10) overflows or is 0
                                    {"snr_db_range": (10.0, 4000.0)},
                                    {"snr_db_range": (-4000.0, 10.0)},
                                    {"snr_db_range": (0.0, 1e308)}])
def test_unusable_augment_config_rejected(kwargs):
    with pytest.raises(ArgumentError):
        AugmentConfig(**kwargs)


@pytest.mark.parametrize("snr_db", [-3000.0, -20.0, 0.0, 7.3, 10.0, 30.0,
                                    200.0, 3000.0])
def test_noise_gamma_arithmetic_unchanged(snr_db):
    # training draws and criterion 10's hashes rest on these bits
    p_sig, p_noise = 0.0123, 0.987
    assert noise_gamma(p_sig, p_noise, snr_db) == float(
        np.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0))))


def test_mix_at_snr_zero_noise_passthrough():
    x = np.ones(100) * 0.3
    out = mix_at_snr(x, np.zeros(100), 10.0)
    np.testing.assert_array_equal(out, x)


# -- synthesis --------------------------------------------------------------

def test_constant_tone_spectral_peak():
    spec = SynthSpec(kind="constant", f0_hz=220.0, n_harmonics=1)
    buf, truth = synth_example(spec)
    spec = dsp.batch_spectrogram(buf.samples)
    # 220 / 15.625 = 14.08: FFT bin 14, band column 14 - K_MIN
    assert int(spec[5].argmax()) == 14 - dsp.K_MIN
    assert np.all(truth.f0_hz == 220.0)


def test_glide_monotone_truth():
    spec = SynthSpec(kind="glide", f0_hz=200.0, f1_hz=400.0, duration_s=1.0)
    _, truth = synth_example(spec)
    assert np.all(np.diff(truth.f0_hz) > 0)


def test_vibrato_extremes():
    spec = SynthSpec(kind="vibrato", f0_hz=300.0, vibrato_rate_hz=5.0,
                     vibrato_depth_cents=50.0, duration_s=2.0)
    t = np.arange(32000) / 16000
    f0 = f0_trajectory(spec, t)
    lo, hi = 300.0 * 2.0 ** (-50 / 1200), 300.0 * 2.0 ** (50 / 1200)
    assert f0.min() == pytest.approx(lo, abs=0.05)
    assert f0.max() == pytest.approx(hi, abs=0.05)
    assert lo == pytest.approx(291.5, abs=0.1)
    assert hi == pytest.approx(308.8, abs=0.1)


def test_out_of_range_trajectory_rejected():
    with pytest.raises(RangeError):
        synth_example(SynthSpec(kind="constant", f0_hz=30.0))


def test_clip_shorter_than_one_window_rejected():
    # 1023 samples would give a truth contour of no frames; 1024 give one
    with pytest.raises(RangeError, match="shorter than one"):
        synth_example(SynthSpec(duration_s=1023 / 16000))
    _, truth = synth_example(SynthSpec(duration_s=1024 / 16000))
    assert len(truth) == 1


def test_truth_frames_match_the_front_end():
    # rendered at 16 kHz: one truth frame per STFT frame, all inside the clip
    spec = SynthSpec(kind="glide", f0_hz=150.0, f1_hz=600.0, duration_s=2.0)
    buf, truth = synth_example(spec)
    assert buf.sample_rate_hz == 16000
    assert len(truth) == (len(buf.samples) - 1024) // 256 + 1
    assert len(truth) == len(dsp.spectrogram(buf))
    assert truth.hop_seconds == 0.016
    assert truth.times[-1] < spec.duration_s
    with pytest.raises(TypeError):
        SynthSpec(sample_rate_hz=44100)


def test_peak_normalization():
    buf, _ = synth_example(SynthSpec(n_harmonics=7))
    assert np.abs(buf.samples).max() == pytest.approx(0.9, abs=1e-9)


def test_zero_crossing_oracle_agrees():
    # fundamental-only constant tone: period from mean zero-crossing spacing
    f0 = 330.0
    buf, _ = synth_example(SynthSpec(kind="constant", f0_hz=f0,
                                     n_harmonics=1, duration_s=2.0,
                                     phase0=0.0))
    x = buf.samples
    rising = np.flatnonzero((x[:-1] < 0) & (x[1:] >= 0))
    # sub-sample interpolation of each crossing time
    t_cross = rising + (-x[rising]) / (x[rising + 1] - x[rising])
    period = np.mean(np.diff(t_cross)) / buf.sample_rate_hz
    est = 1.0 / period
    cents = abs(1200.0 * np.log2(est / f0))
    assert cents < 0.5


def test_random_spec_within_range():
    rng = np.random.default_rng(6)
    for _ in range(50):
        spec = random_spec(rng)
        _, truth = synth_example(spec)
        assert np.all(truth.f0_hz >= 46.875)
        assert np.all(truth.f0_hz <= 2093.75)
