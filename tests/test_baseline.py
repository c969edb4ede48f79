import numpy as np
import pytest

from pitchkit import model as net
from pitchkit.audio_io import CANONICAL_SR, HOP, AudioBuffer, resample_linear
from pitchkit.baseline import BLOCK, acf_contour
from pitchkit.dsp import WINDOW
from pitchkit.errors import InputTooShort
from pitchkit.grid import F_MAX_HZ, F_MIN_HZ, cents_error
from pitchkit.synth import SynthSpec, random_spec, synth_example


def loop_acf(buf):
    """The per-frame reference: a direct O(N^2) autocorrelation of each
    mean-removed frame, its peak over the pitch lags and the parabola."""
    x = resample_linear(buf).samples
    n, h, sr = WINDOW, HOP, CANONICAL_SR
    lag_min = max(int(np.floor(sr / F_MAX_HZ)), 2)
    lag_max = min(int(np.ceil(sr / F_MIN_HZ)), n - 2)
    t = (len(x) - n) // h + 1
    f0 = np.full(t, np.nan)
    conf = np.zeros(t)
    for m in range(t):
        frame = x[m * h:m * h + n]
        frame = frame - frame.mean()
        energy = float(np.dot(frame, frame))
        if energy == 0.0:
            continue
        ac = np.correlate(frame, frame, mode="full")[n - 1:] / energy
        window = ac[lag_min:lag_max + 1]
        rel = int(np.argmax(window))
        lag = lag_min + rel
        peak = float(window[rel])
        a, b, c = ac[lag - 1], ac[lag], ac[lag + 1]
        denom = a - 2 * b + c
        if denom != 0:
            lag = lag + 0.5 * (a - c) / denom
        f0[m] = sr / lag
        conf[m] = max(min(peak, 1.0), 0.0)
    return f0, conf, conf >= 0.5


def samples_for_frames(t):
    return (t - 1) * HOP + WINDOW


def tone(n, f0=220.0, sr=CANONICAL_SR, seed=0):
    """A harmonic tone in a little white noise."""
    rng = np.random.default_rng(seed)
    k = np.arange(n) / sr
    x = sum(np.sin(2 * np.pi * h * f0 * k) / h for h in range(1, 6))
    return 0.3 * x + 0.05 * rng.standard_normal(n)


def silence_and_dc():
    """Two seconds of a tone with whole frames of digital silence and of a
    constant: every frame inside either has zero energy once its mean is
    removed, and the frames across each edge are partly silent."""
    x = tone(2 * CANONICAL_SR)
    x[4000:9000] = 0.0
    x[15000:20000] = 0.25  # a multiple of 2**-2: its mean is exact
    return AudioBuffer(x, CANONICAL_SR)


def glide():
    """The glide whose ACF peaks at the window's left edge, so that the
    refinement gives F0 <= 0 on some voiced frames."""
    rng = np.random.default_rng(6)
    spec = [random_spec(rng, duration_s=2.0) for _ in range(3)][-1]
    return synth_example(spec)[0]


ORACLE_CASES = {
    "one window": lambda: AudioBuffer(tone(WINDOW), CANONICAL_SR),
    "1 s": lambda: synth_example(random_spec(np.random.default_rng(1)))[0],
    "4 s": lambda: AudioBuffer(tone(4 * CANONICAL_SR, 130.0, seed=2),
                               CANONICAL_SR),
    "3 blocks + 1 frame": lambda: AudioBuffer(
        tone(samples_for_frames(3 * BLOCK + 1), 700.0, seed=3), CANONICAL_SR),
    "silence and DC": silence_and_dc,
    "44.1 kHz": lambda: AudioBuffer(tone(3 * 44100, 180.0, 44100, seed=4),
                                    44100),
    "F0 <= 0 glide": glide,
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_acf_matches_per_frame_loop(case):
    buf = ORACLE_CASES[case]()
    f0, conf, voiced = loop_acf(buf)
    contour = acf_contour(buf)
    assert len(contour) == len(f0)
    np.testing.assert_array_equal(contour.voiced, voiced)
    np.testing.assert_array_equal(np.isnan(contour.f0_hz), np.isnan(f0))
    np.testing.assert_allclose(contour.f0_hz, f0, rtol=1e-9, atol=0)
    np.testing.assert_allclose(contour.confidence, conf, rtol=0, atol=1e-12)
    if case == "silence and DC":
        silent = np.isnan(f0)
        assert silent.sum() >= 2 * (5000 - WINDOW) // HOP
        assert np.all(contour.confidence[silent] == 0.0)
    if case == "F0 <= 0 glide":
        assert np.any(voiced & ~(f0 > 0))


def test_acf_same_on_one_thread(monkeypatch):
    # 60 blocks with the worker as with the calling thread alone
    buf = AudioBuffer(tone(samples_for_frames(60 * BLOCK - 5), 150.0, seed=5),
                      CANONICAL_SR)
    two = acf_contour(buf)
    monkeypatch.setattr(net, "_worker", lambda: None)
    one = acf_contour(buf)
    for a, b in ((two.f0_hz, one.f0_hz), (two.confidence, one.confidence),
                 (two.voiced, one.voiced)):
        assert a.tobytes() == b.tobytes()


def test_acf_tracks_harmonic_tone():
    buf, truth = synth_example(SynthSpec(kind="constant", f0_hz=220.0))
    contour = acf_contour(buf)
    assert len(contour) == len(truth) == 59
    assert contour.voiced.all()
    assert np.abs(cents_error(contour.f0_hz, truth.f0_hz)).max() < 5.0


def test_acf_silence_is_unvoiced():
    contour = acf_contour(AudioBuffer(np.zeros(8000), 16000))
    assert len(contour) == 28
    assert not contour.voiced.any()
    assert np.isnan(contour.f0_hz).all()
    assert np.all(contour.confidence == 0.0)


def test_acf_too_short():
    with pytest.raises(InputTooShort):
        acf_contour(AudioBuffer(np.zeros(1000), 16000))


def test_acf_resamples_foreign_rate():
    # 1 s at 44.1 kHz is analysed as 1 s at 16 kHz: 59 frames, 16 ms apart
    x = np.sin(2 * np.pi * 220.0 * np.arange(44100) / 44100)
    contour = acf_contour(AudioBuffer(x, 44100))
    assert len(contour) == 59
    assert contour.hop_seconds == 0.016
    assert contour.voiced.all()
    assert np.abs(cents_error(contour.f0_hz, 220.0)).max() < 10.0
