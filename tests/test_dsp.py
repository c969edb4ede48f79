import numpy as np
import pytest

from pitchkit import dsp
from pitchkit.audio_io import AudioBuffer
from pitchkit.baseline import acf_contour
from pitchkit.dsp import rfft_radix2
from pitchkit.errors import ArgumentError, InputTooShort
from pitchkit.synth import SynthSpec, synth_example


def hann(n: int) -> np.ndarray:
    """Periodic Hann window: w[i] = 0.5*(1 - cos(2*pi*i/n))."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def band_magnitude(spec: np.ndarray) -> np.ndarray:
    """Undo the front-end's log compression: |X| of the band columns."""
    return np.exp(spec) - dsp.LOG_EPSILON


def naive_dft_magnitude(frame: np.ndarray) -> np.ndarray:
    """O(N^2) oracle: |sum x[n] e^{-j2pi kn/N}| for k in 0..N/2."""
    n = len(frame)
    k = np.arange(n // 2 + 1)[:, None]
    ang = -2j * np.pi * k * np.arange(n)[None, :] / n
    return np.abs(np.exp(ang) @ frame)


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(N^2) oracle over the last axis: bins 0..N/2, built in row blocks."""
    n = x.shape[-1]
    out = []
    for k0 in range(0, n // 2 + 1, 256):
        k = np.arange(k0, min(k0 + 256, n // 2 + 1))[:, None]
        ang = -2.0 * np.pi * ((k * np.arange(n)[None, :]) % n) / n
        out.append(x @ np.exp(1j * ang).T)
    return np.concatenate(out, axis=-1)


@pytest.mark.parametrize("n", [2 ** k for k in range(1, 13)])
def test_rfft_matches_naive_dft_every_size(n):
    x = np.random.default_rng(n).standard_normal((2, 3, n))
    spec = rfft_radix2(x)
    oracle = naive_dft(x)
    assert spec.shape == (2, 3, n // 2 + 1)
    assert np.abs(spec - oracle).max() <= 1e-6 * np.abs(oracle).max()


def test_rfft_rejects_non_power_of_two():
    with pytest.raises(ArgumentError):
        rfft_radix2(np.zeros((2, 12)))


def test_hann_endpoints():
    assert dsp.HANN[0] == 0.0
    assert dsp.HANN[512] == 1.0


def test_hann_sum_closed_form():
    assert abs(dsp.HANN.sum() - 512.0) < 1e-9


def test_hann_constant_is_read_only():
    np.testing.assert_array_equal(dsp.HANN, hann(dsp.WINDOW))
    with pytest.raises(ValueError):
        dsp.HANN[0] = 1.0


def test_config_derived_bins():
    assert dsp.K_MIN == 3
    assert dsp.K_MAX == 134
    assert dsp.N_BANDS == 132


def test_frames_view():
    x = np.random.default_rng(2).standard_normal(2000)
    fr = dsp.frames(x)
    assert fr.shape == (4, 1024)  # (2000 - 1024) // 256 + 1
    for m in range(4):
        np.testing.assert_array_equal(fr[m], x[m * 256:m * 256 + 1024])
    assert np.shares_memory(fr, x) and not fr.flags.writeable
    batch = np.stack([x, -x])
    np.testing.assert_array_equal(dsp.frames(batch)[1], -fr)


def test_stft_single_frame():
    x = np.random.default_rng(0).standard_normal(1024)
    assert dsp.frames(x).shape == (1, 1024)
    assert dsp.batch_spectrogram(x).shape == (1, 132)


def test_stft_zero_signal():
    spec = dsp.batch_spectrogram(np.zeros(4096))
    assert np.all(spec == np.log(dsp.LOG_EPSILON))


def test_stft_too_short():
    with pytest.raises(InputTooShort):
        dsp.frames(np.zeros(1023))
    with pytest.raises(InputTooShort):
        dsp.batch_spectrogram(np.zeros(512))


def test_stft_sine_peak_and_oracle():
    t = np.arange(1024) / 16000
    x = np.sin(2 * np.pi * 250.0 * t)
    mag = band_magnitude(dsp.batch_spectrogram(x))
    assert mag[0].argmax() == 13  # FFT bin 16, band column 16 - K_MIN
    oracle = naive_dft_magnitude(x * hann(1024))[3:135]
    assert np.abs(mag[0] - oracle).max() <= 1e-6 * oracle.max()


def test_stft_matches_dft_oracle_random():
    rng = np.random.default_rng(7)
    w = hann(1024)
    for _ in range(10):
        n = int(rng.integers(1024, 4097))
        x = rng.standard_normal(n)
        mag = band_magnitude(dsp.batch_spectrogram(x))
        m = int(rng.integers(mag.shape[0]))
        oracle = naive_dft_magnitude(x[m * 256:m * 256 + 1024] * w)[3:135]
        assert np.abs(mag[m] - oracle).max() <= 1e-6 * oracle.max()


def test_parseval_per_frame():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1024)
    xw = x * dsp.HANN
    spec = rfft_radix2(xw[None])[0]
    # real-spectrum double counting: interior bins appear twice
    energy = np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2 \
        + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
    time_energy = 1024 * np.sum(xw ** 2)
    assert abs(energy - time_energy) <= 1e-6 * time_energy


def test_deterministic_bits():
    x = np.random.default_rng(5).standard_normal(8000)
    a = dsp.batch_spectrogram(x)
    b = dsp.batch_spectrogram(x)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n", [1024, 1279, 1280, 16000])
def test_one_frame_grid_for_front_end_acf_and_synth(n):
    # all three frame with dsp.frames: WINDOW samples, HOP apart, unpadded
    x = 0.5 * np.sin(2 * np.pi * 220.0 * np.arange(n) / 16000)
    buf = AudioBuffer(x, 16000)
    t = (n - 1024) // 256 + 1
    assert len(dsp.spectrogram(buf)) == t
    assert len(acf_contour(buf)) == t
    _, truth = synth_example(SynthSpec(duration_s=n / 16000))
    assert len(truth) == t


def test_front_end_and_acf_reject_less_than_one_window():
    buf = AudioBuffer(np.zeros(1023), 16000)
    with pytest.raises(InputTooShort):
        dsp.spectrogram(buf)
    with pytest.raises(InputTooShort):
        acf_contour(buf)
