import numpy as np
import pytest

from pitchkit import dsp
from pitchkit.dsp import band_select, hann_window, log_compress, rfft_radix2
from pitchkit.errors import ArgumentError, DomainError, InputTooShort, ShapeError


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
    w = hann_window(1024)
    assert w[0] == 0.0
    assert w[512] == 1.0


def test_hann_sum_closed_form():
    assert abs(hann_window(1024).sum() - 512.0) < 1e-9


def test_hann_too_short():
    with pytest.raises(ArgumentError):
        hann_window(1)


def test_hann_constant_is_read_only():
    np.testing.assert_array_equal(dsp.HANN, hann_window(dsp.WINDOW))
    with pytest.raises(ValueError):
        dsp.HANN[0] = 1.0


def test_config_derived_bins():
    assert dsp.K_MIN == 3
    assert dsp.K_MAX == 134
    assert dsp.N_BANDS == 132


def test_stft_single_frame():
    x = np.random.default_rng(0).standard_normal(1024)
    assert dsp._magnitude(x).shape == (1, 513)


def test_stft_zero_signal():
    mag = dsp._magnitude(np.zeros(4096))
    assert np.all(mag == 0.0)


def test_stft_too_short():
    with pytest.raises(InputTooShort):
        dsp._magnitude(np.zeros(512))


def test_stft_sine_peak_and_oracle():
    t = np.arange(1024) / 16000
    x = np.sin(2 * np.pi * 250.0 * t)
    mag = dsp._magnitude(x)
    assert mag[0].argmax() == 16
    oracle = naive_dft_magnitude(x * hann_window(1024))
    assert np.abs(mag[0] - oracle).max() <= 1e-6 * oracle.max()


def test_stft_matches_dft_oracle_random():
    rng = np.random.default_rng(7)
    w = hann_window(1024)
    for _ in range(10):
        n = int(rng.integers(1024, 4097))
        x = rng.standard_normal(n)
        mag = dsp._magnitude(x)
        m = int(rng.integers(mag.shape[0]))
        oracle = naive_dft_magnitude(x[m * 256:m * 256 + 1024] * w)
        assert np.abs(mag[m] - oracle).max() <= 1e-6 * oracle.max()


def test_parseval_per_frame():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(1024)
    xw = x * hann_window(1024)
    spec = rfft_radix2(xw[None])[0]
    # real-spectrum double counting: interior bins appear twice
    energy = np.abs(spec[0]) ** 2 + np.abs(spec[-1]) ** 2 \
        + 2 * np.sum(np.abs(spec[1:-1]) ** 2)
    time_energy = 1024 * np.sum(xw ** 2)
    assert abs(energy - time_energy) <= 1e-6 * time_energy


def test_deterministic_bits():
    x = np.random.default_rng(5).standard_normal(8000)
    a = dsp._magnitude(x)
    b = dsp._magnitude(x)
    np.testing.assert_array_equal(a, b)


def test_band_select_slice():
    full = np.random.default_rng(0).standard_normal((4, 513)) ** 2
    out = band_select(full)
    assert out.shape == (4, 132)
    np.testing.assert_array_equal(out, full[:, 3:135])
    assert (513 - 132) / 513 == pytest.approx(0.7427, abs=1e-3)
    assert 3 * 15.625 == 46.875


def test_band_select_any_leading_shape():
    full = np.random.default_rng(1).standard_normal((2, 3, 513))
    out = band_select(full)
    assert out.shape == (2, 3, 132)
    np.testing.assert_array_equal(out, full[..., 3:135])


def test_band_select_wrong_shape():
    with pytest.raises(ShapeError):
        band_select(np.zeros((4, 512)))


def test_log_compress_values():
    out = log_compress(np.array([[0.0, 1.0 - 1e-8]]))
    assert out[0, 0] == pytest.approx(np.log(1e-8), abs=1e-9)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_log_compress_negative():
    with pytest.raises(DomainError):
        log_compress(np.array([[-0.1]]))


def test_log_compress_monotone():
    rng = np.random.default_rng(11)
    a = rng.uniform(0, 1, (8, 132))
    b = a + rng.uniform(1e-6, 1, (8, 132))
    assert np.all(log_compress(a) < log_compress(b))
