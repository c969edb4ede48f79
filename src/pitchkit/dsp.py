"""Spectral front-end: framing, Hann STFT, pitch band, log magnitude.

The front-end is the one the model was trained on, so it is fixed and
stated once, as module constants: 16 kHz audio (`audio_io.CANONICAL_SR`),
a WINDOW of N = 1024 samples with its read-only HANN window, a hop of 256
samples (`audio_io.HOP`), and FFT bins K_MIN..K_MAX = 3..134, the ends of
the pitch grid (46.875-2093.75 Hz), so N_BANDS = 132. Audio at another rate
is resampled before it reaches this module.

`frames` is the one framing rule: `batch_spectrogram`, the ACF baseline
and the synthesizer's truth labels (the F0 at each frame's centre) all use
it, so each gives one frame per spectrogram frame. `batch_spectrogram`
takes the log(|X| + LOG_EPSILON) of the pitch band of the FFT of every
Hann-windowed frame at once; `spectrogram` calls it on one buffer and
`train_loop` on a (B, L) batch of segments.

The FFT packs N real samples into m = N/2 complex points, transforms them
with a four-step (Bailey) FFT and untwiddles the result into the real
spectrum. The four-step FFT views the m points as an m1 x m2 matrix
(m1 = 2^floor(log2(m)/2)): one batched GEMM applies the m1-point DFT matrix
down its columns, then each row is multiplied by its twiddles and by the
m2-point DFT matrix. The twiddles are folded into m1 copies of the m2-point
matrix, so the whole transform is two BLAS calls over all frames at once.
The matrices are built once per N. A naive O(N^2) DFT lives in the test
suite as the oracle.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import CANONICAL_SR, HOP, AudioBuffer
from .errors import ArgumentError, InputTooShort
from .grid import F_MAX_HZ, F_MIN_HZ

WINDOW = 1024
# the FFT bins nearest the ends of the pitch grid: 3 and 134
K_MIN = round(F_MIN_HZ * WINDOW / CANONICAL_SR)
K_MAX = round(F_MAX_HZ * WINDOW / CANONICAL_SR)
N_BANDS = K_MAX - K_MIN + 1
LOG_EPSILON = 1e-8
# periodic Hann window: w[i] = 0.5 * (1 - cos(2 pi i / WINDOW))
HANN = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW))
HANN.flags.writeable = False


def frames(samples: np.ndarray) -> np.ndarray:
    """(..., L) samples -> (..., T, WINDOW) read-only strided view of the
    left-aligned, unpadded frames, HOP samples apart, T = (L - WINDOW) //
    HOP + 1; raises InputTooShort when L < WINDOW."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[-1] < WINDOW:
        raise InputTooShort(
            f"need at least {WINDOW} samples, got {samples.shape[-1]}")
    return sliding_window_view(samples, WINDOW, axis=-1)[..., ::HOP, :]


def _dft_matrix(n: int) -> np.ndarray:
    """F[j, k] = exp(-2*pi*i*jk/n), with jk reduced mod n for accuracy."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


@lru_cache(maxsize=None)
def _fft_plan(n: int):
    """Read-only matrices of the four-step FFT of length N = n."""
    m = n // 2
    m1 = 1 << ((m.bit_length() - 1) // 2)
    m2 = m // m1
    # twiddle exp(-2*pi*i*k1*n2/m) scales row n2 of the k1-th m2-point matrix
    k1n2 = np.outer(np.arange(m1), np.arange(m2))
    twiddle = np.exp(-2j * np.pi * k1n2 / m)
    f2 = twiddle[:, :, None] * _dft_matrix(m2)          # (m1, m2, m2)
    # untwiddle X[k] = a[k] Z[k] + b[k] conj(Z[m-k]), k = 0..m
    w = np.exp(-2j * np.pi * np.arange(m + 1) / n)
    a, b = 0.5 * (1.0 - 1j * w), 0.5 * (1.0 + 1j * w)
    plan = (m1, m2, _dft_matrix(m1), f2, a, b)
    for arr in plan[2:]:
        arr.flags.writeable = False
    return plan


def rfft_radix2(frames: np.ndarray) -> np.ndarray:
    """Real-input FFT of each row; returns bins 0..N/2 (complex).

    N must be a power of two. Rows are packed into m = N/2 complex points
    z[j] = x[2j] + i x[2j+1], transformed with the four-step FFT, then
    untwiddled back to the real spectrum.
    """
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    n = frames.shape[-1]
    if n < 2 or n & (n - 1):
        raise ArgumentError("FFT length must be a power of two")
    m = n // 2
    m1, m2, f1, f2, a, b = _fft_plan(n)
    lead = frames.shape[:-1]
    rows = int(np.prod(lead))
    # z[r, n1, n2] is packed point m2*n1 + n2 of row r
    z = frames.view(np.complex128).reshape(rows, m1, m2)
    cols = np.matmul(f1, z)                          # [r, k1, n2]
    spec = np.matmul(cols.transpose(1, 0, 2), f2)    # [k1, r, k2], twiddled
    # Z[k1 + m1*k2] = spec[k1, r, k2]; splitting the last axis of out is a
    # view, so this writes the packed transform in natural order
    out = np.empty((rows, m + 1), dtype=np.complex128)
    out[:, :m].reshape(rows, m2, m1)[...] = spec.transpose(1, 2, 0)
    out[:, m] = out[:, 0]                            # Z[m] = Z[0]
    rev = np.conj(out[:, ::-1])                      # conj(Z[m-k])
    out *= a
    rev *= b
    out += rev
    return out.reshape(lead + (m + 1,))


def batch_spectrogram(samples: np.ndarray) -> np.ndarray:
    """(..., L) samples at CANONICAL_SR -> (..., T, N_BANDS) log band
    magnitudes; raises InputTooShort below one WINDOW."""
    band = rfft_radix2(frames(samples) * HANN)[..., K_MIN:K_MAX + 1]
    return np.log(np.abs(band) + LOG_EPSILON)


def spectrogram(buf: AudioBuffer) -> np.ndarray:
    """(T, N_BANDS) log band magnitudes of one buffer at CANONICAL_SR."""
    if buf.sample_rate_hz != CANONICAL_SR:
        raise ArgumentError(
            f"buffer rate {buf.sample_rate_hz} != front-end rate {CANONICAL_SR}")
    return batch_spectrogram(buf.samples)
