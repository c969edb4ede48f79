"""Model-free autocorrelation baseline so the evaluation harness can run
before any network has been trained.

Each front-end frame (WINDOW samples, HOP apart, at CANONICAL_SR) has its
mean removed, and its autocorrelation is normalised by the frame's energy
(lag 0); the pitch lag is the highest peak over LAG_MIN..LAG_MAX, the lags
of the pitch band, refined by a parabola through it and its two
neighbours. The autocorrelation comes from the power spectrum
(Wiener-Khinchin), as in YIN (de Cheveigné & Kawahara, JASA 2002): the
frames are zero-padded to FFT_SIZE, at least WINDOW + LAG_MAX + 1, so that
no lag read wraps around, and transformed with `dsp.rfft_radix2`. The
inverse transform is needed at the 338 lags LAG_MIN - 1..LAG_MAX + 1 only,
so it is one GEMM of the power spectra with a read-only cosine matrix.

The frames run in blocks of BLOCK, each on its own from framing to
voicing, so no (frames, lags) array of the whole signal is built.
`model.run_blocks` maps the block starts on the calling thread and the
network's worker, and each block writes its own frames of the output; the
partition depends only on the frame count, so the output does not depend on
the number of threads.
"""
from __future__ import annotations

import functools

import numpy as np

from .audio_io import (CANONICAL_SR, HOP_SECONDS, AudioBuffer, PitchContour,
                       resample_linear)
from .dsp import WINDOW, frames, rfft_radix2
from .grid import F_MAX_HZ, F_MIN_HZ
from .model import run_blocks

# lags of the pitch band, 7..342 at 16 kHz; LAG_MIN >= 2 and
# LAG_MAX <= WINDOW - 2 keep the refinement's neighbours inside the frame
LAG_MIN = max(int(np.floor(CANONICAL_SR / F_MAX_HZ)), 2)
LAG_MAX = min(int(np.ceil(CANONICAL_SR / F_MIN_HZ)), WINDOW - 2)
FFT_SIZE = 2 * WINDOW
BLOCK = 64
VOICING = 0.5


@functools.cache
def _lag_matrix() -> np.ndarray:
    """(FFT_SIZE/2 + 1, lags) read-only matrix taking a one-sided power
    spectrum to the autocorrelation at lags LAG_MIN - 1..LAG_MAX + 1:
    r[tau] = sum_k w_k P[k] cos(2 pi k tau / FFT_SIZE) / FFT_SIZE, where
    w_k = 2 counts each bin's mirror, except at k = 0 and FFT_SIZE/2."""
    k = np.arange(FFT_SIZE // 2 + 1)
    lags = np.arange(LAG_MIN - 1, LAG_MAX + 2)
    weight = np.full(len(k), 2.0 / FFT_SIZE)
    weight[[0, -1]] = 1.0 / FFT_SIZE
    # k * tau reduced mod FFT_SIZE keeps the cosine's argument small
    cos = np.cos(2.0 * np.pi * (np.outer(k, lags) % FFT_SIZE) / FFT_SIZE)
    out = weight[:, None] * cos
    out.flags.writeable = False
    return out


def acf_contour(buf: AudioBuffer) -> PitchContour:
    """Per-frame normalized autocorrelation peak over the pitch lag range,
    on the front-end's frames (WINDOW samples, HOP apart, at CANONICAL_SR).

    Confidence is the normalized peak height, clipped to [0, 1], and a
    frame is voiced when it reaches VOICING; parabolic interpolation refines
    the lag. A frame of zero energy after its mean is removed has F0 NaN
    and confidence 0. Raises InputTooShort below one WINDOW (`dsp.frames`).
    """
    framed = frames(resample_linear(buf).samples)
    t = len(framed)
    f0 = np.full(t, np.nan)
    conf = np.zeros(t)
    lag_matrix = _lag_matrix()

    def run_block(lo):
        hi = min(lo + BLOCK, t)
        padded = np.zeros((hi - lo, FFT_SIZE))
        block = padded[:, :WINDOW]
        block[...] = framed[lo:hi]
        block -= block.mean(axis=1, keepdims=True)
        energy = np.einsum("ij,ij->i", block, block)
        spec = rfft_radix2(padded)
        power = spec.real ** 2
        power += spec.imag ** 2
        ac = power @ lag_matrix  # column j is lag LAG_MIN - 1 + j
        live = np.flatnonzero(energy != 0.0)
        ac = ac[live] / energy[live, None]
        rows = np.arange(len(live))
        rel = np.argmax(ac[:, 1:-1], axis=1)  # lag LAG_MIN + rel
        a, b, c = ac[rows, rel], ac[rows, rel + 1], ac[rows, rel + 2]
        denom = a - 2 * b + c
        shift = np.divide(0.5 * (a - c), denom, out=np.zeros(len(live)),
                          where=denom != 0)
        f0[lo + live] = CANONICAL_SR / (LAG_MIN + rel + shift)
        conf[lo + live] = np.clip(b, 0.0, 1.0)

    run_blocks(range(0, t, BLOCK), run_block)
    return PitchContour(hop_seconds=HOP_SECONDS, f0_hz=f0, confidence=conf,
                        voiced=conf >= VOICING)
