"""The model's fixed logarithmic pitch grid, and cents arithmetic.

The network scores N_BINS pitch bins, log-spaced from F_MIN_HZ to F_MAX_HZ
(the centres of FFT bins 3 and 134 of the 1024-point, 16 kHz front-end in
`dsp`). The grid is part of the trained model, so it is fixed: these
constants serve the training targets, the losses and the decoder alike.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError

F_MIN_HZ = 46.875
F_MAX_HZ = 2093.75
N_BINS = 200
LOG2_STEP = np.log2(F_MAX_HZ / F_MIN_HZ) / (N_BINS - 1)
CENTS_PER_BIN = 1200.0 * LOG2_STEP
CENTERS = F_MIN_HZ * 2.0 ** (np.arange(N_BINS) * LOG2_STEP)
CENTERS.flags.writeable = False


def _finite_positive(*fs) -> bool:
    return all(np.all(np.isfinite(f) & (f > 0)) for f in fs)


def freq_to_bin(f) -> np.ndarray | int:
    """Nearest bin index in log2 space, clamped to the grid range."""
    f = np.asarray(f, dtype=np.float64)
    if not _finite_positive(f):
        raise ArgumentError("frequency must be finite and positive")
    raw = np.log2(f / F_MIN_HZ) / LOG2_STEP
    b = np.floor(raw + 0.5).astype(np.int64)  # ties away from zero (raw >= 0 or clamped)
    b = np.clip(b, 0, N_BINS - 1)
    return int(b) if b.ndim == 0 else b


def cents_error(f_pred, f_true):
    """Signed pitch error in cents: 1200*log2(f_pred/f_true)."""
    f_pred = np.asarray(f_pred, dtype=np.float64)
    f_true = np.asarray(f_true, dtype=np.float64)
    if not _finite_positive(f_pred, f_true):
        raise ArgumentError("frequencies must be finite and positive")
    out = 1200.0 * np.log2(f_pred / f_true)
    return float(out) if out.ndim == 0 else out
