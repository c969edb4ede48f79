"""Logarithmic pitch-bin grid and cents arithmetic.

Shared by training targets, decoding, and the evaluation metrics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# the pitch range: FFT bins 3 and 134 of the 1024-point, 16 kHz front-end
F_MIN_HZ = 46.875
F_MAX_HZ = 2093.75


@dataclass(frozen=True)
class PitchGrid:
    n_bins: int = 200
    f_min: float = F_MIN_HZ
    f_max: float = F_MAX_HZ

    @property
    def log2_step(self) -> float:
        return np.log2(self.f_max / self.f_min) / (self.n_bins - 1)

    @property
    def centers(self) -> np.ndarray:
        b = np.arange(self.n_bins)
        return self.f_min * 2.0 ** (b * self.log2_step)

    @property
    def cents_per_bin(self) -> float:
        return 1200.0 * self.log2_step

    def bin_center(self, b: int) -> float:
        if not 0 <= b < self.n_bins:
            raise IndexError(f"bin {b} outside [0, {self.n_bins})")
        return self.f_min * 2.0 ** (b * self.log2_step)

    def freq_to_bin(self, f) -> np.ndarray | int:
        """Nearest bin index in log2 space, clamped to the grid range."""
        f = np.asarray(f, dtype=np.float64)
        if np.any(f <= 0):
            raise DomainError("frequency must be positive")
        raw = np.log2(f / self.f_min) / self.log2_step
        b = np.floor(raw + 0.5).astype(np.int64)  # ties away from zero (raw >= 0 or clamped)
        b = np.clip(b, 0, self.n_bins - 1)
        return int(b) if b.ndim == 0 else b


def cents_error(f_pred, f_true):
    """Signed pitch error in cents: 1200*log2(f_pred/f_true)."""
    f_pred = np.asarray(f_pred, dtype=np.float64)
    f_true = np.asarray(f_true, dtype=np.float64)
    if np.any(f_pred <= 0) or np.any(f_true <= 0):
        raise DomainError("frequencies must be positive")
    out = 1200.0 * np.log2(f_pred / f_true)
    return float(out) if out.ndim == 0 else out
