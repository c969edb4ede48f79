"""Training-time waveform augmentation: random gain, noise mixing at a
sampled SNR, and clipping to the legal amplitude range. `noise_excerpt` is
the one place a noise signal is cut, for training and for noisy scoring.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, SkipExample


@dataclass
class AugmentConfig:
    gain_db_range: tuple = (-6.0, 6.0)
    snr_db_range: tuple = (10.0, 30.0)
    noise_signals: list = field(default_factory=list)  # arrays at the target rate

    def __post_init__(self):
        for name, (lo, hi) in (("gain", self.gain_db_range),
                               ("snr", self.snr_db_range)):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ArgumentError(f"{name} range ({lo}, {hi}) is not finite")
            if lo > hi:
                raise ArgumentError(f"{name} range is reversed")
        if any(len(src) == 0 for src in self.noise_signals):
            raise ArgumentError("a noise signal has no samples")


def noise_gamma(p_sig: float, p_noise: float, snr_db: float) -> float:
    """Scale factor that puts the noise exactly snr_db below the signal."""
    return float(np.sqrt(p_sig / (p_noise * 10.0 ** (snr_db / 10.0))))


def mix_at_snr(signal: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """signal + gamma*noise with the measured power ratio exactly snr_db."""
    p_sig = float(np.mean(signal ** 2))
    p_noise = float(np.mean(noise ** 2))
    if p_sig == 0.0:
        raise SkipExample("silent signal", "silent")
    if p_noise == 0.0:
        return signal.copy()
    return signal + noise_gamma(p_sig, p_noise, snr_db) * noise


def noise_excerpt(signals, n: int, rng: np.random.Generator) -> np.ndarray:
    """n samples of one of the non-empty signals, picked at random, from a
    random start; a signal shorter than n is tiled first."""
    src = signals[rng.integers(len(signals))]
    if len(src) < n:
        src = np.tile(src, int(np.ceil(n / len(src))))
    start = rng.integers(0, len(src) - n + 1)
    return src[start:start + n]


def augment(samples: np.ndarray, cfg: AugmentConfig,
            rng: np.random.Generator) -> np.ndarray:
    """Gain-scale, mix environmental/Gaussian noise at a random SNR, clamp.

    With no configured noise sources the environmental branch is dropped
    (mixing coefficient forced to the Gaussian end).
    """
    samples = np.asarray(samples, dtype=np.float64)
    gain_db = rng.uniform(*cfg.gain_db_range)
    scaled = samples * 10.0 ** (gain_db / 20.0)
    p_sig = float(np.mean(scaled ** 2))
    if p_sig == 0.0:
        raise SkipExample("silent segment", "silent")

    alpha = rng.uniform(0.0, 1.0) if cfg.noise_signals else 0.0
    n_gauss = rng.standard_normal(len(samples))
    n_bg = np.sqrt(1.0 - alpha) * n_gauss
    if alpha > 0.0:
        n_bg = n_bg + np.sqrt(alpha) * noise_excerpt(cfg.noise_signals,
                                                     len(samples), rng)

    snr_db = rng.uniform(*cfg.snr_db_range)
    mixed = mix_at_snr(scaled, n_bg, snr_db)
    return np.clip(mixed, -1.0, 1.0)
