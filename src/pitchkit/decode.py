"""Logits -> pitch contour via the local expected value around the argmax
bin. No smoothing and no dynamic-programming pass: each frame is decoded
independently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import HOP_SECONDS, PitchContour
from .errors import ArgumentError
from .grid import CENTERS, N_BINS
from .losses import softmax_rows

HALF_WIDTH = 9  # bins either side of the argmax in the decoding window


@dataclass(frozen=True)
class DecoderConfig:
    voicing_threshold: float = 0.90

    def __post_init__(self):
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ArgumentError("voicing_threshold must be in [0, 1]")


def decode_probs(probs: np.ndarray, cfg: DecoderConfig):
    """Vectorized per-frame decode of a (T, B) probability matrix.

    Returns (f_hat, confidence, voiced). The window always spans exactly
    2*HALF_WIDTH + 1 bins: near the grid edges it is shifted inward rather
    than truncated, so confidence stays comparable across all frames.
    Probabilities are renormalized inside the window for the frequency
    estimate, while confidence is the raw mass inside the window. Argmax
    ties break toward the lower bin.
    """
    probs = np.asarray(probs, dtype=np.float64)
    t, b = probs.shape
    if t == 0:
        z = np.zeros(0)
        return z, z, np.zeros(0, dtype=bool)
    best = probs.argmax(axis=1)  # ties -> lowest index
    width = 2 * HALF_WIDTH + 1
    lo = np.clip(best - HALF_WIDTH, 0, max(b - width, 0))
    hi = np.minimum(lo + width - 1, b - 1)
    cols = np.arange(b)[None, :]
    in_window = (cols >= lo[:, None]) & (cols <= hi[:, None])
    windowed = np.where(in_window, probs, 0.0)
    mass = windowed.sum(axis=1)
    f_hat = (windowed @ CENTERS) / mass
    conf = np.minimum(mass, 1.0)  # guard against float sums a hair over 1
    voiced = conf >= cfg.voicing_threshold
    return f_hat, conf, voiced


def decode_contour(logits: np.ndarray, cfg: DecoderConfig) -> PitchContour:
    """(T, N_BINS) logits -> contour on the front-end's HOP_SECONDS grid."""
    probs = softmax_rows(logits) if len(logits) else np.zeros((0, N_BINS))
    f_hat, conf, voiced = decode_probs(probs, cfg)
    return PitchContour(hop_seconds=HOP_SECONDS, f0_hz=f_hat,
                        confidence=conf, voiced=voiced)
