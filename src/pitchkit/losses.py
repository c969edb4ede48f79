"""Joint training objective: cross-entropy over pitch bins plus an L1
penalty on the expected log-frequency, with its analytic gradient with
respect to the logits.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .grid import CENTERS, freq_to_bin

_LOG_CENTERS = np.log(CENTERS)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss_total(logits, f_true, voiced_mask, lam: float = 1.0):
    """Mean cross-entropy against the bins of the true F0s plus lam times the
    mean L1 distance between expected and true log-frequency, both over the
    voiced frames; returns (loss, d_logits, ce, cents). F0s outside
    voiced_mask are never read, so they may be NaN or 0. The softmax is
    computed once and shared by both terms; with lam = 0 the cents term is
    not computed and reads 0."""
    rows = np.flatnonzero(np.asarray(voiced_mask, dtype=bool))
    if len(rows) == 0:
        raise ArgumentError("no voiced frames in batch")
    f_voiced = np.asarray(f_true, dtype=np.float64)[rows]
    probs = softmax_rows(logits)
    targets = freq_to_bin(f_voiced)
    ce = float(-np.log(np.maximum(probs[rows, targets], 1e-300)).mean())
    d_ce = np.zeros_like(probs)
    d_ce[rows] = probs[rows]
    d_ce[rows, targets] -= 1.0
    d_ce /= len(rows)
    if lam == 0.0:
        return ce, d_ce, ce, 0.0
    f_log = (probs @ _LOG_CENTERS)[rows]
    residual = f_log - np.log(f_voiced)
    cents = float(np.abs(residual).mean())
    d_cents = np.zeros_like(probs)
    # d f_log / d z_c = p_c * (log f_c - f_log)
    d_cents[rows] = (np.sign(residual)[:, None] * probs[rows]
                     * (_LOG_CENTERS[None, :] - f_log[:, None]))
    d_cents /= len(rows)
    return ce + lam * cents, d_ce + lam * d_cents, ce, cents
