"""Joint training objective: cross-entropy over pitch bins plus an L1
penalty on the expected log-frequency, with its analytic gradient with
respect to the logits.
"""
from __future__ import annotations

import numpy as np

from .errors import EmptyBatchError
from .grid import CENTERS

_LOG_CENTERS = np.log(CENTERS)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss_total(logits, target_bins, f_true, voiced_mask, lam: float = 1.0):
    """Mean cross-entropy over voiced frames plus lam times the mean L1
    distance between expected and true log-frequency; returns (loss,
    d_logits, ce, cents). The softmax is computed once and shared by both
    terms; with lam = 0 the cents term is not computed and reads 0."""
    rows = np.flatnonzero(np.asarray(voiced_mask, dtype=bool))
    if len(rows) == 0:
        raise EmptyBatchError("no voiced frames in batch")
    probs = softmax_rows(logits)
    targets = np.asarray(target_bins)[rows]
    ce = float(-np.log(np.maximum(probs[rows, targets], 1e-300)).mean())
    d_ce = np.zeros_like(probs)
    d_ce[rows] = probs[rows]
    d_ce[rows, targets] -= 1.0
    d_ce /= len(rows)
    if lam == 0.0:
        return ce, d_ce, ce, 0.0
    f_log = probs @ _LOG_CENTERS                     # (T,)
    residual = f_log - np.log(np.asarray(f_true, dtype=np.float64))
    cents = float(np.abs(residual[rows]).mean())
    d_cents = np.zeros_like(probs)
    sign = np.sign(residual[rows])[:, None]
    # d f_log / d z_c = p_c * (log f_c - f_log)
    d_cents[rows] = (sign * probs[rows]
                     * (_LOG_CENTERS[None, :] - f_log[rows, None]))
    d_cents /= len(rows)
    return ce + lam * cents, d_ce + lam * d_cents, ce, cents
