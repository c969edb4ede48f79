"""Joint training objective: cross-entropy over pitch bins plus an L1
penalty on the expected log-frequency. Each loss returns its analytic
gradient with respect to the logits.
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


def _voiced_rows(voiced_mask: np.ndarray) -> np.ndarray:
    rows = np.flatnonzero(np.asarray(voiced_mask, dtype=bool))
    if len(rows) == 0:
        raise EmptyBatchError("no voiced frames in batch")
    return rows


def _ce_of_probs(probs, target_bins, rows):
    targets = np.asarray(target_bins)[rows]
    picked = probs[rows, targets]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    d = np.zeros_like(probs)
    d[rows] = probs[rows]
    d[rows, targets] -= 1.0
    d /= len(rows)
    return loss, d


def _cents_of_probs(probs, f_true, rows):
    f_log = probs @ _LOG_CENTERS                     # (T,)
    residual = f_log - np.log(np.asarray(f_true, dtype=np.float64))
    loss = float(np.abs(residual[rows]).mean())
    d = np.zeros_like(probs)
    sign = np.sign(residual[rows])[:, None]
    # d f_log / d z_c = p_c * (log f_c - f_log)
    d[rows] = sign * probs[rows] * (_LOG_CENTERS[None, :] - f_log[rows, None])
    d /= len(rows)
    return loss, d


def loss_ce(logits: np.ndarray, target_bins: np.ndarray, voiced_mask: np.ndarray):
    """Mean cross-entropy over voiced frames; returns (loss, d_logits)."""
    rows = _voiced_rows(voiced_mask)
    return _ce_of_probs(softmax_rows(logits), target_bins, rows)


def loss_cents(logits: np.ndarray, f_true: np.ndarray,
               voiced_mask: np.ndarray):
    """L1 distance between expected log-frequency and log of the truth."""
    rows = _voiced_rows(voiced_mask)
    return _cents_of_probs(softmax_rows(logits), f_true, rows)


def loss_total(logits, target_bins, f_true, voiced_mask, lam: float = 1.0):
    """Classification + lam * regression; gradients add. The softmax is
    computed once and shared by both terms."""
    rows = _voiced_rows(voiced_mask)
    probs = softmax_rows(logits)
    ce, d_ce = _ce_of_probs(probs, target_bins, rows)
    if lam == 0.0:
        return ce, d_ce, ce, 0.0
    cents, d_cents = _cents_of_probs(probs, f_true, rows)
    return ce + lam * cents, d_ce + lam * d_cents, ce, cents
