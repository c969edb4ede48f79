"""Evaluation suite: six-component harmonic-mean score plus chroma
accuracy and voicing F1.

Pitch-accuracy components are computed over ground-truth-voiced frames
using the estimator's raw per-frame pitch regardless of its voicing flag;
voicing quality is scored separately by precision/recall.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .audio_io import (CANONICAL_SR, AudioBuffer, PitchContour,
                       resample_linear)
from .augment import mix_at_snr, noise_excerpt
from .errors import (AlignmentError, ArgumentError, SkipExample,
                     UndefinedMetric)
from .grid import cents_error

# largest hop difference, in seconds, at which two contours' frames pair up
HOP_MATCH_S = 1e-9


@dataclass
class AlignedFrames:
    f_true: np.ndarray       # NaN where absent
    f_pred: np.ndarray       # NaN where absent
    voiced_true: np.ndarray  # bool
    voiced_pred: np.ndarray  # bool

    @property
    def n_voiced(self) -> int:
        return int(self.voiced_true.sum())


@dataclass
class EvalReport:
    rpa: float
    ca: float
    precision: float
    recall: float
    f1: float
    oa: float
    gea: float
    rca: float
    hm: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def align(pred: PitchContour, truth: PitchContour) -> AlignedFrames:
    """Pair frame i with frame i; extra tail frames on either side drop. A
    predicted F0 that is no positive finite frequency counts as absent, and
    a truth frame counts as voiced only when its F0 is one."""
    if abs(pred.hop_seconds - truth.hop_seconds) > HOP_MATCH_S:
        raise AlignmentError(
            f"hop mismatch: {pred.hop_seconds} vs {truth.hop_seconds}")
    n = min(len(pred), len(truth))
    f_pred = pred.f0_hz[:n].copy()
    f_pred[~(np.isfinite(f_pred) & (f_pred > 0.0))] = np.nan
    f_true = truth.f0_hz[:n].copy()
    return AlignedFrames(
        f_true=f_true,
        f_pred=f_pred,
        voiced_true=truth.voiced[:n] & np.isfinite(f_true) & (f_true > 0.0),
        voiced_pred=pred.voiced[:n].copy(),
    )


def _voiced_deltas(a: AlignedFrames):
    """(delta_cents with NaN for absent predictions, mask of voiced_true)."""
    if a.n_voiced == 0:
        raise UndefinedMetric("no ground-truth voiced frames")
    vt = a.voiced_true
    f_true = a.f_true[vt]
    f_pred = a.f_pred[vt]
    delta = np.full(len(f_true), np.nan)
    has = ~np.isnan(f_pred)
    if np.any(has):
        delta[has] = cents_error(f_pred[has], f_true[has])
    return delta


def rpa(a: AlignedFrames) -> float:
    """Fraction of voiced frames within 50 cents; absent predictions miss."""
    delta = _voiced_deltas(a)
    hits = np.abs(delta) < 50.0  # NaN compares false
    return float(hits.sum() / len(delta))


def rca(a: AlignedFrames) -> float:
    """RPA with errors folded modulo one octave into [-600, 600)."""
    delta = _voiced_deltas(a)
    folded = (delta + 600.0) % 1200.0 - 600.0
    hits = np.abs(folded) < 50.0
    return float(hits.sum() / len(delta))


def cents_accuracy(a: AlignedFrames) -> float:
    """exp(-mean|delta|/500) over frames that have a prediction."""
    delta = _voiced_deltas(a)
    present = ~np.isnan(delta)
    if not np.any(present):
        raise UndefinedMetric("no voiced frame carries a prediction")
    return float(np.exp(-np.mean(np.abs(delta[present])) / 500.0))


def voicing_pr(a: AlignedFrames):
    """(precision, recall, f1) of the voicing flags."""
    tp = int(np.sum(a.voiced_pred & a.voiced_true))
    fp = int(np.sum(a.voiced_pred & ~a.voiced_true))
    fn = int(np.sum(~a.voiced_pred & a.voiced_true))
    if tp + fp == 0:
        raise UndefinedMetric("no predicted-voiced frames: precision undefined")
    if tp + fn == 0:
        raise UndefinedMetric("no true-voiced frames: recall undefined")
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f1


def octave_accuracy(a: AlignedFrames) -> float:
    """exp(-10 * octave-error rate); errors are >40% relative frequency
    deviation or 1100-1300 cents absolute. Absent predictions do not count
    as octave errors (they have no octave direction)."""
    vt = a.voiced_true
    delta = _voiced_deltas(a)
    f_true = a.f_true[vt]
    f_pred = a.f_pred[vt]
    present = ~np.isnan(f_pred)
    rel = np.zeros(len(f_true), dtype=bool)
    rel[present] = np.abs(f_pred[present] / f_true[present] - 1.0) > 0.40
    absd = (np.abs(delta) >= 1100.0) & (np.abs(delta) <= 1300.0)
    errors = int(np.sum(rel | np.where(np.isnan(delta), False, absd)))
    return float(np.exp(-10.0 * errors / len(f_true)))


def gross_error_accuracy(a: AlignedFrames) -> float:
    """exp(-5 * gross-error rate); |delta| >= 200 cents or absent prediction."""
    delta = _voiced_deltas(a)
    gross = np.isnan(delta) | (np.abs(delta) >= 200.0)
    return float(np.exp(-5.0 * gross.sum() / len(delta)))


def harmonic_mean(components) -> float:
    """6 / sum(1/c); a zero component pins the result to 0 (limit)."""
    comps = list(components)
    if len(comps) != 6:
        raise ArgumentError("harmonic mean takes exactly six components")
    if any(c == 0.0 for c in comps):
        return 0.0
    return float(len(comps) / sum(1.0 / c for c in comps))


def evaluate(pred: PitchContour, truth: PitchContour) -> EvalReport:
    a = align(pred, truth)
    r_rpa = rpa(a)
    r_ca = cents_accuracy(a)
    p, r, f1 = voicing_pr(a)
    r_oa = octave_accuracy(a)
    r_gea = gross_error_accuracy(a)
    r_rca = rca(a)
    hm = harmonic_mean([r_rpa, r_ca, p, r, r_oa, r_gea])
    return EvalReport(rpa=r_rpa, ca=r_ca, precision=p, recall=r, f1=f1,
                      oa=r_oa, gea=r_gea, rca=r_rca, hm=hm)


def average_reports(reports) -> EvalReport:
    """Arithmetic per-metric mean across files."""
    reports = list(reports)
    if not reports:
        raise UndefinedMetric("no reports to average")
    vals = {f.name: float(np.mean([getattr(r, f.name) for r in reports]))
            for f in fields(EvalReport)}
    return EvalReport(**vals)


def evaluate_noisy(estimator, corpus, snr_db: float = 10.0, seed: int = 0,
                   noise_signals=None) -> EvalReport:
    """Mix noise into each clean file at exactly snr_db, estimate, average.

    estimator: AudioBuffer -> PitchContour. corpus: iterable of
    (AudioBuffer, truth PitchContour); each file is resampled to
    CANONICAL_SR before the noise is mixed in. noise_signals: optional list
    of non-empty arrays of samples at CANONICAL_SR; Gaussian noise is used
    when the list is empty. A file is skipped when it is silent or when its
    metrics are undefined (e.g. no frame predicted voiced); UndefinedMetric
    is raised only when every file was skipped. A negative seed or a
    non-finite snr_db raises ArgumentError.
    """
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if not np.isfinite(snr_db):
        raise ArgumentError(f"snr_db must be finite, got {snr_db}")
    if noise_signals and any(len(src) == 0 for src in noise_signals):
        raise ArgumentError("a noise signal has no samples")
    rng = np.random.default_rng(seed)
    reports = []
    for buf, truth in corpus:
        buf = resample_linear(buf, CANONICAL_SR)
        if noise_signals:
            noise = noise_excerpt(noise_signals, len(buf.samples), rng)
        else:
            noise = rng.standard_normal(len(buf.samples))
        try:
            mixed = mix_at_snr(buf.samples, noise, snr_db)
        except SkipExample:
            continue
        pred = estimator(AudioBuffer(np.clip(mixed, -1.0, 1.0),
                                     buf.sample_rate_hz))
        try:
            reports.append(evaluate(pred, truth))
        except UndefinedMetric:
            continue
    return average_reports(reports)
