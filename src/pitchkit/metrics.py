"""Evaluation suite: six-component harmonic-mean score plus chroma
accuracy and voicing F1.

Scoring rules. Predicted frame i pairs with truth frame i: the two hops must
agree within HOP_MATCH_S, and extra tail frames on either side drop. A
predicted F0 that is not a finite, positive frequency counts as absent, and a
truth frame counts as voiced only when it is flagged voiced and its F0 is a
finite, positive frequency. The pitch components score the estimator's F0 on
every truth-voiced frame whatever its voicing flag; voicing quality is scored
separately by precision and recall.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .audio_io import AudioBuffer, PitchContour, resample_linear
from .augment import mix_at_snr, noise_excerpt
from .errors import (AlignmentError, ArgumentError, SkipExample,
                     UndefinedMetric)
from .grid import cents_error

# largest hop difference, in seconds, at which two contours' frames pair up
HOP_MATCH_S = 1e-9


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


def harmonic_mean(components) -> float:
    """6 / sum(1/c); a zero component pins the result to 0 (limit)."""
    comps = list(components)
    if len(comps) != 6:
        raise ArgumentError("harmonic mean takes exactly six components")
    if any(c == 0.0 for c in comps):
        return 0.0
    return float(len(comps) / sum(1.0 / c for c in comps))


def evaluate(pred: PitchContour, truth: PitchContour) -> EvalReport:
    """Score pred against truth under the module's scoring rules.

    Over the n truth-voiced frames, d is a frame's cents error
    1200·log2(f_pred / f_true), defined where the prediction is present:
    - rpa: the share of frames with |d| < 50; an absent prediction misses.
    - rca: rpa with d folded modulo one octave into [-600, 600).
    - ca: exp(-mean|d| / 500) over the frames with a prediction.
    - oa: exp(-10·e / n), e the frames whose prediction is off by more than
      40 % in frequency (|f_pred / f_true - 1| > 0.40) or by 1100-1300
      cents; an absent prediction has no octave direction and is no error.
    - gea: exp(-5·g / n), g the frames with |d| >= 200 or no prediction.
    - precision, recall and f1 of the voicing flags against truth-voiced.
    - hm: harmonic_mean of rpa, ca, precision, recall, oa and gea.

    Raises AlignmentError when the hops differ, and UndefinedMetric when
    truth has no voiced frame, when no truth-voiced frame has a prediction,
    or when no frame is predicted voiced, checked in that order.
    """
    if abs(pred.hop_seconds - truth.hop_seconds) > HOP_MATCH_S:
        raise AlignmentError(
            f"hop mismatch: {pred.hop_seconds} vs {truth.hop_seconds}")
    n = min(len(pred), len(truth))
    f_true = truth.f0_hz[:n]
    voiced_true = truth.voiced[:n] & np.isfinite(f_true) & (f_true > 0.0)
    n_voiced = int(voiced_true.sum())
    if n_voiced == 0:
        raise UndefinedMetric(
            f"no ground-truth voiced frames in {n} paired frames "
            f"(prediction {len(pred)} frames, truth {len(truth)})")
    f_pred, f_true = pred.f0_hz[:n][voiced_true], f_true[voiced_true]
    present = np.isfinite(f_pred) & (f_pred > 0.0)
    if not present.any():
        raise UndefinedMetric("no voiced frame carries a prediction")
    voiced_pred = pred.voiced[:n]
    n_pred = int(voiced_pred.sum())
    if n_pred == 0:
        raise UndefinedMetric("no predicted-voiced frames: precision undefined")

    f_pred, f_true = f_pred[present], f_true[present]
    d = cents_error(f_pred, f_true)
    abs_d = np.abs(d)
    octave_errors = int(np.sum((np.abs(f_pred / f_true - 1.0) > 0.40)
                               | ((abs_d >= 1100.0) & (abs_d <= 1300.0))))
    gross = n_voiced - len(d) + int(np.sum(abs_d >= 200.0))
    tp = int(np.sum(voiced_pred & voiced_true))

    r_rpa = float(np.sum(abs_d < 50.0) / n_voiced)
    r_ca = float(np.exp(-np.mean(abs_d) / 500.0))
    p, r = tp / n_pred, tp / n_voiced
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    r_oa = float(np.exp(-10.0 * octave_errors / n_voiced))
    r_gea = float(np.exp(-5.0 * gross / n_voiced))
    r_rca = float(np.sum(np.abs((d + 600.0) % 1200.0 - 600.0) < 50.0) / n_voiced)
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
    is raised only when every file was skipped, counting both kinds and
    quoting the last metric failure. A negative seed or a
    non-finite snr_db raises ArgumentError.
    """
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if not np.isfinite(snr_db):
        raise ArgumentError(f"snr_db must be finite, got {snr_db}")
    if noise_signals and any(len(src) == 0 for src in noise_signals):
        raise ArgumentError("a noise signal has no samples")
    rng = np.random.default_rng(seed)
    reports, silent, undefined, last = [], 0, 0, ""
    for buf, truth in corpus:
        buf = resample_linear(buf)
        if noise_signals:
            noise = noise_excerpt(noise_signals, len(buf.samples), rng)
        else:
            noise = rng.standard_normal(len(buf.samples))
        try:
            mixed = mix_at_snr(buf.samples, noise, snr_db)
        except SkipExample:
            silent += 1
            continue
        pred = estimator(AudioBuffer(np.clip(mixed, -1.0, 1.0),
                                     buf.sample_rate_hz))
        try:
            reports.append(evaluate(pred, truth))
        except UndefinedMetric as exc:
            undefined, last = undefined + 1, f"; last: {exc}"
    if not reports:
        raise UndefinedMetric(f"no file scored: {silent} silent, {undefined} "
                              f"with undefined metrics{last}")
    return average_reports(reports)
