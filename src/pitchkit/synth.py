"""Parametric harmonic synthesizer with exact ground-truth pitch.

Signals are sums of harmonics of a phase-continuous fundamental, so the
per-frame F0 labels are exact by construction rather than estimated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import CANONICAL_SR, HOP_SECONDS, AudioBuffer, PitchContour
from .dsp import WINDOW, frames
from .errors import ArgumentError, RangeError
from .grid import F_MAX_HZ, F_MIN_HZ


@dataclass
class SynthSpec:
    """Trajectory kinds: 'constant', 'glide' (log-linear f0->f1), 'vibrato'."""

    kind: str = "constant"
    f0_hz: float = 220.0
    f1_hz: float = 220.0            # glide endpoint
    vibrato_rate_hz: float = 5.0
    vibrato_depth_cents: float = 50.0
    n_harmonics: int = 5
    rolloff: float = 1.0            # amplitude of harmonic h is h**-rolloff
    duration_s: float = 1.0
    phase0: float = 0.0


def f0_trajectory(spec: SynthSpec, t: np.ndarray) -> np.ndarray:
    """Instantaneous fundamental at times t (seconds)."""
    if spec.kind == "constant":
        f0 = np.full_like(t, spec.f0_hz)
    elif spec.kind == "glide":
        # log-domain glide: constant cents/second
        frac = t / max(t[-1], 1e-12) if len(t) else t
        f0 = spec.f0_hz * (spec.f1_hz / spec.f0_hz) ** frac
    elif spec.kind == "vibrato":
        ratio = 2.0 ** (spec.vibrato_depth_cents / 1200.0
                        * np.sin(2.0 * np.pi * spec.vibrato_rate_hz * t))
        f0 = spec.f0_hz * ratio
    else:
        raise ArgumentError(f"unknown trajectory kind {spec.kind!r}")
    return f0


def _clip_samples(duration_s: float) -> int:
    """Samples of a clip of duration_s at CANONICAL_SR; raises RangeError
    when they are fewer than one analysis window, as the truth contour
    would have no frame."""
    n = int(round(duration_s * CANONICAL_SR))
    if n < WINDOW:
        raise RangeError(f"{n} samples is shorter than one "
                         f"{WINDOW}-sample analysis window")
    return n


def synth_example(spec: SynthSpec):
    """Render the signal at CANONICAL_SR and its exact hop-grid contour.

    Returns (AudioBuffer, PitchContour); raises RangeError for a clip
    shorter than one analysis window or a trajectory outside the pitch
    range. Contour frame m carries the instantaneous F0 at the center of
    analysis frame m (samples [m*HOP, m*HOP + WINDOW)), timestamped at
    m*HOP_SECONDS.
    """
    sr = CANONICAL_SR
    n = _clip_samples(spec.duration_s)
    t = np.arange(n) / sr
    f0 = f0_trajectory(spec, t)
    if np.any(f0 < F_MIN_HZ) or np.any(f0 > F_MAX_HZ):
        raise RangeError("trajectory leaves the supported pitch range")
    if spec.n_harmonics < 1:
        raise ArgumentError("need at least one harmonic")

    phase = spec.phase0 + np.cumsum(f0) / sr  # cycles, phase-continuous
    sig = np.zeros(n)
    for h in range(1, spec.n_harmonics + 1):
        sig += h ** (-spec.rolloff) * np.sin(2.0 * np.pi * h * phase)
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig *= 0.9 / peak
    buf = AudioBuffer(sig, sr)

    labels = frames(f0)[:, WINDOW // 2].copy()  # F0 at each frame's centre
    truth = PitchContour(
        hop_seconds=HOP_SECONDS,
        f0_hz=labels,
        confidence=np.ones(len(labels)),
        voiced=np.ones(len(labels), dtype=bool),
    )
    return buf, truth


def random_spec(rng: np.random.Generator, duration_s: float = 1.0,
                f_low: float = 100.0, f_high: float = 1000.0) -> SynthSpec:
    """Random constant/glide/vibrato example inside [f_low, f_high]; raises
    ArgumentError unless 0 < f_low <= f_high and duration_s > 0, all finite,
    and the duration's samples fit in one float64 array, and RangeError
    when they are fewer than one analysis window (`_clip_samples`)."""
    if not (0.0 < f_low <= f_high < np.inf and 0.0 < duration_s < np.inf):
        raise ArgumentError(f"need finite 0 < f_low <= f_high and duration "
                            f"> 0, got {f_low}, {f_high} and {duration_s}")
    if duration_s * CANONICAL_SR > np.iinfo(np.intp).max // 8:
        raise ArgumentError(f"a {duration_s} s clip has more samples than "
                            f"one float64 array can hold")
    _clip_samples(duration_s)
    kind = rng.choice(["constant", "glide", "vibrato"])
    # sample pitch log-uniformly
    logf = rng.uniform(np.log(f_low), np.log(f_high))
    f0 = float(np.exp(logf))
    spec = SynthSpec(
        kind=str(kind),
        f0_hz=f0,
        n_harmonics=int(rng.integers(3, 11)),
        rolloff=float(rng.uniform(0.5, 1.5)),
        duration_s=duration_s,
        phase0=float(rng.uniform(0.0, 1.0)),
    )
    if kind == "glide":
        # bounded glide of at most +-5 semitones, kept inside the range
        ratio = 2.0 ** rng.uniform(-5 / 12, 5 / 12)
        spec.f1_hz = float(np.clip(f0 * ratio, f_low, f_high))
    elif kind == "vibrato":
        spec.vibrato_rate_hz = float(rng.uniform(4.0, 7.0))
        spec.vibrato_depth_cents = float(rng.uniform(20.0, 80.0))
    return spec
