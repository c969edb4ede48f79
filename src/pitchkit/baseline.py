"""Model-free autocorrelation baseline so the evaluation harness can run
before any network has been trained."""
from __future__ import annotations

import numpy as np

from .audio_io import (CANONICAL_SR, HOP, HOP_SECONDS, AudioBuffer,
                       PitchContour, resample_linear)
from .dsp import WINDOW
from .errors import InputTooShort
from .grid import F_MAX_HZ, F_MIN_HZ


def acf_contour(buf: AudioBuffer) -> PitchContour:
    """Per-frame normalized autocorrelation peak over the pitch lag range,
    on the front-end's frames (WINDOW samples, HOP apart, at CANONICAL_SR).

    Confidence is the normalized peak height, and a frame is voiced when it
    reaches 0.5; parabolic interpolation refines the lag.
    """
    buf = resample_linear(buf, CANONICAL_SR)
    x = buf.samples
    n, h, sr = WINDOW, HOP, CANONICAL_SR
    if len(x) < n:
        raise InputTooShort(f"need at least {n} samples")
    lag_min = max(int(np.floor(sr / F_MAX_HZ)), 2)
    lag_max = min(int(np.ceil(sr / F_MIN_HZ)), n - 2)

    t = (len(x) - n) // h + 1
    f0 = np.full(t, np.nan)
    conf = np.zeros(t)
    for m in range(t):
        frame = x[m * h:m * h + n]
        frame = frame - frame.mean()
        energy = float(np.dot(frame, frame))
        if energy == 0.0:
            continue
        ac = np.correlate(frame, frame, mode="full")[n - 1:]
        ac = ac / energy
        window = ac[lag_min:lag_max + 1]
        rel = int(np.argmax(window))
        lag = lag_min + rel
        peak = float(window[rel])
        # parabolic refinement around the integer-lag peak; lag_min >= 2 and
        # lag_max <= n - 2 keep lag - 1 and lag + 1 inside ac
        a, b, c = ac[lag - 1], ac[lag], ac[lag + 1]
        denom = a - 2 * b + c
        if denom != 0:
            lag = lag + 0.5 * (a - c) / denom
        f0[m] = sr / lag
        conf[m] = max(min(peak, 1.0), 0.0)
    voiced = conf >= 0.5
    return PitchContour(hop_seconds=HOP_SECONDS, f0_hz=f0,
                        confidence=conf, voiced=voiced)
