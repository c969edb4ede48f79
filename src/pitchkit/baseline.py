"""Model-free autocorrelation baseline so the evaluation harness can run
before any network has been trained."""
from __future__ import annotations

import numpy as np

from .audio_io import AudioBuffer, PitchContour, resample_linear
from .dsp import StftConfig
from .errors import InputTooShort


def acf_contour(buf: AudioBuffer, stft_cfg: StftConfig | None = None,
                voicing_threshold: float = 0.5) -> PitchContour:
    """Per-frame normalized autocorrelation peak over the pitch lag range.

    Confidence is the normalized peak height; parabolic interpolation
    refines the lag.
    """
    cfg = stft_cfg or StftConfig()
    if buf.sample_rate_hz != cfg.sample_rate_hz:
        buf = resample_linear(buf, cfg.sample_rate_hz)
    x = buf.samples
    n, h, sr = cfg.window_len, cfg.hop, cfg.sample_rate_hz
    if len(x) < n:
        raise InputTooShort(f"need at least {n} samples")
    lag_min = max(int(np.floor(sr / cfg.f_max)), 2)
    lag_max = min(int(np.ceil(sr / cfg.f_min)), n - 2)

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
        # parabolic refinement around the integer-lag peak
        if 0 < lag < len(ac) - 1:
            a, b, c = ac[lag - 1], ac[lag], ac[lag + 1]
            denom = a - 2 * b + c
            if denom != 0:
                lag = lag + 0.5 * (a - c) / denom
        f0[m] = sr / lag
        conf[m] = max(min(peak, 1.0), 0.0)
    voiced = conf >= voicing_threshold
    return PitchContour(hop_seconds=cfg.hop_seconds, f0_hz=f0,
                        confidence=conf, voiced=voiced)
