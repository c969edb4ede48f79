"""End-to-end estimator: audio -> spectrogram -> network -> contour.

`analyze` is its three stages and nothing else: `front_end`,
`model.forward` and `decode_contour`. `pitchkit bench` times those same
three calls. Each BLAS stage takes its own OpenBLAS hold: `front_end` for
the spectrogram, `model.forward` for its blocks (`model.run_blocks`).
"""
from __future__ import annotations

import numpy as np

from . import model as net
from .audio_io import AudioBuffer, PitchContour, resample_linear
from .decode import DecoderConfig, decode_contour
from .dsp import spectrogram


def front_end(buf: AudioBuffer) -> np.ndarray:
    """The (T, 132) spectrogram of a buffer at any sample rate from MIN_SR
    (4187.5 Hz) up, resampled to CANONICAL_SR first.

    The spectrogram runs with OpenBLAS held at one thread: a helper thread
    OpenBLAS left spinning after the spectrogram's GEMMs would take the
    second CPU from the network's two block threads."""
    buf = resample_linear(buf)
    with net.one_blas_thread():
        return spectrogram(buf)


def analyze(buf: AudioBuffer, params: net.ModelParams,
            dec_cfg: DecoderConfig | None = None) -> PitchContour:
    """Estimate the pitch contour of an audio buffer at any sample rate from
    MIN_SR up.
    Raises FormatError when the logits are not all finite, as weights
    holding a NaN or an infinity give (`model.forward`)."""
    return decode_contour(net.forward(params, front_end(buf)),
                          dec_cfg or DecoderConfig())
