"""End-to-end estimator: audio -> spectrogram -> network -> contour."""
from __future__ import annotations

from . import model as net
from .audio_io import AudioBuffer, PitchContour, resample_linear
from .decode import DecoderConfig, decode_contour
from .dsp import spectrogram


def analyze(buf: AudioBuffer, params: net.ModelParams,
            dec_cfg: DecoderConfig | None = None) -> PitchContour:
    """Estimate the pitch contour of an audio buffer at any sample rate.

    OpenBLAS is held at one thread through the spectrogram and the network,
    which runs on two threads of its own: a helper thread OpenBLAS left
    spinning after the spectrogram's GEMMs would take the second CPU.
    Raises FormatError when the logits are not all finite, as weights
    holding a NaN or an infinity give (`model.forward`)."""
    dec_cfg = dec_cfg or DecoderConfig()
    buf = resample_linear(buf)
    with net.one_blas_thread():
        logits = net.forward(params, spectrogram(buf))
    return decode_contour(logits, dec_cfg)

