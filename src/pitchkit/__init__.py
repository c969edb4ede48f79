"""Lightweight monophonic pitch estimation toolkit.

Spectral front-end, compact CNN with hand-written backprop, local
expected-value decoding, cents-domain evaluation metrics, and a synthetic
corpus generator with exact ground-truth F0.
"""
from .audio_io import (AudioBuffer, PitchContour, read_contour_csv, read_wav,
                       resample_linear, write_contour_csv, write_wav)
from .decode import DecoderConfig, decode_contour
from .dsp import spectrogram
from .grid import cents_error
from .metrics import EvalReport, evaluate, evaluate_noisy
from .model import ModelParams, count_params, init_params, load_params, save_params
from .pipeline import analyze
from .synth import SynthSpec, synth_example
from .train import TrainConfig, train_loop

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer", "PitchContour", "read_wav", "write_wav", "resample_linear",
    "read_contour_csv", "write_contour_csv", "spectrogram",
    "cents_error", "ModelParams", "init_params", "count_params",
    "save_params", "load_params", "DecoderConfig", "decode_contour",
    "EvalReport", "evaluate", "evaluate_noisy", "SynthSpec", "synth_example",
    "TrainConfig", "train_loop", "analyze",
]
