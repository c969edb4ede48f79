"""The benchmark's tracer must find every function it times.

perfbench/tracing.py wraps the program's layers by name, and a renamed or
moved function would silently drop its per-layer metric from the benchmark.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from pitchkit import model as net
from pitchkit.audio_io import AudioBuffer

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("audio_io", "augment", "baseline", "decode", "dsp", "errors",
           "losses", "metrics", "model", "pipeline", "train")


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_finds_every_traced_function():
    modules = {m: importlib.import_module(f"pitchkit.{m}") for m in MODULES}
    pipeline = modules["pipeline"]
    originals = (pipeline.analyze, pipeline.spectrogram, net.forward)
    tracer = _tracer_class()()
    tracer.install(modules)
    try:
        assert tracer.absent == []
        tracer.active = True
        pipeline.analyze(AudioBuffer(np.zeros(16000), 16000),
                         net.init_params(0))
        tracer.active = False
        names = set(tracer.totals())
        for name in ("pipeline.analyze", "dsp.spectrogram", "model.forward",
                     "model.conv0.fwd", "decode.decode_contour"):
            assert name in names
    finally:
        tracer.uninstall()
    assert (pipeline.analyze, pipeline.spectrogram, net.forward) == originals
