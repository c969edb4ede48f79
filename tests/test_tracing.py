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
from pitchkit.synth import SynthSpec, synth_example
from pitchkit.train import TrainConfig, train_loop

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


def test_tracer_sees_train_step_on_two_threads():
    # the train step's halves run on two threads; each wrapped layer of it
    # must still record its spans
    modules = {m: importlib.import_module(f"pitchkit.{m}") for m in MODULES}
    corpus = [synth_example(SynthSpec(kind="constant", f0_hz=f0,
                                      n_harmonics=4, duration_s=1.0))
              for f0 in (200.0, 400.0)]
    tracer = _tracer_class()()
    tracer.install(modules)
    try:
        tracer.active = True
        train_loop(corpus, TrainConfig(epochs=1, batch_size=2))
        tracer.active = False
        names = set(tracer.totals())
    finally:
        tracer.uninstall()
    for name in ("model.forward_batch", "model.backward_batch", "model.bn.fwd",
                 "model.bn.bwd", "model.conv3.bwd", "train.adam_step"):
        assert name in names
