"""Remake the benchmark model `perfbench/model.swf0`.

    python3 perfbench/train_model.py [--out perfbench/model.swf0]

Trains with pitchkit's own `train_loop` from a fixed seed on 500 clean
one-second clips from the benchmark's generator, in a seed namespace that no
workload uses, then reports HM on 60 held-out clips, clean and at 10 dB.
Both sides of a comparison load the committed file, so the model is made
once and kept with the benchmark.
"""
import argparse
import os
import sys
import time

import env

env.limit_blas_threads()

import numpy as np  # noqa: E402

import inputs  # noqa: E402

SEED = 0
N_TRAIN = 500
EPOCHS = 12
LR = 8e-3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__),
                                                  "model.swf0"))
    args = ap.parse_args(argv)
    pk = env.import_program()
    from pitchkit import audio_io, metrics, model, pipeline
    from pitchkit.train import TrainConfig, train_loop

    def as_program(clip):
        buf = audio_io.AudioBuffer(inputs.quantise_pcm16(clip.samples), clip.rate)
        truth = audio_io.PitchContour(inputs.HOP_S, clip.f0,
                                      clip.voiced.astype(float), clip.voiced)
        return buf, truth

    corpus = [as_program(c) for c in
              inputs.train_clips(inputs.NS_MODEL, SEED, N_TRAIN, 1.0, 1.0)]
    cfg = TrainConfig(seed=SEED, lr=LR, batch_size=16, epochs=EPOCHS)
    t0 = time.perf_counter()
    params, history = train_loop(corpus, cfg, log_callback=lambda e: print(
        f"epoch {e['epoch']} loss={e['loss']:.4f} ce={e['ce']:.4f} "
        f"cents={e['cents']:.4f} t={time.perf_counter() - t0:.0f}s", flush=True))
    model.save_params(params, args.out)

    held = inputs.heldout_clips(SEED, 60)
    for noisy in (False, True):
        hms, undefined = [], 0
        for c in held:
            if c.noisy != noisy:
                continue
            buf, truth = as_program(c)
            try:
                hms.append(metrics.evaluate(pipeline.analyze(buf, params), truth).hm)
            except pk.errors.UndefinedMetric:
                undefined += 1
        print(f"held-out {'10 dB' if noisy else 'clean'}: HM={np.mean(hms):.4f} "
              f"min={np.min(hms):.4f} over {len(hms)} clips, {undefined} undefined")
    print(f"wrote {args.out} ({pk.count_params(params)} parameters)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
