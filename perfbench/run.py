"""pitchkit benchmark: short clips, long recordings and training.

    python3 perfbench/run.py --workload {clips,long,train,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Each run makes its inputs from --seed, times the program's set-up (loading
the weights) many times (the median is `setup_s`), runs whole rounds of the
workload until --seconds have passed, checks every output, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones from spans recorded around each layer's functions.
--workload all runs the three workloads, each in a fresh process.
"""
import argparse
import copy
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import env

BLAS_THREADS = env.limit_blas_threads()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("clips", "long", "train")
MODEL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "model.swf0")
SETUP_REPEATS = 50
SETUP_SECONDS = 1.0
HM_FLOOR = 0.80          # hm_clean against exact labels, clips and long
REF_FILES_PER_RUN = 2    # 16 kHz clips checked against the reference network
LONG_REF_WINDOWS = 2     # stretches of each long file checked the same way
LONG_REF_FRAMES = 120
TRAIN_CLIPS = 16         # one batch: an epoch of train_loop is one step
TRAIN_SNAPSHOT_STEP = 8  # quality and CE are judged on the weights after this step
TRAIN_HELDOUT = 24
# Share of its starting value the CE on the training clips must fall below
# in eight steps. Over seeds 11-22 it fell to 0.25-0.71 of it; with zero
# gradients it ended at 0.96-1.02 (batch-norm statistics still move), and
# with negated gradients it grew three- to sevenfold.
TRAIN_CE_FALL = 0.9
# Nats fine-tuning may add to the held-out CE. Over seeds 11-22 eight steps
# moved it by -0.06 to +0.16; with negated gradients they added 1.3.
CE_SLACK = 0.5


class Stop(Exception):
    """Raised from train_loop's epoch callback to end a timed training run."""


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def rounds_until(deadline_s, run_round):
    """Run whole rounds, at least one, until deadline_s seconds have passed."""
    start = time.perf_counter()
    durations = []
    while not durations or time.perf_counter() - start < deadline_s:
        t0 = time.perf_counter()
        run_round()
        durations.append(time.perf_counter() - t0)
    return durations


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(load):
    """The program's set-up, loading the weights, run at least SETUP_REPEATS
    times and for at least SETUP_SECONDS; its last result and median time."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        out = load()
        times.append(time.perf_counter() - t0)
    return out, float(np.median(times))


def program_modules():
    env.import_program()
    from pitchkit import (audio_io, augment, baseline, decode, dsp, errors, losses,
                          metrics, model, pipeline, train)
    return dict(audio_io=audio_io, augment=augment, baseline=baseline, decode=decode,
                dsp=dsp, errors=errors, losses=losses, metrics=metrics, model=model,
                pipeline=pipeline, train=train)


# ---------------------------------------------------------------------------
# clips and long: the per-file operation
# ---------------------------------------------------------------------------

def file_workload(pk, clips_of_seed, args, workdir, tracer):
    audio_io, pipeline, metrics = pk["audio_io"], pk["pipeline"], pk["metrics"]
    baseline, model = pk["baseline"], pk["model"]
    failure = pk["errors"].PitchkitError

    clips = clips_of_seed(args.seed)
    for c in clips:
        inputs.write_pcm16_wav(os.path.join(workdir, c.name + ".wav"), c.samples, c.rate)
        inputs.write_truth_csv(os.path.join(workdir, c.name + ".truth.csv"), c)
    params, setup_s = timed_setup(lambda: model.load_params(MODEL_PATH))

    latencies, results = [], {}
    counts = {"attempted": 0, "failed": 0}
    state = {"audio_s": 0.0, "overhead_s": None}  # audio of the operations that succeeded

    def per_file(c):
        """What a user of the pitch benchmark does with each file: read it,
        estimate the contour (resampling when not at 16 kHz), save it, read
        the labels, score, and run the autocorrelation baseline on it."""
        base = os.path.join(workdir, c.name)
        buf = audio_io.read_wav(base + ".wav")
        contour = pipeline.analyze(buf, params)
        audio_io.write_contour_csv(contour, base + ".pred.csv")
        truth = audio_io.read_contour_csv(base + ".truth.csv")
        report = metrics.evaluate(contour, truth)
        acf = baseline.acf_contour(buf)
        return contour, report, acf

    def attempt(c):
        """One per-file operation; its latency, or None when it failed."""
        counts["attempted"] += 1
        t0 = time.perf_counter()
        try:
            results[c.name] = per_file(c)
        except failure as exc:
            counts["failed"] += 1
            print(f"perfbench: {c.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        latencies.append(time.perf_counter() - t0)
        state["audio_s"] += c.seconds
        return latencies[-1]

    def one_round():
        for c in clips:
            attempt(c)

    def paired_round():
        """Each file twice in a row, untraced and traced, the order
        alternating from file to file; the traced minus the untraced time,
        summed over the files, is the cost of tracing a round."""
        overhead = 0.0
        for i, c in enumerate(clips):
            took = {}
            for traced in (False, True) if i % 2 == 0 else (True, False):
                tracer.active = traced
                took[traced] = attempt(c)
            tracer.active = False
            if None not in took.values():
                overhead += took[True] - took[False]
        state["overhead_s"] = overhead

    per_file(clips[0])  # warm-up: first-call costs are not a file's latency
    durations = rounds_until(0 if args.trace else args.seconds,
                             paired_round if args.trace else one_round)
    rss = peak_rss_mb()
    print(f"perfbench: round seconds {[round(d, 3) for d in durations]}", file=sys.stderr)

    weights = ref.read_weights(MODEL_PATH)
    check_files(weights, clips, results, args.seed)
    probe = next(c for c in clips if c.rate == inputs.SR and not c.noisy and c.name in results)
    contour, report, acf = results[probe.name]
    ref.self_test(weights, probe, (contour.f0_hz, contour.confidence, contour.voiced),
                  (acf.f0_hz, acf.confidence, acf.voiced), report.as_dict(), HM_FLOOR)
    hm = {noisy: [results[c.name][1].hm for c in clips if c.noisy == noisy and c.name in results]
          for noisy in (False, True)}
    ref.require(np.mean(hm[False]) > HM_FLOOR,
                f"hm_clean {np.mean(hm[False]):.4f} below the floor {HM_FLOOR}")
    metrics_out = {
        "setup_s": (setup_s, "s"),
        "audio_s_per_s": (state["audio_s"] / sum(durations), "s/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(latencies, 90), "ms"),
        "hm_clean": (float(np.mean(hm[False])), "ratio"),
        "hm_10db": (float(np.mean(hm[True])), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return counts, metrics_out, len(durations), state["overhead_s"]


def check_files(weights, clips, results, seed):
    """Shape, range, reference network, metric recount and ACF checks."""
    sample = [c.name for c in clips if c.rate == inputs.SR and c.seconds <= 4.0]
    rng = np.random.default_rng(seed)
    ref_names = set(rng.permutation(sample)[:REF_FILES_PER_RUN])
    for c in clips:
        if c.name not in results:
            continue
        contour, report, acf = results[c.name]
        arrays = (contour.f0_hz, contour.confidence, contour.voiced)
        ref.check_contour_shape(*arrays, c.n16, c.name)
        ref.check_report(report.as_dict(),
                         ref.recount(contour.f0_hz, contour.voiced, c.f0, c.voiced), c.name)
        if c.rate != inputs.SR:
            continue
        x16 = inputs.quantise_pcm16(c.samples)
        ref.check_acf(acf.f0_hz, acf.confidence, acf.voiced, x16, c.name + " acf")
        if c.name in ref_names:
            logits = ref.ref_logits(weights, ref.ref_spectrogram(x16))
            ref.check_against_reference(*arrays, logits, c.name)
        elif len(contour) > 2 * LONG_REF_FRAMES:
            check_stretches(weights, x16, arrays, rng, c.name)


def check_stretches(weights, x16, arrays, rng, what):
    """Reference network on a few stretches of a long file. A frame's output
    depends on RECEPTIVE frames each side, so the reference runs on the
    stretch widened by that margin and only the inner frames are compared."""
    n = len(arrays[0])
    margin = ref.RECEPTIVE + 2
    for s in rng.integers(0, n - LONG_REF_FRAMES, LONG_REF_WINDOWS):
        a, b = max(s - margin, 0), min(s + LONG_REF_FRAMES + margin, n)
        seg = x16[a * inputs.HOP:(b - 1) * inputs.HOP + inputs.WINDOW]
        logits = ref.ref_logits(weights, ref.ref_spectrogram(seg))
        lo, hi = s - a, s - a + LONG_REF_FRAMES
        ref.check_against_reference(*(x[s:s + LONG_REF_FRAMES] for x in arrays),
                                    logits[lo:hi], f"{what} frames {s}..")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def train_workload(pk, args, tracer):
    """Fine-tune the benchmark model: one train_loop call whose epochs are
    one batch of 16 each, timed per epoch until the deadline. Quality is
    judged on the weights after a fixed step count, so it does not depend on
    how fast the machine is.

    Training from scratch would fit a run only for a few dozen steps, and
    over the first 24 steps the held-out cross-entropy rises (measured:
    5.30 -> 6.0-7.3), so a from-scratch run could neither show learning nor
    give an HM above 0."""
    audio_io, model, train = pk["audio_io"], pk["model"], pk["train"]
    pipeline, metrics = pk["pipeline"], pk["metrics"]
    skip = pk["errors"].SkipExample

    def as_pair(c):
        return (audio_io.AudioBuffer(inputs.quantise_pcm16(c.samples), c.rate),
                audio_io.PitchContour(inputs.HOP_S, c.f0, c.voiced.astype(float), c.voiced))

    train_set = inputs.train_clips(inputs.NS_TRAIN, args.seed, TRAIN_CLIPS)
    corpus = [as_pair(c) for c in train_set]
    train_ref = [(ref.ref_spectrogram(inputs.quantise_pcm16(c.samples)), c.f0, c.voiced)
                 for c in train_set]
    held = inputs.heldout_clips(args.seed, TRAIN_HELDOUT)
    held_batch = heldout_batch(held)
    params, setup_s = timed_setup(lambda: model.load_params(MODEL_PATH))

    def held_ce(p):
        return ref.cross_entropy(model.forward_batch(p, held_batch[0])[0], *held_batch[1:])

    def train_ce(p):
        """CE over every frame of the training clips, without augmentation."""
        logits = [model.forward_batch(p, spec[None])[0][0] for spec, _, _ in train_ref]
        return ref.cross_entropy(np.concatenate(logits),
                                 *(np.concatenate([x[i][:len(x[0])] for x in train_ref])
                                   for i in (1, 2)))
    start = copy.deepcopy(params)
    ce_start, train_ce_start = held_ce(params), train_ce(params)
    ce_untrained = held_ce(model.init_params(0))
    tracer.count_skips([train], "extract_segment", skip)
    tracer.count_skips([train], "augment", skip)

    cfg = train.TrainConfig(seed=0, lr=1e-3, batch_size=16, epochs=10 ** 6)
    marks = [time.perf_counter()]
    traced = [False]  # per step; step 1, the warm-up, is untraced
    state = {}

    def on_epoch(entry):
        """Traced, the steps after the warm-up come in pairs, one untraced
        and one traced, the order alternating from pair to pair."""
        marks.append(time.perf_counter())
        done = len(marks) - 1
        if done == TRAIN_SNAPSHOT_STEP:
            state["snapshot"] = copy.deepcopy(params)
        if (done >= TRAIN_SNAPSHOT_STEP and marks[-1] - marks[1] >= args.seconds
                and not (args.trace and done % 2 == 0)):
            raise Stop
        pair, second = divmod(done - 1, 2)  # of the next step
        tracer.active = bool(args.trace) and second != pair % 2
        traced.append(tracer.active)

    try:
        train.train_loop(corpus, cfg, params=params, log_callback=on_epoch)
    except Stop:
        pass
    tracer.active = False
    rss = peak_rss_mb()
    steps = np.diff(marks)
    timed = steps[1:]
    counts = {"attempted": len(steps) * len(corpus), "failed": tracer.skipped}
    overhead_s = None
    if args.trace:
        on = steps[np.array(traced)]
        off = steps[1:][~np.array(traced[1:])]
        overhead_s = float(np.median(on - off))

    trained = state["snapshot"]
    check_training(trained, start, held_ce, train_ce, ce_start, train_ce_start, ce_untrained)
    ref.require(tracer.skipped == 0, f"train: {tracer.skipped} examples skipped")
    hm = {False: [], True: []}
    for c in held:
        buf, truth = as_pair(c)
        hm[c.noisy].append(metrics.evaluate(pipeline.analyze(buf, trained), truth).hm)
    metrics_out = {
        "setup_s": (setup_s, "s"),
        "audio_s_per_s": (len(timed) * len(corpus) * train.SEGMENT_SECONDS
                          / float(np.sum(timed)), "s/s"),
        "latency_p50_ms": (1e3 * percentile(timed, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(timed, 90), "ms"),
        "hm_clean": (float(np.mean(hm[False])), "ratio"),
        "hm_10db": (float(np.mean(hm[True])), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return counts, metrics_out, sum(traced), overhead_s


def check_training(trained, start, held_ce, train_ce, ce_start, train_ce_start,
                   ce_untrained):
    """Finite weights that moved; a training CE that fell; a held-out CE
    well below that of untrained weights and not much above that of the
    starting weights. Also plants the weights a step with zero gradients leaves (the starting
    weights, with the batch-norm statistics training moved) and those of a
    step taken the wrong way (the update negated); both must be rejected."""
    def check(p):
        for name, arr in p.trainable().items():
            ref.require(np.all(np.isfinite(arr)), f"train: {name} not finite")
        ref.require(any(np.any(w != start.trainable()[name])
                        for name, w in p.trainable().items()),
                    "train: no trainable weight moved")
        before, after = train_ce_start, train_ce(p)
        ref.require(after < TRAIN_CE_FALL * before,
                    f"train: training-set CE {before:.3f} -> {after:.3f}, "
                    f"not below {TRAIN_CE_FALL} of the start")
        ce_after = held_ce(p)
        ref.require(ce_after < 0.5 * ce_untrained,
                    f"train: held-out CE {ce_after:.3f} not well below that of untrained "
                    f"weights, {ce_untrained:.3f}")
        ref.require(ce_after < ce_start + CE_SLACK,
                    f"train: fine-tuning raised held-out CE from {ce_start:.3f} "
                    f"to {ce_after:.3f}")
    check(trained)

    still, wrong_way = copy.deepcopy(trained), copy.deepcopy(trained)
    for name, w0 in start.trainable().items():
        w = trained.trainable()[name]
        still.trainable()[name][...] = w0
        wrong_way.trainable()[name][...] = 2 * w0 - w
    ref.require_rejected([("zero gradients", ref.rejects(check, still)),
                          ("negated update", ref.rejects(check, wrong_way))])


def heldout_batch(held):
    """(B, T, 132) reference spectrograms of the first 0.5 s of each clip,
    with labels, for the cross-entropy check."""
    n = 8000
    specs = [ref.ref_spectrogram(inputs.quantise_pcm16(c.samples[:n])) for c in held]
    t = len(specs[0])
    return (np.stack(specs), np.concatenate([c.f0[:t] for c in held]),
            np.concatenate([c.voiced[:t] for c in held]))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(args) -> dict:
    pk = program_modules()
    workdir = os.path.join(env.ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer()
    if args.trace:
        tracer.install(pk)
    try:
        if args.workload == "train":
            counts, m, rounds, overhead_s = train_workload(pk, args, tracer)
        else:
            make = inputs.clips if args.workload == "clips" else inputs.long_recordings
            counts, m, rounds, overhead_s = file_workload(pk, make, args, workdir, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.write(os.path.join(env.ROOT, ".perfbench",
                                  f"trace-{args.workload}-{args.seed}.json"))
        metrics_out = tracer.per_layer(rounds, overhead_s)
        if tracer.absent:
            print(f"perfbench: absent layers: {tracer.absent}", file=sys.stderr)
    else:
        metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return {"correct": True, "attempted": counts["attempted"], "failed": counts["failed"],
            "metrics": metrics_out}


def run_all(args):
    """Each workload in a fresh process; the last line sums them up."""
    out = {}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=env.ROOT)
        lines = proc.stdout.strip().splitlines()
        out[w] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        print(w, json.dumps(out[w]), flush=True)
    ok = all(r is not None and r["correct"] for r in out.values())
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in out.values() if r),
                      "failed": sum(r["failed"] for r in out.values() if r),
                      "workloads": out}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"perfbench: {args.workload} seed={args.seed} cpus={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS} numpy={np.__version__} "
          f"blas={blas['name']} {blas['version']}", file=sys.stderr)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_one(args)
    except ref.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
