"""Command-line front-end: analyze, train, eval, noisy, synth, bench, acf.

Each task has one way in: `eval` scores a contour CSV as it is, `noisy`
scores the model on a WAV under noise, and a clean WAV is scored by
`analyze` then `eval`.

stdout carries results, stderr carries diagnostics. The subcommands raise;
`main` alone turns a failure into an exit code through EXIT_CODES: 0 ok,
1 generic failure (running out of memory included), 2 a file that is
missing, invalid or cannot be read or written (argparse also exits 2 on a
usage error), 3 training divergence, 4 contour alignment failure, 5
synthesis range error.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import baseline, model as net
from .augment import AugmentConfig
from .audio_io import (read_contour_csv, read_wav, resample_linear,
                       write_contour_csv, write_wav)
from .decode import DecoderConfig, decode_contour
from .errors import (AlignmentError, ArgumentError, DivergenceError,
                     FormatError, PitchkitError, RangeError)
from .metrics import EvalReport, evaluate, evaluate_noisy
from .pipeline import analyze, front_end
from .synth import random_spec, synth_example
from .train import SKIP_REASONS, TrainConfig, train_loop

# (failure, exit code, stderr prefix); the first match wins
EXIT_CODES = (
    (OSError, 2, "error"),
    (FormatError, 2, "error"),
    (DivergenceError, 3, "training diverged"),
    (AlignmentError, 4, "alignment failure"),
    (RangeError, 5, "synthesis range error"),
    (PitchkitError, 1, "error"),
    (MemoryError, 1, "error"),
)


def _print_report(report: EvalReport, out_csv=None):
    rows = list(report.as_dict().items())
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value:.6f}")
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for key, value in rows:
                writer.writerow([key, f"{value:.6f}"])


def _load_noise(noise_dir):
    """Samples at CANONICAL_SR of each *.wav in noise_dir; none without a
    directory. A directory that is missing or holds no *.wav, and a WAV
    with no samples, raise ArgumentError."""
    if not noise_dir:
        return []
    if not Path(noise_dir).is_dir():
        raise ArgumentError(f"noise directory {noise_dir} does not exist")
    paths = sorted(Path(noise_dir).glob("*.wav"))
    if not paths:
        raise ArgumentError(f"noise directory {noise_dir} holds no *.wav")
    signals = []
    for path in paths:
        buf = read_wav(path)
        if len(buf.samples) == 0:
            raise ArgumentError(f"noise file {path} has no samples")
        signals.append(resample_linear(buf).samples)
    return signals


def _save_contour(contour, out):
    write_contour_csv(contour, out)
    voiced_frac = float(contour.voiced.mean()) if len(contour) else 0.0
    print(f"frames={len(contour)} voiced_fraction={voiced_frac:.4f}")


def cmd_analyze(args):
    dec = DecoderConfig(voicing_threshold=args.threshold)
    params = net.load_params(args.weights)
    _save_contour(analyze(read_wav(args.wav), params, dec_cfg=dec), args.out)


def _read_manifest(path):
    """(WAV path, CSV path) of each non-blank `WAV,CSV` line of a UTF-8
    manifest; FormatError for a file that is not UTF-8 or a line without a
    comma."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: manifest is not UTF-8") from None
    pairs = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        wav_path, comma, csv_path = line.partition(",")
        if not comma:
            raise FormatError(f"{path}: line {number} is not WAV,CSV")
        pairs.append((wav_path, csv_path))
    return pairs


def cmd_train(args):
    cfg = TrainConfig(
        seed=args.seed, epochs=args.epochs, batch_size=args.batch, lr=args.lr,
        lam=args.lam,
        augment=AugmentConfig(noise_signals=_load_noise(args.noise)))
    corpus = [(read_wav(wav_path), read_contour_csv(csv_path))
              for wav_path, csv_path in _read_manifest(args.manifest)]

    loss_rows = []

    def log(entry):
        nonlocal last
        # every field of the history entry, in its order; floats to 6 places
        loss_rows.append({k: f"{v:.6f}" if isinstance(v, float) else str(v)
                          for k, v in entry.items()})
        # wall-clock figures go on the line only, not in the loss CSV
        now = time.perf_counter()
        wall_s, last = now - last, now
        used = len(corpus) - sum(entry[f"skipped_{r}"] for r in SKIP_REASONS)
        print(" ".join(f"{k}={v}" for k, v in loss_rows[-1].items()),
              f"wall_s={wall_s:.6f} examples_per_s={used / wall_s:.6f}")

    last = time.perf_counter()
    params, _ = train_loop(corpus, cfg, log_callback=log)
    net.save_params(params, args.out)
    loss_csv = args.loss_csv or str(Path(args.out).with_suffix(".loss.csv"))
    with open(loss_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(loss_rows[0])
        writer.writerows(row.values() for row in loss_rows)


def cmd_eval(args):
    truth = read_contour_csv(args.truth)
    _print_report(evaluate(read_contour_csv(args.pred), truth), args.out_csv)


def cmd_noisy(args):
    truth = read_contour_csv(args.truth)
    params = net.load_params(args.weights)
    dec = DecoderConfig(voicing_threshold=args.threshold)
    report = evaluate_noisy(
        lambda buf: analyze(buf, params, dec),
        [(read_wav(args.wav), truth)], snr_db=args.snr, seed=args.seed,
        noise_signals=_load_noise(args.noise))
    _print_report(report, args.out_csv)


def cmd_synth(args):
    if args.count < 1:
        raise ArgumentError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ArgumentError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    # drawn before anything is written, so a bad range or a clip shorter
    # than one window creates nothing
    specs = [random_spec(rng, duration_s=args.duration, f_low=args.f_low,
                         f_high=args.f_high) for _ in range(args.count)]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for i, spec in enumerate(specs):
        buf, truth = synth_example(spec)
        wav_path = out_dir / f"ex{i:04d}.wav"
        csv_path = out_dir / f"ex{i:04d}.csv"
        write_wav(buf, wav_path, dtype="float32")
        write_contour_csv(truth, csv_path)
        manifest_lines.append(f"{wav_path},{csv_path}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n",
                                          encoding="utf-8")
    print(f"wrote {args.count} examples to {out_dir}")


def cmd_bench(args):
    """Time the three calls `analyze` is made of: `front_end` (stft:
    resampling and spectrogram), `model.forward` (forward) and
    `decode_contour` (decode)."""
    if args.repeats < 1:
        raise ArgumentError(f"--repeats must be >= 1, got {args.repeats}")
    params = net.load_params(args.weights)
    buf = read_wav(args.wav)
    stages = np.empty((args.repeats, 3))  # stft, forward, decode seconds
    for stage in stages:
        t0 = time.perf_counter()
        spec = front_end(buf)
        t1 = time.perf_counter()
        logits = net.forward(params, spec)
        t2 = time.perf_counter()
        decode_contour(logits, DecoderConfig())
        stage[:] = t1 - t0, t2 - t1, time.perf_counter() - t2
    times = stages.sum(axis=1)
    mean_s, min_s = float(np.mean(times)), float(np.min(times))
    rtf = buf.duration_seconds / mean_s
    stft_ms, forward_ms, decode_ms = 1e3 * stages.mean(axis=0)
    print(f"repeats={args.repeats} mean_s={mean_s:.4f} min_s={min_s:.4f} "
          f"rtf={rtf:.2f} stft_ms={stft_ms:.2f} forward_ms={forward_ms:.2f} "
          f"decode_ms={decode_ms:.2f}")


def cmd_acf(args):
    _save_contour(baseline.acf_contour(read_wav(args.wav)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pitchkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate a pitch contour from a WAV")
    p.add_argument("wav")
    p.add_argument("weights")
    p.add_argument("out")
    p.add_argument("--threshold", type=float,
                   default=DecoderConfig.voicing_threshold,
                   help="voicing threshold")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train on a wav,csv manifest")
    p.add_argument("manifest")
    p.add_argument("out", help="output weights file")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--noise", help="directory of noise WAVs")
    p.add_argument("--loss-csv")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a contour CSV against ground truth")
    p.add_argument("pred", help="predicted contour CSV")
    p.add_argument("truth")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("noisy", help="score the model on a WAV under noise")
    p.add_argument("wav")
    p.add_argument("weights")
    p.add_argument("truth")
    p.add_argument("--snr", type=float, default=10.0, help="SNR in dB")
    p.add_argument("--noise", help="directory of noise WAVs")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--threshold", type=float,
                   default=DecoderConfig.voicing_threshold,
                   help="voicing threshold")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_noisy)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("out")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--f-low", type=float, default=100.0)
    p.add_argument("--f-high", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="time the full pipeline")
    p.add_argument("wav")
    p.add_argument("weights")
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("acf", help="autocorrelation baseline estimator")
    p.add_argument("wav")
    p.add_argument("out")
    p.set_defaults(func=cmd_acf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(kind for kind, _, _ in EXIT_CODES) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in EXIT_CODES
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
