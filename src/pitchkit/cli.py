"""Command-line front-end: analyze, train, eval, synth, bench, acf.

stdout carries results, stderr carries diagnostics. Exit codes: 0 ok,
1 generic failure, 2 bad input file, 3 training divergence, 4 contour
alignment failure, 5 synthesis range error.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import baseline, model as net
from .audio_io import (read_contour_csv, read_wav, write_contour_csv,
                       write_wav)
from .decode import DecoderConfig
from .dsp import StftConfig
from .errors import (AlignmentError, ArgumentError, DivergenceError,
                     PitchkitError)
from .grid import PitchGrid
from .metrics import EvalReport, evaluate, evaluate_noisy
from .pipeline import analyze, make_estimator
from .synth import random_spec, synth_example
from .train import TrainConfig, train_loop


def _add_common(parser):
    parser.add_argument("--sr", type=int, default=16000)
    parser.add_argument("--n-fft", type=int, default=1024)
    parser.add_argument("--hop", type=int, default=256)
    parser.add_argument("--fmin", type=float, default=46.875)
    parser.add_argument("--fmax", type=float, default=2093.75)
    parser.add_argument("--bins", type=int, default=200)
    parser.add_argument("--window", type=int, default=9)
    parser.add_argument("--threshold", type=float, default=0.90)
    parser.add_argument("--seed", type=int, default=0)


def _configs(args):
    stft = StftConfig(window_len=args.n_fft, hop=args.hop,
                      sample_rate_hz=args.sr, f_min=args.fmin, f_max=args.fmax)
    grid = PitchGrid(n_bins=args.bins, f_min=args.fmin, f_max=args.fmax)
    dec = DecoderConfig(half_width=args.window,
                        voicing_threshold=args.threshold)
    return stft, grid, dec


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


def _load_noise(noise_dir, sr):
    signals = []
    if noise_dir:
        for path in sorted(Path(noise_dir).glob("*.wav")):
            buf = read_wav(path)
            if buf.sample_rate_hz != sr:
                from .audio_io import resample_linear
                buf = resample_linear(buf, sr)
            signals.append(buf.samples)
    return signals


def cmd_analyze(args) -> int:
    stft, grid, dec = _configs(args)
    if not Path(args.weights).is_file():
        print(f"weights file not found: {args.weights}", file=sys.stderr)
        return 2
    params = net.load_params(args.weights)
    buf = read_wav(args.wav)
    contour = analyze(buf, params, stft, grid, dec)
    write_contour_csv(contour, args.out)
    voiced_frac = float(contour.voiced.mean()) if len(contour) else 0.0
    print(f"frames={len(contour)} voiced_fraction={voiced_frac:.4f}")
    return 0


def _read_config_file(path):
    overrides = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def cmd_train(args) -> int:
    stft, grid, _ = _configs(args)
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs,
                      batch_size=args.batch, lr=args.lr, lam=args.lam)
    noise_dir = args.noise
    if args.config:
        over = _read_config_file(args.config)
        if "seed" in over:
            cfg.seed = int(over["seed"])
        if "lr" in over:
            cfg.lr = float(over["lr"])
        if "batch" in over:
            cfg.batch_size = int(over["batch"])
        if "epochs" in over:
            cfg.epochs = int(over["epochs"])
        if "lambda" in over:
            cfg.lam = float(over["lambda"])
        if "gain_db_min" in over or "gain_db_max" in over:
            cfg.gain_db_range = (float(over.get("gain_db_min", -6.0)),
                                 float(over.get("gain_db_max", 6.0)))
        if "snr_db_min" in over or "snr_db_max" in over:
            cfg.snr_db_range = (float(over.get("snr_db_min", 10.0)),
                                float(over.get("snr_db_max", 30.0)))
        if "noise_dir" in over:
            noise_dir = over["noise_dir"]
    cfg.noise_signals = _load_noise(noise_dir, stft.sample_rate_hz)

    corpus = []
    for line in Path(args.manifest).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        wav_path, _, csv_path = line.partition(",")
        corpus.append((read_wav(wav_path), read_contour_csv(csv_path)))

    loss_rows = []

    def log(entry):
        loss_rows.append(entry)
        print(f"epoch={entry['epoch']} loss={entry['loss']:.6f} "
              f"ce={entry['ce']:.6f} cents={entry['cents']:.6f}")

    try:
        params, _ = train_loop(corpus, cfg, stft, grid, log_callback=log)
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    net.save_params(params, args.out)
    loss_csv = args.loss_csv or str(Path(args.out).with_suffix(".loss.csv"))
    with open(loss_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "ce", "cents"])
        for entry in loss_rows:
            writer.writerow([entry["epoch"], f"{entry['loss']:.6f}",
                             f"{entry['ce']:.6f}", f"{entry['cents']:.6f}"])
    return 0


def cmd_eval(args) -> int:
    stft, grid, dec = _configs(args)
    truth = read_contour_csv(args.truth)
    pred_path = Path(args.pred)
    if pred_path.suffix.lower() == ".wav":
        if args.weights is None:
            raise ArgumentError("evaluating a WAV needs --weights")
        params = net.load_params(args.weights)
        buf = read_wav(pred_path)
        if args.noisy:
            estimator = make_estimator(params, stft, grid, dec)
            noise = _load_noise(args.noise, stft.sample_rate_hz)
            report = evaluate_noisy(estimator, [(buf, truth)],
                                    snr_db=args.snr, seed=args.seed,
                                    noise_signals=noise)
            _print_report(report, args.out_csv)
            return 0
        pred = analyze(buf, params, stft, grid, dec)
    else:
        pred = read_contour_csv(pred_path)
    try:
        report = evaluate(pred, truth)
    except AlignmentError as exc:
        print(f"alignment failure: {exc}", file=sys.stderr)
        return 4
    _print_report(report, args.out_csv)
    return 0


def cmd_synth(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    stft, _, _ = _configs(args)
    manifest_lines = []
    for i in range(args.count):
        spec = random_spec(rng, duration_s=args.duration,
                           f_low=args.f_low, f_high=args.f_high)
        try:
            buf, truth = synth_example(spec, stft)
        except ArgumentError as exc:
            print(f"synthesis range error: {exc}", file=sys.stderr)
            return 5
        wav_path = out_dir / f"ex{i:04d}.wav"
        csv_path = out_dir / f"ex{i:04d}.csv"
        write_wav(buf, wav_path, dtype="float32")
        write_contour_csv(truth, csv_path)
        manifest_lines.append(f"{wav_path},{csv_path}")
    (out_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    print(f"wrote {args.count} examples to {out_dir}")
    return 0


def cmd_bench(args) -> int:
    stft, grid, dec = _configs(args)
    params = net.load_params(args.weights)
    buf = read_wav(args.wav)
    times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        analyze(buf, params, stft, grid, dec)
        times.append(time.perf_counter() - start)
    mean_s, min_s = float(np.mean(times)), float(np.min(times))
    rtf = buf.duration_seconds / mean_s
    print(f"repeats={args.repeats} mean_s={mean_s:.4f} min_s={min_s:.4f} "
          f"rtf={rtf:.2f}")
    return 0


def cmd_acf(args) -> int:
    stft, _, _ = _configs(args)
    buf = read_wav(args.wav)
    contour = baseline.acf_contour(buf, stft)
    write_contour_csv(contour, args.out)
    voiced_frac = float(contour.voiced.mean()) if len(contour) else 0.0
    print(f"frames={len(contour)} voiced_fraction={voiced_frac:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pitchkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="estimate a pitch contour from a WAV")
    p.add_argument("wav")
    p.add_argument("weights")
    p.add_argument("out")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train on a wav,csv manifest")
    p.add_argument("manifest")
    p.add_argument("out", help="output weights file")
    p.add_argument("--config", help="key=value config file (overrides flags)")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--noise", help="directory of noise WAVs")
    p.add_argument("--loss-csv")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("pred", help="contour CSV or WAV (WAV needs --weights)")
    p.add_argument("truth")
    p.add_argument("--weights")
    p.add_argument("--noisy", action="store_true")
    p.add_argument("--noise", help="directory of noise WAVs")
    p.add_argument("--snr", type=float, default=10.0)
    p.add_argument("--out-csv")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("out")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--f-low", type=float, default=100.0)
    p.add_argument("--f-high", type=float, default=1000.0)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="time the full pipeline")
    p.add_argument("wav")
    p.add_argument("weights")
    p.add_argument("--repeats", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("acf", help="autocorrelation baseline estimator")
    p.add_argument("wav")
    p.add_argument("out")
    _add_common(p)
    p.set_defaults(func=cmd_acf)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return 2
    except PitchkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
