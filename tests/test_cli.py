import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from pitchkit import model as net, pipeline
from pitchkit.audio_io import (AudioBuffer, read_contour_csv, read_wav,
                               resample_linear, write_contour_csv, write_wav)
from pitchkit.cli import EXIT_CODES, _load_noise, build_parser, main
from pitchkit.errors import FormatError
from pitchkit.metrics import evaluate_noisy
from pitchkit.synth import SynthSpec, random_spec, synth_example


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    buf, truth = synth_example(SynthSpec(kind="constant", f0_hz=220.0,
                                         n_harmonics=4, duration_s=1.0))
    write_wav(buf, d / "tone.wav", dtype="float32")
    write_contour_csv(truth, d / "tone.csv")
    weights = d / "w.bin"
    net.save_params(net.init_params(0), weights)
    return d


def test_synth_writes_corpus(workdir):
    out = workdir / "corpus"
    assert main(["synth", str(out), "--count", "3", "--seed", "5"]) == 0
    manifest = (out / "manifest.txt").read_text().strip().splitlines()
    assert len(manifest) == 3
    wav_path, csv_path = manifest[0].split(",")
    buf = read_wav(wav_path)
    truth = read_contour_csv(csv_path)
    assert buf.sample_rate_hz == 16000
    assert len(truth) > 0


def test_synth_too_short_exits_5(workdir, capsys):
    out = workdir / "too_short"
    rc = main(["synth", str(out), "--count", "1", "--duration", "0.02"])
    assert rc == 5
    assert not out.exists()
    assert "synthesis range error" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_synth_count_below_one_exits_1(workdir, capsys, count):
    out = workdir / f"count{count}"
    assert main(["synth", str(out), "--count", count]) == 1
    assert not out.exists()
    assert "--count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--f-low", "0"], ["--f-low", "nan"],
                                   ["--duration", "nan"],
                                   ["--f-low", "500", "--f-high", "100"],
                                   # more samples than an array can hold
                                   ["--duration", "1e300"]])
def test_synth_bad_range_exits_1(workdir, capsys, flags):
    out = workdir / "bad_range"
    assert main(["synth", str(out), "--count", "2"] + flags) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_synth_negative_seed_exits_1(workdir, capsys):
    out = workdir / "negative_seed"
    assert main(["synth", str(out), "--count", "1", "--seed", "-1"]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--seed must be >= 0" in err and "Traceback" not in err


def test_synth_deterministic(workdir):
    a, b = workdir / "c_a", workdir / "c_b"
    main(["synth", str(a), "--count", "2", "--seed", "11"])
    main(["synth", str(b), "--count", "2", "--seed", "11"])
    ha = hashlib.sha256((a / "ex0000.wav").read_bytes()).hexdigest()
    hb = hashlib.sha256((b / "ex0000.wav").read_bytes()).hexdigest()
    assert ha == hb


def test_analyze_writes_parseable_contour(workdir):
    out = workdir / "pred.csv"
    rc = main(["analyze", str(workdir / "tone.wav"),
               str(workdir / "w.bin"), str(out)])
    assert rc == 0
    contour = read_contour_csv(out)
    assert len(contour) == 59  # (16000 - 1024) // 256 + 1


def test_analyze_missing_weights(workdir):
    rc = main(["analyze", str(workdir / "tone.wav"),
               str(workdir / "nope.bin"), str(workdir / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_weights_exit_2(workdir, capsys, value):
    # both ways to run the network on a WAV used to end in `nan` output:
    # analyze exited 0, the noisy score averaged no report
    params = net.init_params(0)
    params.proj_w[0, 0] = value
    weights = workdir / "nan.bin"
    net.save_params(params, weights)
    out = workdir / "never_pred.csv"
    rc = main(["analyze", str(workdir / "tone.wav"), str(weights), str(out)])
    assert rc == 2
    assert not out.exists()
    assert "non-finite logits" in capsys.readouterr().err
    rc = main(["noisy", str(workdir / "tone.wav"), str(weights),
               str(workdir / "tone.csv")])
    assert rc == 2
    assert "non-finite logits" in capsys.readouterr().err
    rc = main(["bench", str(workdir / "tone.wav"), str(weights),
               "--repeats", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "non-finite logits" in captured.err
    assert "repeats=" not in captured.out


def test_wrong_shaped_weights_exit_2(workdir, capsys):
    # the fault is in the file: it used to exit 1
    params = net.init_params(0)
    params.proj_b = params.proj_b[:199]
    weights = workdir / "badshape.bin"
    net.save_params(params, weights)
    line = f"error: {weights}: proj.bias has shape (199,), not (200,)\n"
    wav, truth = str(workdir / "tone.wav"), str(workdir / "tone.csv")
    for args in (["analyze", wav, str(weights), str(workdir / "never.csv")],
                 ["noisy", wav, str(weights), truth],
                 ["bench", wav, str(weights), "--repeats", "1"]):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""


def test_analyze_missing_wav(workdir):
    rc = main(["analyze", str(workdir / "nope.wav"),
               str(workdir / "w.bin"), str(workdir / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("command", ["acf", "analyze", "train"])
def test_directory_as_input_file_exits_2(workdir, capsys, command):
    # acf's WAV, analyze's WEIGHTS and train's MANIFEST
    args = {"acf": ["acf", str(workdir), str(workdir / "x.csv")],
            "analyze": ["analyze", str(workdir / "tone.wav"), str(workdir),
                        str(workdir / "x.csv")],
            "train": ["train", str(workdir), str(workdir / "never.bin")]}
    assert main(args[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_train_end_to_end(workdir):
    corpus = workdir / "train_corpus"
    main(["synth", str(corpus), "--count", "4", "--seed", "3"])
    out = workdir / "trained.bin"
    rc = main(["train", str(corpus / "manifest.txt"), str(out),
               "--epochs", "2", "--batch", "4", "--lr", "0.001",
               "--seed", "1"])
    assert rc == 0
    assert out.is_file()
    loss_csv = (workdir / "trained.loss.csv").read_text().splitlines()
    assert loss_csv[0] == ("epoch,loss,ce,cents,steps,skipped_short,"
                           "skipped_unvoiced,skipped_silent,grad_norm")
    assert len(loss_csv) == 3
    assert loss_csv[1].startswith("0,") and loss_csv[1].split(",")[4] == "1"
    params = net.load_params(out)
    assert net.count_params(params) == net.count_params(net.init_params(0))


def test_train_line_reports_wall_time_and_throughput(workdir, tone_manifest,
                                                     capsys):
    out = workdir / "tone_trained.bin"
    assert main(["train", str(tone_manifest), str(out), "--epochs", "2",
                 "--batch", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        fields = dict(f.split("=") for f in line.split())
        assert list(fields)[-2:] == ["wall_s", "examples_per_s"]
        assert float(fields["wall_s"]) > 0
        assert float(fields["examples_per_s"]) > 0
    # wall-clock figures stay out of the loss CSV
    header = out.with_suffix(".loss.csv").read_text().splitlines()[0]
    assert "wall_s" not in header and "examples_per_s" not in header


@pytest.fixture
def tone_manifest(workdir):
    path = workdir / "tone_manifest.txt"
    path.write_text(f"{workdir / 'tone.wav'},{workdir / 'tone.csv'}\n")
    return path


@pytest.mark.parametrize("flags", [["--batch", "0"], ["--epochs", "0"],
                                   ["--lr", "nan"]])
def test_train_bad_arguments_exit_1(workdir, tone_manifest, flags):
    out = workdir / "never.bin"
    rc = main(["train", str(tone_manifest), str(out)] + flags)
    assert rc == 1
    assert not out.exists()


def test_train_negative_seed_exits_1(workdir, tone_manifest, capsys):
    out = workdir / "never.bin"
    rc = main(["train", str(tone_manifest), str(out), "--epochs", "1",
               "--seed", "-3"])
    assert rc == 1
    assert not out.exists()
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["-5", "nan"])
def test_train_bad_loss_weight_exits_1(workdir, tone_manifest, capsys, lam):
    out = workdir / "never.bin"
    rc = main(["train", str(tone_manifest), str(out), "--epochs", "1",
               "--lam", lam])
    assert rc == 1
    assert not out.exists()
    assert "lam" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe not utf-8\n", "not UTF-8"),
    ("\n{wav},{csv}\n{wav}\n", "line 3 is not WAV,CSV")],
    ids=["not-utf8", "no-comma"])
def test_unreadable_manifest_exits_2(workdir, capsys, content, message):
    path = workdir / "bad_manifest.txt"
    if isinstance(content, str):
        content = content.format(wav=workdir / "tone.wav",
                                 csv=workdir / "tone.csv").encode()
    path.write_bytes(content)
    out = workdir / "never.bin"
    assert main(["train", str(path), str(out), "--epochs", "1"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_train_config_flag_is_usage_error():
    # flags are the only way to set training options
    with pytest.raises(SystemExit) as exc:
        main(["train", "manifest.txt", "never.bin", "--config", "train.cfg"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def noise_dirs(workdir):
    """A missing directory, one with no WAV, and one with an empty WAV."""
    empty_dir = workdir / "no_wav"
    empty_dir.mkdir()
    (empty_dir / "noise.txt").write_text("not audio")
    silent_dir = workdir / "empty_wav"
    silent_dir.mkdir()
    write_wav(AudioBuffer(np.zeros(0), 16000), silent_dir / "n.wav")
    return {"does not exist": workdir / "absent",
            "holds no *.wav": empty_dir, "has no samples": silent_dir}


def test_noisy_mixes_noise_file_at_canonical_rate(workdir, tmp_path):
    # noise files are read at CANONICAL_SR; mixed into a 44.1 kHz clip at
    # the clip's rate, a 1000 Hz noise tone reached the estimator at 2756 Hz
    rate = 44100
    t = np.arange(rate) / rate
    write_wav(AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * t), rate),
              tmp_path / "tone1k.wav", dtype="float32")
    clean = AudioBuffer(0.1 * np.sin(2 * np.pi * 220.0 * t), rate)
    truth = read_contour_csv(workdir / "tone.csv")
    seen = []

    def estimator(buf):
        seen.append(buf)
        return truth

    evaluate_noisy(estimator, [(clean, truth)], snr_db=10.0,
                   noise_signals=_load_noise(tmp_path))
    (mixed,) = seen
    added = (mixed.samples
             - resample_linear(clean).samples)
    spectrum = np.abs(np.fft.rfft(added))
    bin_hz = mixed.sample_rate_hz / len(added)
    assert abs(np.argmax(spectrum) * bin_hz - 1000.0) <= bin_hz


@pytest.mark.parametrize("case", ["does not exist", "holds no *.wav",
                                  "has no samples"])
@pytest.mark.parametrize("command", ["train", "noisy"])
def test_unusable_noise_dir_exits_1(workdir, tone_manifest, noise_dirs,
                                    capsys, case, command):
    noise = ["--noise", str(noise_dirs[case])]
    if command == "train":
        out = workdir / "never.bin"
        args = ["train", str(tone_manifest), str(out), "--epochs", "1"]
    else:
        out = workdir / "never_report.csv"
        args = ["noisy", str(workdir / "tone.wav"), str(workdir / "w.bin"),
                str(workdir / "tone.csv"), "--out-csv", str(out)]
    assert main(args + noise) == 1
    assert not out.exists()
    assert case in capsys.readouterr().err


def test_train_foreign_hop_exits_4(workdir, capsys):
    d = workdir / "hop10_corpus"
    d.mkdir()
    rows = "".join(f"{i * 0.01:.6f},220.000000,1.000000,1\n" for i in range(100))
    (d / "t.csv").write_text("time_sec,f0_hz,confidence,voiced\n" + rows)
    (d / "manifest.txt").write_text(f"{workdir / 'tone.wav'},{d / 't.csv'}\n")
    out = d / "never.bin"
    rc = main(["train", str(d / "manifest.txt"), str(out), "--epochs", "1"])
    assert rc == 4
    assert not out.exists()
    assert "alignment failure" in capsys.readouterr().err


def test_train_short_corpus_fails_without_weights(workdir, capsys):
    d = workdir / "short_corpus"
    d.mkdir()
    lines = []
    for i, f0 in enumerate((150.0, 300.0, 600.0)):
        buf, truth = synth_example(SynthSpec(kind="constant", f0_hz=f0,
                                             n_harmonics=4, duration_s=0.3))
        write_wav(buf, d / f"s{i}.wav", dtype="float32")
        write_contour_csv(truth, d / f"s{i}.csv")
        lines.append(f"{d / f's{i}.wav'},{d / f's{i}.csv'}")
    (d / "manifest.txt").write_text("\n".join(lines) + "\n")
    out = d / "short.bin"
    rc = main(["train", str(d / "manifest.txt"), str(out),
               "--epochs", "1", "--batch", "4"])
    assert rc != 0
    assert not out.exists()
    assert "3 examples skipped" in capsys.readouterr().err


def test_eval_contour_vs_itself(workdir, capsys):
    rc = main(["eval", str(workdir / "tone.csv"), str(workdir / "tone.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hm" in out
    assert "1.000000" in out


def test_eval_out_csv(workdir):
    out = workdir / "report.csv"
    rc = main(["eval", str(workdir / "tone.csv"), str(workdir / "tone.csv"),
               "--out-csv", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert len(lines) == 10  # nine metrics


def test_eval_alignment_failure(workdir):
    bad = workdir / "badhop.csv"
    bad.write_text("time_sec,f0_hz,confidence,voiced\n"
                   "0.000000,220.000000,1.000000,1\n"
                   "0.010000,220.000000,1.000000,1\n")
    rc = main(["eval", str(bad), str(workdir / "tone.csv")])
    assert rc == 4


def test_eval_empty_prediction_names_the_lengths(workdir, capsys):
    # the truth has 59 voiced frames; it used to be blamed alone
    empty = workdir / "empty_pred.csv"
    empty.write_text("time_sec,f0_hz,confidence,voiced\n")
    assert main(["eval", str(empty), str(workdir / "tone.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: no ground-truth voiced frames in 0 paired frames "
        "(prediction 0 frames, truth 59)\n")


def test_eval_late_start_contour_rejected(workdir, capsys):
    # an exact prediction whose rows start at 0.48 s (frame 30): scoring it
    # frame by frame against the truth would pair every frame with the
    # wrong one
    truth = read_contour_csv(workdir / "tone.csv")
    rows = ["time_sec,f0_hz,confidence,voiced"] + [
        f"{0.48 + i * 0.016:.6f},{f:.6f},1.000000,1"
        for i, f in enumerate(truth.f0_hz[30:])]
    late = workdir / "late.csv"
    late.write_text("\n".join(rows) + "\n")
    assert main(["eval", str(late), str(workdir / "tone.csv")]) == 2
    assert "not 0" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--noisy"], ["--snr", "5"],
                                   ["--noise", "noise_dir"], ["--seed", "9"]])
def test_eval_noise_flags_rejected_for_csv(workdir, flags):
    # noise belongs to `noisy`; on `eval` its flags are usage errors
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(workdir / "tone.csv"), str(workdir / "tone.csv")]
             + flags)
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--weights", "nothing.bin"],
                                   ["--threshold", "0"],
                                   ["--threshold", "0.5"]])
def test_eval_decoder_flags_rejected_for_csv(workdir, flags):
    # a contour CSV is scored as it is: no weights, no decoding
    with pytest.raises(SystemExit) as exc:
        main(["eval", str(workdir / "tone.csv"), str(workdir / "tone.csv")]
             + flags)
    assert exc.value.code == 2


def test_eval_noisy_wav_takes_seed(workdir, capsys):
    args = ["noisy", str(workdir / "tone.wav"), str(workdir / "w.bin"),
            str(workdir / "tone.csv"), "--threshold", "0.0", "--snr", "5"]
    reports = []
    for seed in ([], ["--seed", "0"]):
        assert main(args + seed) == 0
        reports.append(capsys.readouterr().out)
    # no --seed is seed 0
    assert reports[0] == reports[1]


def test_eval_noisy_foreign_hop_exits_4(workdir, capsys):
    # a truth contour on a 10 ms hop cannot be paired with the 16 ms frames
    truth = workdir / "hop10.csv"
    rows = "".join(f"{i * 0.01:.6f},220.000000,1.000000,1\n" for i in range(100))
    truth.write_text("time_sec,f0_hz,confidence,voiced\n" + rows)
    rc = main(["noisy", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               str(truth), "--threshold", "0.0"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("alignment failure: ") and "Traceback" not in err


def test_eval_noisy_negative_seed_exits_1(workdir, capsys):
    out = workdir / "never_report.csv"
    rc = main(["noisy", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               str(workdir / "tone.csv"), "--seed", "-1",
               "--out-csv", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_noisy_non_finite_snr_exits_1(workdir, capsys, snr):
    # refused as an argument, not blamed on the audio; inf would score clean
    out = workdir / "never_report.csv"
    rc = main(["noisy", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               str(workdir / "tone.csv"), f"--snr={snr}", "--threshold", "0",
               "--out-csv", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "snr_db must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize("snr", ["4000", "-4000", "1e308"])
def test_noisy_snr_without_a_power_ratio_exits_1(workdir, capsys, snr):
    # 10 ** (snr / 10) overflows, or is 0, as a float64
    out = workdir / "never_report.csv"
    rc = main(["noisy", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               str(workdir / "tone.csv"), f"--snr={snr}", "--threshold", "0",
               "--out-csv", str(out)])
    assert rc == 1
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "power ratio" in lines[0]


def test_noisy_silent_wav_says_why_nothing_was_scored(workdir, capsys):
    silent = workdir / "silent.wav"
    write_wav(AudioBuffer(np.zeros(16000), 16000), silent)
    assert main(["noisy", str(silent), str(workdir / "w.bin"),
                 str(workdir / "tone.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: no file scored: 1 silent, 0 with undefined metrics\n")


def test_eval_wav_exits_2(workdir, capsys):
    # eval reads contour CSVs only; a WAV is an unreadable one
    wav = workdir / "tone.wav"
    assert main(["eval", str(wav), str(workdir / "tone.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(wav) in err


def test_eval_untrained_voicing_undefined(workdir):
    # default threshold with random weights: nothing voiced, scoring fails
    pred = workdir / "untrained.csv"
    assert main(["analyze", str(workdir / "tone.wav"), str(workdir / "w.bin"),
                 str(pred)]) == 0
    assert main(["eval", str(pred), str(workdir / "tone.csv")]) == 1


def test_eval_wav_without_weights(workdir):
    # `noisy` takes the weights as a positional: leaving them out is a
    # usage error
    with pytest.raises(SystemExit) as exc:
        main(["noisy", str(workdir / "tone.wav"), str(workdir / "tone.csv")])
    assert exc.value.code == 2


def test_bench_reports_rtf(workdir, capsys):
    rc = main(["bench", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               "--repeats", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rtf=" in out and "mean_s=" in out


def test_bench_reports_stage_times(workdir, capsys):
    rc = main(["bench", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               "--repeats", "2"])
    assert rc == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    stages = [float(fields[k]) for k in ("stft_ms", "forward_ms", "decode_ms")]
    assert all(ms > 0 for ms in stages)
    assert sum(stages) == pytest.approx(1e3 * float(fields["mean_s"]),
                                        abs=0.1)


def test_bench_zero_repeats(workdir, capsys):
    rc = main(["bench", str(workdir / "tone.wav"), str(workdir / "w.bin"),
               "--repeats", "0"])
    assert rc == 1
    assert "--repeats" in capsys.readouterr().err


@pytest.mark.parametrize("case, code", [("short_16k", 1), ("empty_44k", 1),
                                        ("truncated_weights", 2),
                                        ("front_end_fails", 2)])
def test_bench_fails_as_analyze_does(workdir, capsys, monkeypatch, case,
                                     code):
    # bench times the very stages analyze is made of, so whatever fails in
    # them, a check of the input included, fails bench with the same exit
    # code and line
    wav, weights = workdir / "tone.wav", workdir / "w.bin"
    if case == "short_16k":  # shorter than one window
        wav = workdir / "short.wav"
        write_wav(AudioBuffer(np.full(1000, 0.1), 16000), wav)
    elif case == "empty_44k":
        wav = workdir / "empty.wav"
        write_wav(AudioBuffer(np.zeros(0), 44100), wav)
    elif case == "front_end_fails":
        def fail(buf):
            raise FormatError("the front end refuses this buffer")
        monkeypatch.setattr(pipeline, "spectrogram", fail)
    else:
        weights = workdir / "truncated.bin"
        weights.write_bytes((workdir / "w.bin").read_bytes()[:100])
    out = workdir / "never.csv"
    assert main(["analyze", str(wav), str(weights), str(out)]) == code
    analyze_err = capsys.readouterr().err
    assert main(["bench", str(wav), str(weights), "--repeats", "1"]) == code
    captured = capsys.readouterr()
    assert captured.err == analyze_err and analyze_err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def _parser_options():
    """Each subcommand's flags, as build_parser() offers them."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {name: {s for a in p._actions for s in a.option_strings}
            - {"-h", "--help"} for name, p in subparsers.items()}


def test_cli_offers_only_honoured_options(workdir):
    assert _parser_options() == {
        "analyze": {"--threshold"},
        "train": {"--epochs", "--batch", "--lr", "--lam", "--noise",
                  "--loss-csv", "--seed"},
        "eval": {"--out-csv"},
        "noisy": {"--snr", "--noise", "--seed", "--threshold", "--out-csv"},
        "synth": {"--count", "--duration", "--f-low", "--f-high", "--seed"},
        "bench": {"--repeats"},
        "acf": set(),
    }
    # the front-end and the decoder's window (decode.HALF_WIDTH) are fixed:
    # a flag to change them is a usage error
    for flag in (["--n-fft", "2048"], ["--window", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(workdir / "tone.wav"), str(workdir / "w.bin"),
                  str(workdir / "x.csv")] + flag)
        assert exc.value.code == 2


def test_readme_cli_table_lists_parser_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)[^`]*` \| (.*) \|$", readme, re.M)
    table = {name: set(re.findall(r"--[a-z][a-z-]*", flags))
             for name, flags in rows}
    assert table == _parser_options()


def test_readme_cli_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S)
    text = re.sub(r"#.*", "", block.group(1)).replace("\\\n", " ")
    commands = [line.split()[1:] for line in text.splitlines()
                if line.split()[:1] == ["pitchkit"]]
    assert {argv[0] for argv in commands} == set(_parser_options())
    for argv in commands:
        build_parser().parse_args(argv)


def test_readme_exit_codes_match_main():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    sentence = re.search(r"^Exit codes: (.*?)\.\s", readme, re.M | re.S)
    items = " ".join(sentence.group(1).split())
    documented = {int(code) for code in re.findall(r"(?:^|, )(\d) ", items)}
    assert documented == {0} | {code for _, code, _ in EXIT_CODES}


def test_invalid_input_file_exits_2(workdir, capsys):
    bad = workdir / "bad.wav"
    bad.write_bytes(b"not a wave file!")
    assert len(bad.read_bytes()) == 16
    assert main(["acf", str(bad), str(workdir / "o.csv")]) == 2
    assert not (workdir / "o.csv").exists()
    assert capsys.readouterr().err.startswith("error: ")


def _wav_header_file(path, channels, bits, n_frames=2048):
    """A PCM WAV of silence with the given channel count and sample width."""
    import struct
    block_align = channels * bits // 8
    payload = bytes(n_frames * block_align)
    path.write_bytes(
        b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, 16000,
                                16000 * block_align, block_align, bits)
        + b"data" + struct.pack("<I", len(payload)) + payload)
    return path


@pytest.mark.parametrize("channels, bits", [(2, 16), (1, 24)])
@pytest.mark.parametrize("command", ["analyze", "acf"])
def test_unsupported_wav_exits_2(workdir, capsys, command, channels, bits):
    wav = _wav_header_file(workdir / f"c{channels}b{bits}.wav", channels, bits)
    out = workdir / "never_unsupported.csv"
    args = {"analyze": ["analyze", str(wav), str(workdir / "w.bin"), str(out)],
            "acf": ["acf", str(wav), str(out)]}
    assert main(args[command]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("second", ["0.000000", "-0.016000"])
def test_eval_non_increasing_times_exit_2(workdir, capsys, second):
    pred = workdir / "stuck.csv"
    pred.write_text("time_sec,f0_hz,confidence,voiced\n"
                    "0.000000,220.000000,1.000000,1\n"
                    f"{second},220.000000,1.000000,1\n")
    assert main(["eval", str(pred), str(workdir / "tone.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "row 3" in err


def test_acf_baseline_on_tone(workdir):
    out = workdir / "acf.csv"
    rc = main(["acf", str(workdir / "tone.wav"), str(out)])
    assert rc == 0
    contour = read_contour_csv(out)
    voiced = contour.f0_hz[contour.voiced]
    assert len(voiced) > 40
    cents = np.abs(1200 * np.log2(voiced / 220.0))
    assert np.median(cents) < 20.0


def test_eval_acf_contour_with_non_positive_f0(workdir, capsys):
    # acf reports F0 <= 0 on voiced frames of this glide; eval scores them
    # as absent predictions
    rng = np.random.default_rng(6)
    spec = [random_spec(rng, duration_s=2.0) for _ in range(3)][-1]
    buf, truth = synth_example(spec)
    write_wav(buf, workdir / "glide.wav", dtype="float32")
    write_contour_csv(truth, workdir / "glide.csv")
    acf = workdir / "glide.acf.csv"
    assert main(["acf", str(workdir / "glide.wav"), str(acf)]) == 0
    pred = read_contour_csv(acf)
    assert np.any(pred.voiced & ~(pred.f0_hz > 0))
    capsys.readouterr()
    assert main(["eval", str(acf), str(workdir / "glide.csv")]) == 0
    assert "hm" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["analyze", "acf"])
def test_rate_below_floor_exits_1(workdir, capsys, command):
    # 100 samples at 1 Hz would resample to 1.6 million; a full-length
    # file at this rate would ask for gigabytes
    wav = workdir / "one_hz.wav"
    write_wav(AudioBuffer(np.full(100, 0.1), 1), wav)
    out = workdir / "never_one_hz.csv"
    args = {"analyze": ["analyze", str(wav), str(workdir / "w.bin"), str(out)],
            "acf": ["acf", str(wav), str(out)]}
    assert main(args[command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: sample rate 1 Hz is below")
    assert captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["analyze", "synth"])
def test_memory_error_exits_1(workdir, capsys, monkeypatch, command):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 119. GiB for an array")
    out = workdir / f"never_{command}"
    if command == "analyze":
        monkeypatch.setattr(pipeline, "spectrogram", out_of_memory)
        argv = ["analyze", str(workdir / "tone.wav"), str(workdir / "w.bin"),
                str(out)]
    else:
        monkeypatch.setattr("pitchkit.cli.random_spec", out_of_memory)
        argv = ["synth", str(out), "--count", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 119. GiB for an array\n"
    assert captured.out == "" and not out.exists()
