"""End-to-end acceptance gate.

Each test covers one numbered criterion and emits a single PASS/FAIL line
(the pytest -v line for the test). Criteria 7 and 8 share one trained model
via a session fixture; training is the dominant cost of the suite.
"""
import hashlib
import time

import numpy as np
import pytest

from pitchkit import decode, dsp, grid, model as net
from pitchkit.audio_io import HOP, AudioBuffer, PitchContour
from pitchkit.decode import DecoderConfig, decode_probs
from pitchkit.losses import loss_total, softmax_rows
from pitchkit.metrics import (average_reports, evaluate, evaluate_noisy,
                              harmonic_mean)
from pitchkit.pipeline import analyze
from pitchkit.synth import random_spec, synth_example
from pitchkit.train import TrainConfig, train_loop

DEC = DecoderConfig()

# training budget for criteria 7/8 (seconds of CPU time, spec allows 30 min)
TRAIN_CPU_BUDGET_S = 30 * 60
TRAIN_BLOCK_EPOCHS = 5
TRAIN_MAX_BLOCKS = 10


# -- criterion 1: spectral front-end vs naive DFT oracle --------------------

def naive_band_dft():
    """The rows K_MIN..K_MAX of the real-input DFT matrix, built term by
    term."""
    n = dsp.WINDOW
    k = np.arange(dsp.K_MIN, dsp.K_MAX + 1)
    return np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n)


def naive_log_band_stft(samples, dft):
    """O(N^2) reference for `batch_spectrogram`: log(|DFT| over the band +
    LOG_EPSILON) of each Hann-windowed frame, with `dft` from
    `naive_band_dft`."""
    n, h = dsp.WINDOW, HOP
    win = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    t = (len(samples) - n) // h + 1
    out = np.empty((t, dsp.N_BANDS))
    for m in range(t):
        frame = samples[m * h:m * h + n] * win
        out[m] = np.log(np.abs(dft @ frame) + dsp.LOG_EPSILON)
    return out


def test_criterion_01_stft_matches_naive_dft():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    dft = naive_band_dft()
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1024, 8193))
        x = rng.standard_normal(length)
        fast = dsp.batch_spectrogram(x)
        slow = naive_log_band_stft(x, dft)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - start
    # an error e in the log is a relative error of about e in |X|
    assert worst < 1e-6, f"worst log-magnitude error {worst:.3e}"
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


# -- criterion 2: band-selection and grid constants -------------------------

def test_criterion_02_band_and_grid_constants():
    assert dsp.K_MIN == 3
    assert dsp.K_MAX == 134
    assert dsp.N_BANDS == 132
    n_fft_bins = dsp.WINDOW // 2 + 1
    assert n_fft_bins == 513
    assert n_fft_bins - dsp.N_BANDS == 381
    assert grid.F_MIN_HZ == 46.875
    assert grid.F_MAX_HZ == 2093.75
    assert grid.CENTERS[0] == pytest.approx(46.875, abs=1e-9)
    assert grid.CENTERS[-1] == pytest.approx(2093.75, abs=1e-9)
    assert grid.CENTS_PER_BIN == pytest.approx(33.05, abs=0.1)


# -- criterion 3: parameter budget ------------------------------------------

def test_criterion_03_parameter_budget():
    params = net.init_params(0)
    total = net.count_params(params)
    print("parameter breakdown:")
    for name, arr in params.trainable().items():
        print(f"  {name:<24}{arr.size}")
    print(f"  {'total':<24}{total}")
    reference = 95842
    rel = abs(total - reference) / reference
    print(f"reference {reference}, relative difference {rel:.5f}")
    assert rel < 0.005, f"{total} deviates {rel:.4%} from {reference}"


# -- criterion 4: analytic gradients vs finite differences ------------------

def test_criterion_04_gradient_check():
    start = time.perf_counter()
    params = net.init_params(7, dtype=np.float64)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 4, 132))
    targets = rng.integers(0, 200, 4)
    f_true = grid.CENTERS[targets] * 2.0 ** rng.uniform(-0.01, 0.01, 4)
    mask = np.ones(4, dtype=bool)

    def loss_of(p):
        logits, _ = net.forward_batch(p, x, train=True)
        total, _, _, _ = loss_total(logits.reshape(-1, 200), f_true, mask)
        return total

    logits, cache = net.forward_batch(params, x, train=True)
    _, d_flat, _, _ = loss_total(logits.reshape(-1, 200), f_true, mask)
    grads = net.backward_batch(params, cache, d_flat.reshape(logits.shape))

    h = 1e-6
    worst = 0.0
    for name, tensor in params.trainable().items():
        flat = tensor.reshape(-1)
        idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        analytic = grads[name].reshape(-1)[idx]
        fd = np.empty_like(analytic)
        for k, i in enumerate(idx):
            old = flat[i]
            flat[i] = old + h
            lp = loss_of(params)
            flat[i] = old - h
            lm = loss_of(params)
            flat[i] = old
            fd[k] = (lp - lm) / (2 * h)
        scale = max(np.linalg.norm(fd), np.linalg.norm(analytic))
        rel = np.linalg.norm(fd - analytic) / scale
        worst = max(worst, float(rel))
        assert rel < 1e-4, f"{name}: relative error {rel:.3e}"
    elapsed = time.perf_counter() - start
    print(f"worst gradient relative error {worst:.3e} in {elapsed:.1f}s")
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"


# -- criterion 5: decoder properties -----------------------------------------

def test_criterion_05_decoder_properties():
    row = np.zeros(200)
    row[123] = 1.0
    (f,), (c,), _ = decode_probs(row[None], DEC)
    assert f == grid.CENTERS[123]
    assert c == 1.0

    uniform = np.full(200, 1.0 / 200.0)
    _, (c,), _ = decode_probs(uniform[None], DEC)
    assert c == pytest.approx(19.0 / 200.0, abs=1e-12)

    rng = np.random.default_rng(55)
    logits = rng.standard_normal((10000, 200)) * rng.uniform(
        0.1, 15.0, size=(10000, 1))
    probs = softmax_rows(logits)
    for row in probs:
        (f,), (c,), _ = decode_probs(row[None], DEC)
        best = int(row.argmax())
        lo_bin = min(max(best - decode.HALF_WIDTH, 0), 200 - 19)
        assert grid.CENTERS[lo_bin] <= f <= grid.CENTERS[lo_bin + 18]
        assert 0.0 <= c <= 1.0


# -- criterion 6: metric oracle ----------------------------------------------

def _report(f_true, f_pred, voiced_true, voiced_pred):
    def contour(f0, voiced):
        return PitchContour(0.016, np.asarray(f0, float), np.ones(len(f0)),
                            np.asarray(voiced, bool))
    return evaluate(contour(f_pred, voiced_pred), contour(f_true, voiced_true))


def test_criterion_06_metric_oracle():
    f = 220.0
    one = _report([f], [f * 2 ** (500 / 1200)], [True], [True])
    assert one.ca == pytest.approx(np.exp(-1.0), abs=1e-9)
    octave = _report([f] * 10, [2 * f] * 10, [True] * 10, [True] * 10)
    assert octave.oa == pytest.approx(np.exp(-10.0), abs=1e-9)
    assert octave.gea == pytest.approx(np.exp(-5.0), abs=1e-9)
    assert octave.rca == 1.0 and octave.rpa == 0.0
    assert harmonic_mean([0.9] * 6) == pytest.approx(0.9, abs=1e-9)
    assert harmonic_mean([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]) == 0.0

    rng = np.random.default_rng(66)
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        f_true = rng.uniform(60, 1800, n)
        voiced_true = rng.uniform(size=n) > 0.3
        if not voiced_true.any():
            voiced_true[0] = True
        f_pred = f_true * 2.0 ** (rng.standard_normal(n) * 0.3)
        voiced_pred = rng.uniform(size=n) > 0.3
        if not voiced_pred.any():
            voiced_pred[0] = True
        r = _report(np.where(voiced_true, f_true, np.nan), f_pred,
                    voiced_true, voiced_pred)
        assert r.rpa <= r.rca + 1e-12
        comps = rng.uniform(0.01, 1.0, 6)
        hm = harmonic_mean(comps)
        # the weakest component dominates: min <= HM <= 6*min
        assert comps.min() - 1e-12 <= hm <= 6.0 * comps.min() + 1e-12


# -- criteria 7/8: desk-scale training and noise robustness ------------------

@pytest.fixture(scope="session")
def trained_model():
    rng = np.random.default_rng(123)
    train_corpus = [synth_example(random_spec(rng)) for _ in range(500)]
    rng_eval = np.random.default_rng(999)
    eval_corpus = [synth_example(random_spec(rng_eval)) for _ in range(100)]

    cpu0 = time.process_time()
    cfg = TrainConfig(seed=0, lr=8e-3, batch_size=16,
                      epochs=TRAIN_BLOCK_EPOCHS, lam=1.0)
    params = None
    clean = None
    for _ in range(TRAIN_MAX_BLOCKS):
        params, _ = train_loop(train_corpus, cfg, params=params)
        reports = [evaluate(analyze(buf, params, DEC), truth)
                   for buf, truth in eval_corpus]
        clean = average_reports(reports)
        cpu = time.process_time() - cpu0
        print(f"cpu={cpu:.0f}s rpa={clean.rpa:.4f} hm={clean.hm:.4f}")
        if clean.rpa >= 0.96 and clean.hm >= 0.92:
            break
        if cpu > TRAIN_CPU_BUDGET_S - 4 * 60:
            break
    cpu_minutes = (time.process_time() - cpu0) / 60.0
    return params, eval_corpus, clean, cpu_minutes


def test_criterion_07_desk_scale_training(trained_model):
    params, _, clean, cpu_minutes = trained_model
    print(f"clean rpa={clean.rpa:.4f} hm={clean.hm:.4f} "
          f"cpu={cpu_minutes:.1f}min")
    assert cpu_minutes < 30.0, f"training used {cpu_minutes:.1f} CPU-minutes"
    assert clean.rpa >= 0.95, f"held-out RPA {clean.rpa:.4f} < 0.95"
    assert clean.hm >= 0.90, f"held-out HM {clean.hm:.4f} < 0.90"


def test_criterion_08_noise_robustness(trained_model):
    params, eval_corpus, clean, _ = trained_model
    noisy = evaluate_noisy(lambda buf: analyze(buf, params, DEC), eval_corpus,
                           snr_db=10.0, seed=7)
    drop = clean.hm - noisy.hm
    print(f"clean hm={clean.hm:.4f} noisy hm={noisy.hm:.4f} "
          f"drop={100 * drop:.2f} points")
    assert drop <= 0.10, f"HM dropped {100 * drop:.1f} points at 10 dB"


# -- criterion 9: throughput -------------------------------------------------

def test_criterion_09_real_time_factor():
    rng = np.random.default_rng(9)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, 5 * 16000), 16000)
    params = net.init_params(0)
    analyze(buf, params, DEC)  # warm-up
    times = []
    for _ in range(3):
        start = time.perf_counter()
        analyze(buf, params, DEC)
        times.append(time.perf_counter() - start)
    rtf = 5.0 / min(times)
    print(f"5s file best={min(times) * 1000:.1f}ms rtf={rtf:.1f}")
    assert rtf > 10.0, f"real-time factor {rtf:.1f} <= 10"


# -- criterion 10: determinism -----------------------------------------------

def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_10_determinism(tmp_path):
    from pitchkit.cli import main

    digests = []
    for run in ("a", "b"):
        d = tmp_path / run
        corpus = d / "corpus"
        assert main(["synth", str(corpus), "--count", "6", "--seed",
                     "42"]) == 0
        weights = d / "weights.bin"
        assert main(["train", str(corpus / "manifest.txt"), str(weights),
                     "--epochs", "1", "--batch", "4", "--lr", "0.001",
                     "--seed", "3"]) == 0
        pred = d / "pred.csv"
        assert main(["analyze", str(corpus / "ex0000.wav"), str(weights),
                     str(pred), "--threshold", "0.0"]) == 0
        report = d / "report.csv"
        assert main(["eval", str(pred), str(corpus / "ex0000.csv"),
                     "--out-csv", str(report)]) == 0
        digests.append(tuple(
            _sha(p) for p in (corpus / "ex0000.wav", corpus / "ex0000.csv",
                              weights, weights.with_suffix(".loss.csv"),
                              pred, report)))
    assert digests[0] == digests[1], "artifacts differ between identical runs"
