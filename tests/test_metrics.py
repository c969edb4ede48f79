import numpy as np
import pytest

from pitchkit.audio_io import AudioBuffer, PitchContour
from pitchkit.baseline import acf_contour
from pitchkit.errors import AlignmentError, ArgumentError, UndefinedMetric
from pitchkit.metrics import (AlignedFrames, align, cents_accuracy, evaluate,
                              evaluate_noisy, gross_error_accuracy,
                              harmonic_mean, octave_accuracy, rca, rpa,
                              voicing_pr)
from pitchkit.synth import random_spec, synth_example


def contour(f0, voiced=None, conf=None, hop=0.016):
    f0 = np.asarray(f0, dtype=float)
    if voiced is None:
        voiced = ~np.isnan(f0)
    if conf is None:
        conf = np.ones(len(f0))
    return PitchContour(hop, f0, conf, np.asarray(voiced, bool))


def frames(f_true, f_pred, voiced_true=None, voiced_pred=None):
    f_true = np.asarray(f_true, dtype=float)
    f_pred = np.asarray(f_pred, dtype=float)
    if voiced_true is None:
        voiced_true = ~np.isnan(f_true)
    if voiced_pred is None:
        voiced_pred = ~np.isnan(f_pred)
    return AlignedFrames(f_true, f_pred, np.asarray(voiced_true, bool),
                         np.asarray(voiced_pred, bool))


def random_pair(rng, n=200):
    f_true = rng.uniform(60, 1800, n)
    voiced_true = rng.uniform(size=n) > 0.3
    f_pred = f_true * 2.0 ** (rng.standard_normal(n) * 0.2)
    voiced_pred = rng.uniform(size=n) > 0.3
    f_true = np.where(voiced_true, f_true, np.nan)
    return frames(f_true, f_pred, voiced_true, voiced_pred)


# -- align ------------------------------------------------------------------

def test_align_identical():
    c = contour([220.0, np.nan, 440.0])
    a = align(c, c)
    np.testing.assert_array_equal(a.voiced_true, a.voiced_pred)


def test_align_tail_dropped():
    truth = contour([220.0] * 5)
    pred = contour([220.0] * 8)
    a = align(pred, truth)
    assert len(a.f_true) == 5


def test_align_hop_mismatch():
    with pytest.raises(AlignmentError):
        align(contour([220.0], hop=0.01), contour([220.0], hop=0.016))


# -- rpa / rca --------------------------------------------------------------

def test_rpa_all_exact():
    a = frames([220.0, 440.0], [220.0, 440.0])
    assert rpa(a) == 1.0


def test_rpa_strict_50_cent_boundary():
    f = 220.0
    almost = f * 2.0 ** (49.9 / 1200.0)
    exactly = f * 2.0 ** (50.0 / 1200.0)
    assert rpa(frames([f], [almost])) == 1.0
    assert rpa(frames([f], [exactly])) == 0.0


def test_rpa_fraction():
    truth = np.full(10, 220.0)
    pred = truth.copy()
    pred[7:] *= 2.0 ** (300.0 / 1200.0)
    assert rpa(frames(truth, pred)) == 0.7


def test_rpa_absent_prediction_is_miss():
    a = frames([220.0, 220.0], [220.0, np.nan], voiced_pred=[True, False])
    assert rpa(a) == 0.5


def test_rpa_undefined_without_voiced():
    with pytest.raises(UndefinedMetric):
        rpa(frames([np.nan], [220.0], voiced_true=[False]))


def test_rca_octave_error_forgiven():
    a = frames([220.0], [440.0])
    assert rpa(a) == 0.0
    assert rca(a) == 1.0


def test_rca_ge_rpa_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = random_pair(rng)
        assert rca(a) >= rpa(a)


# -- cents accuracy ---------------------------------------------------------

def test_ca_closed_forms():
    f = 220.0
    assert cents_accuracy(frames([f], [f])) == 1.0
    pred = f * 2.0 ** (500.0 / 1200.0)
    assert cents_accuracy(frames([f], [pred])) == pytest.approx(np.exp(-1.0), abs=1e-9)
    pred = f * 2.0 ** (50.0 / 1200.0)
    assert cents_accuracy(frames([f], [pred])) == pytest.approx(np.exp(-0.1), abs=1e-9)


def test_ca_excludes_absent_predictions():
    a = frames([220.0, 220.0], [220.0, np.nan], voiced_pred=[True, False])
    assert cents_accuracy(a) == 1.0


# -- voicing ----------------------------------------------------------------

def test_voicing_perfect():
    a = frames([220.0, np.nan], [220.0, np.nan])
    assert voicing_pr(a) == (1.0, 1.0, 1.0)


def test_voicing_all_pred_voiced():
    a = frames([220.0, np.nan], [220.0, 220.0],
               voiced_true=[True, False], voiced_pred=[True, True])
    p, r, f1 = voicing_pr(a)
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_voicing_degenerate():
    a = frames([220.0], [np.nan], voiced_pred=[False])
    with pytest.raises(UndefinedMetric):
        voicing_pr(a)


# -- octave / gross ---------------------------------------------------------

def test_oa_closed_forms():
    f = np.full(100, 220.0)
    assert octave_accuracy(frames(f, f)) == 1.0
    assert octave_accuracy(frames(f, 2 * f)) == pytest.approx(np.exp(-10.0), abs=1e-12)
    pred = f.copy()
    pred[0] *= 2.0
    assert octave_accuracy(frames(f, pred)) == pytest.approx(np.exp(-0.1), abs=1e-9)


def test_oa_relative_error_branch():
    # +700 cents is ~50% relative error but outside 1100-1300 cents
    f = 220.0
    pred = f * 2.0 ** (700.0 / 1200.0)
    assert abs(pred / f - 1) > 0.40
    assert octave_accuracy(frames([f], [pred])) == pytest.approx(np.exp(-10.0))


def test_gea_closed_forms():
    f = np.full(10, 220.0)
    assert gross_error_accuracy(frames(f, f)) == 1.0
    assert gross_error_accuracy(frames(f, 3 * f)) == pytest.approx(np.exp(-5.0), abs=1e-12)
    pred = f.copy()
    pred[:2] *= 2.0 ** (250.0 / 1200.0)
    assert gross_error_accuracy(frames(f, pred)) == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_gea_absent_prediction_is_gross():
    a = frames([220.0], [np.nan], voiced_pred=[False])
    assert gross_error_accuracy(a) == pytest.approx(np.exp(-5.0))


# -- harmonic mean ----------------------------------------------------------

def test_hm_all_ones():
    assert harmonic_mean([1.0] * 6) == 1.0


def test_hm_zero_component():
    assert harmonic_mean([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]) == 0.0


def test_hm_equal_components():
    assert harmonic_mean([0.9] * 6) == pytest.approx(0.9, abs=1e-12)


def test_hm_between_min_and_max_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        comps = rng.uniform(0.01, 1.0, 6)
        hm = harmonic_mean(comps)
        assert comps.min() - 1e-12 <= hm <= comps.max() + 1e-12


# -- full reports -----------------------------------------------------------

def test_evaluate_self_is_perfect():
    c = contour(np.concatenate([np.full(20, 220.0), np.full(5, np.nan)]))
    r = evaluate(c, c)
    assert r.hm == 1.0
    assert r.rpa == r.ca == r.precision == r.recall == 1.0


def test_evaluate_octave_shift():
    truth = contour(np.full(50, 220.0))
    pred = contour(np.full(50, 440.0))
    r = evaluate(pred, truth)
    assert r.rca == 1.0
    assert r.rpa == 0.0
    assert r.oa == pytest.approx(np.exp(-10.0))
    assert r.hm == 0.0


def test_metrics_unaffected_by_mutually_unvoiced_padding():
    rng = np.random.default_rng(2)
    a_true = np.full(30, 330.0)
    a_pred = a_true * 2.0 ** (rng.standard_normal(30) * 0.02)
    truth = contour(a_true)
    pred = contour(a_pred)
    r1 = evaluate(pred, truth)
    pad = np.full(10, np.nan)
    truth2 = contour(np.concatenate([a_true, pad]))
    pred2 = contour(np.concatenate([a_pred, pad]))
    r2 = evaluate(pred2, truth2)
    for k, v in r1.as_dict().items():
        assert v == pytest.approx(r2.as_dict()[k], abs=1e-12)


def test_brute_force_recount_random():
    rng = np.random.default_rng(3)
    a = random_pair(rng, n=1000)
    vt = a.voiced_true
    n = vt.sum()
    hits = grosses = octaves = 0
    abs_cents = []
    for ft, fp in zip(a.f_true[vt], a.f_pred[vt]):
        if np.isnan(fp):
            grosses += 1
            continue
        d = 1200.0 * np.log2(fp / ft)
        abs_cents.append(abs(d))
        if abs(d) < 50:
            hits += 1
        if abs(d) >= 200:
            grosses += 1
        if abs(fp / ft - 1) > 0.40 or 1100 <= abs(d) <= 1300:
            octaves += 1
    assert rpa(a) == pytest.approx(hits / n, abs=1e-12)
    assert gross_error_accuracy(a) == pytest.approx(np.exp(-5 * grosses / n), abs=1e-12)
    assert octave_accuracy(a) == pytest.approx(np.exp(-10 * octaves / n), abs=1e-12)
    assert cents_accuracy(a) == pytest.approx(np.exp(-np.mean(abs_cents) / 500), abs=1e-12)


# -- noisy evaluation -------------------------------------------------------

def _identity_estimator(truth):
    def run(buf):
        return truth
    return run


def test_evaluate_noisy_deterministic():
    rng = np.random.default_rng(4)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, 16000), 16000)
    truth = contour(np.full(59, 220.0))
    est = _identity_estimator(truth)
    r1 = evaluate_noisy(est, [(buf, truth)], snr_db=10.0, seed=9)
    r2 = evaluate_noisy(est, [(buf, truth)], snr_db=10.0, seed=9)
    assert r1.as_dict() == r2.as_dict()


def test_evaluate_noisy_gaussian_at_16k_mixes_clip_as_given():
    # a clip already at 16 kHz is not resampled: it gets the seed's first
    # draws of Gaussian noise, mixed at exactly the SNR
    from pitchkit.augment import mix_at_snr
    rng = np.random.default_rng(12)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, 16000), 16000)
    truth = contour(np.full(59, 220.0))
    seen = []

    def estimator(got):
        seen.append(got)
        return truth

    evaluate_noisy(estimator, [(buf, truth)], snr_db=5.0, seed=3)
    noise = np.random.default_rng(3).standard_normal(16000)
    expected = np.clip(mix_at_snr(buf.samples, noise, 5.0), -1.0, 1.0)
    assert seen[0].sample_rate_hz == 16000
    assert np.array_equal(seen[0].samples, expected)


def test_evaluate_noisy_rejects_empty_noise_signal():
    buf = AudioBuffer(np.full(16000, 0.1), 16000)
    truth = contour(np.full(59, 220.0))
    with pytest.raises(ArgumentError, match="no samples"):
        evaluate_noisy(_identity_estimator(truth), [(buf, truth)],
                       noise_signals=[np.ones(100), np.zeros(0)])


def test_evaluate_noisy_mixed_snr_exact():
    from pitchkit.augment import mix_at_snr
    rng = np.random.default_rng(5)
    sig = rng.uniform(-0.5, 0.5, 16000)
    noise = rng.standard_normal(16000)
    mixed = mix_at_snr(sig, noise, 10.0)
    added = mixed - sig
    snr = 10.0 * np.log10(np.mean(sig ** 2) / np.mean(added ** 2))
    assert snr == pytest.approx(10.0, abs=0.1)


def test_evaluate_noisy_high_snr_reproduces_clean():
    rng = np.random.default_rng(6)
    buf = AudioBuffer(rng.uniform(-0.1, 0.1, 16000), 16000)
    truth = contour(np.full(59, 220.0))

    captured = {}

    def est(b):
        captured["samples"] = b.samples
        return truth

    evaluate_noisy(est, [(buf, truth)], snr_db=300.0, seed=1)
    np.testing.assert_allclose(captured["samples"], buf.samples, atol=1e-9)


def test_evaluate_noisy_skips_all_unvoiced_file():
    rng = np.random.default_rng(7)
    truths = [contour(np.full(n, 220.0)) for n in (59, 61, 63)]
    corpus = [(AudioBuffer(rng.uniform(-0.5, 0.5, 256 * (n - 1) + 1024),
                           16000), t) for n, t in zip((59, 61, 63), truths)]
    silent = {61}

    def est(buf):
        truth = next(t for b, t in corpus if len(b.samples) == len(buf.samples))
        if len(truth) in silent:
            return contour(truth.f0_hz, voiced=np.zeros(len(truth), bool))
        return truth

    report = evaluate_noisy(est, corpus, snr_db=10.0, seed=2)
    assert report.as_dict() == evaluate(truths[0], truths[0]).as_dict()
    silent.update({59, 63})
    with pytest.raises(UndefinedMetric):
        evaluate_noisy(est, corpus, snr_db=10.0, seed=2)


def test_align_non_positive_or_infinite_prediction_is_absent():
    a = align(contour([-5.0, 0.0, np.inf, np.nan, 200.0], voiced=[1, 1, 1, 0, 1]),
              contour([100.0] * 5))
    np.testing.assert_array_equal(a.f_pred, [np.nan] * 4 + [200.0])
    np.testing.assert_array_equal(a.voiced_pred, [1, 1, 1, 0, 1])


@pytest.mark.parametrize("bad_f0", [0.0, np.nan])
def test_voiced_truth_frame_without_f0_scores_as_unvoiced(bad_f0):
    # a truth frame marked voiced with no usable F0 once failed scoring
    # (0: "frequencies must be positive") or scored as a miss (empty F0);
    # the prediction is the clean truth
    _, pred = synth_example(random_spec(np.random.default_rng(3)))
    f0 = pred.f0_hz.copy()
    i = int(np.flatnonzero(pred.voiced)[0])
    f0[i] = bad_f0
    marked = PitchContour(pred.hop_seconds, f0, pred.confidence, pred.voiced)
    unvoiced = PitchContour(pred.hop_seconds, f0, pred.confidence,
                            pred.voiced & (np.arange(len(pred)) != i))
    report = evaluate(pred, marked)
    assert report == evaluate(pred, unvoiced)
    assert report.rpa == 1.0 and report.gea == 1.0


def test_acf_non_positive_f0_scores_as_absent():
    # the autocorrelation baseline marks frames of this glide voiced with an
    # F0 <= 0; they score as absent predictions instead of aborting
    rng = np.random.default_rng(6)
    spec = [random_spec(rng, duration_s=2.0) for _ in range(3)][-1]
    buf, truth = synth_example(spec)
    pred = acf_contour(buf)
    bad = ~(pred.f0_hz > 0)
    assert np.sum(bad & pred.voiced & truth.voiced) > 0
    absent = PitchContour(pred.hop_seconds, np.where(bad, np.nan, pred.f0_hz),
                          pred.confidence, pred.voiced)
    report = evaluate(pred, truth)
    assert report == evaluate(absent, truth)
    assert report.gea < 1.0 and report.rpa < 1.0
