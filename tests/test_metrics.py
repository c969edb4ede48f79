import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitchkit.audio_io import AudioBuffer, PitchContour
from pitchkit.baseline import acf_contour
from pitchkit.errors import AlignmentError, ArgumentError, UndefinedMetric
from pitchkit.metrics import evaluate, evaluate_noisy, harmonic_mean
from pitchkit.synth import random_spec, synth_example


def contour(f0, voiced=None, conf=None, hop=0.016):
    f0 = np.asarray(f0, dtype=float)
    if voiced is None:
        voiced = ~np.isnan(f0)
    if conf is None:
        conf = np.ones(len(f0))
    return PitchContour(hop, f0, conf, np.asarray(voiced, bool))


def report(f_true, f_pred, voiced_true=None, voiced_pred=None):
    """evaluate of the prediction f_pred against the truth f_true; a frame's
    voicing flag defaults to whether its F0 is given (not NaN)."""
    return evaluate(contour(f_pred, voiced_pred), contour(f_true, voiced_true))


def random_pair(rng, n=200):
    """(pred, truth) contours: truth F0 is NaN where truth is unvoiced."""
    f_true = rng.uniform(60, 1800, n)
    voiced_true = rng.uniform(size=n) > 0.3
    f_pred = f_true * 2.0 ** (rng.standard_normal(n) * 0.2)
    voiced_pred = rng.uniform(size=n) > 0.3
    f_true = np.where(voiced_true, f_true, np.nan)
    return contour(f_pred, voiced_pred), contour(f_true, voiced_true)


# -- alignment --------------------------------------------------------------

def test_align_identical():
    c = contour([220.0, np.nan, 440.0])
    r = evaluate(c, c)
    assert r.precision == r.recall == 1.0


def test_align_tail_dropped():
    # the extra frames of either side, voiced or not, do not count
    truth = contour([220.0] * 5)
    pred = contour([220.0] * 5 + [440.0] * 3)
    assert evaluate(pred, truth).hm == 1.0
    assert evaluate(truth, pred).hm == 1.0


def test_align_hop_mismatch():
    with pytest.raises(AlignmentError):
        evaluate(contour([220.0], hop=0.01), contour([220.0], hop=0.016))


@pytest.mark.parametrize("f_true, f_pred, voiced_pred, message", [
    ([np.nan], [np.nan], [False], "no ground-truth voiced frames"),
    ([220.0], [np.nan], [False], "no voiced frame carries a prediction"),
])
def test_evaluate_undefined_checks_in_order(f_true, f_pred, voiced_pred,
                                            message):
    # each input also fails every later check; test_voicing_degenerate
    # checks the last one, precision
    with pytest.raises(UndefinedMetric, match=message):
        report(f_true, f_pred, voiced_pred=voiced_pred)


# -- rpa / rca --------------------------------------------------------------

def test_rpa_all_exact():
    assert report([220.0, 440.0], [220.0, 440.0]).rpa == 1.0


def test_rpa_strict_50_cent_boundary():
    f = 220.0
    almost = f * 2.0 ** (49.9 / 1200.0)
    exactly = f * 2.0 ** (50.0 / 1200.0)
    assert report([f], [almost]).rpa == 1.0
    assert report([f], [exactly]).rpa == 0.0


def test_rpa_fraction():
    truth = np.full(10, 220.0)
    pred = truth.copy()
    pred[7:] *= 2.0 ** (300.0 / 1200.0)
    assert report(truth, pred).rpa == 0.7


def test_rpa_absent_prediction_is_miss():
    r = report([220.0, 220.0], [220.0, np.nan], voiced_pred=[True, False])
    assert r.rpa == 0.5


def test_rpa_undefined_without_voiced():
    with pytest.raises(UndefinedMetric):
        report([np.nan], [220.0], voiced_true=[False])


def test_rca_octave_error_forgiven():
    r = report([220.0], [440.0])
    assert r.rpa == 0.0
    assert r.rca == 1.0


def test_rca_ge_rpa_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = evaluate(*random_pair(rng))
        assert r.rca >= r.rpa


# -- cents accuracy ---------------------------------------------------------

def test_ca_closed_forms():
    f = 220.0
    assert report([f], [f]).ca == 1.0
    pred = f * 2.0 ** (500.0 / 1200.0)
    assert report([f], [pred]).ca == pytest.approx(np.exp(-1.0), abs=1e-9)
    pred = f * 2.0 ** (50.0 / 1200.0)
    assert report([f], [pred]).ca == pytest.approx(np.exp(-0.1), abs=1e-9)


def test_ca_excludes_absent_predictions():
    r = report([220.0, 220.0], [220.0, np.nan], voiced_pred=[True, False])
    assert r.ca == 1.0


# -- voicing ----------------------------------------------------------------

def test_voicing_perfect():
    r = report([220.0, np.nan], [220.0, np.nan])
    assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)


def test_voicing_all_pred_voiced():
    r = report([220.0, np.nan], [220.0, 220.0],
               voiced_true=[True, False], voiced_pred=[True, True])
    assert (r.precision, r.recall) == (0.5, 1.0)
    assert r.f1 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_voicing_degenerate():
    # the frame's F0 is given, so only precision is undefined
    with pytest.raises(UndefinedMetric, match="precision undefined"):
        report([220.0], [220.0], voiced_pred=[False])


# -- octave / gross ---------------------------------------------------------

def test_oa_closed_forms():
    f = np.full(100, 220.0)
    assert report(f, f).oa == 1.0
    assert report(f, 2 * f).oa == pytest.approx(np.exp(-10.0), abs=1e-12)
    pred = f.copy()
    pred[0] *= 2.0
    assert report(f, pred).oa == pytest.approx(np.exp(-0.1), abs=1e-9)


def test_oa_relative_error_branch():
    # +700 cents is ~50% relative error but outside 1100-1300 cents
    f = 220.0
    pred = f * 2.0 ** (700.0 / 1200.0)
    assert abs(pred / f - 1) > 0.40
    assert report([f], [pred]).oa == pytest.approx(np.exp(-10.0))


def test_gea_closed_forms():
    f = np.full(10, 220.0)
    assert report(f, f).gea == 1.0
    assert report(f, 3 * f).gea == pytest.approx(np.exp(-5.0), abs=1e-12)
    pred = f.copy()
    pred[:2] *= 2.0 ** (250.0 / 1200.0)
    assert report(f, pred).gea == pytest.approx(np.exp(-1.0), abs=1e-9)


def test_gea_absent_prediction_is_gross():
    # the first frame, predicted exactly, keeps ca and precision defined
    r = report([220.0, 220.0], [220.0, np.nan], voiced_pred=[True, False])
    assert r.gea == pytest.approx(np.exp(-2.5))


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
    pred, truth = random_pair(rng, n=1000)
    vt = truth.voiced
    n = vt.sum()
    hits = grosses = octaves = 0
    abs_cents = []
    for ft, fp in zip(truth.f0_hz[vt], pred.f0_hz[vt]):
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
    r = evaluate(pred, truth)
    assert r.rpa == pytest.approx(hits / n, abs=1e-12)
    assert r.gea == pytest.approx(np.exp(-5 * grosses / n), abs=1e-12)
    assert r.oa == pytest.approx(np.exp(-10 * octaves / n), abs=1e-12)
    assert r.ca == pytest.approx(np.exp(-np.mean(abs_cents) / 500), abs=1e-12)


# A predicted frame's F0 is either an offset in cents from the truth frame's
# F0 (from 220 Hz where that has none), so that hits and octave errors occur,
# or a value of its own, usable or not. Truth frames may be flagged voiced
# with no usable F0.
PRED_F0 = st.one_of(
    st.tuples(st.just("cents"), st.floats(-1500.0, 1500.0)),
    st.tuples(st.just("hz"), st.one_of(
        st.floats(20.0, 4000.0),
        st.sampled_from([0.0, -220.0, np.inf, -np.inf, np.nan]))))
TRUTH_F0 = st.one_of(st.floats(20.0, 4000.0), st.sampled_from([0.0, np.nan]))


def usable(f):
    return math.isfinite(f) and f > 0.0


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(PRED_F0, st.booleans()), max_size=60),
       st.lists(st.tuples(TRUTH_F0, st.booleans()), max_size=60))
def test_evaluate_matches_frame_by_frame_recount(pred_frames, truth_frames):
    f_true = [f for f, _ in truth_frames]
    f_pred = []
    for i, ((kind, x), _) in enumerate(pred_frames):
        if kind == "hz":
            f_pred.append(x)
        else:
            base = f_true[i] if i < len(f_true) and usable(f_true[i]) else 220.0
            f_pred.append(base * 2.0 ** (x / 1200.0))
    pred = contour(f_pred, [v for _, v in pred_frames])
    truth = contour(f_true, [v for _, v in truth_frames])

    n_voiced = n_pred = tp = hits = chroma_hits = octaves = grosses = 0
    abs_cents = []
    for fp, (_, vp), (ft, vt) in zip(f_pred, pred_frames, truth_frames):
        n_pred += vp
        if not (vt and usable(ft)):
            continue
        n_voiced += 1
        tp += vp
        if not usable(fp):
            grosses += 1
            continue
        d = 1200.0 * math.log2(fp / ft)
        abs_cents.append(abs(d))
        hits += abs(d) < 50.0
        chroma_hits += abs((d + 600.0) % 1200.0 - 600.0) < 50.0
        grosses += abs(d) >= 200.0
        octaves += abs(fp / ft - 1.0) > 0.40 or 1100.0 <= abs(d) <= 1300.0
    if n_voiced == 0 or not abs_cents or n_pred == 0:
        with pytest.raises(UndefinedMetric):
            evaluate(pred, truth)
        return

    p, r = tp / n_pred, tp / n_voiced
    comps = [hits / n_voiced, math.exp(-sum(abs_cents) / len(abs_cents) / 500.0),
             p, r, math.exp(-10.0 * octaves / n_voiced),
             math.exp(-5.0 * grosses / n_voiced)]
    hm = 0.0 if min(comps) == 0.0 else 6.0 / sum(1.0 / c for c in comps)
    expected = dict(zip(["rpa", "ca", "precision", "recall", "oa", "gea"], comps),
                    f1=0.0 if p + r == 0 else 2 * p * r / (p + r),
                    rca=chroma_hits / n_voiced, hm=hm)
    got = evaluate(pred, truth).as_dict()
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert got[name] == pytest.approx(value, abs=1e-12), name


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
    # such F0s score as no prediction; the frames' voicing flags still count
    voiced = [1, 1, 1, 0, 1]
    truth = contour([100.0] * 5)
    r = evaluate(contour([-5.0, 0.0, np.inf, np.nan, 200.0], voiced=voiced),
                 truth)
    assert r == evaluate(contour([np.nan] * 4 + [200.0], voiced=voiced), truth)
    assert (r.precision, r.recall) == (1.0, 0.8)


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
