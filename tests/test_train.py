import numpy as np
import pytest

from pitchkit import model as net
from pitchkit.augment import AugmentConfig
from pitchkit.dsp import spectrogram
from pitchkit.audio_io import AudioBuffer, resample_linear
from pitchkit.errors import AlignmentError, ArgumentError, SkipExample
from pitchkit.synth import SynthSpec, synth_example
from pitchkit.train import (ADAM_EPS, BETA1, BETA2, Adam, TrainConfig,
                            batch_spectrogram, extract_segment, train_loop)


def tiny_corpus(n=2, seed=0):
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(n):
        f0 = float(rng.uniform(150, 600))
        spec = SynthSpec(kind="constant", f0_hz=f0, n_harmonics=4,
                         duration_s=1.0)
        corpus.append(synth_example(spec))
    return corpus


# -- adam -------------------------------------------------------------------

def test_adam_first_step_is_lr_sized():
    cfg = TrainConfig(lr=0.01)
    opt = Adam(cfg)
    p = {"w": np.ones(3)}
    g = {"w": np.array([1.0, -2.0, 0.5])}
    opt.step(p, g)
    # bias-corrected first step moves each coord by ~lr in -sign(g) direction
    np.testing.assert_allclose(p["w"], 1.0 - 0.01 * np.sign(g["w"]), atol=1e-6)


def test_adam_state_per_tensor():
    cfg = TrainConfig(lr=0.1)
    opt = Adam(cfg)
    p = {"a": np.zeros(2), "b": np.zeros(2)}
    opt.step(p, {"a": np.ones(2), "b": np.zeros(2)})
    assert p["a"][0] != 0.0
    assert p["b"][0] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_in_place_matches_formula(dtype):
    # the moments are updated in place, with the bits of the textbook form
    rng = np.random.default_rng(3)
    p = {"w": rng.standard_normal((4, 5)).astype(dtype),
         "b": rng.standard_normal(5).astype(dtype)}
    ref = {k: v.copy() for k, v in p.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(a) for k, a in p.items()}
    cfg = TrainConfig(lr=0.01)
    opt = Adam(cfg)
    for t in range(1, 4):
        grads = {k: rng.standard_normal(a.shape) for k, a in p.items()}
        opt.step(p, grads)
        for k, a in ref.items():
            g = grads[k].astype(dtype)
            m[k] = BETA1 * m[k] + (1 - BETA1) * g
            v[k] = BETA2 * v[k] + (1 - BETA2) * g * g
            a -= (cfg.lr * (m[k] / (1.0 - BETA1 ** t))
                  / (np.sqrt(v[k] / (1.0 - BETA2 ** t)) + ADAM_EPS)).astype(dtype)
    for k in p:
        assert np.array_equal(p[k], ref[k])
        assert np.array_equal(opt.m[k], m[k])
        assert np.array_equal(opt.v[k], v[k])
        assert p[k].dtype == opt.m[k].dtype == dtype


# -- batched front-end ------------------------------------------------------

def test_batch_spectrogram_matches_single():
    rng = np.random.default_rng(1)
    segs = rng.standard_normal((3, 8000))
    batch = batch_spectrogram(segs)
    assert batch.shape == (3, 28, 132)
    for i in range(3):
        from pitchkit.audio_io import AudioBuffer
        single = spectrogram(AudioBuffer(segs[i], 16000))
        assert np.array_equal(batch[i], single)


# -- segment extraction -----------------------------------------------------

def test_extract_segment_hop_aligned_targets():
    buf, truth = tiny_corpus(1, seed=2)[0]
    rng = np.random.default_rng(0)
    seg, f0, mask = extract_segment(buf, truth, rng)
    assert len(seg) == 8000
    assert len(f0) == 28 == len(mask)
    # constant tone: every segment frame target equals the global truth
    assert np.all(f0[mask] == truth.f0_hz[truth.voiced][0])


def test_extract_segment_too_short():
    from pitchkit.audio_io import AudioBuffer, PitchContour
    buf = AudioBuffer(np.zeros(4000), 16000)
    truth = PitchContour(0.016, np.full(12, 220.0), np.ones(12),
                         np.ones(12, bool))
    with pytest.raises(SkipExample):
        extract_segment(buf, truth, np.random.default_rng(0))


def test_extract_segment_no_voiced():
    buf, truth = tiny_corpus(1, seed=3)[0]
    truth.voiced[:] = False
    with pytest.raises(SkipExample):
        extract_segment(buf, truth, np.random.default_rng(0))


def test_extract_segment_truth_shorter_than_segment():
    # 1 s of audio but only 20 truth frames: no label may be repeated
    from pitchkit.audio_io import PitchContour
    buf, _ = tiny_corpus(1, seed=4)[0]
    truth = PitchContour(0.016, np.full(20, 220.0), np.ones(20),
                         np.ones(20, bool))
    with pytest.raises(SkipExample, match="truth contour shorter"):
        extract_segment(buf, truth, np.random.default_rng(0))


def unreachable_voicing_clip():
    """16,128 samples with a 60-frame truth voiced only at frame 59: the
    last segment start is frame 31, so segments reach frame 58 at most."""
    from pitchkit.audio_io import PitchContour
    buf, _ = tiny_corpus(1, seed=4)[0]
    buf.samples = buf.samples[:16128]
    voiced = np.zeros(60, bool)
    voiced[59] = True
    return buf, PitchContour(0.016, np.where(voiced, 220.0, np.nan),
                             voiced.astype(float), voiced)


def test_extract_segment_skips_voicing_no_segment_reaches():
    buf, truth = unreachable_voicing_clip()
    with pytest.raises(SkipExample, match="no voiced frames") as err:
        extract_segment(buf, truth, np.random.default_rng(0))
    assert err.value.reason == "unvoiced"


def test_train_skips_clip_whose_voicing_no_segment_reaches():
    # it used to give a segment with no voiced frame, and the batch of one
    # failed in the loss with "no voiced frames in batch"
    corpus = [unreachable_voicing_clip()] + tiny_corpus(1)
    _, hist = train_loop(corpus, TrainConfig(epochs=2, batch_size=1))
    assert [h["skipped_unvoiced"] for h in hist] == [1, 1]
    assert [h["steps"] for h in hist] == [1, 1]


def test_extract_segment_uses_truth_up_to_its_end():
    # truth exactly one segment long: the only start is frame 0
    from pitchkit.audio_io import PitchContour
    buf, _ = tiny_corpus(1, seed=4)[0]
    f0 = np.linspace(200.0, 300.0, 28)
    truth = PitchContour(0.016, f0, np.ones(28), np.ones(28, bool))
    seg, seg_f0, mask = extract_segment(buf, truth, np.random.default_rng(0))
    np.testing.assert_array_equal(seg, buf.samples[:8000])
    np.testing.assert_array_equal(seg_f0, f0)
    assert mask.all()


def voiced_without_pitch(f0_value):
    """A 1 s clip whose truth marks every frame voiced, with `f0_value` in
    place of the F0 on frames 0-29 (of 59), and the same truth with those
    frames unvoiced instead."""
    from pitchkit.audio_io import PitchContour
    buf, truth = tiny_corpus(1, seed=8)[0]
    f0 = truth.f0_hz.copy()
    f0[:30] = f0_value
    usable = np.arange(len(f0)) >= 30
    bad = PitchContour(0.016, f0, np.ones(len(f0)), np.ones(len(f0), bool))
    clean = PitchContour(0.016, np.where(usable, f0, np.nan),
                         usable.astype(float), usable)
    return buf, bad, clean


@pytest.mark.parametrize("f0_value", [np.nan, 0.0, -220.0, np.inf])
def test_extract_segment_masks_voiced_frames_without_pitch(f0_value):
    # such frames are neither a segment's centre nor inside the loss
    buf, bad, clean = voiced_without_pitch(f0_value)
    for seed in range(20):
        _, f0, mask = extract_segment(buf, bad, np.random.default_rng(seed))
        _, f0_c, mask_c = extract_segment(buf, clean,
                                          np.random.default_rng(seed))
        np.testing.assert_array_equal(mask, mask_c)
        np.testing.assert_array_equal(f0[mask], f0_c[mask_c])
        assert np.all(f0[mask] > 0)


@pytest.mark.parametrize("f0_value", [np.nan, 0.0])
def test_extract_segment_skips_voicing_without_pitch(f0_value):
    from pitchkit.audio_io import PitchContour
    buf, truth = tiny_corpus(1, seed=8)[0]
    truth = PitchContour(0.016, np.full(len(truth), f0_value),
                         np.ones(len(truth)), np.ones(len(truth), bool))
    with pytest.raises(SkipExample, match="no voiced frames") as err:
        extract_segment(buf, truth, np.random.default_rng(0))
    assert err.value.reason == "unvoiced"


@pytest.mark.parametrize("f0_value", [np.nan, 0.0])
def test_voiced_frames_without_pitch_train_like_unvoiced(f0_value):
    # F0 0 used to fail mid-training ("frequency must be positive"), and an empty F0 trained
    # the frame toward bin 0 (46.875 Hz)
    buf, bad, clean = voiced_without_pitch(f0_value)
    extra = tiny_corpus(1, seed=9)
    cfg = TrainConfig(seed=4, epochs=2, batch_size=2)
    p_bad, h_bad = train_loop([(buf, bad)] + extra, cfg)
    p_clean, h_clean = train_loop([(buf, clean)] + extra, cfg)
    assert h_bad == h_clean
    for name, a in p_bad.all_tensors().items():
        np.testing.assert_array_equal(a, p_clean.all_tensors()[name])


# -- training loop ----------------------------------------------------------

def test_empty_corpus_rejected():
    with pytest.raises(ArgumentError):
        train_loop([], TrainConfig())


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("epochs", 0), ("lr", 0.0), ("lr", -1e-3),
    ("lr", float("nan")), ("lr", float("inf"))])
def test_bad_training_arguments_rejected(field, value):
    cfg = TrainConfig(epochs=1, batch_size=2)
    setattr(cfg, field, value)
    with pytest.raises(ArgumentError, match="batch size|epochs|learning rate"):
        train_loop(tiny_corpus(1), cfg)


@pytest.mark.parametrize("lam", [-5.0, -1e-9, float("nan"), float("inf")])
def test_bad_loss_weight_rejected(lam):
    cfg = TrainConfig(epochs=1, batch_size=2, lam=lam)
    with pytest.raises(ArgumentError, match="lam"):
        train_loop(tiny_corpus(1), cfg)


def test_truth_hop_other_than_stft_hop_rejected():
    # a 10 ms contour must not be indexed as 16 ms frames
    from pitchkit.audio_io import PitchContour
    corpus = tiny_corpus(2)
    buf, _ = corpus[1]
    corpus[1] = (buf, PitchContour(0.01, np.full(100, 220.0), np.ones(100),
                                   np.ones(100, bool)))
    with pytest.raises(AlignmentError, match="example 1"):
        train_loop(corpus, TrainConfig(epochs=1, batch_size=2))


def test_foreign_rate_resampled_before_training():
    # 44.1 kHz audio trains exactly as its resampling to 16 kHz does
    def at_44k(buf):
        n = len(buf.samples)
        t_in = np.arange(n) / buf.sample_rate_hz
        t_out = np.arange(round(n * 44100 / buf.sample_rate_hz)) / 44100
        return AudioBuffer(np.interp(t_out, t_in, buf.samples), 44100)

    up = [(at_44k(buf), truth) for buf, truth in tiny_corpus(2)]
    down = [(resample_linear(buf), truth) for buf, truth in up]
    cfg = TrainConfig(seed=7, epochs=1, batch_size=2)
    p_up, h_up = train_loop(up, cfg)
    p_down, h_down = train_loop(down, cfg)
    assert h_up == h_down
    for name, a in p_up.all_tensors().items():
        np.testing.assert_array_equal(a, p_down.all_tensors()[name])


def test_training_deterministic():
    corpus = tiny_corpus(2)
    cfg = TrainConfig(seed=7, epochs=2, batch_size=2, lr=1e-3)
    p1, h1 = train_loop(corpus, cfg)
    p2, h2 = train_loop(corpus, cfg)
    assert h1 == h2
    for name, a in p1.all_tensors().items():
        np.testing.assert_array_equal(a, p2.all_tensors()[name])


def test_training_same_without_worker(monkeypatch):
    # the step's batch halves do not depend on how many threads run them
    corpus = tiny_corpus(3)
    cfg = TrainConfig(seed=5, epochs=2, batch_size=3, lr=1e-3)
    p2, h2 = train_loop(corpus, cfg)
    monkeypatch.setattr(net, "_worker", lambda: None)
    p1, h1 = train_loop(corpus, cfg)
    assert h1 == h2
    for name, a in p1.all_tensors().items():
        assert np.array_equal(a, p2.all_tensors()[name]), name


def test_lambda_changes_updates():
    corpus = tiny_corpus(2)
    p0, _ = train_loop(corpus, TrainConfig(seed=7, epochs=1, batch_size=2,
                                           lam=0.0))
    p1, _ = train_loop(corpus, TrainConfig(seed=7, epochs=1, batch_size=2,
                                           lam=1.0))
    diffs = [np.abs(p0.all_tensors()[n] - p1.all_tensors()[n]).max()
             for n in p0.trainable()]
    assert max(diffs) > 0.0


def test_overfit_single_example():
    # 200 steps on one constant tone must collapse the loss
    corpus = tiny_corpus(1, seed=5)
    cfg = TrainConfig(seed=1, epochs=200, batch_size=1, lr=5e-3,
                      augment=AugmentConfig(gain_db_range=(0.0, 0.0),
                                            snr_db_range=(60.0, 60.0)))
    _, hist = train_loop(corpus, cfg)
    assert hist[-1]["loss"] < 0.1 * hist[0]["loss"]
    assert hist[-1]["loss"] < 1.0


def test_history_fields():
    corpus = tiny_corpus(1)
    seen = []
    _, hist = train_loop(corpus, TrainConfig(epochs=2, batch_size=1),
                         log_callback=seen.append)
    assert len(hist) == 2
    assert seen == hist
    assert list(hist[0]) == ["epoch", "loss", "ce", "cents", "steps",
                             "skipped_short", "skipped_unvoiced",
                             "skipped_silent", "grad_norm"]
    assert hist[0]["steps"] == 1 and hist[0]["grad_norm"] > 0.0


def test_history_counts_skips_by_reason():
    # one clip shorter than a segment, one unvoiced, one silent, one good
    from pitchkit.audio_io import AudioBuffer
    good, unvoiced, silent = tiny_corpus(3, seed=6)
    unvoiced[1].voiced[:] = False
    silent = (AudioBuffer(np.zeros_like(silent[0].samples), 16000), silent[1])
    short = synth_example(SynthSpec(kind="constant", f0_hz=220.0,
                                    n_harmonics=4, duration_s=0.3))
    _, hist = train_loop([short, unvoiced, silent, good],
                         TrainConfig(epochs=2, batch_size=2))
    for entry in hist:
        assert (entry["skipped_short"], entry["skipped_unvoiced"],
                entry["skipped_silent"]) == (1, 1, 1)
        # the good clip's batch is the only one with a step
        assert entry["steps"] == 1


def test_epoch_without_step_fails():
    # every clip is shorter than one 0.5 s training segment
    corpus = [synth_example(SynthSpec(kind="constant", f0_hz=f0,
                                      n_harmonics=4, duration_s=0.3))
              for f0 in (150.0, 300.0, 600.0)]
    with pytest.raises(ArgumentError, match="epoch 0 .*3 examples"):
        train_loop(corpus, TrainConfig(epochs=1, batch_size=4))
