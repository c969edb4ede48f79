import numpy as np
import pytest

from pitchkit import model as net
from pitchkit.augment import AugmentConfig
from pitchkit.dsp import spectrogram
from pitchkit.audio_io import resample_linear
from pitchkit.errors import AlignmentError, ArgumentError, SkipExample
from pitchkit.synth import SynthSpec, synth_example
from pitchkit.train import (Adam, TrainConfig, batch_spectrogram,
                            extract_segment, train_loop)


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
    up = [(resample_linear(buf, 44100), truth) for buf, truth in tiny_corpus(2)]
    down = [(resample_linear(buf, 16000), truth) for buf, truth in up]
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
    assert set(hist[0]) == {"epoch", "loss", "ce", "cents"}


def test_epoch_without_step_fails():
    # every clip is shorter than one 0.5 s training segment
    corpus = [synth_example(SynthSpec(kind="constant", f0_hz=f0,
                                      n_harmonics=4, duration_s=0.3))
              for f0 in (150.0, 300.0, 600.0)]
    with pytest.raises(ArgumentError, match="epoch 0 .*3 examples"):
        train_loop(corpus, TrainConfig(epochs=1, batch_size=4))
