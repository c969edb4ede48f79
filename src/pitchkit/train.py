"""Training loop: random voiced-centered half-second segments, waveform
augmentation, spectral front-end, joint loss, Adam updates. Fully
deterministic under a fixed master seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as net
from .augment import AugmentConfig, augment
from .audio_io import (CANONICAL_SR, HOP, HOP_SECONDS, AudioBuffer,
                       PitchContour, resample_linear)
from .dsp import WINDOW, batch_spectrogram
from .errors import AlignmentError, ArgumentError, DivergenceError, SkipExample
from .grid import N_BINS
from .losses import loss_total
from .metrics import HOP_MATCH_S

SEGMENT_SECONDS = 0.5
# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# SkipExample.reason values, each counted per epoch in the history
SKIP_REASONS = ("short", "unvoiced", "silent")


@dataclass
class TrainConfig:
    seed: int = 0
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    lam: float = 1.0
    augment: AugmentConfig = field(default_factory=AugmentConfig)


class Adam:
    """Per-tensor adaptive optimizer state."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        lr = self.cfg.lr
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in params.items():
            g = grads[name].astype(p.dtype, copy=False)
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m *= BETA1
            m += (1 - BETA1) * g
            v *= BETA2
            v += (1 - BETA2) * g * g
            p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)).astype(
                p.dtype, copy=False)


def extract_segment(buf: AudioBuffer, truth: PitchContour, rng):
    """Random hop-aligned 0.5 s window of a CANONICAL_SR buffer, centred on
    a usable frame some window can hold: one marked voiced whose F0 is
    finite and positive.

    Returns (segment samples, target f0 per segment frame, usable mask).
    """
    seg_len = int(SEGMENT_SECONDS * CANONICAL_SR)
    if len(buf.samples) < seg_len:
        raise SkipExample("file shorter than one training segment", "short")
    seg_frames = (seg_len - WINDOW) // HOP + 1
    max_start_frame = min((len(buf.samples) - seg_len) // HOP,
                          len(truth) - seg_frames)
    if max_start_frame < 0:
        raise SkipExample("truth contour shorter than one training segment",
                          "short")
    f0 = truth.f0_hz
    usable = truth.voiced & np.isfinite(f0) & (f0 > 0)
    # a centre past the last segment's end would be clipped out of it
    usable_idx = np.flatnonzero(usable[:max_start_frame + seg_frames])
    if len(usable_idx) == 0:
        raise SkipExample("no voiced frames with a usable F0", "unvoiced")
    center = int(rng.choice(usable_idx))
    start_frame = int(np.clip(center - seg_frames // 2, 0, max_start_frame))
    s0 = start_frame * HOP
    seg = buf.samples[s0:s0 + seg_len]
    idx = slice(start_frame, start_frame + seg_frames)
    return seg, f0[idx].copy(), usable[idx]


def train_loop(corpus, cfg: TrainConfig, params: net.ModelParams = None,
               log_callback=None):
    """Train on (AudioBuffer, PitchContour) pairs.

    Audio at another rate is resampled to CANONICAL_SR once, before the
    first epoch; without `params`, training starts from new float32
    weights. Returns (params, history) where history is a list of per-epoch
    dicts: the means over the epoch's steps of loss/ce/cents and of each
    step's global L2 gradient norm (grad_norm), the number of steps, and
    the examples skipped per SkipExample reason (skipped_short,
    skipped_unvoiced, skipped_silent). Each step runs with OpenBLAS held at
    one thread. Raises ArgumentError for a batch size or epoch count below
    1, a learning rate that is not a positive finite number, a loss weight
    lam that is not a non-negative finite number, a negative seed, or an
    epoch that skips every example, so it would take no step; raises
    AlignmentError when a truth contour's hop is not HOP_SECONDS.
    """
    if cfg.batch_size < 1:
        raise ArgumentError(f"batch size must be >= 1, got {cfg.batch_size}")
    if cfg.epochs < 1:
        raise ArgumentError(f"epochs must be >= 1, got {cfg.epochs}")
    if cfg.seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {cfg.seed}")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise ArgumentError(f"learning rate must be positive and finite, "
                            f"got {cfg.lr}")
    if not (math.isfinite(cfg.lam) and cfg.lam >= 0):
        # a negative weight would reward pitch error
        raise ArgumentError(f"lam must be non-negative and finite, "
                            f"got {cfg.lam}")
    corpus = list(corpus)
    if not corpus:
        raise ArgumentError("empty corpus")
    for i, (_, truth) in enumerate(corpus):
        if abs(truth.hop_seconds - HOP_SECONDS) > HOP_MATCH_S:
            raise AlignmentError(
                f"example {i}: truth hop {truth.hop_seconds} s is not the "
                f"STFT hop {HOP_SECONDS} s")
    corpus = [(resample_linear(buf), truth) for buf, truth in corpus]
    rng = np.random.default_rng(cfg.seed)
    if params is None:
        params = net.init_params(int(rng.integers(2 ** 31)))
    opt = Adam(cfg)
    trainable = params.trainable()
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        losses, ces, cents_l, norms = [], [], [], []
        skipped = dict.fromkeys(SKIP_REASONS, 0)
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            segs, f0s, masks = [], [], []
            for j in batch:
                buf, truth = corpus[j]
                try:
                    seg, f0, mask = extract_segment(buf, truth, rng)
                    seg = augment(seg, cfg.augment, rng)
                except SkipExample as exc:
                    skipped[exc.reason] += 1
                    continue
                segs.append(seg)
                f0s.append(f0)
                masks.append(mask)
            if not segs:
                continue
            f0 = np.stack(f0s)
            mask = np.stack(masks)
            # as in analyze: OpenBLAS's own threads would queue behind the
            # network's two, and spin on after the front-end's GEMMs
            with net.one_blas_thread():
                spec = batch_spectrogram(np.stack(segs))
                logits, cache = net.forward_batch(params, spec, train=True)
                flat = logits.reshape(-1, N_BINS)
                total, d_flat, ce, cents = loss_total(
                    flat, f0.reshape(-1), mask.reshape(-1), lam=cfg.lam)
                if not np.isfinite(total):
                    raise DivergenceError(f"non-finite loss at epoch {epoch}")
                grads = net.backward_batch(params, cache,
                                           d_flat.reshape(logits.shape))
                opt.step(trainable, grads)
            losses.append(total)
            ces.append(ce)
            cents_l.append(cents)
            # the step's global L2 gradient norm, summed in float64
            norms.append(math.sqrt(sum(
                float(np.square(g, dtype=np.float64).sum())
                for g in grads.values())))
        if not losses:
            raise ArgumentError(
                f"epoch {epoch} made no step: all {sum(skipped.values())} "
                f"examples skipped (shorter than {SEGMENT_SECONDS} s, "
                f"unvoiced or silent)")
        entry = {"epoch": epoch, "loss": float(np.mean(losses)),
                 "ce": float(np.mean(ces)), "cents": float(np.mean(cents_l)),
                 "steps": len(losses),
                 **{f"skipped_{reason}": n for reason, n in skipped.items()},
                 "grad_norm": float(np.mean(norms))}
        history.append(entry)
        if log_callback is not None:
            log_callback(entry)
    return params, history
