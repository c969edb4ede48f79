"""Compact spectral CNN for per-frame pitch scoring.

Five 5x5 conv layers (channels 1->8->16->32->64->1), each with batch norm
and ReLU, followed by a per-frame dense projection from the 132 band bins
onto 200 pitch bins: 95,842 parameters. The convs have no bias, which batch
norm would subtract right back out. Forward and backward passes are written
by hand on numpy. Each convolution picks its kernel from the kernel shape,
so that every layer runs as a few large BLAS calls:

- layer 0 (c_in = 1) is one im2col GEMM of the (8, 25) kernel with the
  5x5 patch matrix; as 25 shifted taps each matmul would have one input
  channel and run far below BLAS speed;
- layer 4 (c_out = 1) is one GEMM from the padded input to 25 tap maps,
  (25, c_in) @ input^T, followed by 25 shifted adds; as shifted taps each
  matmul would have one output channel;
- layers 1-3 run on a row window of the input, zero-padded with channels
  before frequency: output row r reads padded rows r..r+4, a view that is an
  (f + 4, 5 * c_in) matrix per row, and takes one GEMM per tap column j with
  K = 5 * c_in over its rows j..j+f; 25 shifted-tap matmuls with K = c_in
  ran far below BLAS speed, and no patch matrix is copied. When c_in * c_out
  reaches SPLIT_CHANNELS, which only layer 3's forward (32 -> 64) and its dx
  (64 -> 32) do, each half of the f output rows is its own stack of GEMMs,
  written in place, with the same bits: on a 2-CPU AVX-512 Xeon with
  OpenBLAS 0.3.31, stacks of layer 3's size ran faster on half the rows, and
  why is not measured.

The backward pass reuses these kernels. dx of a layer is the forward conv of
its output gradient with the spatially flipped, channel-transposed kernel,
so layer 4's dx runs as the im2col GEMM and layers 1-3's on the row window;
layer 0's, the spectrogram's gradient, is not computed. dw puts the output
gradient in the top-left corner of a zero grid the size of the padded input.
Flattened to rows of channels, tap (i, j) is then a GEMM of the gradient
rows with the input rows i*(f+4) + j further on, both contiguous views,
taken in blocks of ROW_BLOCK rows so that both operands stay in cache across
the 25 taps. With one output channel (layer 4) dw is a single GEMM of the
padded input with the 25 shifted copies of the gradient. Every kernel
returns its output in C order: batch norm's channel sums depend on the
memory layout of what they sum, so a transposed view would change them.

Train mode holds every activation and gradient as the list of its two batch
halves, [0, B//2) and [B//2, B) (one half when B = 1), and runs every
full-size pass of every layer, forward and backward, once per half through
`run_blocks`, which returns the halves' results in half order. Forward, a
half's conv output is batch norm's input, and batch norm centres and scales
it in place into its x_hat, then forms y, which the ReLU clips in place.
Backward, batch norm takes the s1/s2 channel sums it needs (which are also
the beta and gamma gradients) and forms dx per half; the conv's dx, masked
in place by the ReLU, is the next layer's gradient. The ReLU mask is not
stored: the gradient passes where the ReLU's output, the next layer's input,
is > 0. Batch norm's statistics span the whole batch, so each of its sums is
taken per half and the calling thread adds the halves' parts in half order;
a kernel gradient dw is likewise the first half's plus the second's. The
halves depend only on B, so the result is bit for bit the same whether one
thread or two run them.

Eval mode folds each batch norm into its conv kernel and a bias once per
call, so a layer is conv -> ReLU. `forward` cuts a spectrogram into
near-equal blocks of at most BLOCK = CHUNK // 2 frames, at least two when it
has two frames, each widened by HALO frames of context on both sides; HALO is
the receptive-field half-width, so the kept frames are exactly those of one
whole-sequence call, and the working set stays bounded by the CHUNK frames
in flight. The calling thread and one worker thread take blocks from a
shared queue (`run_blocks`, which the ACF baseline uses too): numpy
releases the GIL inside BLAS and its ufuncs, so two blocks run side by side
on two CPUs. The worker is used only when the process may run on at least
two CPUs.

While the blocks run, OpenBLAS is held at one thread (`one_blas_thread`).
Its own threads split each GEMM of this model, whose operands are skinny,
for no gain, and they make the two block threads' GEMMs queue behind one
another. The thread-count calls are looked up at run time in the OpenBLAS
numpy loaded; when they cannot be found, nothing is held and the logits are
the same.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import N_BANDS
from .errors import ArgumentError, FormatError
from .grid import N_BINS

CHANNEL_PLAN = [1, 8, 16, 32, 64, 1]
KERNEL = 5
PAD = KERNEL // 2
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# eval-mode frames in flight, run as two blocks of at most BLOCK frames, and
# the context each block needs on either side: every layer widens the
# receptive field by PAD frames
CHUNK = 256
BLOCK = CHUNK // 2
HALO = (len(CHANNEL_PLAN) - 1) * PAD
# grid rows per block of the per-tap dw GEMMs: a block of gradient and input
# rows (about 1.5 MB at 96 channels) stays in cache across the 25 taps,
# where whole-grid operands are read from memory once per tap
ROW_BLOCK = 4096
# c_in * c_out from which `_conv_shifted_taps` runs each half of the output
# frequency rows as its own GEMM stack. On one thread, layer 3's
# (132, 160) @ (160, 64) stack ran at 41-44 GMAC/s and one of 66 rows at
# about 62; the split took its forward at 148 frames from 28.0-32.4 to
# 20.5-25.7 ms and its dx at 8 x 28 frames from 47.9-49.8 to 37.0-39.9 ms.
# Layers 1-2 ran slower under any split (5.5 -> 6.3-6.7 ms and 1.8 -> 2.3-2.4
# ms), so only layer 3's forward (32 -> 64) and dx (64 -> 32) reach this.
SPLIT_CHANNELS = 2048


@dataclass
class ModelParams:
    conv_w: list          # [ (c_out, c_in, 5, 5) ]
    bn_gamma: list        # [ (c,) ]
    bn_beta: list
    bn_mean: list         # running statistics, not trainable
    bn_var: list
    proj_w: np.ndarray    # (200, 132)
    proj_b: np.ndarray    # (200,)

    @property
    def dtype(self):
        return self.proj_w.dtype

    def trainable(self) -> dict:
        """Name -> array for every trainable tensor (running stats excluded)."""
        out = {}
        for i in range(len(self.conv_w)):
            out[f"conv{i}.weight"] = self.conv_w[i]
            out[f"bn{i}.gamma"] = self.bn_gamma[i]
            out[f"bn{i}.beta"] = self.bn_beta[i]
        out["proj.weight"] = self.proj_w
        out["proj.bias"] = self.proj_b
        return out

    def all_tensors(self) -> dict:
        out = self.trainable()
        for i in range(len(self.conv_w)):
            out[f"bn{i}.running_mean"] = self.bn_mean[i]
            out[f"bn{i}.running_var"] = self.bn_var[i]
        return out


def init_params(seed: int, dtype=np.float32) -> ModelParams:
    """Uniform +-sqrt(6/fan_in) kernels, identity batch norm, zero proj bias."""
    rng = np.random.default_rng(seed)
    conv_w, gamma, beta, mean, var = [], [], [], [], []
    for c_in, c_out in zip(CHANNEL_PLAN[:-1], CHANNEL_PLAN[1:]):
        bound = np.sqrt(6.0 / (c_in * KERNEL * KERNEL))
        conv_w.append(rng.uniform(-bound, bound,
                                  (c_out, c_in, KERNEL, KERNEL)).astype(dtype))
        gamma.append(np.ones(c_out, dtype=dtype))
        beta.append(np.zeros(c_out, dtype=dtype))
        mean.append(np.zeros(c_out, dtype=dtype))
        var.append(np.ones(c_out, dtype=dtype))
    bound = np.sqrt(6.0 / N_BANDS)
    proj_w = rng.uniform(-bound, bound, (N_BINS, N_BANDS)).astype(dtype)
    proj_b = np.zeros(N_BINS, dtype=dtype)
    return ModelParams(conv_w, gamma, beta, mean, var, proj_w, proj_b)


def count_params(p: ModelParams) -> int:
    """Number of trainable values."""
    return sum(arr.size for arr in p.trainable().values())


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------

def _pad_spatial(x: np.ndarray) -> np.ndarray:
    b, t, f, c = x.shape
    out = np.zeros((b, t + 2 * PAD, f + 2 * PAD, c), dtype=x.dtype)
    out[:, PAD:PAD + t, PAD:PAD + f, :] = x
    return out


def _conv_forward(x, w, bias):
    """Same-padded 5x5 conv, with the kernel chosen from the shape of w.

    Each kernel accumulates in a fixed order, so results are
    bit-reproducible.
    """
    c_out, c_in = w.shape[:2]
    if c_in == 1:
        return _conv_im2col(x, w, bias)
    if c_out == 1:
        return _conv_tap_maps(x, w, bias)
    return _conv_shifted_taps(x, w, bias)


def _conv_im2col(x, w, bias):
    """One GEMM of the (c_out, 25) kernel with the 5x5 patch matrix."""
    b, t, f, _ = x.shape
    patches = sliding_window_view(_pad_spatial(x)[..., 0], (KERNEL, KERNEL),
                                  axis=(1, 2))        # (b, t, f, 5, 5)
    # kernel on the left: with the (positions, 25) patches on the left,
    # peak RSS over inputs of varying length grew by about 20 MB
    # C order: batch norm's channel sums depend on the memory layout
    out = np.ascontiguousarray(
        (w.reshape(len(w), -1) @ patches.reshape(-1, KERNEL * KERNEL).T).T)
    out += bias
    return out.reshape(b, t, f, len(w))


def _conv_tap_maps(x, w, bias):
    """One GEMM to the 25 tap maps of a single output channel, then shifted
    adds: out[t, f] = bias + sum_ij maps[i, j, t + i, f + j]."""
    b, t, f, c_in = x.shape
    xp = _pad_spatial(x)
    maps = w[0].reshape(c_in, KERNEL * KERNEL).T @ xp.reshape(-1, c_in).T
    maps = maps.reshape((KERNEL, KERNEL) + xp.shape[:3])
    out = np.broadcast_to(bias, (b, t, f, 1)).copy()
    acc = out[..., 0]
    for i in range(KERNEL):
        for j in range(KERNEL):
            acc += maps[i, j, :, i:i + t, j:j + f]
    return out


def _conv_shifted_taps(x, w, bias):
    """Five batched matmuls over a row window of the zero-padded input, one
    per tap column j, each with K = 5 * c_in: out[r] = bias +
    sum_j win[r, j:j + f] @ wj[j].

    When c_in * c_out >= SPLIT_CHANNELS, the f frequency positions of every
    output row are cut at f // 2 into two such stacks, with M = f // 2 and
    f - f // 2 GEMM rows, each written into its part of `out`. Every element
    is the same sum in the same order, so the bits do not change;
    layer-3-sized stacks ran faster on half the rows (see SPLIT_CHANNELS),
    for a cause that is not measured."""
    b, t, f, c_in = x.shape
    xp = np.zeros((b, t + 2 * PAD, c_in, f + 2 * PAD), dtype=x.dtype)
    xp[:, PAD:PAD + t, :, PAD:PAD + f] = x.transpose(0, 1, 3, 2)
    # a view: row r's (f + 4, 5 * c_in) matrix has unit stride along
    # frequency and stride f + 4 along (kernel row i, channel c)
    win = sliding_window_view(xp, KERNEL, axis=1).transpose(0, 1, 3, 4, 2)
    win = win.reshape(b, t, f + 2 * PAD, KERNEL * c_in)
    wj = w.transpose(3, 2, 1, 0).reshape(KERNEL, KERNEL * c_in, len(w))
    # a one-row half would run as a vector-matrix product, whose sums differ
    # from the GEMM's
    parts = 2 if c_in * len(w) >= SPLIT_CHANNELS and f >= 4 else 1
    out = np.empty((b, t, f, len(w)), dtype=np.result_type(x, w))
    edges = [f * k // parts for k in range(parts + 1)]
    for lo, hi in zip(edges, edges[1:]):
        rows = out[:, :, lo:hi]
        np.matmul(win[:, :, lo:hi], wj[0], out=rows)
        for j in range(1, KERNEL):
            rows += win[:, :, lo + j:hi + j] @ wj[j]
    out += bias
    return out


def _conv_backward(x, w, d_out):
    """Returns (dx, dw) for the same-padded conv; dx is None for a layer
    with one input channel, whose input is the spectrogram.

    dx is the forward conv of d_out with the spatially flipped,
    channel-transposed kernel, so it runs on `_conv_forward`'s kernels.
    dw is one GEMM per tap and block of ROW_BLOCK rows over flat row views
    of the padded grids, or one GEMM in all when the layer has a single
    output channel.
    """
    b, t, f, c_in = x.shape
    c_out = w.shape[0]
    dx = None if c_in == 1 else _conv_forward(
        d_out, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3),
        np.zeros(c_in, dtype=x.dtype))

    # On the padded grid flattened to rows, input position p + i*fp + j is
    # tap (i, j) of output position p when d_out sits in the top-left
    # corner; the zero border pairs every wrapped row with a zero gradient.
    fp = f + 2 * PAD
    xp_flat = _pad_spatial(x).reshape(-1, c_in)
    d_pad = np.zeros((b, t + 2 * PAD, fp, c_out), dtype=d_out.dtype)
    d_pad[:, :t, :f] = d_out
    d_flat = d_pad.reshape(-1, c_out)
    offsets = [i * fp + j for i in range(KERNEL) for j in range(KERNEL)]
    m = len(xp_flat) - offsets[-1]
    if c_out == 1:
        # column k of `shifts` is the gradient moved down by offsets[k]
        g = np.concatenate((np.zeros(offsets[-1], dtype=d_out.dtype),
                            d_flat[:, 0]))
        starts = offsets[-1] - np.asarray(offsets)
        shifts = sliding_window_view(g, offsets[-1] + 1)[:, starts]
        dw = (xp_flat.T @ shifts).reshape(w.shape)
    else:
        taps = np.zeros((len(offsets), c_out, c_in), dtype=w.dtype)
        for r0 in range(0, m, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, m)
            d_rows = d_flat[r0:r1].T
            for k, off in enumerate(offsets):
                taps[k] += d_rows @ xp_flat[r0 + off:r1 + off]
        dw = taps.transpose(1, 2, 0).reshape(w.shape)
    return dx, dw


def _halves(x):
    """Views of the batch halves x[:b//2] and x[b//2:] of a training step, or
    [x] when b = 1. The split depends only on b, never on how many threads
    run it."""
    b = len(x)
    return [x] if b < 2 else [x[:b // 2], x[b // 2:]]


def _bn_forward(xs, gamma, beta, run_mean, run_var):
    """Train-mode batch norm of the batch halves xs over all but the channel
    axis, which also moves the running statistics BN_MOMENTUM of the way to
    the batch's; returns (y halves, (x_hat halves, inv_std)). Each half is
    centred and scaled in place, so it becomes its x_hat. Each pass over the
    data runs per half; the calling thread adds the halves' channel sums in
    half order."""
    c = xs[0].shape[-1]
    n = sum(x.size for x in xs) // c
    mean = sum(run_blocks(xs, lambda x: x.sum(axis=(0, 1, 2)))) / n

    def centre(x):
        x -= mean
        flat = x.reshape(-1, c)
        return np.einsum("nc,nc->c", flat, flat)

    var = sum(run_blocks(xs, centre)) / n
    run_mean *= 1.0 - BN_MOMENTUM
    run_mean += BN_MOMENTUM * mean
    run_var *= 1.0 - BN_MOMENTUM
    run_var += BN_MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)

    def scale(x):
        x *= inv_std
        y = x * gamma
        y += beta
        return y

    return run_blocks(xs, scale), (xs, inv_std)


def _bn_backward(d_outs, x_hats, inv_std, gamma):
    """dx = gamma * inv_std * (d - s1/n - x_hat * s2/n) of the batch halves,
    with the channel sums s1 = sum d (the beta gradient) and s2 = sum
    d * x_hat (the gamma gradient); returns (dx halves, s2, s1). The sums and
    dx run per half; the calling thread adds the halves' sums in half
    order."""
    c = d_outs[0].shape[-1]
    n = sum(d.size for d in d_outs) // c
    halves = list(zip(d_outs, x_hats))

    def sums(half):
        d, x_hat = half
        return d.sum(axis=(0, 1, 2)), np.einsum(
            "nc,nc->c", d.reshape(-1, c), x_hat.reshape(-1, c))

    parts = run_blocks(halves, sums)
    s1 = sum(s for s, _ in parts)
    s2 = sum(s for _, s in parts)

    def grad(half):
        d, x_hat = half
        dx = np.multiply(x_hat, -s2 / n)
        dx += d
        dx -= s1 / n
        dx *= gamma * inv_std
        return dx

    return run_blocks(halves, grad), s2, s1


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _fold(p: ModelParams):
    """Eval layers as (kernel, bias) pairs: batch norm with running
    statistics is affine, so it folds into the conv."""
    scales = [g / np.sqrt(v + BN_EPS) for g, v in zip(p.bn_gamma, p.bn_var)]
    return [(w * s[:, None, None, None], beta - mean * s)
            for w, s, beta, mean in zip(p.conv_w, scales, p.bn_beta, p.bn_mean)]


def _eval_logits(p: ModelParams, layers, x):
    """(logits, feature map) of a (B, T, 132) batch on the folded layers."""
    h = x[..., None]  # (B, T, F, 1)
    for w, bias in layers:
        h = _conv_forward(h, w, bias)
        np.maximum(h, 0.0, out=h)
    feat = h[..., 0]  # (B, T, F)
    return feat @ p.proj_w.T + p.proj_b, feat


def forward_batch(p: ModelParams, x: np.ndarray, train: bool = False):
    """Run the network on a (B, T, 132) batch of spectrogram segments.

    Returns (logits (B, T, 200), cache). Train mode normalises with the
    batch statistics and updates the running ones. Eval mode uses
    the running statistics, folded into the conv kernels, and never mutates
    params; its cache holds only the final feature map "feat".
    """
    x = np.asarray(x, dtype=p.dtype)
    if x.ndim != 3 or x.shape[2] != N_BANDS:
        raise ArgumentError(f"expected (B, T, {N_BANDS}), got {x.shape}")
    if not train:
        logits, feat = _eval_logits(p, _fold(p), x)
        return logits, {"train": False, "feat": feat}
    layers = []
    h = _halves(x[..., None])  # (B, T, F, 1) as its batch halves
    for i, w in enumerate(p.conv_w):
        zero = np.zeros(len(w), dtype=p.dtype)
        z = run_blocks(h, lambda half: _conv_forward(half, w, zero))
        y, (x_hat, inv_std) = _bn_forward(
            z, p.bn_gamma[i], p.bn_beta[i], p.bn_mean[i], p.bn_var[i])
        run_blocks(y, lambda half: np.maximum(half, 0.0, out=half))
        layers.append((h, x_hat, inv_std))
        h = y
    feat = np.concatenate(h)[..., 0]  # (B, T, F)
    logits = feat @ p.proj_w.T + p.proj_b
    return logits, {"train": True, "layers": layers, "feat": feat}


def backward_batch(p: ModelParams, cache: dict, d_logits: np.ndarray):
    """Gradients, keyed like ModelParams.trainable(), of the scalar loss
    whose logit-gradient is d_logits.

    A ReLU passed the gradient where its output, the next layer's input (or
    the final feature map), is > 0, so no mask is kept from the forward."""
    if not cache.get("train"):
        raise ArgumentError("backward requires a cache from a train-mode forward")
    if len(cache["layers"]) != len(p.conv_w):
        raise ArgumentError("cache does not match this parameter set")
    d_logits = np.asarray(d_logits, dtype=p.dtype)
    feat = cache["feat"]
    grads = {}
    d_flat = d_logits.reshape(-1, N_BINS)
    grads["proj.weight"] = d_flat.T @ feat.reshape(-1, N_BANDS)
    grads["proj.bias"] = d_flat.sum(axis=0)
    d_y = _halves(np.multiply(d_logits @ p.proj_w, feat > 0.0)[..., None])
    for i in reversed(range(len(p.conv_w))):
        layer_in, x_hat, inv_std = cache["layers"][i]
        d_z, d_gamma, d_beta = _bn_backward(d_y, x_hat, inv_std, p.bn_gamma[i])
        del d_y  # freed before the conv makes the next one

        def conv(half):
            # dx becomes the gradient of the layer below's output, through
            # its ReLU; it is None for layer 0
            x, d = half
            dx, dw = _conv_backward(x, p.conv_w[i], d)
            if dx is not None:
                dx *= x > 0.0
            return dx, dw

        d_y, dw = zip(*run_blocks(zip(layer_in, d_z), conv))
        grads[f"conv{i}.weight"] = sum(dw)
        grads[f"bn{i}.gamma"] = d_gamma
        grads[f"bn{i}.beta"] = d_beta
    return grads


def forward(p: ModelParams, values: np.ndarray) -> np.ndarray:
    """Eval-mode logits (T, 200) of one (T, 132) spectrogram, run in blocks
    of at most BLOCK frames on two threads, on layers folded once; bit for
    bit those of one whole-sequence eval `forward_batch`. Raises FormatError
    when the logits are not all finite, as weights holding a NaN or an
    infinity give."""
    values = np.asarray(values, dtype=p.dtype)
    if values.ndim != 2 or values.shape[1] != N_BANDS:
        raise ArgumentError(f"expected (T, {N_BANDS}), got {values.shape}")
    layers = _fold(p)
    t = len(values)
    logits = np.empty((t, N_BINS), dtype=p.dtype)
    # the partition depends only on t, never on how many threads run it
    n = max(-(-t // BLOCK), min(t, 2))
    edges = [t * k // n for k in range(n + 1)]

    def run_block(k):
        lo, hi = edges[k], edges[k + 1]
        a, b = max(lo - HALO, 0), min(hi + HALO, t)
        block, _ = _eval_logits(p, layers, values[None, a:b])
        logits[lo:hi] = block[0, lo - a:hi - a]

    run_blocks(range(n), run_block)
    if not np.isfinite(logits).all():
        raise FormatError("the weights give non-finite logits")
    return logits


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

_pool = None
_pool_lock = threading.Lock()
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved = None  # (set, count) while held, when OpenBLAS was found


def _worker():
    """The single-thread executor of `run_blocks`, made on first use; None
    when this process may run on only one CPU."""
    global _pool
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(1, thread_name_prefix="pitchkit-forward")
        return _pool


def run_blocks(items, run) -> list:
    """[run(item) for item in items], in item order, computed on the calling
    thread and the worker, which take the items from one shared queue, with
    OpenBLAS held at one thread. Each call may write only its own part of a
    shared output, so the result does not depend on which thread ran it."""
    todo = deque(enumerate(items))
    out = [None] * len(todo)

    def drain():
        while True:
            try:
                k, item = todo.popleft()
            except IndexError:
                return
            out[k] = run(item)

    with one_blas_thread():
        pool = _worker() if len(todo) > 1 else None
        helper = pool.submit(drain) if pool else None
        try:
            drain()
        finally:
            todo.clear()  # after an error, the worker stops at its item
            # a helper that never started (the worker was busy with another
            # call) is not waited for: this thread ran every item
            if helper is not None and not helper.cancel():
                helper.result()
    return out


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, found
    through numpy's core extension, or None for another BLAS or naming."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                           ("openblas_", "64_"), ("openblas_", "")):
        try:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread. Holds nest and may be taken on several
    threads at once: the first to enter saves the thread count and the last
    to leave restores it."""
    global _blas_holders, _blas_saved
    with _blas_lock:
        if _blas_holders == 0:
            api = _openblas_threads()
            _blas_saved = None
            if api:
                get, put = api
                _blas_saved = put, get()
                put(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0 and _blas_saved:
                put, count = _blas_saved
                put(count)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_MAGIC = b"SWF0"
_VERSION = 1
_F4 = np.dtype("<f4")


def save_params(p: ModelParams, path) -> None:
    """Version-1 weights file: magic, version, then named float32 tensors,
    with a zero conv{i}.bias after each conv{i}.weight."""
    tensors = {}
    for name, arr in p.all_tensors().items():
        tensors[name] = arr
        if name.startswith("conv"):
            tensors[name.replace("weight", "bias")] = np.zeros(len(arr))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, arr in tensors.items():
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def load_params(path, dtype=np.float32) -> ModelParams:
    """Read a version-1 weights file, folding each conv bias into the running
    mean batch norm subtracts next: fl(m - b) = -fl(b - m), so the folded
    eval layers are bit for bit those of conv + bias."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = len(data)
    if end >= 4 and data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic")
    tensors = {}
    pos = 12
    # a field read past the end raises struct.error or IndexError
    try:
        version, count = struct.unpack_from("<II", data, 4)
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2 + name_len
            if pos > end:
                raise IndexError
            try:
                name = data[pos - name_len:pos].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: tensor name is not UTF-8") from None
            rank = data[pos]
            shape = struct.unpack_from(f"<{rank}I", data, pos + 1)
            pos += 1 + 4 * rank
            size = 4 * math.prod(shape)  # exact: a huge shape is truncated
            if pos + size > end:
                raise IndexError
            try:
                vals = np.ndarray(shape, _F4, data, pos)
            except ValueError:  # too many dimensions, or a size numpy cannot index
                raise FormatError(f"{path}: tensor {name!r} has shape {shape}, "
                                  "which no ndarray can hold") from None
            tensors[name] = vals.astype(dtype)
            pos += size
    except (IndexError, struct.error):
        raise FormatError(f"{path}: truncated weights file") from None
    if pos != end:
        raise FormatError(f"{path}: trailing bytes after last tensor")

    def get(name, shape):
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise FormatError(f"{path}: {name} has shape "
                              f"{tensors[name].shape}, not {shape}")
        return tensors[name]

    conv_w, gamma, beta, mean, var = [], [], [], [], []
    for i, (c_in, c_out) in enumerate(zip(CHANNEL_PLAN[:-1], CHANNEL_PLAN[1:])):
        conv_w.append(get(f"conv{i}.weight", (c_out, c_in, KERNEL, KERNEL)))
        gamma.append(get(f"bn{i}.gamma", (c_out,)))
        beta.append(get(f"bn{i}.beta", (c_out,)))
        mean.append(get(f"bn{i}.running_mean", (c_out,))
                    - get(f"conv{i}.bias", (c_out,)))
        var.append(get(f"bn{i}.running_var", (c_out,)))
    return ModelParams(conv_w, gamma, beta, mean, var,
                       get("proj.weight", (N_BINS, N_BANDS)),
                       get("proj.bias", (N_BINS,)))
