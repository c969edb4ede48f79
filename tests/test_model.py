import importlib.util
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pitchkit import model as net
from pitchkit.audio_io import AudioBuffer
from pitchkit.errors import ArgumentError, FormatError
from pitchkit import grid
from pitchkit.losses import loss_total, softmax_rows
from pitchkit.pipeline import analyze



def random_batch(rng, frames=4):
    x = rng.standard_normal((1, frames, 132))
    targets = rng.integers(0, 200, frames)
    f_true = grid.CENTERS[targets] * 2.0 ** rng.uniform(-0.01, 0.01, frames)
    mask = np.ones(frames, dtype=bool)
    return x, f_true, mask


def total_loss(params, x, f_true, mask):
    logits, cache = net.forward_batch(params, x, train=True)
    total, d, _, _ = loss_total(logits.reshape(-1, 200), f_true, mask)
    return total, d.reshape(logits.shape), cache


def test_init_deterministic():
    a = net.init_params(42)
    b = net.init_params(42)
    for name, arr in a.all_tensors().items():
        np.testing.assert_array_equal(arr, b.all_tensors()[name])


def test_init_biases_zero_and_kernel_bound():
    p = net.init_params(0)
    assert np.all(p.proj_b == 0.0)
    for beta in p.bn_beta:
        assert np.all(beta == 0.0)
    bound = np.sqrt(6.0 / 25.0)
    assert np.all(np.abs(p.conv_w[0]) <= bound)


def test_count_params_breakdown():
    p = net.init_params(1)
    total = net.count_params(p)
    counts = {name: arr.size for name, arr in p.trainable().items()}
    conv = sum(v for k, v in counts.items() if k.startswith("conv"))
    assert conv == 200 + 3200 + 12800 + 51200 + 1600 == 69000
    assert counts["proj.weight"] + counts["proj.bias"] == 26600
    assert total == 95842


def test_zero_network_uniform_softmax():
    p = net.init_params(3)
    for w in p.conv_w:
        w[:] = 0.0
    p.proj_w[:] = 0.0
    logits = net.forward(p, np.zeros((4, 132)))
    assert np.all(logits == 0.0)
    probs = softmax_rows(logits)
    np.testing.assert_allclose(probs, 1.0 / 200.0)


def test_forward_shape_and_error():
    p = net.init_params(2)
    logits = net.forward(p, np.random.default_rng(0).standard_normal((7, 132)))
    assert logits.shape == (7, 200)
    with pytest.raises(ArgumentError):
        net.forward(p, np.zeros((4, 100)))


def test_eval_forward_pure():
    p = net.init_params(2)
    x = np.random.default_rng(1).standard_normal((5, 132))
    a = net.forward(p, x)
    b = net.forward(p, x)
    np.testing.assert_array_equal(a, b)


def test_eval_batch_size_invariance():
    # in eval mode each batch element must be processed independently
    p = net.init_params(4)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((1, 6, 132))
    b = rng.standard_normal((1, 6, 132))
    za, _ = net.forward_batch(p, a)
    zb, _ = net.forward_batch(p, b)
    zab, _ = net.forward_batch(p, np.concatenate([a, b]))
    np.testing.assert_allclose(zab, np.concatenate([za, zb]), atol=1e-6)


def test_backward_zero_gradient():
    p = net.init_params(5, dtype=np.float64)
    x = np.random.default_rng(0).standard_normal((1, 4, 132))
    _, cache = net.forward_batch(p, x, train=True)
    grads = net.backward_batch(p, cache, np.zeros((1, 4, 200)))
    for g in grads.values():
        assert np.all(g == 0.0)


def test_backward_requires_train_cache():
    p = net.init_params(5)
    x = np.random.default_rng(0).standard_normal((1, 4, 132))
    _, cache = net.forward_batch(p, x, train=False)
    with pytest.raises(ArgumentError):
        net.backward_batch(p, cache, np.zeros((1, 4, 200)))


def test_gradients_match_finite_differences():
    # central differences; h small enough that no ReLU/abs kink is crossed
    rng = np.random.default_rng(1)
    p = net.init_params(7, dtype=np.float64)
    x, f_true, mask = random_batch(rng)
    _, d, cache = total_loss(p, x, f_true, mask)
    grads = net.backward_batch(p, cache, d)
    h = 1e-6
    for name, arr in p.trainable().items():
        n = min(6, arr.size)
        idxs = [np.unravel_index(i, arr.shape)
                for i in rng.choice(arr.size, size=n, replace=False)]
        fd = np.zeros(n)
        an = np.zeros(n)
        for j, idx in enumerate(idxs):
            orig = arr[idx]
            arr[idx] = orig + h
            lp, _, _ = total_loss(p, x, f_true, mask)
            arr[idx] = orig - h
            lm, _, _ = total_loss(p, x, f_true, mask)
            arr[idx] = orig
            fd[j] = (lp - lm) / (2 * h)
            an[j] = grads[name][idx]
        rel = np.linalg.norm(fd - an) / max(np.linalg.norm(fd),
                                            np.linalg.norm(an), 1e-12)
        assert rel < 1e-4, f"{name}: rel={rel:.2e}"


def test_masked_channel_gradient_zero():
    # drive one channel's BN shift far negative so ReLU masks it everywhere
    rng = np.random.default_rng(9)
    p = net.init_params(11, dtype=np.float64)
    p.bn_beta[0][0] = -100.0
    x, f_true, mask = random_batch(rng)
    _, d, cache = total_loss(p, x, f_true, mask)
    grads = net.backward_batch(p, cache, d)
    assert np.all(grads["bn0.gamma"][0] == 0.0)
    assert np.all(grads["conv0.weight"][0] == 0.0)


def test_receptive_field_21x21():
    # perturb one input pixel in eval mode (per-position batch norm) and
    # check the changed region of the final conv feature map
    rng = np.random.default_rng(3)
    p = net.init_params(13, dtype=np.float64)
    x = rng.standard_normal((1, 45, 132))
    _, cache_a = net.forward_batch(p, x, train=False)
    x2 = x.copy()
    t0, f0 = 22, 66
    x2[0, t0, f0] += 1.0
    _, cache_b = net.forward_batch(p, x2, train=False)
    diff = np.abs(cache_b["feat"][0] - cache_a["feat"][0])
    touched_t, touched_f = np.nonzero(diff > 1e-12)
    assert np.abs(touched_t - t0).max() <= 10
    assert np.abs(touched_f - f0).max() <= 10


def direct_sum_conv(x, w, bias):
    """float64 oracle: out[b,t,f,o] = bias[o] + sum_{i,j,c} xp[b,t+i,f+j,c] w[o,c,i,j]."""
    x, w = x.astype(np.float64), w.astype(np.float64)
    b, t, f, _ = x.shape
    pad = net.PAD
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((b, t, f, w.shape[0])) + bias.astype(np.float64)
    abs_sum = np.zeros_like(out) + np.abs(bias.astype(np.float64))
    for i in range(net.KERNEL):
        for j in range(net.KERNEL):
            window = xp[:, i:i + t, j:j + f, :]
            out += np.einsum("btfc,oc->btfo", window, w[:, :, i, j])
            abs_sum += np.einsum("btfc,oc->btfo", np.abs(window),
                                 np.abs(w[:, :, i, j]))
    return out, abs_sum


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", range(len(net.CHANNEL_PLAN) - 1))
def test_conv_forward_matches_direct_sum(layer, dtype):
    # one kernel per layer shape: im2col (c_in = 1), tap maps (c_out = 1)
    # and shifted taps in between; all must agree with the plain sum
    rng = np.random.default_rng(layer)
    c_in, c_out = net.CHANNEL_PLAN[layer], net.CHANNEL_PLAN[layer + 1]
    x = rng.standard_normal((3, 9, 21, c_in)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, net.KERNEL, net.KERNEL)).astype(dtype)
    bias = rng.standard_normal(c_out).astype(dtype)
    out = net._conv_forward(x, w, bias)
    expected, abs_sum = direct_sum_conv(x, w, bias)
    assert out.shape == expected.shape and out.dtype == dtype
    # rounding bound: a few ulps of the dtype per unit of |terms|
    assert np.all(np.abs(out - expected) <= 64 * np.finfo(dtype).eps * abs_sum)


@pytest.mark.parametrize("layer", range(len(net.CHANNEL_PLAN) - 1))
def test_conv_outputs_are_c_order(layer):
    # batch norm's channel sums depend on the memory layout of what they
    # sum, so every kernel, and so every dx, must return C order
    rng = np.random.default_rng(layer)
    c_in, c_out = net.CHANNEL_PLAN[layer], net.CHANNEL_PLAN[layer + 1]
    x = rng.standard_normal((2, 9, 21, c_in))
    w = rng.standard_normal((c_out, c_in, net.KERNEL, net.KERNEL))
    assert net._conv_forward(x, w, np.zeros(c_out)).flags.c_contiguous
    dx, _ = net._conv_backward(x, w, rng.standard_normal((2, 9, 21, c_out)))
    assert dx is None or dx.flags.c_contiguous


def direct_sum_conv_backward(x, w, d):
    """float64 oracle of the conv's gradients, each with the sum of |terms|:
    dx[b,t,f,c] = sum_{i,j,o} d[b,t+PAD-i,f+PAD-j,o] w[o,c,i,j],
    dw[o,c,i,j] = sum_{b,t,f} d[b,t,f,o] xp[b,t+i,f+j,c]."""
    x, w, d = (a.astype(np.float64) for a in (x, w, d))
    b, t, f, _ = x.shape
    pad = net.PAD
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    dp = np.pad(d, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    dx, dx_abs = np.zeros_like(x), np.zeros_like(x)
    dw, dw_abs = np.zeros_like(w), np.zeros_like(w)
    for i in range(net.KERNEL):
        for j in range(net.KERNEL):
            grad = dp[:, 2 * pad - i:2 * pad - i + t, 2 * pad - j:2 * pad - j + f]
            dx += np.einsum("btfo,oc->btfc", grad, w[:, :, i, j])
            dx_abs += np.einsum("btfo,oc->btfc", np.abs(grad),
                                np.abs(w[:, :, i, j]))
            window = xp[:, i:i + t, j:j + f]
            dw[:, :, i, j] = np.einsum("btfo,btfc->oc", d, window)
            dw_abs[:, :, i, j] = np.einsum("btfo,btfc->oc", np.abs(d),
                                           np.abs(window))
    return (dx, dx_abs), (dw, dw_abs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", range(len(net.CHANNEL_PLAN) - 1))
def test_conv_backward_matches_direct_sum(layer, dtype):
    # dx runs on the forward kernels of the transposed shape, dw on flat row
    # views (one GEMM when c_out = 1); all must agree with the plain sums.
    # Layer 0's input is the spectrogram, whose gradient is not computed.
    rng = np.random.default_rng(10 + layer)
    c_in, c_out = net.CHANNEL_PLAN[layer], net.CHANNEL_PLAN[layer + 1]
    x = rng.standard_normal((3, 9, 21, c_in)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, net.KERNEL, net.KERNEL)).astype(dtype)
    d = rng.standard_normal((3, 9, 21, c_out)).astype(dtype)
    dx, dw = net._conv_backward(x, w, d)
    (dx_ref, dx_abs), (dw_ref, dw_abs) = direct_sum_conv_backward(x, w, d)
    checks = [("dw", dw, dw_ref, dw_abs)]
    if layer == 0:
        assert dx is None
    else:
        checks.append(("dx", dx, dx_ref, dx_abs))
    for name, got, expected, abs_sum in checks:
        assert got.shape == expected.shape and got.dtype == dtype, name
        # the rounding bound of test_conv_forward_matches_direct_sum
        assert np.all(np.abs(got - expected)
                      <= 64 * np.finfo(dtype).eps * abs_sum), name


@pytest.mark.parametrize("t", [1, 9])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", [1, 2, 3])
def test_shifted_taps_batch_elements_match_single_calls(layer, dtype, t):
    # a row's GEMMs depend on neither b nor t, so each element of a batch
    # gets the bits of its own b = 1 call, forward and dx alike
    rng = np.random.default_rng(20 + layer)
    c_in, c_out = net.CHANNEL_PLAN[layer], net.CHANNEL_PLAN[layer + 1]
    x = rng.standard_normal((3, t, 21, c_in)).astype(dtype)
    w = rng.standard_normal((c_out, c_in, net.KERNEL, net.KERNEL)).astype(dtype)
    bias = rng.standard_normal(c_out).astype(dtype)
    d = rng.standard_normal((3, t, 21, c_out)).astype(dtype)
    out = net._conv_forward(x, w, bias)
    dx, _ = net._conv_backward(x, w, d)
    for k in range(3):
        assert np.array_equal(out[k], net._conv_forward(x[k:k + 1], w, bias)[0])
        assert np.array_equal(dx[k], net._conv_backward(x[k:k + 1], w,
                                                         d[k:k + 1])[0][0])


def test_shifted_taps_make_no_window_copy():
    # the row window is a view of the padded input: the call holds the
    # padded input, the output and one product; a copied window would add
    # about twice the output again
    rng = np.random.default_rng(0)
    b, t, f, c_in, c_out = 1, 148, 132, 32, 64
    x = rng.standard_normal((b, t, f, c_in), dtype=np.float32)
    w = rng.standard_normal((c_out, c_in, net.KERNEL, net.KERNEL),
                            dtype=np.float32)
    bias = np.zeros(c_out, dtype=np.float32)
    padded = b * (t + 2 * net.PAD) * (f + 2 * net.PAD) * c_in * 4
    output = b * t * f * c_out * 4
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        net._conv_shifted_taps(x, w, bias)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= padded + 2.2 * output


def reference_bn_forward(x, gamma, beta, run_mean, run_var, train):
    """Batch norm by the textbook formulas, as a float64 oracle."""
    if train:
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))
        run_mean = (1.0 - net.BN_MOMENTUM) * run_mean + net.BN_MOMENTUM * mean
        run_var = (1.0 - net.BN_MOMENTUM) * run_var + net.BN_MOMENTUM * var
    else:
        mean, var = run_mean, run_var
    inv_std = 1.0 / np.sqrt(var + net.BN_EPS)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std, run_mean, run_var


def reference_bn_backward(d_out, x_hat, inv_std, gamma):
    n = x_hat.shape[0] * x_hat.shape[1] * x_hat.shape[2]
    d_gamma = (d_out * x_hat).sum(axis=(0, 1, 2))
    d_beta = d_out.sum(axis=(0, 1, 2))
    d_xhat = d_out * gamma
    dx = (inv_std / n) * (n * d_xhat
                          - d_xhat.sum(axis=(0, 1, 2))
                          - x_hat * (d_xhat * x_hat).sum(axis=(0, 1, 2)))
    return dx, d_gamma, d_beta


@pytest.mark.parametrize("c", [1, 8, 64])
def test_batch_norm_matches_reference(c):
    # B = 3: the batch halves hold 1 and 2 samples
    rng = np.random.default_rng(c)
    x = rng.normal(0.7, 2.0, (3, 9, 21, c))
    gamma, beta = rng.uniform(0.5, 1.5, c), rng.normal(0.0, 0.3, c)
    run_mean, run_var = rng.normal(0.0, 0.3, c), rng.uniform(0.5, 2.0, c)
    y_ref, x_hat_ref, inv_std_ref, mean_ref, var_ref = reference_bn_forward(
        x, gamma, beta, run_mean, run_var, True)
    halves = net._halves(x.copy())
    assert [len(h) for h in halves] == [1, 2]
    y, (x_hat, inv_std) = net._bn_forward(halves, gamma, beta, run_mean,
                                          run_var)
    # each half is normalised in place into its x_hat
    assert all(np.shares_memory(a, b) for a, b in zip(x_hat, halves))
    for got, expected in ((np.concatenate(y), y_ref),
                          (np.concatenate(x_hat), x_hat_ref),
                          (inv_std, inv_std_ref), (run_mean, mean_ref),
                          (run_var, var_ref)):
        np.testing.assert_allclose(got, expected, rtol=1e-10)
    d = rng.standard_normal(x.shape)
    dx, d_gamma, d_beta = net._bn_backward(net._halves(d), x_hat, inv_std,
                                           gamma)
    for got, expected in zip((np.concatenate(dx), d_gamma, d_beta),
                             reference_bn_backward(d, x_hat_ref, inv_std_ref,
                                                   gamma)):
        np.testing.assert_allclose(got, expected, rtol=1e-10)


@pytest.mark.parametrize("worker", [True, False])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_run_blocks_returns_results_in_order(monkeypatch, worker, n):
    if not worker:
        monkeypatch.setattr(net, "_worker", lambda: None)
    threads = set()

    def run(item):
        threads.add(threading.get_ident())
        return item * item

    assert net.run_blocks(iter(range(n)), run) == [k * k for k in range(n)]
    if not worker:
        assert threads <= {threading.get_ident()}


def random_bn_params(seed, dtype):
    """init_params with non-trivial batch-norm parameters and statistics."""
    rng = np.random.default_rng(seed)
    p = net.init_params(seed, dtype=dtype)
    for i in range(len(p.conv_w)):
        c = p.bn_gamma[i].shape
        p.bn_gamma[i][:] = rng.uniform(0.5, 1.5, c)
        p.bn_beta[i][:] = rng.normal(0.0, 0.3, c)
        p.bn_mean[i][:] = rng.normal(0.0, 0.3, c)
        p.bn_var[i][:] = rng.uniform(0.5, 2.0, c)
    return p


def test_halo_is_receptive_field():
    assert net.HALO == (len(net.CHANNEL_PLAN) - 1) * net.PAD == 10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chunked_forward_matches_whole_sequence(dtype):
    p = random_bn_params(17, dtype)
    rng = np.random.default_rng(4)
    c, h = net.CHUNK, net.HALO
    for t in (1, c - 1, c, c + 1, c + h, 2 * c + 1, 3747):
        x = rng.standard_normal((t, 132))
        logits = net.forward(p, x)
        whole, _ = net.forward_batch(p, x[None], train=False)
        assert np.array_equal(logits, whole[0]), t


def test_folded_eval_matches_unfolded_batch_norm():
    p = random_bn_params(19, np.float64)
    x = np.random.default_rng(5).standard_normal((2, 40, 132))
    h = x[..., None]
    for i in range(len(p.conv_w)):
        z = net._conv_forward(h, p.conv_w[i], np.zeros(len(p.conv_w[i])))
        y, *_ = reference_bn_forward(z, p.bn_gamma[i], p.bn_beta[i],
                                     p.bn_mean[i], p.bn_var[i], train=False)
        h = np.maximum(y, 0.0)
    expected = h[..., 0] @ p.proj_w.T + p.proj_b
    logits, cache = net.forward_batch(p, x, train=False)
    np.testing.assert_allclose(logits, expected, rtol=1e-10)
    assert set(cache) == {"train", "feat"}


def _forward_peak_bytes(p, frames):
    x = np.random.default_rng(6).standard_normal((frames, 132))
    tracemalloc.start()
    try:
        net.forward(p, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_forward_memory_bounded():
    # 60 s of audio at 16 kHz is 3747 frames; the working set must not grow
    # with length beyond the logits it returns
    p = net.init_params(0)
    assert _forward_peak_bytes(p, 3747) <= 2 * _forward_peak_bytes(p, net.CHUNK)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [2, net.BLOCK - 1, net.BLOCK, net.BLOCK + 1,
                               net.CHUNK - 1, net.CHUNK, net.CHUNK + 1])
def test_two_thread_forward_matches_whole_sequence(dtype, t):
    p = random_bn_params(23, dtype)
    x = np.random.default_rng(t).standard_normal((t, 132))
    whole, _ = net.forward_batch(p, x[None], train=False)
    assert np.array_equal(net.forward(p, x), whole[0])


def blas_threads():
    api = net._openblas_threads()
    return api[0]() if api else None


def test_concurrent_forward_and_analyze_match_serial():
    # more user threads than CPUs, switching often, on inputs of different
    # lengths: each must get its serial result, and the last hold to end
    # must restore the OpenBLAS thread count
    p = random_bn_params(29, np.float32)
    rng = np.random.default_rng(8)
    specs = [rng.standard_normal((t, 132)) for t in (300, 517, 2, 129)]
    bufs = [AudioBuffer(0.1 * rng.standard_normal(n), 16000)
            for n in (16000, 40000, 4000, 9000)]

    def work(i):
        contour = analyze(bufs[i], p)
        return net.forward(p, specs[i]), contour.f0_hz, contour.confidence

    serial = [work(i) for i in range(4)]
    before = blas_threads()
    start = threading.Barrier(4)

    def user(i):
        start.wait()
        return [work(i) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as users:
            futures = [users.submit(user, i) for i in range(4)]
            runs = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i in range(4):
        for outputs in runs[i]:
            for got, want in zip(outputs, serial[i]):
                assert np.array_equal(got, want, equal_nan=True)
    assert blas_threads() == before


def test_forward_error_restores_blas_threads(monkeypatch):
    api = net._openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS thread-count calls in this numpy")
    p = net.init_params(0)
    x = np.random.default_rng(9).standard_normal((600, 132))
    eval_logits, held = net._eval_logits, []

    def fail_second_block(*args):
        held.append(api[0]())
        if len(held) == 2:
            raise RuntimeError("block failed")
        return eval_logits(*args)

    monkeypatch.setattr(net, "_eval_logits", fail_second_block)
    saved = api[0]()
    api[1](2)
    try:
        with pytest.raises(RuntimeError, match="block failed"):
            net.forward(p, x)
        assert api[0]() == 2
    finally:
        api[1](saved)
    assert set(held) == {1}


@pytest.mark.parametrize("fallback", ["no OpenBLAS calls", "one CPU"])
def test_forward_fallbacks_give_same_logits(monkeypatch, fallback):
    p = random_bn_params(31, np.float32)
    x = np.random.default_rng(10).standard_normal((300, 132))
    expected = net.forward(p, x)
    if fallback == "one CPU":
        monkeypatch.setattr(net.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert net._worker() is None
    else:
        monkeypatch.setattr(net, "_openblas_threads", lambda: None)
    assert np.array_equal(net.forward(p, x), expected)


def train_step(p, x, d_logits):
    """Train-mode logits, gradients and the running statistics after them."""
    logits, cache = net.forward_batch(p, x, train=True)
    grads = net.backward_batch(p, cache, d_logits)
    return logits, grads, [a.copy() for a in p.bn_mean + p.bn_var]


def reference_train_step(p, x, d_logits):
    """train_step on the whole batch at once: the conv kernels, the
    textbook batch norm and an explicit ReLU mask."""
    h, saved = x[..., None], []
    means, variances = [], []
    for i, w in enumerate(p.conv_w):
        z = net._conv_forward(h, w, np.zeros(len(w)))
        y, x_hat, inv_std, mean, var = reference_bn_forward(
            z, p.bn_gamma[i], p.bn_beta[i], p.bn_mean[i], p.bn_var[i], True)
        means.append(mean)
        variances.append(var)
        saved.append((h, x_hat, inv_std, y > 0.0))
        h = np.maximum(y, 0.0)
    feat = h[..., 0]
    logits = feat @ p.proj_w.T + p.proj_b
    d_flat = d_logits.reshape(-1, grid.N_BINS)
    grads = {"proj.weight": d_flat.T @ feat.reshape(-1, feat.shape[-1]),
             "proj.bias": d_flat.sum(axis=0)}
    d_h = (d_logits @ p.proj_w)[..., None]
    for i in reversed(range(len(p.conv_w))):
        h, x_hat, inv_std, mask = saved[i]
        d_z, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = reference_bn_backward(
            d_h * mask, x_hat, inv_std, p.bn_gamma[i])
        d_h, grads[f"conv{i}.weight"] = net._conv_backward(h, p.conv_w[i], d_z)
    return logits, grads, means + variances


def train_inputs(b, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((b, 9, 132)),
            rng.standard_normal((b, 9, grid.N_BINS)))


@pytest.mark.parametrize("b", [1, 2, 5, 16])
def test_train_step_matches_whole_batch_reference(b):
    # the batch halves change only the order of float64 summation
    x, d_logits = train_inputs(b, b)
    p = random_bn_params(37, np.float64)
    ref_logits, ref_grads, ref_stats = reference_train_step(
        random_bn_params(37, np.float64), x, d_logits)
    logits, grads, stats = train_step(p, x, d_logits)
    assert grads.keys() == ref_grads.keys()
    pairs = ([(logits, ref_logits)] + [(g, ref_grads[n]) for n, g in grads.items()]
             + list(zip(stats, ref_stats)))
    for got, expected in pairs:
        # relative to the array's largest entry: an entry that cancels to
        # near zero keeps the rounding of its larger terms
        np.testing.assert_allclose(got, expected, rtol=1e-10,
                                   atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 5, 16])
def test_train_step_same_without_worker(monkeypatch, dtype, b):
    # the halves are fixed by the batch size, so one thread running both
    # gives the two threads' result bit for bit
    x, d_logits = train_inputs(b, 40 + b)
    two = train_step(random_bn_params(41, dtype), x, d_logits)
    monkeypatch.setattr(net, "_worker", lambda: None)
    one = train_step(random_bn_params(41, dtype), x, d_logits)
    assert np.array_equal(one[0], two[0])
    for name, g in one[1].items():
        assert np.array_equal(g, two[1][name]), name
    for got, expected in zip(one[2], two[2]):
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("kernel", ["_conv_forward", "_conv_backward"])
def test_train_error_in_one_half_restores_blas_threads(monkeypatch, kernel):
    api = net._openblas_threads()
    if api is None:
        pytest.skip("no OpenBLAS thread-count calls in this numpy")
    p = net.init_params(0)
    x, d_logits = train_inputs(16, 3)
    _, cache = net.forward_batch(p, x, train=True)
    run, held = getattr(net, kernel), []

    def fail_second_half(*args):
        held.append(api[0]())
        if len(held) == 2:
            raise RuntimeError("half failed")
        return run(*args)

    monkeypatch.setattr(net, kernel, fail_second_half)
    saved = api[0]()
    api[1](2)
    try:
        with pytest.raises(RuntimeError, match="half failed"):
            if kernel == "_conv_forward":
                net.forward_batch(p, x, train=True)
            else:
                net.backward_batch(p, cache, d_logits)
        assert api[0]() == 2
    finally:
        api[1](saved)
    assert set(held) == {1}


def test_save_load_round_trip(tmp_path):
    p = net.init_params(42)
    path = tmp_path / "w.bin"
    net.save_params(p, path)
    q = net.load_params(path)
    for name, arr in p.all_tensors().items():
        np.testing.assert_array_equal(arr, q.all_tensors()[name])


def v1_bytes(tensors: dict) -> bytes:
    """A version-1 weights file, field by field: magic, version, count, then
    per tensor name length, name, rank, dims and float32 values."""
    out = [b"SWF0", struct.pack("<II", 1, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f4")
        enc = name.encode("utf-8")
        out += [struct.pack("<H", len(enc)), enc, struct.pack("<B", arr.ndim),
                struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(out)


def v1_tensors(seed) -> dict:
    """The 32 float32 tensors of a version-1 file in file order, with
    nonzero conv biases and batch-norm statistics."""
    rng = np.random.default_rng(seed)
    p = net.init_params(seed)
    t = {}
    for i, w in enumerate(p.conv_w):
        t[f"conv{i}.weight"] = w
        t[f"conv{i}.bias"] = rng.normal(0.0, 0.3, len(w))
        t[f"bn{i}.gamma"] = rng.uniform(0.5, 1.5, len(w))
        t[f"bn{i}.beta"] = rng.normal(0.0, 0.3, len(w))
    t["proj.weight"] = p.proj_w
    t["proj.bias"] = rng.normal(0.0, 0.1, len(p.proj_b))
    for i, w in enumerate(p.conv_w):
        t[f"bn{i}.running_mean"] = rng.normal(0.0, 0.3, len(w))
        t[f"bn{i}.running_var"] = rng.uniform(0.5, 2.0, len(w))
    return {name: np.asarray(a, dtype=np.float32) for name, a in t.items()}


def unfolded_logits(tensors, x):
    """float64 eval network of a version-1 file as stored: conv + bias, then
    batch norm with the running statistics, then ReLU."""
    t = {name: a.astype(np.float64) for name, a in tensors.items()}
    h = x[..., None]
    for i in range(len(net.CHANNEL_PLAN) - 1):
        z, _ = direct_sum_conv(h, t[f"conv{i}.weight"], t[f"conv{i}.bias"])
        y = ((z - t[f"bn{i}.running_mean"])
             / np.sqrt(t[f"bn{i}.running_var"] + net.BN_EPS)
             * t[f"bn{i}.gamma"] + t[f"bn{i}.beta"])
        h = np.maximum(y, 0.0)
    return h[..., 0] @ t["proj.weight"].T + t["proj.bias"]


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-4), (np.float64, 1e-10)])
def test_load_folds_stored_conv_bias(tmp_path, dtype, rtol):
    tensors = v1_tensors(23)
    path = tmp_path / "w.bin"
    path.write_bytes(v1_bytes(tensors))
    x = np.random.default_rng(8).standard_normal((30, 132))
    expected = unfolded_logits(tensors, x[None])[0]
    assert np.ptp(expected) > 1.0  # the features reach the projection
    logits = net.forward(net.load_params(path, dtype=dtype), x)
    np.testing.assert_allclose(logits, expected, rtol=rtol,
                               atol=rtol * np.abs(expected).max())


def test_loaded_arrays_are_writable(tmp_path):
    # Adam updates the loaded arrays in place
    path = tmp_path / "w.bin"
    path.write_bytes(v1_bytes(v1_tensors(23)))
    for arr in net.load_params(path).all_tensors().values():
        assert arr.flags.writeable and arr.flags.owndata


def test_save_writes_zero_conv_bias_and_round_trips(tmp_path):
    tensors = v1_tensors(23)
    (tmp_path / "v1.bin").write_bytes(v1_bytes(tensors))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    net.save_params(net.load_params(tmp_path / "v1.bin"), a)
    net.save_params(net.load_params(a), b)
    assert a.read_bytes() == b.read_bytes()
    # the same 32 names in the same order; each bias is folded into the
    # running mean and written as zero
    for i in range(len(net.CHANNEL_PLAN) - 1):
        tensors[f"bn{i}.running_mean"] -= tensors[f"conv{i}.bias"]
        tensors[f"conv{i}.bias"][:] = 0.0
    assert a.read_bytes() == v1_bytes(tensors)


def _load_perfbench(monkeypatch, name):
    """A perfbench module, loaded from its file under its own name, as the
    benchmark's scripts import each other."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_reference_reads_saved_params(tmp_path, monkeypatch):
    # perfbench/reference.py parses the weights file on its own and runs a
    # float64 network on it; it must read what save_params writes
    _load_perfbench(monkeypatch, "inputs")
    reference = _load_perfbench(monkeypatch, "reference")
    path = tmp_path / "w.bin"
    net.save_params(random_bn_params(29, np.float32), path)
    x = np.random.default_rng(9).standard_normal((30, 132))
    expected = reference.ref_logits(reference.read_weights(path), x)
    logits = net.forward(net.load_params(path, dtype=np.float64), x)
    np.testing.assert_allclose(logits, expected, rtol=1e-10,
                               atol=1e-10 * np.abs(expected).max())


def test_load_truncated(tmp_path):
    p = net.init_params(42)
    path = tmp_path / "w.bin"
    net.save_params(p, path)
    data = path.read_bytes()
    (tmp_path / "t.bin").write_bytes(data[:len(data) // 2])
    with pytest.raises(FormatError):
        net.load_params(tmp_path / "t.bin")


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(FormatError):
        net.load_params(path)


def test_load_non_utf8_tensor_name(tmp_path):
    path = tmp_path / "w.bin"
    net.save_params(net.init_params(42), path)
    data = bytearray(path.read_bytes())
    # the first tensor name starts after magic, version, count and its length
    data[14] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="UTF-8"):
        net.load_params(path)


@pytest.mark.parametrize("shape", [(0,) * 200, (0,) + (2 ** 32 - 1,) * 4],
                         ids=["rank 200", "zero size, huge dims"])
def test_load_shape_no_ndarray_can_hold(tmp_path, shape):
    # neither tensor has values to read, yet numpy can make no array of it
    path = tmp_path / "w.bin"
    name = b"conv0.weight"
    path.write_bytes(b"SWF0" + struct.pack("<II", 1, 1)
                     + struct.pack("<H", len(name)) + name
                     + struct.pack("<B", len(shape))
                     + struct.pack(f"<{len(shape)}I", *shape))
    with pytest.raises(FormatError, match="no ndarray can hold"):
        net.load_params(path)


def test_saved_file_deterministic(tmp_path):
    import hashlib
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    net.save_params(net.init_params(42), a)
    net.save_params(net.init_params(42), b)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == \
        hashlib.sha256(b.read_bytes()).hexdigest()
