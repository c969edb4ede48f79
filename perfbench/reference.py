"""Computations made apart from the program, and the checks built on them.

Nothing here calls pitchkit. The reference network reads the weights file
with its own parser, runs the STFT through np.fft.rfft and the convolutions
as im2col products in float64, so it shares no code path with the program's
radix-2 FFT and shifted-tap convolutions. Each check raises CheckFailed; each
is also run against a wrong output planted on purpose (`self_test`).
"""
from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import inputs

# Constants of the method (paper and README): STFT, band selection, pitch
# grid, batch-norm epsilon and decoder.
K_MIN, K_MAX = 3, 134
LOG_EPS = 1e-8
BN_EPS = 1e-5
N_BINS = 200
GRID = 46.875 * 2.0 ** (np.arange(N_BINS) * np.log2(2093.75 / 46.875) / (N_BINS - 1))
HALF_WIDTH = 9
VOICING_THRESHOLD = 0.90
RECEPTIVE = 10  # frames each side a frame's output depends on (5 layers x 2)

# Tolerances, set from the dtype: the program runs float32, the reference
# float64. Logit errors of ~1e-5 move the decoded pitch by far less than a
# cent; a planted fault moves it by many.
CENTS_TOL = 0.5
CONF_TOL = 2e-3
TIE_LOGITS = 1e-3
MAX_TIED_SHARE = 0.05


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def read_weights(path) -> dict:
    """Tensors of a version-1 weights file: 'SWF0', u32 version, u32 count,
    then per tensor u16 name length, name, u8 rank, u32 dims, float32 LE."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data[:4] == b"SWF0", f"{path}: bad magic")
    version, count = struct.unpack_from("<II", data, 4)
    require(version == 1, f"{path}: version {version}")
    pos, out = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + name_len].decode()
        pos += 2 + name_len
        rank = data[pos]
        shape = struct.unpack_from(f"<{rank}I", data, pos + 1)
        pos += 1 + 4 * rank
        size = int(np.prod(shape))
        out[name] = np.frombuffer(data, "<f4", size, pos).reshape(shape).astype(np.float64)
        pos += 4 * size
    require(pos == len(data), f"{path}: trailing bytes")
    return out


# ---------------------------------------------------------------------------
# reference estimator
# ---------------------------------------------------------------------------

def ref_spectrogram(x16: np.ndarray) -> np.ndarray:
    """(T, 132) log-magnitude of Hann-windowed frames, np.fft.rfft."""
    n = inputs.WINDOW
    frames = sliding_window_view(x16, n)[::inputs.HOP]
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
    mag = np.abs(np.fft.rfft(frames * hann, axis=1))[:, K_MIN:K_MAX + 1]
    return np.log(mag + LOG_EPS)


def _conv_same(h, w, b, block=64):
    """Same-padded 5x5 conv of (T, F, c_in) by (c_out, c_in, 5, 5): im2col
    patches of a block of frames, then one matrix product per block."""
    t, f, c_in = h.shape
    c_out, _, kh, kw = w.shape
    hp = np.pad(h, ((kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    wm = w.transpose(2, 3, 1, 0).reshape(kh * kw * c_in, c_out)
    out = np.empty((t, f, c_out))
    for s in range(0, t, block):
        e = min(s + block, t)
        patches = np.empty((e - s, f, kh * kw * c_in))
        for i in range(kh):
            for j in range(kw):
                k = (i * kw + j) * c_in
                patches[:, :, k:k + c_in] = hp[s + i:e + i, j:j + f, :]
        out[s:e] = (patches.reshape(-1, kh * kw * c_in) @ wm).reshape(e - s, f, c_out)
    return out + b


def ref_logits(weights: dict, spec: np.ndarray) -> np.ndarray:
    h = spec[:, :, None]
    for i in range(5):
        z = _conv_same(h, weights[f"conv{i}.weight"], weights[f"conv{i}.bias"])
        z = ((z - weights[f"bn{i}.running_mean"])
             / np.sqrt(weights[f"bn{i}.running_var"] + BN_EPS)
             * weights[f"bn{i}.gamma"] + weights[f"bn{i}.beta"])
        h = np.maximum(z, 0.0)
    return h[:, :, 0] @ weights["proj.weight"].T + weights["proj.bias"]


def log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def ref_decode(logits):
    """Local expected value over 19 bins around the argmax, the window
    shifted inward at the grid edges; confidence is the window's mass."""
    p = np.exp(log_softmax(logits))
    lo = np.clip(p.argmax(axis=1) - HALF_WIDTH, 0, N_BINS - (2 * HALF_WIDTH + 1))
    idx = lo[:, None] + np.arange(2 * HALF_WIDTH + 1)
    win = np.take_along_axis(p, idx, axis=1)
    mass = win.sum(axis=1)
    f0 = (win * GRID[idx]).sum(axis=1) / mass
    conf = np.minimum(mass, 1.0)
    return f0, conf, conf >= VOICING_THRESHOLD


def tied(logits):
    """Frames whose argmax another bin outside the peak's neighbours comes
    within TIE_LOGITS of; float32 rounding may pick either."""
    best = logits.argmax(axis=1)
    near = logits >= logits[np.arange(len(logits)), best][:, None] - TIE_LOGITS
    far = np.abs(np.arange(N_BINS)[None, :] - best[:, None]) > 1
    return (near & far).any(axis=1)


def check_against_reference(f0, conf, voiced, logits, what):
    """The program's contour agrees with the reference decode of logits."""
    ref_f0, ref_conf, ref_voiced = ref_decode(logits)
    skip = tied(logits)
    require(skip.mean() <= MAX_TIED_SHARE,
            f"{what}: {skip.sum()} of {len(skip)} frames have tied maxima")
    keep = ~skip
    cents = np.abs(1200 * np.log2(f0[keep] / ref_f0[keep]))
    require(np.all(cents < CENTS_TOL),
            f"{what}: F0 differs from the reference by {np.nanmax(cents):.3g} cents")
    dconf = np.abs(conf[keep] - ref_conf[keep])
    require(np.all(dconf < CONF_TOL),
            f"{what}: confidence differs from the reference by {dconf.max():.3g}")
    flip = (voiced[keep] != ref_voiced[keep]) & (
        np.abs(ref_conf[keep] - VOICING_THRESHOLD) >= CONF_TOL)
    require(not flip.any(), f"{what}: {flip.sum()} voicing flags differ")


def check_contour_shape(f0, conf, voiced, n16, what):
    n = inputs.n_frames(n16)
    require(len(f0) == len(conf) == len(voiced) == n,
            f"{what}: {len(f0)} frames, expected (n - 1024)//256 + 1 = {n}")
    require(np.all((conf >= 0.0) & (conf <= 1.0)), f"{what}: confidence outside [0, 1]")
    present = ~np.isnan(f0)
    require(np.all((f0[present] >= GRID[0]) & (f0[present] <= GRID[-1])),
            f"{what}: F0 outside the pitch grid")


# ---------------------------------------------------------------------------
# metrics recount
# ---------------------------------------------------------------------------

COMPONENTS = ("rpa", "ca", "precision", "recall", "oa", "gea")


def recount(f_pred, voiced_pred, f_true, voiced_true) -> dict:
    """The six HM components and HM, counted frame by frame."""
    vt = voiced_true
    n_v = int(vt.sum())
    fp, ft = f_pred[vt], f_true[vt]
    has = ~np.isnan(fp)
    delta = np.full(n_v, np.nan)
    delta[has] = 1200.0 * np.log2(fp[has] / ft[has])
    hits = int(np.sum(np.abs(delta[has]) < 50.0))
    gross = int(np.sum(~has)) + int(np.sum(np.abs(delta[has]) >= 200.0))
    rel = np.abs(fp[has] / ft[has] - 1.0) > 0.40
    octave_band = (np.abs(delta[has]) >= 1100.0) & (np.abs(delta[has]) <= 1300.0)
    octave_errors = int(np.sum(rel | octave_band))
    tp = int(np.sum(voiced_pred & vt))
    fpos = int(np.sum(voiced_pred & ~vt))
    out = {
        "rpa": hits / n_v,
        "ca": float(np.exp(-np.mean(np.abs(delta[has])) / 500.0)),
        "precision": tp / (tp + fpos),
        "recall": tp / n_v,
        "oa": float(np.exp(-10.0 * octave_errors / n_v)),
        "gea": float(np.exp(-5.0 * gross / n_v)),
    }
    comps = [out[c] for c in COMPONENTS]
    out["hm"] = 0.0 if min(comps) == 0.0 else 6.0 / sum(1.0 / c for c in comps)
    return out


def check_report(report: dict, counted: dict, what):
    for name in COMPONENTS + ("hm",):
        require(abs(report[name] - counted[name]) <= 1e-9,
                f"{what}: {name} {report[name]!r} but recount gives {counted[name]!r}")


# ---------------------------------------------------------------------------
# autocorrelation baseline
# ---------------------------------------------------------------------------

SR = inputs.SR
LAG_MIN = max(int(np.floor(SR / 2093.75)), 2)
LAG_MAX = min(int(np.ceil(SR / 46.875)), inputs.WINDOW - 2)
ACF_THRESHOLD = 0.5
ACF_RTOL = 1e-6
ACF_TIE = 1e-9
ACF_FLAT = 1e-9


def ref_autocorr(x16):
    """Normalised autocorrelation of each mean-removed frame through a
    zero-padded FFT (Wiener-Khinchin), and the frame energies."""
    n = inputs.WINDOW
    frames = sliding_window_view(x16, n)[::inputs.HOP]
    frames = frames - frames.mean(axis=1, keepdims=True)
    energy = np.einsum("ij,ij->i", frames, frames)
    ac = np.fft.irfft(np.abs(np.fft.rfft(frames, 2 * n, axis=1)) ** 2, axis=1)[:, :n]
    with np.errstate(invalid="ignore", divide="ignore"):
        return ac / energy[:, None], energy


def _refined_f0(ac_row, lag):
    """sr / parabolically refined lag; None where the parabola is so flat
    that rounding decides the refinement (and whether it is made at all)."""
    a, b, c = ac_row[lag - 1], ac_row[lag], ac_row[lag + 1]
    denom = a - 2 * b + c
    if abs(denom) < ACF_FLAT:
        return None
    return SR / (lag + 0.5 * (a - c) / denom)


def check_acf(f0, conf, voiced, x16, what):
    """Peak lag in [sr/f_max, sr/f_min], parabolic refinement, f0 = sr/lag."""
    ac, energy = ref_autocorr(x16)
    require(len(f0) == len(ac), f"{what}: {len(f0)} ACF frames, expected {len(ac)}")
    silent = energy == 0.0
    require(np.all(np.isnan(f0[silent])) and np.all(conf[silent] == 0.0),
            f"{what}: silent frames carry a pitch")
    for m in np.flatnonzero(~silent):
        window = ac[m, LAG_MIN:LAG_MAX + 1]
        peak = window.max()
        # any lag within rounding of the peak is a valid argmax
        cands = [_refined_f0(ac[m], LAG_MIN + j)
                 for j in np.flatnonzero(window >= peak - ACF_TIE)]
        require(None in cands or any(abs(f0[m] - c) <= ACF_RTOL * abs(c) for c in cands),
                f"{what}: frame {m} F0 {f0[m]!r}, reference {cands}")
        require(abs(conf[m] - min(max(peak, 0.0), 1.0)) <= 1e-9,
                f"{what}: frame {m} confidence {conf[m]!r}, reference {peak!r}")
    require(np.array_equal(voiced, conf >= ACF_THRESHOLD), f"{what}: voicing flags")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def cross_entropy(logits, f_true, voiced):
    """Mean CE over voiced frames against the nearest grid bin of the label."""
    target = np.clip(np.floor(np.log2(f_true[voiced] / GRID[0])
                              / np.log2(GRID[1] / GRID[0]) + 0.5), 0, N_BINS - 1)
    lp = log_softmax(np.asarray(logits, dtype=np.float64).reshape(len(voiced), -1)[voiced])
    return float(-lp[np.arange(len(lp)), target.astype(int)].mean())


# ---------------------------------------------------------------------------
# self-tests: every check must reject a wrong output planted on purpose
# ---------------------------------------------------------------------------

def rejects(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


SELF_TEST_SECONDS = 4  # the reference network runs on at most this much of the file


def self_test(weights, clip, program_contour, program_acf, program_report,
              hm_floor):
    """Plant an octave-shifted contour, perturbed logits, a metric count off
    by one frame and an ACF lag off by one into the program's outputs for a
    16 kHz clip; each must be rejected. The reference network and the ACF
    check run on the first SELF_TEST_SECONDS of the clip only."""
    x16 = inputs.quantise_pcm16(clip.samples)
    n = min(len(x16), SELF_TEST_SECONDS * SR)
    frames = inputs.n_frames(n)
    # a frame's output depends on RECEPTIVE frames each side, so the frames
    # next to a cut differ from those of the whole file
    keep = frames if n == len(x16) else frames - RECEPTIVE
    logits = ref_logits(weights, ref_spectrogram(x16[:n]))[:keep]
    f0, conf, voiced = program_contour
    planted = []

    octave = f0 * 2.0
    planted.append(("octave-shifted contour vs reference",
                    rejects(check_against_reference, octave[:keep], conf[:keep],
                            voiced[:keep], logits, "")))
    counted = recount(octave, voiced, clip.f0, clip.voiced)
    planted.append(("octave-shifted contour vs HM floor",
                    rejects(lambda: require(counted["hm"] > hm_floor, ""))))

    noisy = logits + np.random.default_rng(0).normal(0.0, 0.5, logits.shape)
    planted.append(("perturbed logits",
                    rejects(check_against_reference, *ref_decode(noisy), logits, "")))

    off = dict(program_report)
    off["rpa"] += 1.0 / int(clip.voiced.sum())
    planted.append(("metric count off by one frame",
                    rejects(check_report, off, recount(f0, voiced, clip.f0, clip.voiced), "")))

    a_f0, a_conf, a_voiced = (a[:frames] for a in program_acf)
    shifted = SR / (SR / a_f0 + 1.0)
    planted.append(("ACF lag off by one",
                    rejects(check_acf, shifted, a_conf, a_voiced, x16[:n], "")))
    require_rejected(planted)


def require_rejected(planted):
    """planted: (name, rejected) pairs; every planted fault must be rejected."""
    missed = [name for name, rejected in planted if not rejected]
    require(not missed, f"self-test: checks accepted planted faults: {missed}")
