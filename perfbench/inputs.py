"""The benchmark's own input generator.

Harmonic signals with an analytic F0 track, labelled at the centre of every
16 kHz analysis frame, so the labels are exact by construction. This module
uses numpy only and nothing from pitchkit, so a change to the program cannot
change the benchmark's inputs.

Every file is a sum of harmonics k*f(t) of a phase-continuous fundamental,
up to 7.6 kHz (16 kHz files) or 20 kHz (44.1 kHz files), whose amplitudes
fall exponentially with frequency, shaped by 5 ms
raised-cosine ramps at the edges of each voiced stretch. Unvoiced stretches
are digital silence in the clean signal. Noisy files add white Gaussian
noise scaled so that the power ratio over the whole file is exactly 10 dB
before PCM16 quantisation.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

SR = 16000
SR_HI = 44100
WINDOW = 1024
HOP = 256
HOP_S = HOP / SR
F_LO, F_HI = 60.0, 1500.0
SNR_DB = 10.0
PEAK = 0.5
RAMP_S = 0.005
CUTOFF_16K = 7600.0   # highest partial in a 16 kHz file
CUTOFF_44K = 20000.0  # highest partial in a 44.1 kHz file
BRIGHT_44K = (6000.0, 12000.0)  # partials of 44.1 kHz files fall 20 dB by here

# Seed-sequence namespaces: inputs of different workloads, the held-out
# data and the corpus that trained the benchmark model never share a stream.
NS_CLIPS, NS_LONG, NS_TRAIN, NS_MODEL, NS_HELDOUT = 11, 12, 13, 14, 15


def rng_for(namespace: int, seed: int, *more: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([namespace, seed, *more]))


def n_frames(n16: int) -> int:
    """Frames of a 16 kHz signal of n16 samples: windows fully inside it."""
    return (n16 - WINDOW) // HOP + 1


@dataclass
class Clip:
    """One rendered file with its exact labels at frame centres."""

    name: str
    samples: np.ndarray   # float64, in [-1, 1], at `rate`
    rate: int
    f0: np.ndarray        # per 16 kHz frame, NaN where unvoiced
    voiced: np.ndarray    # per 16 kHz frame
    noisy: bool

    @property
    def n16(self) -> int:
        return len(self.samples) * SR // self.rate

    @property
    def seconds(self) -> float:
        return len(self.samples) / self.rate


# ---------------------------------------------------------------------------
# F0 tracks: functions of time in seconds returning Hz (defined everywhere,
# also in unvoiced stretches, so the phase stays continuous)
# ---------------------------------------------------------------------------

def constant_track(fc):
    return lambda t: np.full_like(t, fc)


def glide_track(f1, f2, dur):
    return lambda t: f1 * (f2 / f1) ** np.clip(t / dur, 0.0, 1.0)


def vibrato_track(fc, depth_cents, rate_hz, phase):
    return lambda t: fc * 2.0 ** (depth_cents / 1200.0
                                  * np.sin(2 * np.pi * rate_hz * t + phase))


def melody_track(starts, log2_f, glide_s, vib_depth, vib_rate):
    """Piecewise notes; note j glides in log frequency from note j-1 over
    glide_s[j] seconds (0 = jump) and carries vibrato of vib_depth[j] cents."""
    starts = np.asarray(starts)

    def f(t):
        j = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        local = t - starts[j]
        prev = log2_f[np.maximum(j - 1, 0)]
        g = glide_s[j]
        frac = np.where(g > 0, np.clip(local / np.maximum(g, 1e-9), 0.0, 1.0), 1.0)
        lf = prev + (log2_f[j] - prev) * frac
        lf = lf + vib_depth[j] / 1200.0 * np.sin(2 * np.pi * vib_rate[j] * local)
        return 2.0 ** lf
    return f


def voicing(regions):
    """Voiced intervals [(t0, t1), ...] -> (is_voiced(t), envelope(t))."""
    def is_voiced(t):
        out = np.zeros(len(t), dtype=bool)
        for t0, t1 in regions:
            out |= (t >= t0) & (t < t1)
        return out

    def envelope(t):
        env = np.zeros(len(t))
        for t0, t1 in regions:
            inside = (t >= t0) & (t < t1)
            edge = np.minimum(t - t0, t1 - t) / RAMP_S
            ramp = 0.5 - 0.5 * np.cos(np.pi * np.clip(edge, 0.0, 1.0))
            env += np.where(inside, ramp, 0.0)
        return env
    return is_voiced, envelope


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def harmonic_sum(f, phase_cycles, alpha, cutoff, theta):
    """Im sum_k a(t)**k * exp(i*(2*pi*k*phase + theta)) over the partials below
    `cutoff`, with a(t) = exp(-alpha*f(t)): partial amplitude falls with its
    frequency as exp(-alpha*k*f). Summed in closed form as a geometric
    series, so the cost does not grow with the partial count. The partial
    just above the cutoff fades in and out with the fractional count, so a
    glide adds or drops partials without a click."""
    log_q = -alpha * f + 2j * np.pi * np.mod(phase_cycles, 1.0)
    q = np.exp(log_q)
    x = cutoff / f
    k = np.floor(x)
    q_k = np.exp(k * log_q)
    s = q * (1.0 - q_k) / (1.0 - q) + (x - k) * q_k * q
    return (s * np.exp(1j * theta)).imag, np.abs(q) * (1.0 - np.abs(q_k)) / (1.0 - np.abs(q))


def render(track, regions, duration_s, rate, bright_hz, noisy, rng, per_note_peak=False):
    """(samples, f0 labels, voiced labels) for one file. Partials fall by
    20 dB at bright_hz. The file's peak is PEAK; with per_note_peak every
    pitch gets that peak, as a file of one note does, so the level of a
    melody's notes does not depend on how low its lowest note is."""
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate
    f = track(t)
    phase = np.cumsum(f) / rate
    cutoff = CUTOFF_44K if rate > SR else CUTOFF_16K
    is_voiced, envelope = voicing(regions)
    sig, crest = harmonic_sum(f, phase, np.log(10.0) / bright_hz, cutoff,
                              rng.uniform(0, 2 * np.pi))
    if per_note_peak:
        sig /= crest
    sig *= envelope(t)
    sig *= PEAK / np.max(np.abs(sig))
    if noisy:
        noise = rng.standard_normal(n)
        p_sig = np.mean(sig ** 2)
        p_noise = np.mean(noise ** 2)
        sig = sig + np.sqrt(p_sig / (p_noise * 10.0 ** (SNR_DB / 10.0))) * noise
    if np.max(np.abs(sig)) >= 1.0:
        raise RuntimeError("generated signal clips")
    n16 = n * SR // rate
    centres = (np.arange(n_frames(n16)) * HOP + WINDOW // 2) / SR
    voiced = is_voiced(centres)
    # labels carry the six decimals of the contour CSV, so the benchmark's
    # recount and the program's evaluation see the same numbers
    f0 = np.round(np.where(voiced, track(centres), np.nan), 6)
    return sig, f0, voiced


def quantise_pcm16(x):
    """The samples a PCM16 file stores, as floats."""
    return np.round(np.clip(x, -1.0, 1.0) * 32767.0) / 32768.0


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

N_CLIPS = 108  # 2 noise levels x 3 rate slots x 3 track kinds x 3 gap slots x 2


def _stratified(rng, n, lo, hi):
    """n values, one drawn uniformly from each of n equal strata, shuffled."""
    edges = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
    return rng.permutation(edges)


def clips(seed: int) -> list[Clip]:
    """Short clips, 1-4 s, in a balanced design: half at exactly 10 dB SNR,
    one third at 44.1 kHz with partials up to 20 kHz, constant / glide /
    vibrato tracks in equal shares, one third with an unvoiced gap. Seed
    draws the durations, pitches and timbres within the strata."""
    rng = rng_for(NS_CLIPS, seed)
    design = [(i % 2 == 1, SR_HI if (i // 2) % 3 == 0 else SR) for i in range(N_CLIPS)]
    # durations and pitches are stratified within each (noise, rate) group,
    # so every seed covers the same ranges in each group
    durations, log_f = np.empty(N_CLIPS), np.empty(N_CLIPS)
    for group in sorted(set(design)):
        idx = [i for i, d in enumerate(design) if d == group]
        durations[idx] = np.round(_stratified(rng, len(idx), 1.0, 4.0), 2)
        log_f[idx] = _stratified(rng, len(idx), np.log(F_LO * 1.1), np.log(F_HI / 1.1))
    out = []
    for i in range(N_CLIPS):
        noisy, rate = design[i]
        kind = ("constant", "glide", "vibrato")[(i // 6) % 3]
        has_gap = (i // 18) % 3 == 0
        r = rng_for(NS_CLIPS, seed, i)
        dur = float(durations[i])
        fc = float(np.exp(log_f[i]))
        if kind == "constant":
            track = constant_track(fc)
        elif kind == "glide":
            f2 = float(np.clip(fc * 2.0 ** (r.choice([-1, 1]) * r.uniform(0.25, 1.0)),
                               F_LO, F_HI))
            track = glide_track(fc, f2, dur)
        else:
            track = vibrato_track(fc, r.uniform(20, 100), r.uniform(4, 7),
                                  r.uniform(0, 2 * np.pi))
        if has_gap:
            g0 = r.uniform(0.3, dur - 0.6)
            regions = [(0.0, g0), (g0 + r.uniform(0.15, 0.3), dur)]
        else:
            regions = [(0.0, dur)]
        # 44.1 kHz files are brighter, as recordings with air above 8 kHz are
        bright = r.uniform(*BRIGHT_44K) if rate == SR_HI else r.uniform(2000, 5000)
        sig, f0, voiced = render(track, regions, dur, rate, bright, noisy, r)
        out.append(Clip(f"clip{i:03d}", sig, rate, f0, voiced, noisy))
    return out


LONG_SECONDS = 60.0
PHRASE_S = 5.0  # budgeted length of a phrase; 12 cover a 60 s file


def melody(seed: int, index: int, duration_s: float, noisy: bool) -> Clip:
    """A 16 kHz melody in phrases of eight notes, each phrase within one
    octave above its register; the registers are evenly spaced over
    80-600 Hz in an order drawn from the seed, so every file covers the
    same range. Every phrase has the same shape,
    so files differ in pitches and timings, not in how many transitions
    they hold: the eight notes lie at offsets stratified over the octave,
    note durations are stratified over 0.3-0.9 s, notes 2-4 and 6-8 are
    entered by a 30-120 ms glide, every second note carries vibrato, and
    notes 4 and 8 are followed by an unvoiced gap of 0.1-0.4 s. Partials fall
    20 dB by 3.5 kHz in both files: at 10 dB SNR the model's confidence on
    notes above 480 Hz sits near the voicing threshold, so a timbre drawn
    per file would swing the recall of the noisy file from seed to seed."""
    r = rng_for(NS_LONG, seed, index)
    n_phrases = int(np.ceil(duration_s / PHRASE_S))
    registers = r.permutation(np.linspace(np.log2(80.0), np.log2(600.0), n_phrases))
    starts, pitches, glides, depths, rates, regions = [], [], [], [], [], []
    t, voiced_from = 0.0, 0.0
    for register in registers:
        offsets = _stratified(r, 8, 0.0, 1.0)
        for k, dur in enumerate(_stratified(r, 8, 0.3, 0.9)):
            starts.append(t)
            pitches.append(register + offsets[k])
            glides.append(0.0 if k % 4 == 0 else r.uniform(0.03, 0.12))
            depths.append(r.uniform(20, 60) if k % 2 else 0.0)
            rates.append(r.uniform(4.5, 6.5))
            t += dur
            if k % 4 == 3:
                regions.append((voiced_from, t))
                t += r.uniform(0.1, 0.4)
                voiced_from = t
    regions.append((voiced_from, max(voiced_from, duration_s)))
    track = melody_track(starts, np.array(pitches), np.array(glides),
                         np.array(depths), np.array(rates))
    sig, f0, voiced = render(track, regions, duration_s, SR, 3500.0, noisy, r,
                             per_note_peak=True)
    return Clip(f"long{index}", sig, SR, f0, voiced, noisy)


def long_recordings(seed: int) -> list[Clip]:
    return [melody(seed, 0, LONG_SECONDS, False), melody(seed, 1, LONG_SECONDS, True)]


def train_clips(namespace: int, seed: int, count: int, dur_lo=1.0, dur_hi=2.0,
                noisy_every=0):
    """16 kHz clips: constant, glide or vibrato, pitches stratified over
    55-1600 Hz, one in three with an unvoiced gap when longer than 1.2 s;
    every `noisy_every`-th clip (none when 0) at 10 dB SNR."""
    log_f = _stratified(rng_for(namespace, seed), count, np.log(55.0), np.log(1600.0))
    out = []
    for i in range(count):
        r = rng_for(namespace, seed, i)
        noisy = bool(noisy_every) and i % noisy_every == noisy_every - 1
        dur = round(float(r.uniform(dur_lo, dur_hi)), 2)
        fc = float(np.exp(log_f[i]))
        kind = ("constant", "glide", "vibrato")[i % 3]
        if kind == "constant":
            track = constant_track(fc)
        elif kind == "glide":
            track = glide_track(fc, float(np.clip(fc * 2.0 ** r.uniform(-1, 1), 55, 1600)),
                                dur)
        else:
            track = vibrato_track(fc, r.uniform(20, 100), r.uniform(4, 7),
                                  r.uniform(0, 2 * np.pi))
        regions = [(0.0, dur)]
        if i % 3 == 1 and dur > 1.2:
            g0 = r.uniform(0.6, dur - 0.5)
            regions = [(0.0, g0), (g0 + 0.15, dur)]
        sig, f0, voiced = render(track, regions, dur, SR, r.uniform(2000, 5000),
                                 noisy, r)
        out.append(Clip(f"train{i:04d}", sig, SR, f0, voiced, noisy))
    return out


def heldout_clips(seed: int, count: int) -> list[Clip]:
    """Clips of 1-2 s, every second one at 10 dB, for judging a model."""
    return train_clips(NS_HELDOUT, seed, count, 1.0, 2.0, noisy_every=2)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def write_pcm16_wav(path, samples, rate):
    payload = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    header = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
              + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
              + b"data" + struct.pack("<I", len(payload)))
    with open(path, "wb") as fh:
        fh.write(header + payload)


def write_truth_csv(path, clip: Clip):
    """Labels in the contour CSV format; frame m is stamped m*hop."""
    lines = ["time_sec,f0_hz,confidence,voiced"]
    for m, (f, v) in enumerate(zip(clip.f0, clip.voiced)):
        f_txt = f"{f:.6f}" if v else ""
        lines.append(f"{m * HOP_S:.6f},{f_txt},{1.0 if v else 0.0:.6f},{int(v)}")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
