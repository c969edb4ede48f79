"""WAV and pitch-contour file IO.

Readers are strict: anything that cannot be represented losslessly as mono
samples in [-1, +1] is rejected instead of silently converted.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, FormatError

# the rate and frame hop the model was built for; every other rate is
# resampled to CANONICAL_SR, and contours step HOP_SECONDS (16 ms)
CANONICAL_SR = 16000
HOP = 256
HOP_SECONDS = HOP / CANONICAL_SR


@dataclass
class AudioBuffer:
    """Mono audio signal with its sample rate."""

    samples: np.ndarray  # float, amplitudes in [-1, +1]
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ArgumentError("AudioBuffer requires a 1-D sample array")
        if not np.all(np.isfinite(self.samples)):
            raise ArgumentError("samples must be finite")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ArgumentError("sample_rate_hz must be finite and positive")

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass
class PitchContour:
    """Per-frame pitch track: f0 (NaN where absent), confidence, voicing
    flag; frame i is at time i * hop_seconds."""

    hop_seconds: float
    f0_hz: np.ndarray        # float, NaN = no estimate
    confidence: np.ndarray   # float in [0, 1]
    voiced: np.ndarray       # bool

    def __post_init__(self):
        self.f0_hz = np.asarray(self.f0_hz, dtype=np.float64)
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        if not (len(self.f0_hz) == len(self.confidence) == len(self.voiced)):
            raise ArgumentError("contour fields must have equal length")
        if not (np.isfinite(self.hop_seconds) and self.hop_seconds > 0):
            raise ArgumentError("hop_seconds must be finite and positive")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.f0_hz)) * self.hop_seconds

    def __len__(self) -> int:
        return len(self.f0_hz)


def read_wav(path) -> AudioBuffer:
    """Read a mono RIFF/WAVE file (PCM16 LE or IEEE float32).

    PCM16 values are normalized by 32768 so -32768 maps to exactly -1.0.
    Multichannel files are rejected: downmixing changes pitch-relevant
    energy and hides caller mistakes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError(f"{path}: truncated data chunk")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise FormatError(f"{path}: missing fmt or data chunk")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if sample_rate == 0:
        raise FormatError(f"{path}: fmt chunk gives a sample rate of 0")
    if channels != 1:
        raise FormatError(f"{path}: {channels} channels; only mono is supported")
    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", 32768.0
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise FormatError(
            f"{path}: format={audio_format} bits={bits}; need PCM16 or float32")
    if len(payload) % (bits // 8):
        raise FormatError(f"{path}: data chunk of {len(payload)} bytes is not "
                          f"a whole number of {bits}-bit samples")
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64) / scale
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"{path}: non-finite sample values")
    return AudioBuffer(samples=samples, sample_rate_hz=int(sample_rate))


def write_wav(buf: AudioBuffer, path, dtype: str = "pcm16") -> None:
    """Write a mono WAV file; dtype is 'pcm16' or 'float32'."""
    if dtype == "pcm16":
        fmt_code, bits = 1, 16
        clipped = np.clip(buf.samples, -1.0, 1.0)
        payload = np.round(clipped * 32767.0).astype("<i2").tobytes()
    elif dtype == "float32":
        fmt_code, bits = 3, 32
        payload = buf.samples.astype("<f4").tobytes()
    else:
        raise ArgumentError(f"unknown wav dtype {dtype!r}")
    sr = buf.sample_rate_hz
    block_align = bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, 1, sr,
                                    sr * block_align, block_align, bits)
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(header + payload)


def resample_linear(buf: AudioBuffer) -> AudioBuffer:
    """Linearly resample to CANONICAL_SR; returns buf itself when it is
    already at CANONICAL_SR."""
    if buf.sample_rate_hz == CANONICAL_SR:
        return buf
    if len(buf.samples) == 0:
        raise ArgumentError("cannot resample an empty buffer")
    n_out = int(round(len(buf.samples) * CANONICAL_SR / buf.sample_rate_hz))
    t_out = np.arange(n_out) / CANONICAL_SR
    t_in = np.arange(len(buf.samples)) / buf.sample_rate_hz
    out = np.interp(t_out, t_in, buf.samples)
    return AudioBuffer(out, CANONICAL_SR)


_CSV_HEADER = ["time_sec", "f0_hz", "confidence", "voiced"]
# times are written with 1e-6 s resolution, so a step between two rounded
# times can be off the true hop by up to 1e-6 s; allow twice that
HOP_TOLERANCE_S = 2e-6


def write_contour_csv(contour: PitchContour, path) -> None:
    """Write `time_sec,f0_hz,confidence,voiced` rows; empty f0 where absent."""
    times = contour.times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i in range(len(contour)):
            f0 = contour.f0_hz[i]
            writer.writerow([
                f"{times[i]:.6f}",
                "" if np.isnan(f0) else f"{f0:.6f}",
                f"{contour.confidence[i]:.6f}",
                int(contour.voiced[i]),
            ])


def read_contour_csv(path) -> PitchContour:
    """Read a contour CSV; the hop is the step between the first two times.

    The first time must be 0 and every later step must match that hop, both
    within HOP_TOLERANCE_S: frames are paired by index, so a contour that
    starts late would be scored against the wrong truth frames. `voiced` is
    `0` or `1`, and confidence a finite number in [0, 1].
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: not a contour CSV: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if header != _CSV_HEADER:
        raise FormatError(f"{path}: expected header {_CSV_HEADER}, got {header}")
    times, f0s, confs, voiced = [], [], [], []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise FormatError(f"{path}: malformed row {row}")
        try:
            times.append(float(row[0]))
            f0s.append(float("nan") if row[1] == "" else float(row[1]))
            confs.append(float(row[2]))
        except ValueError:
            raise FormatError(
                f"{path}: non-numeric field in row {i}: {row}") from None
        if row[3] not in ("0", "1"):
            raise FormatError(f"{path}: voiced field in row {i} is not 0 or "
                              f"1: {row}")
        voiced.append(row[3] == "1")
    if not np.all(np.isfinite(times)):
        raise FormatError(f"{path}: non-finite time")
    confs = np.array(confs)
    # NaN fails both comparisons
    bad = np.flatnonzero(~((confs >= 0) & (confs <= 1)))
    if len(bad):
        raise FormatError(f"{path}: confidence {confs[bad[0]]} in row "
                          f"{bad[0] + 2} is not in [0, 1]")
    if times and abs(times[0]) > HOP_TOLERANCE_S:
        raise FormatError(f"{path}: first time is {times[0]:.6f} s, not 0")
    if len(times) >= 2:
        hop = times[1] - times[0]
        if hop <= 0:
            raise FormatError(f"{path}: time {times[1]:.6f} in row 3 is not "
                              f"after the first")
        steps = np.diff(times)
        bad = np.flatnonzero(np.abs(steps - hop) > HOP_TOLERANCE_S)
        if len(bad):
            raise FormatError(
                f"{path}: time {times[bad[0] + 1]:.6f} in row {bad[0] + 3} "
                f"is off the {hop:.6f} s hop grid")
    else:
        hop = HOP_SECONDS
    return PitchContour(hop_seconds=hop, f0_hz=np.array(f0s),
                        confidence=confs,
                        voiced=np.array(voiced, dtype=bool))
