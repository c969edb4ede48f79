import numpy as np
import pytest

from pitchkit.audio_io import (MIN_SR, AudioBuffer, PitchContour,
                               read_contour_csv, read_wav, resample_linear,
                               write_contour_csv, write_wav)
from pitchkit.errors import ArgumentError, FormatError
from pitchkit.grid import F_MAX_HZ


def test_read_wav_zero_signal(tmp_path):
    path = tmp_path / "zeros.wav"
    write_wav(AudioBuffer(np.zeros(16000), 16000), path)
    buf = read_wav(path)
    assert buf.sample_rate_hz == 16000
    assert len(buf.samples) == 16000
    assert np.all(buf.samples == 0.0)


def test_pcm16_negative_full_scale(tmp_path):
    import struct
    payload = struct.pack("<h", -32768)
    header = b"RIFF" + struct.pack("<I", 36 + 2) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    header += b"data" + struct.pack("<I", 2)
    path = tmp_path / "fs.wav"
    path.write_bytes(header + payload)
    buf = read_wav(path)
    assert buf.samples[0] == -1.0


def test_wav_header_round_trip_44k(tmp_path):
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-0.5, 0.5, 4410), 44100)
    path = tmp_path / "a.wav"
    write_wav(buf, path, dtype="float32")
    back = read_wav(path)
    assert back.sample_rate_hz == 44100
    np.testing.assert_allclose(back.samples, buf.samples, atol=1e-7)


def test_multichannel_rejected(tmp_path):
    import struct
    payload = struct.pack("<4h", 0, 0, 0, 0)
    header = b"RIFF" + struct.pack("<I", 36 + 8) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
    header += b"data" + struct.pack("<I", 8)
    path = tmp_path / "st.wav"
    path.write_bytes(header + payload)
    with pytest.raises(FormatError):
        read_wav(path)


def wav_bytes(fmt_code, bits, payload):
    import struct
    block_align = bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, 1, 16000,
                                    16000 * block_align, block_align, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload + b"\x00" * (len(payload) & 1)


@pytest.mark.parametrize("fmt_code,bits,n_bytes", [(1, 16, 3), (3, 32, 6)])
def test_data_chunk_not_whole_samples(tmp_path, fmt_code, bits, n_bytes):
    path = tmp_path / "odd.wav"
    path.write_bytes(wav_bytes(fmt_code, bits, b"\x01" * n_bytes))
    with pytest.raises(FormatError, match="whole number"):
        read_wav(path)


def test_zero_sample_rate_is_format_error(tmp_path):
    data = bytearray(wav_bytes(1, 16, b"\x00\x00"))
    data[24:28] = bytes(4)  # the fmt chunk's sample rate
    path = tmp_path / "rate0.wav"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="sample rate of 0"):
        read_wav(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(FormatError):
        read_wav(path)


def test_resample_identity():
    buf = AudioBuffer(np.linspace(-1, 1, 1000), 16000)
    out = resample_linear(buf)
    assert out is buf
    np.testing.assert_array_equal(out.samples, buf.samples)


def test_resample_constant():
    buf = AudioBuffer(np.full(480, 0.5), 48000)
    out = resample_linear(buf)
    assert np.allclose(out.samples, 0.5)
    assert out.sample_rate_hz == 16000


def test_resample_sine_accuracy():
    t48 = np.arange(48000) / 48000
    buf = AudioBuffer(np.sin(2 * np.pi * 100 * t48), 48000)
    out = resample_linear(buf)
    t16 = np.arange(len(out.samples)) / 16000
    ref = np.sin(2 * np.pi * 100 * t16)
    rms = np.sqrt(np.mean((out.samples - ref) ** 2))
    assert rms < 1e-3


@pytest.mark.parametrize("rate", [1, 4187, 4187.4])
def test_resample_refuses_rate_below_floor(monkeypatch, rate):
    buf = AudioBuffer(np.zeros(400_000), rate)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before checking the rate")
    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(ArgumentError, match="below 4187.5 Hz"):
        resample_linear(buf)


@pytest.mark.parametrize("rate", [MIN_SR, 4188, 8000])
def test_resample_takes_rate_at_floor(rate):
    assert MIN_SR == 2 * F_MAX_HZ == 4187.5
    out = resample_linear(AudioBuffer(np.full(800, 0.5), rate))
    assert out.sample_rate_hz == 16000 and np.allclose(out.samples, 0.5)


def test_resample_duration_preserved():
    buf = AudioBuffer(np.zeros(44100), 44100)
    out = resample_linear(buf)
    assert abs(out.duration_seconds - 1.0) <= 1.0 / 16000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_audio_buffer_rate_must_be_finite_and_positive(bad):
    # NaN passes a bare `<= 0` check, and analyze then fails with a raw
    # ValueError; inf ends in a misleading InputTooShort
    with pytest.raises(ArgumentError, match="sample_rate_hz"):
        AudioBuffer(np.zeros(16000), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_contour_hop_must_be_finite_and_positive(bad):
    # NaN passes a bare `<= 0` check, and evaluate's hop check would pair
    # it with any truth, since abs(nan - hop) > HOP_MATCH_S is False
    with pytest.raises(ArgumentError, match="hop_seconds"):
        PitchContour(bad, [220.0], [1.0], [True])


def test_contour_csv_empty(tmp_path):
    c = PitchContour(0.016, np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))
    path = tmp_path / "c.csv"
    write_contour_csv(c, path)
    assert path.read_text().strip() == "time_sec,f0_hz,confidence,voiced"
    back = read_contour_csv(path)
    assert len(back) == 0


def test_contour_csv_single_frame(tmp_path):
    c = PitchContour(0.016, [220.0], [0.97], [True])
    path = tmp_path / "c.csv"
    write_contour_csv(c, path)
    back = read_contour_csv(path)
    assert back.f0_hz[0] == 220.0
    assert back.confidence[0] == 0.97
    assert back.voiced[0]


def test_contour_csv_round_trip_random(tmp_path):
    rng = np.random.default_rng(1)
    n = 1000
    f0 = rng.uniform(47, 2000, n)
    voiced = rng.uniform(size=n) > 0.3
    f0[~voiced] = np.nan
    c = PitchContour(0.016, f0, rng.uniform(size=n), voiced)
    path = tmp_path / "c.csv"
    write_contour_csv(c, path)
    back = read_contour_csv(path)
    assert len(back) == n
    np.testing.assert_allclose(back.f0_hz[voiced], f0[voiced], atol=1e-6)
    assert np.all(np.isnan(back.f0_hz[~voiced]))
    np.testing.assert_allclose(back.confidence, c.confidence, atol=1e-6)
    np.testing.assert_array_equal(back.voiced, voiced)
    np.testing.assert_allclose(back.times, c.times, atol=1e-6)


def test_contour_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_sec,f0_hz,confidence\n0.0,220.0,0.9\n")
    with pytest.raises(FormatError):
        read_contour_csv(path)


def test_contour_csv_non_numeric_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_sec,f0_hz,confidence,voiced\n"
                    "0.000000,220.0,0.9,1\n0.016000,abc,0.9,1\n")
    with pytest.raises(FormatError, match="non-numeric"):
        read_contour_csv(path)


def test_contour_csv_off_hop_grid(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [f"{t},220.0,0.9,1" for t in ("0", "0.016", "0.5", "0.048")]
    path.write_text("time_sec,f0_hz,confidence,voiced\n" + "\n".join(rows))
    with pytest.raises(FormatError, match="hop grid"):
        read_contour_csv(path)


@pytest.mark.parametrize("first,ok", [("0.480000", False),
                                      ("-0.016000", False),
                                      ("0.000003", False), ("0.000001", True)])
def test_contour_csv_must_start_at_zero(tmp_path, first, ok):
    # frames pair up by index, so rows that start late would be scored
    # against the wrong truth frames; times are rounded to 1e-6 s
    path = tmp_path / "c.csv"
    rows = [f"{float(first) + i * 0.016:.6f},220.0,0.9,1" for i in range(4)]
    path.write_text("time_sec,f0_hz,confidence,voiced\n" + "\n".join(rows))
    if ok:
        assert read_contour_csv(path).times[0] == 0.0
    else:
        with pytest.raises(FormatError, match="not 0"):
            read_contour_csv(path)


def test_contour_csv_non_finite_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_sec,f0_hz,confidence,voiced\nnan,220.0,0.9,1\n")
    with pytest.raises(FormatError, match="non-finite"):
        read_contour_csv(path)


@pytest.mark.parametrize("voiced", ["2", "-1", "01", " 1", "true", ""])
def test_contour_csv_voiced_not_0_or_1(tmp_path, voiced):
    path = tmp_path / "bad.csv"
    path.write_text("time_sec,f0_hz,confidence,voiced\n"
                    f"0.000000,220.0,0.9,1\n0.016000,220.0,0.9,{voiced}\n")
    with pytest.raises(FormatError, match="voiced field in row 3"):
        read_contour_csv(path)


@pytest.mark.parametrize("conf", ["7.5", "-0.1", "1.000001", "nan", "inf",
                                  "-inf"])
def test_contour_csv_confidence_outside_unit_interval(tmp_path, conf):
    path = tmp_path / "bad.csv"
    path.write_text("time_sec,f0_hz,confidence,voiced\n"
                    f"0.000000,220.0,0.9,1\n0.016000,220.0,{conf},1\n"
                    "0.032000,220.0,0.9,1\n")
    with pytest.raises(FormatError, match="row 3 is not in"):
        read_contour_csv(path)


def test_contour_csv_confidence_ends_of_unit_interval_load(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("time_sec,f0_hz,confidence,voiced\n"
                    "0.000000,,0.000000,0\n0.016000,220.0,1.000000,1\n")
    back = read_contour_csv(path)
    np.testing.assert_array_equal(back.confidence, [0.0, 1.0])
    np.testing.assert_array_equal(back.voiced, [False, True])


@pytest.mark.parametrize("hop", [0.016, 256 / 44100, 160 / 16000, 1 / 3,
                                 0.0123457])
def test_contour_csv_rounded_times_of_any_hop_load(tmp_path, hop):
    # times are written to 1e-6 s, so steps jitter by up to 1e-6 s
    n = 5000
    c = PitchContour(hop, np.full(n, 220.0), np.ones(n), np.ones(n, bool))
    path = tmp_path / "c.csv"
    write_contour_csv(c, path)
    back = read_contour_csv(path)
    assert len(back) == n
    assert back.hop_seconds == pytest.approx(hop, abs=1e-6)
