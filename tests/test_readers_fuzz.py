"""Fuzz the three file readers: any input either loads or raises a
FormatError, never another toolkit error or a bare Python or numpy
exception, so the CLI exits 2 on every bad file."""
import struct
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pitchkit import model as net
from pitchkit.audio_io import read_contour_csv, read_wav
from pitchkit.errors import FormatError


def load_or_typed_error(reader, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            reader(path)
        except FormatError:
            pass


@st.composite
def wav_files(draw):
    """A RIFF/WAVE file with drawn format fields whose data chunk declares
    between 0 and 3 bytes fewer than its payload holds."""
    fmt_code = draw(st.sampled_from([1, 3]))
    channels = draw(st.sampled_from([1, 2]))
    rate = draw(st.sampled_from([0, 8000, 16000]))
    bits = draw(st.sampled_from([8, 16, 24, 32]))
    payload = draw(st.binary(max_size=64))
    declared = max(len(payload) - draw(st.integers(0, 3)), 0)
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, fmt_code, channels, rate,
                                    rate * bits // 8, bits // 8, bits)
    return header + b"data" + struct.pack("<I", declared) + payload


wavs = st.one_of(st.binary(max_size=200), wav_files())


@settings(max_examples=300, deadline=None)
@given(wavs)
def test_read_wav_fuzz(data):
    load_or_typed_error(read_wav, data)


fields = st.one_of(st.just(""), st.sampled_from(["abc", "nan", "inf", "-1",
                                                 "1e400", "0.016", "1.5"]),
                   st.floats(allow_nan=True).map(repr),
                   st.integers(-3, 3).map(str), st.text(max_size=6))
rows = st.lists(st.lists(fields, min_size=3, max_size=5).map(",".join),
                max_size=6)
csvs = st.one_of(
    st.binary(max_size=200),
    rows.map(lambda r: "\n".join(["time_sec,f0_hz,confidence,voiced"] + r)
             .encode("utf-8")),
)


@settings(max_examples=300, deadline=None)
@given(csvs)
def test_read_contour_csv_fuzz(data):
    load_or_typed_error(read_contour_csv, data)


@lru_cache(maxsize=1)
def valid_weights() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.bin"
        net.save_params(net.init_params(0), path)
        return path.read_bytes()


@st.composite
def weights(draw):
    """A valid weights file, maybe cut short, with some header bytes
    (the first tensors' names, ranks and shapes) overwritten."""
    valid = valid_weights()
    data = bytearray(valid[:draw(st.integers(0, len(valid)))])
    for _ in range(draw(st.integers(0, 4))):
        if data:
            at = draw(st.integers(0, min(len(data), 2000) - 1))
            data[at] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=200), weights()))
def test_load_params_fuzz(data):
    load_or_typed_error(net.load_params, data)

