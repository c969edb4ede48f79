import numpy as np
import pytest

from pitchkit.audio_io import AudioBuffer
from pitchkit.baseline import acf_contour
from pitchkit.errors import InputTooShort
from pitchkit.grid import cents_error
from pitchkit.synth import SynthSpec, synth_example


def test_acf_tracks_harmonic_tone():
    buf, truth = synth_example(SynthSpec(kind="constant", f0_hz=220.0))
    contour = acf_contour(buf)
    assert len(contour) == len(truth) == 59
    assert contour.voiced.all()
    assert np.abs(cents_error(contour.f0_hz, truth.f0_hz)).max() < 5.0


def test_acf_silence_is_unvoiced():
    contour = acf_contour(AudioBuffer(np.zeros(8000), 16000))
    assert len(contour) == 28
    assert not contour.voiced.any()
    assert np.isnan(contour.f0_hz).all()
    assert np.all(contour.confidence == 0.0)


def test_acf_too_short():
    with pytest.raises(InputTooShort):
        acf_contour(AudioBuffer(np.zeros(1000), 16000))


def test_acf_resamples_foreign_rate():
    # 1 s at 44.1 kHz is analysed as 1 s at 16 kHz: 59 frames, 16 ms apart
    x = np.sin(2 * np.pi * 220.0 * np.arange(44100) / 44100)
    contour = acf_contour(AudioBuffer(x, 44100))
    assert len(contour) == 59
    assert contour.hop_seconds == 0.016
    assert contour.voiced.all()
    assert np.abs(cents_error(contour.f0_hz, 220.0)).max() < 10.0
