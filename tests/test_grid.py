import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitchkit.errors import ArgumentError
from pitchkit import grid
from pitchkit.grid import cents_error



def test_endpoints():
    assert grid.CENTERS[0] == pytest.approx(46.875, abs=1e-9)
    assert grid.CENTERS[199] == pytest.approx(2093.75, rel=1e-12)


def test_bin_spacing_cents():
    assert grid.CENTS_PER_BIN == pytest.approx(33.05, abs=0.1)


def test_centers_constant_is_read_only():
    # log-spaced from F_MIN_HZ to F_MAX_HZ
    ratio = grid.F_MAX_HZ / grid.F_MIN_HZ
    expected = [grid.F_MIN_HZ * ratio ** (b / (grid.N_BINS - 1))
                for b in range(grid.N_BINS)]
    np.testing.assert_allclose(grid.CENTERS, expected, rtol=1e-12)
    with pytest.raises(ValueError):
        grid.CENTERS[0] = 1.0


def test_freq_to_bin_endpoint_and_clamp():
    assert grid.freq_to_bin(46.875) == 0
    assert grid.freq_to_bin(30.0) == 0
    assert grid.freq_to_bin(5000.0) == 199


def test_freq_to_bin_round_trip_all_bins():
    for b in range(200):
        assert grid.freq_to_bin(grid.CENTERS[b]) == b


def test_freq_to_bin_nonpositive():
    with pytest.raises(ArgumentError):
        grid.freq_to_bin(0.0)


@pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf])
def test_freq_to_bin_non_finite(f):
    # NaN used to land in bin 0 with a RuntimeWarning, inf in bin 199
    with np.errstate(all="raise"):
        with pytest.raises(ArgumentError, match="must be finite and positive"):
            grid.freq_to_bin(f)
        with pytest.raises(ArgumentError, match="must be finite and positive"):
            grid.freq_to_bin([220.0, f])


def test_cents_error_basic():
    assert cents_error(440.0, 440.0) == 0.0
    assert cents_error(880.0, 440.0) == pytest.approx(1200.0, abs=1e-9)
    assert cents_error(466.1638, 440.0) == pytest.approx(100.0, abs=1e-3)


def test_cents_error_nonpositive():
    with pytest.raises(ArgumentError):
        cents_error(-1.0, 440.0)


@pytest.mark.parametrize("f", [np.nan, np.inf, -np.inf])
def test_cents_error_non_finite(f):
    # NaN used to give nan cents and inf infinite cents
    with np.errstate(all="raise"):
        for args in ((f, 220.0), (220.0, f), ([220.0, f], [220.0, 220.0])):
            with pytest.raises(ArgumentError, match="must be finite and positive"):
                cents_error(*args)


@given(st.floats(min_value=1.0, max_value=4000.0),
       st.floats(min_value=1.0, max_value=4000.0))
def test_cents_error_antisymmetric(a, b):
    assert cents_error(a, b) == pytest.approx(-cents_error(b, a), abs=1e-9)


@given(st.floats(min_value=46.875, max_value=2093.75))
def test_quantization_bounded_by_half_step(f):
    b = grid.freq_to_bin(f)
    err = cents_error(grid.CENTERS[b], f)
    assert abs(err) <= grid.CENTS_PER_BIN / 2 + 1e-9
