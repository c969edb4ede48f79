import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pitchkit.decode import DecoderConfig, decode_contour, decode_probs
from pitchkit import grid
from pitchkit.losses import softmax_rows

CFG = DecoderConfig()


def test_delta_distribution():
    row = np.zeros(200)
    row[77] = 1.0
    (f,), (c,), (v,) = decode_probs(row[None], CFG)
    assert f == grid.CENTERS[77]
    assert c == 1.0
    assert v


def test_uniform_distribution():
    # the window always holds 19 bins, even when the argmax ties to bin 0
    # and the window has to shift inward at the edge
    row = np.full(200, 1.0 / 200.0)
    (f,), (c,), (v,) = decode_probs(row[None], CFG)
    assert c == pytest.approx(19.0 / 200.0, abs=1e-12)
    assert not v


def test_two_bin_weighted_mean():
    row = np.zeros(200)
    row[100] = 0.9
    row[101] = 0.1
    (f,), (c,), (v,) = decode_probs(row[None], CFG)
    expected = 0.9 * grid.CENTERS[100] + 0.1 * grid.CENTERS[101]
    assert f == pytest.approx(expected, rel=1e-12)
    assert c == pytest.approx(1.0)
    assert v


def test_edge_window_shifted_inward():
    # delta at bin 0: window covers bins 0..18 but all mass sits on bin 0
    row = np.zeros(200)
    row[0] = 1.0
    (f,), (c,), (v,) = decode_probs(row[None], CFG)
    assert f == grid.CENTERS[0]
    assert c == 1.0


def test_edge_window_width_constant():
    # uniform mass near the top edge: exactly 19 bins contribute
    row = np.zeros(200)
    row[195:] = 0.01
    _, (c,), _ = decode_probs(row[None], CFG)
    assert c == pytest.approx(0.05, abs=1e-12)


def test_argmax_tie_lowest_bin():
    row = np.zeros(200)
    row[40] = 0.5
    row[120] = 0.5
    (f,), _, _ = decode_probs(row[None], CFG)
    # window around bin 40 holds all the local mass
    assert f == grid.CENTERS[40]


def test_empty_contour():
    contour = decode_contour(np.zeros((0, 200)), CFG)
    assert len(contour) == 0


def test_repeated_rows_constant_contour():
    rng = np.random.default_rng(0)
    z = np.tile(rng.standard_normal(200), (6, 1))
    contour = decode_contour(z, CFG)
    np.testing.assert_allclose(contour.f0_hz, contour.f0_hz[0], rtol=1e-12)


def test_frame_permutation_equivariance():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((10, 200))
    perm = rng.permutation(10)
    a = decode_contour(z, CFG)
    b = decode_contour(z[perm], CFG)
    np.testing.assert_allclose(a.f0_hz[perm], b.f0_hz, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_fhat_convex_combination(seed):
    rng = np.random.default_rng(seed)
    probs = softmax_rows(rng.standard_normal((1, 200)) * rng.uniform(0.1, 20))
    (f,), (c,), _ = decode_probs(probs, CFG)
    best = int(probs[0].argmax())
    lo_bin = min(max(best - 9, 0), 200 - 19)
    lo = grid.CENTERS[lo_bin]
    hi = grid.CENTERS[lo_bin + 18]
    assert lo <= f <= hi
    assert 0.0 <= c <= 1.0


def test_confidence_monotone_under_mass_transfer():
    rng = np.random.default_rng(2)
    probs = softmax_rows(rng.standard_normal((1, 200)))[0]
    best = int(probs.argmax())
    _, (c0,), _ = decode_probs(probs[None], CFG)
    # move mass from outside the window onto the argmax bin
    outside = [b for b in range(200) if abs(b - best) > 9]
    moved = probs.copy()
    take = moved[outside[0]]
    moved[outside[0]] = 0.0
    moved[best] += take
    _, (c1,), _ = decode_probs(moved[None], CFG)
    assert c1 >= c0
