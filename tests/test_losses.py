import numpy as np
import pytest

from pitchkit.errors import ArgumentError
from pitchkit import grid
from pitchkit.losses import loss_total, softmax_rows



def ce_only(logits, targets, mask):
    """(ce, d_ce) from loss_total with lam = 0, each true F0 at the centre
    of its target bin."""
    return loss_total(logits, grid.CENTERS[targets], mask, lam=0.0)[:2]


def fd_check(loss_fn, logits, tol=1e-5):
    """Central finite differences on a handful of logit entries."""
    rng = np.random.default_rng(0)
    _, d = loss_fn(logits)
    h = 1e-6
    for _ in range(20):
        i = int(rng.integers(logits.shape[0]))
        j = int(rng.integers(logits.shape[1]))
        z = logits.copy()
        z[i, j] += h
        lp, _ = loss_fn(z)
        z[i, j] -= 2 * h
        lm, _ = loss_fn(z)
        fd = (lp - lm) / (2 * h)
        assert fd == pytest.approx(d[i, j], rel=tol, abs=1e-9)


def test_ce_uniform_logits():
    z = np.zeros((3, 200))
    loss, _ = ce_only(z, [0, 5, 100], np.ones(3, bool))
    assert loss == pytest.approx(np.log(200), abs=1e-12)


def test_ce_perfect_prediction():
    z = np.zeros((1, 200))
    z[0, 42] = 200.0
    loss, _ = ce_only(z, [42], np.ones(1, bool))
    assert loss < 1e-12


def test_ce_no_voiced():
    with pytest.raises(ArgumentError, match="no voiced frames"):
        ce_only(np.zeros((2, 200)), [0, 0], np.zeros(2, bool))


def test_ce_gradient_fd():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 200))
    targets = rng.integers(0, 200, 4)
    mask = np.array([True, True, False, True])
    fd_check(lambda zz: ce_only(zz, targets, mask), z)


def test_cents_delta_on_true_bin():
    z = np.zeros((1, 200))
    z[0, 50] = 500.0
    *_, loss = loss_total(z, [grid.CENTERS[50]], np.ones(1, bool))
    assert loss < 1e-9


def test_cents_split_mass_geometric_midpoint():
    z = np.full((1, 200), -1e9)
    z[0, 0] = 0.0
    z[0, 199] = 0.0
    mid = np.sqrt(grid.F_MIN_HZ * grid.F_MAX_HZ)
    assert mid == pytest.approx(313.2803, abs=1e-3)
    *_, loss = loss_total(z, [mid], np.ones(1, bool))
    assert loss < 1e-9


def test_cents_gradient_fd():
    # the CE gradient is checked on its own above; lam = 1 adds the cents
    # term's gradient to it
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 200))
    f_true = rng.uniform(100, 1000, 4)
    mask = np.ones(4, bool)
    fd_check(lambda zz: loss_total(zz, f_true, mask, lam=1.0)[:2], z)


def reference_terms(z, f_true, mask):
    """(ce, d_ce, cents, d_cents) by the textbook formulas, as an oracle;
    each frame's target is the bin nearest its true F0."""
    targets = grid.freq_to_bin(f_true)
    p = softmax_rows(z)
    rows = np.flatnonzero(mask)
    n = len(rows)
    ce = -np.log(p[rows, targets[rows]]).mean()
    d_ce = np.zeros_like(p)
    d_ce[rows] = p[rows]
    d_ce[rows, targets[rows]] -= 1.0
    log_c = np.log(grid.CENTERS)
    residual = p @ log_c - np.log(f_true)
    cents = np.abs(residual[rows]).mean()
    d_cents = np.zeros_like(p)
    d_cents[rows] = (np.sign(residual[rows])[:, None] * p[rows]
                     * (log_c - (p @ log_c)[rows, None]))
    return ce, d_ce / n, cents, d_cents / n


def test_total_zero_lambda_equals_ce():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 200))
    targets = rng.integers(0, 200, 4)
    f_true = grid.CENTERS[targets]
    mask = np.ones(4, bool)
    ce, d_ce, _, _ = reference_terms(z, f_true, mask)
    total, d, ce_out, cents_out = loss_total(z, f_true, mask, lam=0.0)
    assert total == ce_out == ce and cents_out == 0.0
    np.testing.assert_array_equal(d, d_ce)


def test_total_additivity():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((4, 200))
    f_true = rng.uniform(100, 1000, 4)
    mask = np.ones(4, bool)
    ce, d_ce, cents, d_cents = reference_terms(z, f_true, mask)
    total, d, ce_out, cents_out = loss_total(z, f_true, mask)
    assert total == pytest.approx(ce + cents, abs=1e-9)
    np.testing.assert_allclose(d, d_ce + d_cents, atol=1e-12)


def test_softmax_rows_properties():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((6, 200)) * 10
    p = softmax_rows(z)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    shifted = softmax_rows(z + 7.5)
    np.testing.assert_allclose(p, shifted, atol=1e-12)


def test_softmax_saturation():
    z = np.zeros((1, 200))
    z[0, 3] = 50.0
    p = softmax_rows(z)
    assert p[0, 3] >= 1.0 - 1e-15


@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0, 4.0])
def test_total_equals_separate_terms(lam):
    # the shared softmax must leave both terms as the textbook formulas give
    rng = np.random.default_rng(6)
    z = rng.standard_normal((12, 200)) * 3
    f_true = rng.uniform(100, 1000, 12)
    mask = rng.random(12) < 0.7
    ce, d_ce, cents, d_cents = reference_terms(z, f_true, mask)
    total, d, ce_out, cents_out = loss_total(z, f_true, mask, lam=lam)
    assert abs(ce_out - ce) <= 1e-12
    if lam:
        assert abs(cents_out - cents) <= 1e-12
    assert abs(total - (ce + lam * cents)) <= 1e-12
    assert np.abs(d - (d_ce + lam * d_cents)).max() <= 1e-12


@pytest.mark.parametrize("unused", [np.nan, 0.0, -220.0, np.inf])
def test_f0_outside_mask_is_never_read(unused):
    # frames outside the mask may hold any F0: the loss, its gradient and
    # its warnings are those of a valid F0 there
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 200))
    f_true = rng.uniform(100, 1000, 6)
    mask = np.array([True, False, True, True, False, True])
    expected = loss_total(z, f_true, mask)
    f_true[~mask] = unused
    with np.errstate(all="raise"):
        got = loss_total(z, f_true, mask)
    assert got[0] == expected[0] and got[2:] == expected[2:]
    np.testing.assert_array_equal(got[1], expected[1])


@pytest.mark.parametrize("f0", [np.nan, np.inf, -np.inf])
def test_non_finite_f0_on_a_voiced_row_is_refused(f0):
    # it used to give a nan or infinite loss with no typed error
    with np.errstate(all="raise"):
        with pytest.raises(ArgumentError, match="must be finite and positive"):
            loss_total(np.zeros((2, 200)), [f0, 220.0], [True, True])
