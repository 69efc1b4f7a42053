import numpy as np
from scipy.special import eval_laguerre

from qbath import laguerre


def test_value_matches_scipy():
    x = np.linspace(0.0, 30.0, 121)
    for n in (0, 1, 2, 5, 17, 40):
        np.testing.assert_allclose(
            laguerre.value(n, x), eval_laguerre(n, x), rtol=1e-10, atol=1e-12
        )


def test_value_at_zero_is_one():
    for n in (0, 3, 50, 500):
        assert laguerre.value(n, np.array([0.0]))[0] == 1.0


def test_scaled_reconstruction():
    x = np.linspace(0.0, 60.0, 61)
    for n in (1, 7, 90):
        mant, _, ex = laguerre.eval_scaled(n, x)
        np.testing.assert_allclose(
            mant * np.exp2(ex), eval_laguerre(n, x), rtol=1e-9, atol=1e-300
        )


def test_scaled_survives_overflow_regime():
    # direct recurrence in float overflows near n = 300, x = 200; the scaled
    # form must stay finite and match an extended-precision recurrence
    n, x = 300, np.array([200.0])
    mant, _, ex = laguerre.eval_scaled(n, x)
    assert np.isfinite(mant).all() and np.isfinite(ex).all()
    lo = np.longdouble(1.0)
    hi = np.longdouble(1.0) - np.longdouble(x[0])
    for k in range(1, n):
        lo, hi = hi, ((2 * k + 1 - np.longdouble(x[0])) * hi - k * lo) / (k + 1)
    log2_ref = float(np.log2(np.abs(hi)))
    log2_got = float(np.log2(np.abs(mant[0])) + ex[0])
    assert abs(log2_got - log2_ref) < 1e-6 * abs(log2_ref)
    assert np.sign(mant[0]) == np.sign(hi)


def test_log_derivative_matches_finite_difference():
    x = np.array([0.7, 3.1, 9.4])
    h = 1e-6
    for n in (2, 6, 25):
        got, ok = laguerre.log_derivative(n, x)
        assert ok.all()
        num = (
            np.log(np.abs(eval_laguerre(n, x + h)))
            - np.log(np.abs(eval_laguerre(n, x - h)))
        ) / (2 * h)
        np.testing.assert_allclose(got, num, rtol=1e-5, atol=1e-6)


def test_log_derivative_flags_roots():
    # L_2 vanishes at 2 - sqrt(2); the log-derivative is undefined there
    x = np.array([2.0 - np.sqrt(2.0), 5.0])
    _, ok = laguerre.log_derivative(2, x)
    assert not ok[0]
    assert ok[1]


def _general_loop(n, x):
    """The recurrence with its renormalization, run as one loop for every order >= 1."""
    exp2 = np.zeros(x.shape)
    if n == 0:
        return np.ones(x.shape), np.zeros(x.shape), exp2
    prev, cur = np.ones(x.shape), 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        big = np.abs(cur) > 2.0**500
        if big.any():
            _, ex = np.frexp(np.where(big, cur, 1.0))
            scale = np.ldexp(1.0, -ex)
            cur = np.where(big, cur * scale, cur)
            prev = np.where(big, prev * scale, prev)
            exp2 += np.where(big, ex, 0)
    return cur, prev, exp2


def test_low_orders_equal_the_general_loop_bitwise():
    # orders 0 and 1 return early and exp2 is made only when needed; the
    # values must not move by a bit (order 300 renormalizes at x = 1000)
    x = np.concatenate([np.linspace(0.0, 1000.0, 41), [1e-300, 2.0 - np.sqrt(2.0)]])
    for n in (0, 1, 2, 300):
        got, ref = laguerre.eval_scaled(n, x), _general_loop(n, x)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype == np.float64 and g.shape == r.shape
            assert g.tobytes() == r.tobytes(), n
    assert _general_loop(300, x)[2].any()
