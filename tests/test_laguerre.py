import numpy as np
import pytest
from scipy.special import eval_laguerre

from qbath import laguerre
from qbath.errors import AccuracyError


def value(n, x):
    """L_n(x) = m 2^e from the scaled recurrence."""
    m, _, e = laguerre.eval_scaled(n, x)
    return np.ldexp(m, e.astype(int))


def test_value_matches_scipy():
    x = np.linspace(0.0, 30.0, 121)
    for n in (0, 1, 2, 5, 17, 40):
        np.testing.assert_allclose(value(n, x), eval_laguerre(n, x), rtol=1e-10, atol=1e-12)


def test_value_at_zero_is_one():
    for n in (0, 3, 50, 500):
        assert value(n, np.array([0.0]))[0] == 1.0


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
    """The difference recurrence with its renormalization, run as one loop for every order >= 1."""
    exp2 = np.zeros(x.shape)
    if n == 0:
        return np.ones(x.shape), np.zeros(x.shape), exp2
    prev, cur, diff = np.ones(x.shape), 1.0 - x, -x
    for k in range(1, n):
        diff = -x / (k + 1) * cur + (k / (k + 1)) * diff
        prev, cur = cur, cur + diff
        big = np.abs(cur) > 2.0**500
        if big.any():
            _, ex = np.frexp(np.where(big, cur, 1.0))
            scale = np.ldexp(1.0, -ex)
            cur = np.where(big, cur * scale, cur)
            prev = np.where(big, prev * scale, prev)
            diff = np.where(big, diff * scale, diff)
            exp2 += np.where(big, ex, 0)
    return cur, prev, exp2


def _upward(n, x):
    """L_n(x) by the plain upward three-term recurrence (no renormalization)."""
    prev, cur = np.ones(x.shape), 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def test_small_argument_squares_match_mpmath():
    # A low-frequency mode's Laguerre argument sits at x <~ 1/n, where the upward
    # recurrence cancels two terms of size ~2 L_k at every step: its relative error in
    # L_n(x)^2 grows like n^2 eps.  The difference form's grows about linearly, so the
    # largest relative error over 60 points in (0, 0.05] must stay within
    #     10 n eps    (at n = 16, 64, 128),
    # measured 4.9, 439 and 49 eps, while the upward recurrence reads 95, 16621 and
    # 16658 eps and fails it at n = 64 and 128.  The measure is inflated near the zeros
    # of L_n.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    x = 0.05 * np.arange(1, 61) / 60
    with mpmath.workdps(40):
        for n in (16, 64, 128):
            ref = np.array([mpmath.laguerre(n, 0, mpmath.mpf(float(v))) for v in x])
            ref_sq = np.array([float(v * v) for v in ref])
            errors = {}
            for name, values in (("difference", value(n, x)), ("upward", _upward(n, x))):
                errors[name] = np.max(np.abs(values**2 - ref_sq) / ref_sq) / eps
            assert errors["difference"] <= 10 * n, (n, errors)
            if n >= 64:
                assert errors["upward"] > 10 * n, (n, errors)


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


def _member_matrix():
    """Members with no occupied mode, mixed orders on one mode, and orders that renormalize."""
    rng = np.random.default_rng(4)
    occs = rng.integers(0, 4, size=(23, 6)) * (rng.random((23, 6)) < 0.4)
    occs[:, 2] = np.arange(23) % 5  # every order 0..4 on one mode
    occs[3] = 0
    occs[7, 4] = 300  # L_300 renormalizes on the large arguments below
    occs[8] = 0
    occs[8, [1, 4]] = 300
    xs = rng.uniform(0.0, 6.0, size=(6, 57))
    xs[4, :20] = np.linspace(200.0, 1000.0, 20)
    return occs, xs


def _concat(blocks):
    rows, logs, odd = zip(*blocks)
    assert rows[0].start == 0 and all(a.stop == b.start for a, b in zip(rows, rows[1:]))
    return np.concatenate(logs), None if odd[0] is None else np.concatenate(odd)


def test_log_products_add_the_factors_mode_by_mode():
    occs, xs = _member_matrix()
    logs, odd = _concat(laguerre.log_products(occs, xs, signed=True))
    assert logs.shape == odd.shape == (occs.shape[0], xs.shape[1])
    for m, occ in enumerate(occs):
        ref_log, ref_neg = np.zeros(xs.shape[1]), np.zeros(xs.shape[1], dtype=bool)
        for k in np.nonzero(occ)[0]:
            mant, _, ex = laguerre.eval_scaled(int(occ[k]), xs[k])
            ref_log += np.log(np.abs(mant)) + ex * np.log(2.0)
            ref_neg ^= mant < 0.0
        assert logs[m].tobytes() == ref_log.tobytes(), m  # the same additions in the same order
        assert (odd[m] == ref_neg).all()
    assert (logs[3] == 0.0).all() and not odd[3].any()
    # the renormalized orders are the same numbers scipy gives (about 1e286 at x = 1000)
    big = eval_laguerre(300, xs[4, :20])
    assert np.isfinite(big).all() and np.abs(big).max() > 1e150
    direct = np.log(np.abs(eval_laguerre(300, xs[1, :20]))) + np.log(np.abs(big))
    np.testing.assert_allclose(logs[8, :20], direct, rtol=1e-10)


def test_log_products_rows_equal_one_member_calls_bitwise(monkeypatch):
    occs, xs = _member_matrix()
    whole, whole_odd = _concat(laguerre.log_products(occs, xs, signed=True))
    monkeypatch.setattr(laguerre, "BLOCK_VALUES", 3 * xs.shape[1])  # blocks of a few members
    blocked, blocked_odd = _concat(laguerre.log_products(occs, xs, signed=True))
    assert blocked.tobytes() == whole.tobytes() and (blocked_odd == whole_odd).all()
    for m in range(occs.shape[0]):
        ((rows, one, one_odd),) = laguerre.log_products(occs[m : m + 1], xs, signed=True)
        assert rows == slice(0, 1)
        assert one[0].tobytes() == whole[m].tobytes(), m
        assert (one_odd[0] == whole_odd[m]).all()


def test_log_products_vanishing_factor_is_zero_not_nan():
    # L_1(1) = 0: the product is exactly 0 there, with no NaN from the other members
    occs = np.array([[1, 0], [0, 2], [1, 2], [0, 0]])
    xs = np.array([[1.0, 0.5, 3.0], [0.25, 1.0, 2.0]])
    logs, odd = _concat(laguerre.log_products(occs, xs, signed=True))
    assert not np.isnan(logs).any()
    assert logs[0, 0] == logs[2, 0] == -np.inf
    values = np.where(odd, -1.0, 1.0) * np.exp(logs)
    ref = np.array([
        eval_laguerre(1, xs[0]),
        eval_laguerre(2, xs[1]),
        eval_laguerre(1, xs[0]) * eval_laguerre(2, xs[1]),
        np.ones(3),
    ])
    assert values[0, 0] == values[2, 0] == 0.0
    np.testing.assert_allclose(values, ref, rtol=1e-14, atol=0.0)


def test_orders_above_the_bound_are_refused_before_the_recurrence():
    # one step per order: a huge order would run for as many steps as it counts
    x = np.array([0.0, 0.5])
    top = laguerre.MAX_ORDER
    assert value(top, x)[0] == 1.0
    huge = 2**62
    with pytest.raises(AccuracyError, match=f"order {top + 1} .*MAX_ORDER = {top}"):
        laguerre.eval_scaled(top + 1, x)
    with pytest.raises(AccuracyError, match=f"order {huge} "):
        laguerre.log_derivative(huge, x)
    # on any mode: mode * (order + 1) would overflow int64 past mode 1
    occs = np.zeros((2, 6), dtype=np.int64)
    occs[1, 5] = huge
    with pytest.raises(AccuracyError, match=f"order {huge} "):
        next(laguerre.log_products(occs, np.full((6, 2), 0.5)))
