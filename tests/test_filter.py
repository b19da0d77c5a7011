"""``lti.lfilter`` calls scipy's private ``_sigtools._linear_filter`` without
``lfilter``'s Python wrapper, always from rest. It must give the bits of the
public ``lfilter(b, a, x, axis)`` for every call pidmov makes: 1/A_cl for
every A_cl the kernel can build (two or more coefficients, stable or not,
inputs that already hold inf or NaN), a general numerator along axis 0 of
the Monte-Carlo oracle's (L, R) disturbance draws, and the impulse
response's 1/den, den = (1,) included. The kernel filters all the signals of
a candidate in one call, so each row of a 2-D input must keep the bits of
its own 1-D call, zero-padded to a longer width too. A resumed multistage
stage filters from rest too, its signals' past moved into the forcing, and
must meet scipy's ``lfilter`` from the ``lfiltic`` state of that past."""

import numpy as np
import pytest
from scipy.signal import lfilter as scipy_lfilter, lfiltic

from pidmov import load_case_study
from pidmov.lti import DiscreteTransferFunction, lfilter
from pidmov.mc import _filter_path
from pidmov.singleloop import _LoopKernel
from pidmov.tuning import _stage

_CASCADE = _LoopKernel(load_case_study("immersion_cascade").loop)


def _polynomial(rng, order: int, stable: bool) -> np.ndarray:
    """Real coefficients of a random polynomial in q^-1 of the given order:
    its roots inside the unit circle, or one real root outside, in some
    cases far enough for the output to overflow; the leading coefficient is
    other than 1 in half the cases."""
    roots = []
    while len(roots) < order - 1:
        r = rng.uniform(0.05, 0.95)
        if len(roots) + 2 < order and rng.random() < 0.5:
            z = r * np.exp(1j * rng.uniform(0.1, np.pi - 0.1))
            roots += [z, z.conjugate()]
        else:
            roots.append(r * rng.choice([-1.0, 1.0]))
    last = rng.uniform(0.05, 0.95) if stable else rng.uniform(1.05, 6.0)
    a = np.real(np.poly(roots + [last * rng.choice([-1.0, 1.0])]))
    return a * (rng.uniform(0.5, 2.0) if rng.random() < 0.5 else 1.0)


def _inputs(rng, n: int):
    x = rng.normal(size=n)
    yield x
    for bad in (np.inf, -np.inf, np.nan):
        y = x.copy()
        y[rng.integers(n)] = bad
        yield y
    y = x.copy()
    y[rng.integers(n, size=3)] = [np.nan, np.inf, -np.inf]
    yield y
    yield rng.normal(size=(2, n))       # the cascade's two shock rows at once


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("order", range(2, 31))
def test_filter_equals_lfilter_bit_for_bit(order, stable):
    rng = np.random.default_rng(1000 * order + stable)
    for _ in range(5):
        a_cl = _polynomial(rng, order, stable)
        assert (np.abs(np.roots(a_cl)) < 1).all() == stable
        for x in _inputs(rng, int(rng.integers(1, 400))):
            want = scipy_lfilter([1.0], a_cl, x)
            got = lfilter(np.ones(1), a_cl, x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            for row, xr in zip(np.atleast_2d(got), np.atleast_2d(x)):
                assert row.tobytes() == lfilter(np.ones(1), a_cl, xr).tobytes()


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("order", range(2, 31))
def test_rows_from_their_own_states_equal_lfilter_per_row(order, stable):
    # a resumed stage of m candidates filters each one's tracking error and
    # inner output from rest in one call per row, each signal's past moved
    # into its forcing: the response scipy's lfilter gives from the state
    # lfiltic builds from that past, up to the rounding of the subtracted
    # past, and per row the bits of that row's call alone
    rng = np.random.default_rng(3000 * order + stable)
    for _ in range(5):
        m = int(rng.integers(1, 4))
        a_cl = np.array([_polynomial(rng, order, stable) for _ in range(m)])
        stop = int(rng.integers(2, 400))
        s = int(rng.integers(1, stop))
        e, y2 = rng.normal(size=(2, m, stop))
        x = rng.normal(size=(m, 2, stop - s + int(rng.integers(0, 50))))
        alone = [(e[i:i + 1].copy(), y2[i:i + 1].copy()) for i in range(m)]
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (ei, y2i) in enumerate(alone):
                _stage(_CASCADE, a_cl[i:i + 1], x[i:i + 1].copy(), 1.0, ei, y2i, s)
            _stage(_CASCADE, a_cl, x.copy(), 1.0, e, y2, s)
        for i, a in enumerate(a_cl):
            for j, v in enumerate((e, y2)):
                assert v[i].tobytes() == alone[i][j][0].tobytes()
                want = scipy_lfilter([1.0], a, x[i, j, : stop - s],
                                     zi=lfiltic([1.0], a, v[i, :s][::-1]))[0]
                scale = np.abs(a).sum() * np.maximum.accumulate(
                    np.maximum(np.abs(v[i, :s]).max(), np.abs(want)))
                assert (np.abs(v[i, s:] - want) <= 1e-9 * scale).all()


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("order", range(1, 9))
def test_general_numerator_along_axis_0_equals_lfilter(order, stable):
    # the Monte-Carlo disturbance paths: q^-d b / a over the rows of
    # time-major (L, R) draws
    rng = np.random.default_rng(5000 * order + stable)
    for _ in range(5):
        den = _polynomial(rng, order, stable)
        tf = DiscreteTransferFunction(num=tuple(rng.normal(size=int(rng.integers(1, 5)))),
                                      den=tuple(den), delay=int(rng.integers(0, 6)))
        x = rng.normal(size=(int(rng.integers(1, 400)), int(rng.integers(1, 9))))
        b = np.zeros(tf.delay + len(tf.num))
        b[tf.delay:] = tf.num
        want = scipy_lfilter(b, tf.den, x, axis=0)
        for got in (lfilter(tf.delayed_num, tf.den, x, axis=0), _filter_path(tf, x)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_impulse_response_is_one_filter_of_the_delayed_numerator():
    # q^-d b placed in the input, then 1/den: the bits of scipy's lfilter,
    # a unit denominator included
    rng = np.random.default_rng(6)
    for k in range(60):
        den = (1.0,) if k % 4 == 0 else tuple(_polynomial(rng, int(rng.integers(1, 6)), k % 3 > 0))
        tf = DiscreteTransferFunction(num=tuple(rng.normal(size=int(rng.integers(1, 5)))),
                                      den=den, delay=int(rng.integers(0, 8)))
        for n in (0, tf.delay, int(rng.integers(0, 60))):
            x = np.zeros(n + 1)
            b = tf.delayed_num[: n + 1]
            x[: b.size] = b
            got = tf.impulse_response(n)
            assert got.tobytes() == scipy_lfilter([1.0], tf.den, x).tobytes()
            if tf.den == (1.0,):
                assert got.tobytes() == x.tobytes()


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("order", range(2, 31))
def test_zero_padding_keeps_the_prefix(order, stable):
    # signals of different lengths share one call zero-padded to the longest:
    # the filter is causal, so each keeps the bits of its own shorter call
    rng = np.random.default_rng(4000 * order + stable)
    for _ in range(5):
        a_cl = _polynomial(rng, order, stable)
        for x in _inputs(rng, int(rng.integers(1, 400))):
            x = np.atleast_2d(x)
            padded = np.pad(x, ((0, 0), (0, int(rng.integers(1, 400)))))
            n = x.shape[1]
            assert (lfilter(np.ones(1), a_cl, padded)[:, :n].tobytes()
                    == lfilter(np.ones(1), a_cl, x).tobytes())
