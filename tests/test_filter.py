"""``singleloop._filter`` calls scipy's private ``_sigtools._linear_filter``
without ``lfilter``'s Python wrapper. It must give the bits of the public
``lfilter([1.0], a_cl, x)``, and of ``lfilter([1.0], a_cl, x, zi=zi)`` from a
filter state, for every A_cl the kernel can build: two or more coefficients,
stable or not, and inputs that already hold inf or NaN. The kernel filters
all the signals of a candidate in one call, so each row of a 2-D input must
keep the bits of its own 1-D call, from its own state, and zero-padded to a
longer width."""

import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

from pidmov.singleloop import _filter


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
            want = lfilter([1.0], a_cl, x)
            got = _filter(a_cl, x)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("order", range(2, 31))
def test_filter_from_a_state_equals_lfilter_bit_for_bit(order, stable):
    # a gain switch resumes the step loop from the outputs before it: the
    # filter state that lfiltic builds from them, as tuning._stage does
    rng = np.random.default_rng(2000 * order + stable)
    for _ in range(5):
        a_cl = _polynomial(rng, order, stable)
        past = rng.normal(size=int(rng.integers(1, 2 * order)))
        zi = lfiltic([1.0], a_cl, past[::-1])
        for x in _inputs(rng, int(rng.integers(1, 400))):
            if x.ndim > 1:
                continue            # a resumed stage filters one row
            want = lfilter([1.0], a_cl, x, zi=zi)[0]
            got = _filter(a_cl, x, zi)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stable", [True, False], ids=["stable", "unstable"])
@pytest.mark.parametrize("order", range(2, 31))
def test_rows_from_their_own_states_equal_lfilter_per_row(order, stable):
    # a resumed cascade stage filters the tracking error and the inner
    # output in one call, each row from the state lfiltic builds from its past
    rng = np.random.default_rng(3000 * order + stable)
    for _ in range(5):
        a_cl = _polynomial(rng, order, stable)
        for x in _inputs(rng, int(rng.integers(1, 400))):
            x = np.atleast_2d(x)
            pasts = [rng.normal(size=int(rng.integers(1, 2 * order))) for _ in x]
            zi = np.array([lfiltic([1.0], a_cl, past[::-1]) for past in pasts])
            got = _filter(a_cl, x, zi)
            assert got.shape == x.shape and got.dtype == x.dtype
            for row, xr, z in zip(got, x, zi):
                assert row.tobytes() == lfilter([1.0], a_cl, xr, zi=z)[0].tobytes()


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
            assert _filter(a_cl, padded)[:, :n].tobytes() == _filter(a_cl, x).tobytes()
            zi = np.array([lfiltic([1.0], a_cl, rng.normal(size=order)) for _ in x])
            assert (_filter(a_cl, padded, zi)[:, :n].tobytes()
                    == _filter(a_cl, x, zi).tobytes())
