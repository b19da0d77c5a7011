import ast
from pathlib import Path

import numpy as np
import pytest

import pidmov
from pidmov import DiscreteTransferFunction

from oracles import impulse_by_division


def test_normalization_scales_all_coefficients():
    tf = DiscreteTransferFunction(num=(2.0, 4.0), den=(2.0, -1.6), delay=1)
    assert tf.den == (1.0, -0.8)
    assert tf.num == (1.0, 2.0)


def test_zero_leading_denominator_rejected():
    with pytest.raises(ValueError, match="leading denominator"):
        DiscreteTransferFunction(num=(1.0,), den=(0.0, 1.0))


@pytest.mark.parametrize("num, den", [((np.nan,), (1.0,)), ((1.0,), (1.0, np.inf)),
                                      ((1.0,), (np.inf, 1.0))])
def test_non_finite_coefficients_rejected(num, den):
    with pytest.raises(ValueError, match="coefficient must be a finite number"):
        DiscreteTransferFunction(num=num, den=den)


def test_negative_delay_rejected():
    with pytest.raises(ValueError, match="delay"):
        DiscreteTransferFunction(num=(1.0,), den=(1.0,), delay=-1)
    with pytest.raises(ValueError, match="delay must be a whole number"):
        DiscreteTransferFunction(num=(1.0,), den=(1.0,), delay=2.5)
    assert DiscreteTransferFunction(num=(1.0,), den=(1.0,), delay=2.0).delay == 2


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        DiscreteTransferFunction(num=(), den=(1.0,))


def test_integrator_impulse_is_all_ones():
    tf = DiscreteTransferFunction(num=(1.0,), den=(1.0, -1.0))
    assert tf.impulse_response(3) == pytest.approx([1, 1, 1, 1])


def test_negative_length_rejected():
    tf = DiscreteTransferFunction(num=(1.0,), den=(1.0,))
    with pytest.raises(ValueError, match="length"):
        tf.impulse_response(-1)


def test_first_order_with_dead_time_closed_form():
    # 0.2 q^-5 / (1 - 0.8 q^-1): g(k) = 0.2 * 0.8^(k-5) for k >= 5
    tf = DiscreteTransferFunction(num=(0.2,), den=(1.0, -0.8), delay=5)
    got = tf.impulse_response(7)
    expected = [0.0] * 5 + [0.2 * 0.8**j for j in range(3)]
    assert got == pytest.approx(expected, abs=1e-15)


def test_second_order_partial_fraction_closed_form():
    # 1/((1-q^-1)(1+0.4q^-1)) = (1/1.4)/(1-q^-1) + (0.4/1.4)/(1+0.4q^-1)
    tf = DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.6, -0.4))
    got = tf.impulse_response(4)
    expected = [(1 / 1.4) + (0.4 / 1.4) * (-0.4) ** k for k in range(5)]
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx([1, 0.6, 0.76, 0.696, 0.7216], rel=1e-12)


def test_impulse_matches_long_division_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        num = tuple(rng.uniform(-1, 1, rng.integers(1, 4)))
        den = (1.0, *rng.uniform(-0.45, 0.45, rng.integers(0, 4)))
        delay = int(rng.integers(0, 5))
        tf = DiscreteTransferFunction(num=num, den=den, delay=delay)
        got = tf.impulse_response(15)
        want = impulse_by_division(tf.num, tf.den, delay, 16)
        assert got == pytest.approx(want, abs=1e-12)


def test_leading_zeros_up_to_delay():
    rng = np.random.default_rng(8)
    for _ in range(10):
        delay = int(rng.integers(1, 6))
        tf = DiscreteTransferFunction(
            num=(rng.uniform(0.5, 2),), den=(1.0, rng.uniform(-0.9, 0.9)), delay=delay
        )
        g = tf.impulse_response(12)
        assert np.all(g[:delay] == 0.0)


def test_step_is_running_sum_of_impulse():
    tf = DiscreteTransferFunction(num=(1.0, 0.3), den=(1.0, -0.5, 0.2), delay=2)
    g = tf.impulse_response(10)
    s = tf.step_response(10)
    assert s.shape == (11,)
    assert s == pytest.approx(np.cumsum(g), rel=1e-14)


def test_step_of_integrator_counts_up():
    tf = DiscreteTransferFunction(num=(1.0,), den=(1.0, -1.0))
    assert tf.step_response(3) == pytest.approx([1, 2, 3, 4])


def test_delayed_numerator_is_the_dead_time_then_the_numerator():
    tf = DiscreteTransferFunction(num=(0.5, -0.25), den=(1.0, -0.8), delay=3)
    assert tf.delayed_num.tolist() == [0.0, 0.0, 0.0, 0.5, -0.25]
    assert DiscreteTransferFunction(num=(2.0,), den=(1.0,)).delayed_num.tolist() == [2.0]


def test_scipy_signal_is_imported_by_lti_alone():
    # every filter goes through lti.lfilter, so loading scipy's C filter
    # some other way is a change to lti.py alone
    found = []
    for path in sorted(Path(pidmov.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.signal"):
                found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names
                          if a.name.startswith("scipy.signal")]
    assert found == [("lti.py", "scipy.signal", "_sigtools")]
