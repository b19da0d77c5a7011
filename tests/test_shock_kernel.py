"""The closed-loop shock kernel against the dense block oracles.

Shock responses come from one ``lfilter`` over 1/A_cl; the oracles in
``oracles.py`` solve the same loops as dense Toeplitz systems. Random
instances are kept when the closed loop, assembled independently in
``oracles.pole_radius``, has every pole inside radius 0.995.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pidmov import (
    CASE_STUDY_REFERENCE,
    REFERENCE,
    CascadeParams,
    CascadeProblem,
    DiscreteTransferFunction,
    ReducedPidParams,
    SingleLoopProblem,
    cascade_impulse,
    cascade_objective,
    closed_loop_impulse,
    closed_loop_radius,
    cpa_objective,
    load_benchmark,
    load_case_study,
)
from pidmov.lti import lfilter
from pidmov.singleloop import _LoopKernel, guarded_variance
from pidmov.tlbo import DIVERGENCE_SENTINEL, divergence_penalty

from oracles import dense_cascade, dense_closed_loop_single, pole_radius

RTOL = 1e-12    # variance, relative
ATOL = 1e-12    # phi, absolute

pole = st.floats(-0.9, 0.95)
coef = st.floats(0.1, 1.0)


@st.composite
def transfer_function(draw, delay):
    poles = draw(st.lists(pole, min_size=1, max_size=2))
    num = draw(st.lists(coef, min_size=1, max_size=2))
    return DiscreteTransferFunction(num=tuple(num), den=tuple(np.poly(poles)), delay=delay)


@st.composite
def single_instance(draw):
    d = draw(st.integers(1, 4))
    disturbance = draw(transfer_function(0))
    if draw(st.booleans()):      # an integrating disturbance
        disturbance = DiscreteTransferFunction(
            num=disturbance.num, den=tuple(np.convolve(disturbance.den, [1.0, -1.0])))
    problem = SingleLoopProblem(
        process=draw(transfer_function(d)),
        disturbance=disturbance,
        noise_variance=draw(st.floats(0.1, 2.0)),
        truncation=draw(st.integers(d, 40)),
    )
    kp, ki, kd = (draw(st.floats(0.0, g)) for g in (1.0, 0.3, 0.3))
    k = np.array([kp + ki + kd, -(kp + 2 * kd), kd])
    assume(pole_radius(problem, k) < 0.995)
    return problem, k


@st.composite
def cascade_instance(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    outer = draw(transfer_function(d1))
    inner = draw(transfer_function(d2))
    # the disturbance pole equal to the process pole is the case where a
    # rational num / (den A_cl) loses accuracy
    same = draw(st.booleans())
    problem = CascadeProblem(
        outer=outer,
        inner=inner,
        outer_disturbance=DiscreteTransferFunction(num=(1.0,), den=outer.den) if same
        else draw(transfer_function(0)),
        inner_disturbance=draw(transfer_function(0)),
        noise_variances=(draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))),
        truncation=draw(st.integers(d1 + d2, 40)),
    )
    # PI primary in (kp + ki, -kp) form, P secondary
    kp, ki, k6 = (draw(st.floats(0.0, g)) for g in (1.0, 0.5, 1.5))
    k = np.array([kp + ki, -kp, k6])
    assume(pole_radius(problem, k) < 0.995)
    return problem, k


def assert_variance(got, want):
    assert abs(got - want) <= RTOL * want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(single_instance())
def test_single_loop_matches_dense_oracle(instance):
    problem, k = instance
    phi = closed_loop_impulse(problem, ReducedPidParams.from_array(k))
    want = dense_closed_loop_single(problem, k)
    assert np.max(np.abs(phi - want)) <= ATOL
    assert_variance(cpa_objective(problem)(k), float(want @ want) * problem.noise_variance)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cascade_instance())
def test_cascade_matches_dense_oracle(instance):
    problem, k = instance
    phi1, phi2 = cascade_impulse(problem, CascadeParams.from_array(k))
    want1, want2 = dense_cascade(problem, k)
    assert np.max(np.abs(phi1 - want1)) <= ATOL
    assert np.max(np.abs(phi2 - want2)) <= ATOL
    s1, s2 = np.sqrt(problem.noise_variances)
    total = s1 * want1 + s2 * want2
    assert_variance(cascade_objective(problem)(k), float(total @ total))


def test_immersion_cascade_cancellation_case():
    # the outer disturbance shares the outer process pole
    problem = load_case_study("immersion_cascade").loop
    assert problem.outer_disturbance.den == problem.outer.den
    s1, s2 = np.sqrt(problem.noise_variances)
    for _, k, _ in CASE_STUDY_REFERENCE["immersion_cascade"]:
        phi1, phi2 = cascade_impulse(problem, CascadeParams(*k))
        want1, want2 = dense_cascade(problem, np.array(k))
        assert np.max(np.abs(phi1 - want1)) <= ATOL
        assert np.max(np.abs(phi2 - want2)) <= ATOL
        total = s1 * want1 + s2 * want2
        assert_variance(cascade_objective(problem)(np.array(k)), float(total @ total))


def _sentinel(phi: np.ndarray) -> float:
    """The divergence penalty: first non-finite sample j of n ranks by j."""
    j = int(np.argmax(~np.isfinite(phi)))
    return DIVERGENCE_SENTINEL * (1.0 + (phi.size - j) / phi.size)


def test_overflow_returns_ordered_sentinel_single_loop():
    problem = load_benchmark(1)
    objective = cpa_objective(problem)
    values = []
    for k1 in (1e100, 1e200):       # the larger gain overflows sooner
        k = np.array([k1, 0.0, 0.0])
        phi = closed_loop_impulse(problem, ReducedPidParams.from_array(k))
        assert not np.isfinite(phi).all()
        values.append(objective(k))
        assert values[-1] == _sentinel(phi)
    assert DIVERGENCE_SENTINEL < values[0] < values[1]


def test_overflow_returns_ordered_sentinel_cascade():
    problem = load_case_study("immersion_cascade").loop
    objective = cascade_objective(problem)
    values = []
    for k4 in (1e100, 1e200):
        k = np.array([k4, 0.0, 1.0])
        phi1, phi2 = cascade_impulse(problem, CascadeParams.from_array(k))
        s1, s2 = np.sqrt(problem.noise_variances)
        with np.errstate(invalid="ignore"):
            total = s1 * phi1 + s2 * phi2
        assert not np.isfinite(total).all()
        values.append(objective(k))
        assert values[-1] == _sentinel(total)
    assert DIVERGENCE_SENTINEL < values[0] < values[1]


def test_radius_at_published_gains():
    for pid, ref in REFERENCE.items():
        problem = load_benchmark(pid)
        r = closed_loop_radius(problem, ref.params)
        assert r == pytest.approx(pole_radius(problem, np.array(ref.params)), rel=1e-9)
        if pid == 3:
            # Published to four decimals, problem 3's gains have
            # ki = k1 + k2 + k3 = 0, so A_cl carries the root z = 1 of its
            # (1 - q^-1) factor; the shock response cancels it.
            assert sum(ref.params) == pytest.approx(0.0, abs=1e-15)
            assert r == pytest.approx(1.0, abs=1e-12)
        else:
            assert r < 1.0
    for name, rows in CASE_STUDY_REFERENCE.items():
        loop = load_case_study(name).loop
        for _, k, _ in rows:
            assert closed_loop_radius(loop, k) < 1.0


def test_radius_flags_unstable_gains_the_variance_misses():
    problem = load_benchmark(1)
    k = 3.0 * np.array(REFERENCE[1].params)
    r = closed_loop_radius(problem, k)
    assert r == pytest.approx(pole_radius(problem, k), rel=1e-9)
    assert r > 1.1
    # the truncated objective stays finite for this unstable loop
    assert cpa_objective(problem)(k) < DIVERGENCE_SENTINEL


KERNEL_LOOPS = pytest.mark.parametrize("loop", [
    load_benchmark(1),
    load_benchmark(3),      # the longest filter, p = 224
    load_benchmark(8),
    load_case_study("air_single").loop,
    load_case_study("immersion_cascade").loop,
], ids=["bench1", "bench3", "bench8", "air_single", "immersion_cascade"])


@KERNEL_LOOPS
def test_variance_batch_equals_scalar_bit_for_bit(loop):
    kernel = _LoopKernel(loop)
    ks = np.random.default_rng(12).uniform(-50.0, 50.0, size=(200, 3))
    # the gains of the two overflow tests above, which diverge
    grow = (lambda g: [g, 0.0, 0.0]) if kernel.single else (lambda g: [g, 0.0, 1.0])
    ks = np.vstack([ks, [grow(1e100), grow(1e200)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [kernel.variance(k) for k in ks]
        got = kernel.variance_batch(ks)
    assert got.tolist() == want
    assert min(want[-2:]) > DIVERGENCE_SENTINEL


@KERNEL_LOOPS
def test_variance_batch_of_no_rows(loop):
    kernel = _LoopKernel(loop)
    got = kernel.variance_batch(np.empty((0, 3)))
    assert got.shape == (0,) and got.dtype == float
    assert kernel.sum_of_squares(np.empty((0, loop.truncation))).shape == (0,)


# Gain rows the optimizer never proposes but a caller may: inf times a zero
# coefficient of A_cl or of the forcing is NaN, an invalid operation
NON_FINITE_ROWS = [[1.0, np.inf, 1.0], [np.inf, 1.0, 1.0], [1.0, -1.0, np.inf],
                   [-np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0], [1.0, 1.0, np.nan],
                   [np.inf, np.nan, -np.inf]]


@KERNEL_LOOPS
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_gain_rows_are_penalized_without_a_warning(loop):
    objective = (cpa_objective if isinstance(loop, SingleLoopProblem) else cascade_objective)(loop)
    rows = np.array(NON_FINITE_ROWS)
    scalar = [objective(k) for k in rows]
    batch = objective.batch(rows)
    assert batch.tolist() == scalar
    assert all(v >= DIVERGENCE_SENTINEL for v in scalar)
    # in a batch with finite rows, which keep their own values
    mixed = np.vstack([rows, np.ones(3), rows[::-1]])
    assert objective.batch(mixed).tolist() == [*scalar, objective(np.ones(3)), *scalar[::-1]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", NON_FINITE_ROWS)
def test_single_gain_set_paths_take_non_finite_gains_without_a_warning(row):
    # a non-finite gain makes A_cl non-finite: the shock response is not
    # finite, and its radius is inf rather than an error from np.roots
    air = load_case_study("air_single").loop
    immersion = load_case_study("immersion_cascade").loop
    assert not np.isfinite(closed_loop_impulse(air, ReducedPidParams(*row))).all()
    assert not np.isfinite(cascade_impulse(immersion, CascadeParams(*row))).all()
    assert closed_loop_radius(air, row) == closed_loop_radius(immersion, row) == math.inf


@KERNEL_LOOPS
@pytest.mark.parametrize("noise", [None, 1e300], ids=["", "sum_overflows"])
def test_stacked_sum_of_squares_equals_guarded_variance_per_row(loop, noise):
    # variance_batch takes every row's sum of squares in one stacked matmul;
    # the reference is guarded_variance (np.vdot) of each filtered row. With
    # a noise variance of 1e300 the sum overflows where every sample is finite
    if noise is not None:
        loop = (replace(loop, noise_variance=noise) if isinstance(loop, SingleLoopProblem)
                else replace(loop, noise_variances=(noise, noise)))
    kernel = _LoopKernel(loop)
    grow = (lambda g: [g, 0.0, 0.0]) if kernel.single else (lambda g: [g, 0.0, 1.0])
    rows = np.random.default_rng(16).uniform(-50.0, 50.0, size=(200, 3))
    diverging = [grow(1e100), grow(1e200), grow(1e300), grow(np.nan), [0.0, np.nan, 1.0]]
    ks = np.vstack([rows, diverging])
    kappa, _, a_cl = kernel.closed_loop_batch(ks)
    f0, f1, scale = kernel._unit
    phi = [lfilter(np.ones(1), a, f0 + c * f1) for a, c in zip(a_cl, kappa)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel.variance_batch(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([guarded_variance(row, scale) for row in phi])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # every diverging row is penalized at its first non-finite sample, so a
    # loop that overflows sooner ranks worse; a NaN row at its first sample
    bad = got[-len(diverging):]
    first = [int(np.argmax(~np.isfinite(row))) for row in phi[-len(diverging):]]
    assert bad.tolist() == [divergence_penalty(j, kernel.loop.truncation) for j in first]
    assert DIVERGENCE_SENTINEL < bad[0] < bad[1] <= bad[2]
    if noise is not None:
        assert (got[:-len(diverging)] == DIVERGENCE_SENTINEL).any()
