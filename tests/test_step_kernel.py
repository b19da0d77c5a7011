"""The closed-loop step kernel against the per-sample loop oracles.

Step responses come from one ``lfilter`` over the closed-loop polynomials;
the oracles in ``oracles.py`` re-simulate the same loops sample by sample.
Random gains are drawn in PID form around the published tuned sets and
classified by the root radius of a closed-loop polynomial built here,
independently of the package.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pidmov import (
    CASE_STUDY_REFERENCE,
    SingleLoopProblem,
    cascade_objective,
    cpa_objective,
    load_case_study,
    simulate_multistage,
    simulate_step,
    tuning_objective,
)
from pidmov.tlbo import DIVERGENCE_SENTINEL
from pidmov.tuning import DIVERGENCE_LIMIT_FACTOR

from oracles import pole_radius, step_loop_cascade, step_loop_multistage

CASES = ("air_single", "immersion_cascade")
PROBLEMS = {name: load_case_study(name) for name in CASES}
PUBLISHED = {name: [k for _, k, _ in CASE_STUDY_REFERENCE[name]] for name in CASES}


def oracle(problem, stages):
    """Outer output, IAE and first divergent sample of the loop oracle."""
    limit = DIVERGENCE_LIMIT_FACTOR * abs(problem.setpoint)
    with np.errstate(all="ignore"):
        if isinstance(problem.loop, SingleLoopProblem):
            y, iae = step_loop_multistage(problem.loop, stages, problem.horizon,
                                          problem.setpoint)
            lost = ~(np.abs(y) <= limit)
        else:
            y, iae, y2 = step_loop_cascade(problem.loop, stages, problem.horizon,
                                           problem.setpoint)
            lost = ~(np.abs(y) <= limit) | ~(np.abs(y2) <= 100.0 * limit)
    return y, iae, (int(np.argmax(lost)) if lost.any() else None)


def assert_close(rec, y, iae, rel=1e-12):
    assert np.max(np.abs(rec.output - y)) <= rel * np.max(np.abs(y))
    assert abs(rec.iae - iae) <= rel * iae


@st.composite
def gains(draw, name):
    """A published gain set with its PID (or PI and inner P) gains scaled."""
    k = draw(st.sampled_from(PUBLISHED[name]))
    f = [draw(st.floats(0.25, 4.0)) for _ in range(3)]
    if name == "air_single":
        kp, ki, kd = (-k[1] - 2 * k[2]) * f[0], (k[0] + k[1] + k[2]) * f[1], k[2] * f[2]
        return (kp + ki + kd, -(kp + 2 * kd), kd)
    kp, ki = -k[1] * f[0], (k[0] + k[1]) * f[1]
    return (kp + ki, -kp, k[2] * f[2])


def stable_gains(name):
    return gains(name).filter(lambda k: pole_radius(PROBLEMS[name].loop, k) < 0.999)


def unstable_gains(name):
    return gains(name).filter(lambda k: pole_radius(PROBLEMS[name].loop, k) > 1.0)


@pytest.mark.parametrize("name", CASES)
def test_published_gain_sets_match_oracle(name):
    problem = PROBLEMS[name]
    for k in PUBLISHED[name]:
        y, iae, lost = oracle(problem, [(k, 0)])
        rec = simulate_step(problem, k)
        assert rec.stable and lost is None
        assert_close(rec, y, iae)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("pattern", [
    [(1, 0), (0, 37), (1, 150)],
    [(0, 0), (1, 1)],
    [(0, 0), (2, 10), (1, 11), (3, 100)],
    [(3, 0), (0, 199)],
])
def test_multistage_switches_match_oracle(name, pattern):
    problem = PROBLEMS[name]
    # ks[0] is the rho = 0 set and ks[1] the most variance-weighted one, so the
    # first pattern is [(k2, 0), (k1, 37), (k2, 150)]
    ks = [PUBLISHED[name][i] for i in (0, 3, 1, 2)]
    stages = [(ks[i], s) for i, s in pattern]
    y, iae, lost = oracle(problem, stages)
    rec = simulate_multistage(problem, stages)
    assert rec.stable and lost is None
    assert_close(rec, y, iae)


def test_switches_lie_within_the_horizon():
    problem = PROBLEMS["air_single"]
    k1, k2 = PUBLISHED["air_single"][:2]
    last = simulate_multistage(problem, [(k1, 0), (k2, problem.horizon - 1)])
    plain = simulate_step(problem, k1).output
    # the dead time keeps the new gains from acting inside the horizon
    assert np.array_equal(last.output[:-1], plain[:-1])
    assert last.output[-1] == pytest.approx(plain[-1], rel=1e-12)
    for switch in (problem.horizon, problem.horizon + 1):
        with pytest.raises(ValueError, match="horizon"):
            simulate_multistage(problem, [(k1, 0), (k2, switch)])


@pytest.mark.parametrize("name, k", [
    ("air_single", (50.0, 50.0, 50.0)),
    ("air_single", (14.0, -10.0, 0.0)),
    ("immersion_cascade", (2.7638, -2.6554, -5.0)),
    ("immersion_cascade", (30.0, -2.6554, -0.8436)),
])
def test_divergent_gains_match_oracle(name, k):
    problem = PROBLEMS[name]
    _, _, lost = oracle(problem, [(k, 0)])
    rec = simulate_step(problem, k)
    assert lost is not None
    assert rec.diverged_at == lost
    assert not rec.stable and rec.iae == math.inf
    assert np.all(rec.output[lost + 1:] == 0.0)


@pytest.mark.parametrize("name", CASES)
def test_non_finite_gains_are_divergence(name):
    problem = PROBLEMS[name]
    for k in [(math.nan, 0.0, 0.0), (1.0, math.inf, -0.5)]:
        rec = simulate_step(problem, k)
        assert not rec.stable
        assert rec.diverged_at is not None
        assert rec.iae == math.inf
        assert tuning_objective(problem)(np.array(k)) >= DIVERGENCE_SENTINEL


@pytest.mark.parametrize("name", CASES)
def test_random_stable_gains_match_oracle(name):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(stable_gains(name))
    def check(k):
        problem = PROBLEMS[name]
        y, iae, lost = oracle(problem, [(k, 0)])
        assume(lost is None)
        rec = simulate_step(problem, k)
        assert rec.stable
        assert rec.output == pytest.approx(y, abs=1e-9)
        assert rec.iae == pytest.approx(iae, abs=1e-9)

    check()


@pytest.mark.parametrize("name", CASES)
def test_random_unstable_gains_diverge_with_oracle(name):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(unstable_gains(name))
    def check(k):
        problem = PROBLEMS[name]
        _, _, lost = oracle(problem, [(k, 0)])
        assert simulate_step(problem, k).diverged_at == lost

    check()


@pytest.mark.parametrize("name", CASES)
def test_objective_is_the_record_iae_plus_weighted_variance(name):
    problem = PROBLEMS[name]
    var = cpa_objective if name == "air_single" else cascade_objective
    var_fn = var(problem.loop)
    weighted = dataclasses.replace(problem, weight=2.5e5)
    f0, fw = tuning_objective(problem), tuning_objective(weighted)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stable_gains(name))
    def check(k):
        k = np.array(k)
        rec = simulate_step(problem, k)
        assume(rec.stable)
        assert f0(k) == rec.iae
        assert fw(k) == rec.iae + 2.5e5 * var_fn(k)

    check()
