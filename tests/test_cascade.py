import numpy as np
import pytest

from pidmov import (
    CascadeParams,
    CascadeProblem,
    DiscreteTransferFunction,
    TlboConfig,
    assess_cascade,
    cascade_impulse,
    cascade_objective,
    load_case_study,
)

from oracles import dense_cascade, dense_conv, dense_solve


def immersion() -> CascadeProblem:
    return load_case_study("immersion_cascade").loop


def small_cascade(p=24) -> CascadeProblem:
    return CascadeProblem(
        outer=DiscreteTransferFunction(num=(0.5,), den=(1.0, -0.7), delay=2),
        inner=DiscreteTransferFunction(num=(0.8,), den=(1.0, -0.4), delay=1),
        outer_disturbance=DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.7)),
        inner_disturbance=DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.4)),
        noise_variances=(1.0, 1.0),
        truncation=p,
    )


def test_problem_validation():
    tf = DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.5))
    tfd = DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.5), delay=1)
    with pytest.raises(ValueError, match="dead time"):
        CascadeProblem(outer=tf, inner=tfd, outer_disturbance=tf, inner_disturbance=tf)
    with pytest.raises(ValueError, match="variances"):
        CascadeProblem(
            outer=tfd, inner=tfd, outer_disturbance=tf, inner_disturbance=tf,
            noise_variances=(-1.0, 1.0),
        )
    with pytest.raises(ValueError, match="truncation must be a whole number"):
        CascadeProblem(outer=tfd, inner=tfd, outer_disturbance=tf, inner_disturbance=tf,
                       truncation=16.5)
    assert CascadeProblem(outer=tfd, inner=tfd, outer_disturbance=tf, inner_disturbance=tf,
                          truncation=16.0).truncation == 16
    with pytest.raises(ValueError, match="shorter than the dead time 2"):
        CascadeProblem(outer=tfd, inner=tfd, outer_disturbance=tf, inner_disturbance=tf,
                       truncation=1)
    for bad in ((np.nan, 1.0), (1.0, np.inf)):
        with pytest.raises(ValueError, match="noise variance must be a finite number"):
            CascadeProblem(outer=tfd, inner=tfd, outer_disturbance=tf, inner_disturbance=tf,
                           noise_variances=bad)


def test_default_truncation_eight_total_dead_times():
    assert immersion().truncation == 80
    assert small_cascade(None or 24).truncation == 24


def test_both_loops_open_reduces_to_disturbance_paths():
    problem = small_cascade()
    phi1, phi2 = cascade_impulse(problem, CascadeParams(0.0, 0.0, 0.0))
    p = problem.truncation
    n1 = problem.outer_disturbance.impulse_response(p - 1)
    g1 = problem.outer.impulse_response(p - 1)
    n2 = problem.inner_disturbance.impulse_response(p - 1)
    assert phi1 == pytest.approx(n1, abs=1e-14)
    assert phi2 == pytest.approx(dense_conv(g1, n2), abs=1e-14)


def test_inner_loop_only_leaves_outer_path_untouched():
    problem = small_cascade()
    k = CascadeParams(0.0, 0.0, 0.6)
    phi1, phi2 = cascade_impulse(problem, k)
    p = problem.truncation
    n1 = problem.outer_disturbance.impulse_response(p - 1)
    assert phi1 == pytest.approx(n1, abs=1e-14)
    # phi2: inner disturbance filtered by the closed inner loop, then the
    # outer process
    g1 = problem.outer.impulse_response(p - 1)
    g2 = problem.inner.impulse_response(p - 1)
    n2 = problem.inner_disturbance.impulse_response(p - 1)
    a_series = np.zeros(p)
    a_series[0] = 1.0
    a_series += 0.6 * g2
    inner_closed = dense_solve(a_series, n2)
    assert phi2 == pytest.approx(dense_conv(g1, inner_closed), rel=1e-12)


def test_outer_first_sample_feedback_invariant():
    problem = small_cascade()
    gd0 = problem.outer_disturbance.impulse_response(0)[0]
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = CascadeParams(*rng.uniform(-2, 2, 3))
        phi1, _ = cascade_impulse(problem, k)
        assert phi1[0] == pytest.approx(gd0, abs=1e-14)


def test_matches_dense_block_oracle():
    # stable instances only: an exploding response amplifies round-off in
    # both routes and says nothing about their agreement
    rng = np.random.default_rng(13)
    for problem in (small_cascade(), immersion()):
        small = CascadeProblem(
            outer=problem.outer,
            inner=problem.inner,
            outer_disturbance=problem.outer_disturbance,
            inner_disturbance=problem.inner_disturbance,
            noise_variances=problem.noise_variances,
            truncation=min(problem.truncation, 32),
        )
        checked = 0
        while checked < 8:
            k = rng.uniform(-1.5, 1.5, 3)
            got1, got2 = cascade_impulse(small, CascadeParams.from_array(k))
            peak = max(np.abs(got1).max(), np.abs(got2).max())
            if not np.isfinite(peak) or peak > 1e3:
                continue
            want1, want2 = dense_cascade(small, k)
            assert np.max(np.abs(got1 - want1)) < 1e-10
            assert np.max(np.abs(got2 - want2)) < 1e-10
            checked += 1


def test_variance_formula_hand_cases():
    # with both loops open phi1 = n1 and phi2 = q^-d1 b1 n2 / a1, so FIR models
    # give hand-known responses; the variance is a'a s1^2 + b'b s2^2 + 2 a'b s1 s2
    def variance(n1, variances):
        fir = DiscreteTransferFunction(num=(1.0,), den=(1.0,), delay=1)
        problem = CascadeProblem(
            outer=fir,
            inner=fir,
            outer_disturbance=DiscreteTransferFunction(num=n1, den=(1.0,)),
            inner_disturbance=DiscreteTransferFunction(num=(1.0,), den=(1.0,)),
            noise_variances=variances,
            truncation=4,
        )
        return cascade_objective(problem)(np.zeros(3))

    # phi2 = (0, 1, 0, 0)
    assert variance((0.0,), (4.0, 9.0)) == pytest.approx(9.0)
    assert variance((1.0,), (4.0, 9.0)) == pytest.approx(13.0)      # orthogonal
    assert variance((1.0, 1.0), (1.0, 4.0)) == pytest.approx(10.0)  # 2 + 4 + 2*1*1*2
    assert variance((1.0, -1.0), (1.0, 4.0)) == pytest.approx(2.0)  # 2 + 4 - 2*1*1*2


def test_objective_at_reference_parameters():
    f = cascade_objective(immersion())
    assert f(np.array([2.7638, -2.6554, -0.8436])) == pytest.approx(6.0551e-4, rel=0.01)
    assert f(np.array([3.0563, -2.9922, -0.9631])) == pytest.approx(5.3566e-4, rel=0.01)
    assert f(np.array([2.8715, -2.8482, -1.0054])) == pytest.approx(4.9421e-4, rel=0.01)


def test_objective_open_loop_value():
    problem = small_cascade()
    f = cascade_objective(problem)
    a, b = cascade_impulse(problem, CascadeParams(0.0, 0.0, 0.0))
    s1, s2 = np.sqrt(problem.noise_variances)
    expected = (a @ a) * s1**2 + (b @ b) * s2**2 + 2.0 * (a @ b) * s1 * s2
    assert f(np.zeros(3)) == pytest.approx(expected, rel=1e-12)


def test_assess_cascade_beats_open_loop_and_reference():
    # the variance landscape has a spurious near-open-loop basin that can
    # capture individual runs, so the achievable bound is the best run
    cfg = TlboConfig(dimensions=3, seed=17)
    report = assess_cascade(immersion(), cfg, runs=3)
    f = cascade_objective(immersion())
    assert report.mov_best <= f(np.zeros(3))
    assert report.mov_best <= 4.8117e-4 * 1.001


def test_assess_cascade_no_disturbance_gives_zero():
    base = small_cascade()
    problem = CascadeProblem(
        outer=base.outer,
        inner=base.inner,
        outer_disturbance=DiscreteTransferFunction(num=(0.0,), den=(1.0,)),
        inner_disturbance=base.inner_disturbance,
        noise_variances=(1.0, 0.0),
        truncation=base.truncation,
    )
    report = assess_cascade(problem, TlboConfig(dimensions=3, seed=1), runs=1)
    assert report.mov == pytest.approx(0.0, abs=1e-15)
