import numpy as np
import pytest

from pidmov import (
    DiscreteTransferFunction,
    PidGains,
    ReducedPidParams,
    SingleLoopProblem,
    TlboConfig,
    assess_single,
    closed_loop_impulse,
    cpa_objective,
    load_benchmark,
    mv_benchmark,
)
from pidmov.singleloop import guarded_variance, seeded_runs
from pidmov.tlbo import DIVERGENCE_SENTINEL

from oracles import dense_closed_loop_single


def k0():
    return ReducedPidParams(0.0, 0.0, 0.0)


# ---- parameter bijection ----

def test_gain_round_trip_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        gains = PidGains(*rng.uniform(-10, 10, 3))
        back = gains.to_reduced().to_gains()
        assert back.kp == pytest.approx(gains.kp, abs=1e-12)
        assert back.ki == pytest.approx(gains.ki, abs=1e-12)
        assert back.kd == pytest.approx(gains.kd, abs=1e-12)


def test_reduced_round_trip_exact():
    k = ReducedPidParams(2.8408, -4.4059, 1.7486)
    back = k.to_gains().to_reduced()
    assert back.as_array() == pytest.approx(k.as_array(), abs=1e-12)


def test_objective_invariant_under_round_trip():
    problem = load_benchmark(1)
    f = cpa_objective(problem)
    k = ReducedPidParams(2.8408, -4.4059, 1.7486)
    k2 = k.to_gains().to_reduced()
    assert f(k.as_array()) == pytest.approx(f(k2.as_array()), rel=1e-12)


# ---- problem validation ----

def test_zero_delay_process_rejected():
    tf = DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.5))
    with pytest.raises(ValueError, match="dead time"):
        SingleLoopProblem(process=tf, disturbance=tf)


def test_truncation_shorter_than_delay_rejected():
    g = DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.5), delay=5)
    gd = DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.5))
    with pytest.raises(ValueError, match="truncation"):
        SingleLoopProblem(process=g, disturbance=gd, truncation=3)


def test_default_truncation_is_eight_dead_times():
    assert load_benchmark(1).truncation == 40
    assert load_benchmark(3).truncation == 224


# ---- closed-loop response ----

def test_open_loop_returns_disturbance_response():
    problem = load_benchmark(1)
    phi = closed_loop_impulse(problem, k0())
    nbar = problem.disturbance.impulse_response(problem.truncation - 1)
    assert phi == pytest.approx(nbar, abs=1e-14)


def test_integrating_disturbance_open_loop_is_all_ones():
    problem = load_benchmark(8)
    phi = closed_loop_impulse(problem, k0())
    assert len(phi) == 24
    assert phi == pytest.approx(np.ones(24))


def test_first_sample_is_feedback_invariant():
    problem = load_benchmark(1)
    gd0 = problem.disturbance.impulse_response(0)[0]
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = ReducedPidParams(*rng.uniform(-5, 5, 3))
        phi = closed_loop_impulse(problem, k)
        assert phi[0] == pytest.approx(gd0, abs=1e-14)


def test_matches_dense_matrix_oracle():
    # stable instances only; exploding responses amplify round-off in both
    # routes without testing their agreement
    rng = np.random.default_rng(4)
    for problem_id in (1, 8, 9):
        problem = load_benchmark(problem_id)
        small = SingleLoopProblem(
            process=problem.process,
            disturbance=problem.disturbance,
            truncation=min(problem.truncation, 32),
        )
        checked = 0
        while checked < 8:
            k = rng.uniform(-2, 2, 3)
            got = closed_loop_impulse(small, ReducedPidParams.from_array(k))
            if not np.all(np.isfinite(got)) or np.abs(got).max() > 1e3:
                continue
            want = dense_closed_loop_single(small, k)
            assert np.max(np.abs(got - want)) < 1e-10
            checked += 1


# ---- variance ----

def test_guarded_variance_basics():
    assert guarded_variance(np.ones(3), 1.0) == pytest.approx(3.0)
    assert guarded_variance(np.zeros(5), 2.0) == 0.0
    # finite samples whose sum of squares overflows take the plain sentinel
    assert guarded_variance(np.array([1e200, 1e200]), 1.0) == DIVERGENCE_SENTINEL
    b1 = load_benchmark(1)
    with pytest.raises(ValueError, match="variance"):
        SingleLoopProblem(process=b1.process, disturbance=b1.disturbance, noise_variance=-1.0)


def test_open_loop_variance_geometric_oracle():
    # stable first-order disturbance: variance of the truncated response is a
    # finite geometric sum 0.08919^2 * sum_{k<96} (0.8669^2)^k
    problem = load_benchmark(2)
    assert problem.truncation == 96
    phi = closed_loop_impulse(problem, k0())
    r = 0.8669**2
    expected = 0.08919**2 * (1 - r**96) / (1 - r)
    assert phi @ phi == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.0320135, abs=5e-7)


def test_objective_at_reference_parameters():
    f = cpa_objective(load_benchmark(1))
    assert f(np.array([2.8408, -4.4059, 1.7486])) == pytest.approx(3.0728, abs=2e-4)
    f8 = cpa_objective(load_benchmark(8))
    assert f8(np.zeros(3)) == pytest.approx(24.0)
    f4 = cpa_objective(load_benchmark(4))
    assert f4(np.array([0.1354, -0.2523, 0.1170])) == pytest.approx(3.4064, abs=2e-4)
    f10 = cpa_objective(load_benchmark(10))
    assert f10(np.array([6.1676, -8.5741, 3.0332])) == pytest.approx(0.0024450, abs=2e-6)


def test_objective_counts_evaluations():
    # the optimizer results are the one evaluation counter, and the report
    # sums them
    problem = load_benchmark(1)
    cfg = TlboConfig(dimensions=3, seed=5, max_iterations=30)
    f = cpa_objective(problem)
    calls = []

    def counted(k):
        calls.append(k)
        return f(k)

    results = seeded_runs(counted, cfg, 2)
    assert sum(r.evaluations for r in results) == len(calls)
    report = assess_single(problem, cfg, runs=2)
    assert report.evaluations == len(calls)
    assert report.evaluations == sum(r["evaluations"] for r in report.per_run)


def test_unstable_parameters_self_penalize_finitely():
    f = cpa_objective(load_benchmark(1))
    wild = f(np.array([50.0, 50.0, 50.0]))
    good = f(np.array([2.8408, -4.4059, 1.7486]))
    assert wild > 1e6 * good
    assert wild <= 2e290


def test_divergence_penalty_orders_by_onset():
    # long truncation overflows float64 for extreme gains; an earlier blowup
    # must rank strictly worse
    f = cpa_objective(load_benchmark(3))
    harsh = f(np.array([50.0, 50.0, 50.0]))
    milder = f(np.array([5.0, 5.0, 5.0]))
    assert milder < harsh


# ---- minimum-variance benchmark ----

def test_mv_benchmark_partial_fraction_oracle():
    # first five coefficients of 1/((1-q)(1+0.4q)) via partial fractions
    coeffs = [(1 / 1.4) + (0.4 / 1.4) * (-0.4) ** k for k in range(5)]
    expected = sum(c * c for c in coeffs)
    assert mv_benchmark(load_benchmark(1)) == pytest.approx(expected, rel=1e-12)
    assert round(mv_benchmark(load_benchmark(1)), 4) == 2.9427


def test_mv_benchmark_integrator_counts_ones():
    assert mv_benchmark(load_benchmark(8)) == pytest.approx(3.0)


def test_mv_benchmark_geometric_oracle():
    # stable first-order disturbance, d = 12 invariant terms
    r = 0.8669**2
    expected = 0.08919**2 * (1 - r**12) / (1 - r)
    assert mv_benchmark(load_benchmark(2)) == pytest.approx(expected, rel=1e-12)


def test_mv_lower_bounds_any_controller():
    problem = load_benchmark(1)
    mv = mv_benchmark(problem)
    f = cpa_objective(problem)
    rng = np.random.default_rng(5)
    for _ in range(40):
        assert f(rng.uniform(-10, 10, 3)) >= mv - 1e-12


def test_truncation_diagnostic_small_for_stabilizing_params():
    problem = load_benchmark(1)
    longer = SingleLoopProblem(
        process=problem.process,
        disturbance=problem.disturbance,
        truncation=2 * problem.truncation,
    )
    k = np.array([2.8408, -4.4059, 1.7486])
    a = cpa_objective(problem)(k)
    b = cpa_objective(longer)(k)
    assert abs(a - b) / a < 1e-3


# ---- assessment ----

def test_assess_single_reproduces_reference():
    report = assess_single(
        load_benchmark(1), TlboConfig(dimensions=3, seed=21), runs=5
    )
    assert report.mov == pytest.approx(3.0728, abs=2e-4)
    assert report.mov_std <= 1e-4 * report.mov
    assert report.mv == pytest.approx(2.9427, abs=1e-4)
    assert 0.0 < report.eta <= 1.0
    assert report.params_mean == pytest.approx([2.8408, -4.4059, 1.7486], rel=5e-3)
    assert len(report.per_run) == 5


def test_assess_single_deterministic():
    cfg = TlboConfig(dimensions=3, seed=33)
    a = assess_single(load_benchmark(8), cfg, runs=2)
    b = assess_single(load_benchmark(8), cfg, runs=2)
    assert a.mov == b.mov
    assert a.params_mean == pytest.approx(b.params_mean, abs=0)


def test_assess_report_serializes():
    report = assess_single(load_benchmark(8), TlboConfig(dimensions=3, seed=2), runs=2)
    d = report.to_dict()
    assert d["kind"] == "single"
    assert d["mov"]["mean"] == pytest.approx(report.mov)
    assert "optimizer" in d and d["optimizer"]["population"] == 20
    row = report.csv_row()
    assert "mov_mean" in row and "k1_mean" in row
