import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pidmov import (
    CASE_STUDY_REFERENCE,
    REFERENCE,
    CascadeParams,
    DiscreteTransferFunction,
    ReducedPidParams,
    SingleLoopProblem,
    TlboConfig,
    TuningProblem,
    cascade_objective,
    closed_loop_radius,
    cpa_objective,
    load_benchmark,
    load_case_study,
    simulate_multistage,
    simulate_step,
    tune,
    tuning_objective,
)
from pidmov import singleloop
from pidmov.singleloop import _LoopKernel
from pidmov.tlbo import DIVERGENCE_SENTINEL, divergence_penalty

from oracles import step_loop_single

AIR_RHO0 = (5.3333, -6.8756, 1.8693)
AIR_TABLE = [
    (0.0, 7.7624e-5),
    (1e5, 4.0747e-5),
    (2.5e5, 3.2726e-5),
    (10e5, 2.6432e-5),
]


def air() -> TuningProblem:
    return load_case_study("air_single")


def test_problem_validation():
    loop = air().loop
    with pytest.raises(ValueError, match="rho"):
        TuningProblem(loop=loop, weight=-1.0)
    with pytest.raises(ValueError, match="sample_time"):
        TuningProblem(loop=loop, sample_time=0.0)
    with pytest.raises(ValueError, match="setpoint"):
        TuningProblem(loop=loop, setpoint=0.0)
    # whole-number fields take integral floats and reject the rest
    with pytest.raises(ValueError, match="horizon must be a whole number"):
        TuningProblem(loop=loop, horizon=150.7)
    with pytest.raises(ValueError, match="truncation must be a whole number"):
        replace(loop, truncation=40.9)
    assert TuningProblem(loop=loop, horizon=150.0).horizon == 150
    assert type(replace(loop, truncation=40.0).truncation) is int
    with pytest.raises(ValueError, match="horizon must be >= 2"):
        TuningProblem(loop=loop, horizon=1)
    # float fields reject NaN and inf: a NaN weight found no stable candidate,
    # a NaN setpoint gave an infinite IAE, a NaN variance failed the assessment
    for name, bad in (("weight", math.nan), ("sample_time", math.inf),
                      ("setpoint", math.nan), ("setpoint", -math.inf)):
        with pytest.raises(ValueError, match="must be a finite number"):
            TuningProblem(loop=loop, **{name: bad})
    with pytest.raises(ValueError, match="noise variance must be a finite number"):
        replace(loop, noise_variance=math.nan)
    # the sweep is checked before any optimizer runs
    for sweep, match in (([math.nan], "finite"), ([], "at least one"), ([-1.0], ">= 0")):
        with pytest.raises(ValueError, match=match):
            tune(air(), rho_sweep=sweep)


# Gains whose step sets off the divergence rule, the open loop, and rows the
# optimizer never proposes but a caller may: non-finite and huge gains.
EXTREME_ROWS = [[50.0, -50.0, 50.0], [-50.0, 50.0, -50.0], [0.0, 0.0, 0.0],
                [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0], [-np.inf, 1.0, np.nan],
                [1e200, 0.0, 1.0], [1.0, 1.0, 1e300]]


@pytest.mark.parametrize("rho", [0.0, 1e5, 1e7])
@pytest.mark.parametrize("case", ["air_single", "bench1", "immersion_cascade"])
def test_batch_objective_equals_scalar_and_step_record(case, rho):
    if case == "bench1":
        problem, published = TuningProblem(loop=load_benchmark(1)), REFERENCE[1].params
    else:
        problem, published = load_case_study(case), CASE_STUDY_REFERENCE[case][1][1]
    problem = replace(problem, weight=rho)
    rng = np.random.default_rng(13)
    # near the published gains most rows stay bounded; farther out they diverge
    ks = np.vstack([np.asarray(published) * (1.0 + rng.normal(0.0, s, (30, 3)))
                    for s in (1e-3, 0.05, 0.5)] + [EXTREME_ROWS])
    fn, kernel = tuning_objective(problem), _LoopKernel(problem.loop)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn.batch(ks)
        assert got.tolist() == [fn(k) for k in ks]
        records = [simulate_step(problem, k) for k in ks]
        bounded = 0
        for k, rec, j in zip(ks, records, got):
            if not rec.stable:
                assert j == divergence_penalty(rec.diverged_at, problem.horizon)
                continue
            bounded += 1
            var = kernel.variance(k) if rho else 0.0
            assert j == (var if var >= DIVERGENCE_SENTINEL else rec.iae + rho * var)
    assert 45 <= bounded < len(ks)


@pytest.mark.parametrize("rho", [0.0, 1e5])
@pytest.mark.parametrize("case", ["air_single", "immersion_cascade"])
def test_batch_with_no_bounded_row_is_its_divergence_penalties(case, rho):
    # with no bounded candidate the variance term sums the squares of no rows
    problem = replace(load_case_study(case), weight=rho)
    ks = [k for k in EXTREME_ROWS if k != [0.0, 0.0, 0.0]]      # the open loop stays bounded
    fn = tuning_objective(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = [simulate_step(problem, k) for k in ks]
        got = fn.batch(ks)
        empty = fn.batch(np.empty((0, 3)))
    assert not any(rec.stable for rec in records)
    assert got.tolist() == [divergence_penalty(rec.diverged_at, problem.horizon)
                            for rec in records]
    assert empty.shape == (0,)


@pytest.mark.parametrize("case, truncation", [("air_single", 400), ("immersion_cascade", 450)])
def test_objective_when_the_truncation_outruns_the_horizon(case, truncation):
    # the shock response is filtered with the step signals, all zero-padded
    # to the longer of the horizon and the truncation
    problem = load_case_study(case)
    problem = replace(problem, loop=replace(problem.loop, truncation=truncation), weight=2.5e5)
    assert problem.loop.truncation > problem.horizon
    kernel = _LoopKernel(problem.loop)
    published = np.asarray(CASE_STUDY_REFERENCE[case][1][1])
    ks = published * (1.0 + np.random.default_rng(19).normal(0.0, 0.05, (30, 3)))
    got = tuning_objective(problem).batch(ks)
    bounded = 0
    for k, j in zip(ks, got):
        rec = simulate_step(problem, k)
        if rec.stable:
            bounded += 1
            assert j == rec.iae + problem.weight * kernel.variance(k)
    assert bounded >= 20


@pytest.mark.parametrize("case", ["air_single", "immersion_cascade"])
def test_one_filter_call_per_candidate(case, monkeypatch):
    shapes = []

    def counted(a_cl, x, zi=None):
        shapes.append(x.shape)
        return real(a_cl, x, zi)

    real = singleloop._filter
    monkeypatch.setattr(singleloop, "_filter", counted)
    problem = load_case_study(case)
    n, p, cascade = problem.horizon, problem.loop.truncation, case == "immersion_cascade"
    published = CASE_STUDY_REFERENCE[case][1][1]
    ks = np.vstack([np.asarray(published) * (1.0 + np.random.default_rng(7).normal(0.0, 0.3, (30, 3))),
                    EXTREME_ROWS])
    with np.errstate(invalid="ignore", over="ignore"):      # the non-finite rows
        _LoopKernel(problem.loop).variance_batch(ks)
    assert shapes == [(1, p)] * len(ks)
    for rho in (0.0, 1e5):
        shapes.clear()
        tuning_objective(replace(problem, weight=rho)).batch(ks)
        # the step error, the cascade's inner output, the shock response
        assert shapes == [(1 + cascade + (rho > 0), max(n, p) if rho else n)] * len(ks)
    # the record: one call per stage, each resumed one after the first
    shapes.clear()
    k1, k2 = (k for _, k, _ in CASE_STUDY_REFERENCE[case][:2])
    assert simulate_multistage(problem, [(k1, 0), (k2, 37), (k1, 150)]).stable
    assert shapes == [(1 + cascade, w) for w in (37, 150 - 37, n - 150)]


@pytest.mark.parametrize("case, gains, names", [
    ("air_single", ReducedPidParams, "k1, k2, k3"),
    ("immersion_cascade", CascadeParams, "k4, k5, k6"),
])
@pytest.mark.parametrize("k", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
def test_gain_sets_need_three_gains(case, gains, names, k):
    """A gain set of two or four gains is refused, not truncated or padded."""
    problem = replace(load_case_study(case), weight=1e5)
    objective = cpa_objective if gains is ReducedPidParams else cascade_objective
    match = f"three gains {names}"
    for call in (lambda: objective(problem.loop)(k),
                 lambda: objective(problem.loop).batch([k, k]),
                 lambda: tuning_objective(problem)(k),
                 lambda: tuning_objective(problem).batch([k]),
                 lambda: simulate_step(problem, k),
                 lambda: closed_loop_radius(problem.loop, k),
                 lambda: gains.from_array(k),
                 lambda: tune(problem, TlboConfig(dimensions=len(k), max_iterations=1), runs=1)):
        with pytest.raises(ValueError, match=match):
            call()
    assert gains.from_array(k[:2] + (3.0,)) == gains(1.0, 2.0, 3.0)


def test_open_loop_iae_is_horizon_times_amplitude():
    problem = air()
    rec = simulate_step(problem, (0.0, 0.0, 0.0))
    assert rec.output == pytest.approx(np.zeros(problem.horizon))
    assert rec.iae == pytest.approx(problem.horizon * problem.setpoint)


def test_step_simulation_matches_independent_loop_oracle():
    problem = air()
    for k in [AIR_RHO0, (7.9520, -10.2099, 2.8804), (23.1165, -35.5929, 14.4531),
              (2.9088, -2.8420, 0.9538)]:
        rec = simulate_step(problem, k)
        y, iae = step_loop_single(problem.loop, k, problem.horizon)
        assert rec.output == pytest.approx(y, abs=1e-9)
        assert rec.iae == pytest.approx(iae, abs=1e-9)


def test_reference_parameters_track_cleanly():
    rec = simulate_step(air(), AIR_RHO0)
    assert rec.stable
    assert abs(rec.error[-1]) < 1e-3
    assert rec.overshoot_pct < 1.0
    assert rec.settling_time_s < air().horizon * air().sample_time


def test_record_error_identity_and_time_grid():
    problem = air()
    rec = simulate_step(problem, AIR_RHO0)
    assert rec.error == pytest.approx(rec.setpoint - rec.output)
    assert rec.time[1] - rec.time[0] == pytest.approx(problem.sample_time)
    assert rec.time[0] == 0.0


def test_divergent_parameters_flagged():
    rec = simulate_step(air(), (50.0, 50.0, 50.0))
    assert not rec.stable
    assert rec.iae == math.inf
    assert rec.diverged_at is not None


def test_amplitude_scales_linearly():
    problem = air()
    r1 = simulate_step(problem, AIR_RHO0)
    r2 = simulate_step(TuningProblem(loop=problem.loop, horizon=200, sample_time=10.0,
                                     setpoint=2.5), AIR_RHO0)
    assert r2.output == pytest.approx(2.5 * r1.output, rel=1e-12)
    assert r2.iae == pytest.approx(2.5 * r1.iae, rel=1e-12)


def test_cascade_step_tracks_setpoint():
    rec = simulate_step(load_case_study("immersion_cascade"), (2.7638, -2.6554, -0.8436))
    assert rec.stable
    assert abs(rec.error[-1]) < 1e-3


def test_objective_rho_zero_is_pure_iae():
    problem = air()
    f = tuning_objective(problem)
    rec = simulate_step(problem, AIR_RHO0)
    assert f(np.array(AIR_RHO0)) == pytest.approx(rec.iae, rel=1e-12)


def test_objective_adds_weighted_variance():
    import dataclasses

    problem = dataclasses.replace(air(), weight=1e5)
    f = tuning_objective(problem)
    rec = simulate_step(problem, AIR_RHO0)
    var = cpa_objective(problem.loop)(np.array(AIR_RHO0))
    assert f(np.array(AIR_RHO0)) == pytest.approx(rec.iae + 1e5 * var, rel=1e-12)


def test_objective_sentinel_orders_divergence_onset():
    problem = air()
    f = tuning_objective(problem)
    harsh = f(np.array([50.0, 50.0, 50.0]))
    milder = f(np.array([14.0, -10.0, 0.0]))
    assert harsh >= DIVERGENCE_SENTINEL
    if milder >= DIVERGENCE_SENTINEL:
        assert milder < harsh


def test_table_values_reproduced_at_reference_params():
    # analytic variance at the published tuned parameters, first three rows
    f = cpa_objective(air().loop)
    assert f(np.array(AIR_RHO0)) == pytest.approx(7.7624e-5, rel=0.03)
    assert f(np.array([7.9520, -10.2099, 2.8804])) == pytest.approx(4.0747e-5, rel=0.02)
    assert f(np.array([9.5647, -12.4166, 3.6362])) == pytest.approx(3.2726e-5, rel=0.01)


def test_tune_single_rho_returns_row():
    report = tune(air(), TlboConfig(dimensions=3, seed=5), runs=1)
    assert report.kind == "single"
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.rho == 0.0
    assert row.sigma2 > 0
    assert row.iae < air().horizon  # must beat the open loop
    d = report.to_dict()
    assert d["rows"][0]["iae"] == pytest.approx(row.iae)


def test_multistage_single_stage_equals_plain_simulation():
    problem = air()
    plain = simulate_step(problem, AIR_RHO0)
    staged = simulate_multistage(problem, [(AIR_RHO0, 0)])
    assert np.array_equal(plain.output, staged.output)
    assert plain.iae == staged.iae


def test_multistage_identical_stages_bit_for_bit():
    problem = air()
    plain = simulate_step(problem, AIR_RHO0)
    staged = simulate_multistage(problem, [(AIR_RHO0, 0), (AIR_RHO0, 80), (AIR_RHO0, 140)])
    assert np.array_equal(plain.output, staged.output)
    assert plain.iae == staged.iae
    assert len(staged.stage_criteria) == 3


def test_multistage_switch_at_zero_degenerate():
    # a second stage starting at 0 is rejected (switches must increase),
    # but a single stage whose params are the second stage is the documented
    # equivalent
    problem = air()
    with pytest.raises(ValueError, match="strictly increasing"):
        simulate_multistage(problem, [(AIR_RHO0, 0), ((1.0, 0.0, 0.0), 0)])
    only_second = simulate_multistage(problem, [((7.9520, -10.2099, 2.8804), 0)])
    plain = simulate_step(problem, (7.9520, -10.2099, 2.8804))
    assert np.array_equal(only_second.output, plain.output)


def test_multistage_requires_stage_at_zero():
    with pytest.raises(ValueError, match="sample 0"):
        simulate_multistage(air(), [(AIR_RHO0, 5)])
    with pytest.raises(ValueError, match="at least one stage"):
        simulate_multistage(air(), [])


def test_multistage_switches_are_whole_numbers():
    # a fractional switch was truncated, and True read as sample 1
    for switch in (100.7, True):
        with pytest.raises(ValueError, match="switch must be a whole number"):
            simulate_multistage(air(), [(AIR_RHO0, 0), (AIR_RHO0, switch)])
    exact = simulate_multistage(air(), [(AIR_RHO0, 0), ((7.9520, -10.2099, 2.8804), 100)])
    assert exact.output.tobytes() == simulate_multistage(
        air(), [(AIR_RHO0, 0.0), ((7.9520, -10.2099, 2.8804), 100.0)]).output.tobytes()


def test_multistage_switch_changes_tail_only():
    problem = air()
    k2 = (23.1165, -35.5929, 14.4531)
    staged = simulate_multistage(problem, [(AIR_RHO0, 0), (k2, 100)])
    plain = simulate_step(problem, AIR_RHO0)
    assert np.array_equal(staged.output[:100], plain.output[:100])
    assert not np.array_equal(staged.output[100:], plain.output[100:])
    # transient criteria belong to stage one, tail keeps tracking
    assert staged.stable
    assert abs(staged.error[-1]) < 1e-3


def test_multistage_keeps_stage_one_overshoot():
    # switching to the variance-oriented set after the transient has settled
    # leaves the tracking-stage overshoot untouched up to the residual error
    # (~1e-10) the new gains momentarily react to
    problem = air()
    k2 = (23.1165, -35.5929, 14.4531)
    staged = simulate_multistage(problem, [(AIR_RHO0, 0), (k2, 120)])
    plain = simulate_step(problem, AIR_RHO0)
    assert staged.overshoot_pct == pytest.approx(plain.overshoot_pct, abs=1e-3)


def test_tune_warns_per_row_when_loop_cannot_settle():
    # the tuned row's own radius says its slowest mode needs more than 20
    # samples to enter the 2% band; that per-row warning is the only one
    problem = TuningProblem(loop=air().loop, horizon=20, sample_time=10.0)
    with pytest.warns(UserWarning, match=r"rho=0: .* samples to settle within 2%") as rec:
        report = tune(problem, TlboConfig(dimensions=3, seed=5), runs=1)
    radius = report.rows[0].closed_loop_radius
    assert 0 < radius < 1
    assert math.log(0.02) / math.log(radius) > 20
    assert all(str(w.message).startswith("rho=0: ") for w in rec)
    assert any(f"radius {radius:.5f}" in str(w.message) for w in rec)


def test_tune_row_warning_silent_when_horizon_suffices():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = tune(air(), TlboConfig(dimensions=3, seed=5), runs=1)
    assert math.log(0.02) / math.log(report.rows[0].closed_loop_radius) <= air().horizon
