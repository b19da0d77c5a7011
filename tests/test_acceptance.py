"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on success (pytest shows them automatically on failure).

Criterion 1 checks problem 2's MV against the row's own published model,
b / (1 - a q^-1) with b = 0.08919, a = 0.8669 and d = 12, whose
feedback-invariant variance b^2 (1 - a^(2d)) / (1 - a^2) = 0.030975 prints
as 0.0310. The published table prints 0.0306, which is the same closed form
at d - 1 = 11; the row's published optimum gains give its published MOV
(0.0310) on the d = 12 model, not on a d = 11 one. The misprint is pinned
as a checked erratum: the test recomputes the expected value from the
closed form, re-derives the stated cause and fails once the erratum goes
stale. The published 0.0306 itself stays stored as printed, so suite
reports (``pidmov bench``) still show ``mv_matches_reference: false`` for
that row and the benchmark's ``mv.2`` check still counts as failed.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from pidmov import (
    CascadeParams,
    CascadeProblem,
    DiscreteTransferFunction,
    McConfig,
    ReducedPidParams,
    SingleLoopProblem,
    TlboConfig,
    cascade_impulse,
    cascade_objective,
    closed_loop_impulse,
    cpa_objective,
    load_benchmark,
    load_case_study,
    mc_variance_cascade,
    mc_variance_single,
    minimize,
    mv_benchmark,
    run_benchmark_suite,
    simulate_multistage,
    simulate_step,
    tune,
)
from pidmov.benchmarks import CASE_STUDY_REFERENCE, REFERENCE, matches_reference

from oracles import dense_cascade, dense_closed_loop_single

SUITE_SEED = 2024
SUITE_RUNS = 5
SUITE_BUDGET_S = 60.0
MV_BUDGET_S = 1.0
MC_BUDGET_S = 30.0
MC_SAMPLES = 1_000_000
MC_RTOL = 0.02
SWEEP_MARGIN = 1.05


def _criterion(num: int, ok: bool, detail: str):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite():
    cfg = TlboConfig(dimensions=3, seed=SUITE_SEED)
    t0 = time.perf_counter()
    report = run_benchmark_suite(cfg, repetitions=SUITE_RUNS)
    elapsed = time.perf_counter() - t0
    return report, elapsed


@dataclass(frozen=True)
class MvErratum:
    """A published MV entry that the row's own first-order model cannot
    give. The model is ``gain / (1 - pole q^-1)`` on both the process and the
    disturbance path, with ``delay`` samples of process dead time."""

    published: float
    gain: float
    pole: float
    delay: int
    cause: str


def _first_order_mv(gain: float, pole: float, delay: int) -> float:
    """Closed-form sum of the first ``delay`` squared disturbance
    coefficients ``gain * pole^j`` (unit shock variance)."""
    return gain**2 * (1 - pole ** (2 * delay)) / (1 - pole**2)


MV_ERRATA = {
    2: MvErratum(
        published=0.0306, gain=0.08919, pole=0.8669, delay=12,
        cause="printed MV is the closed form at d - 1 = 11; the published "
              "gains give the published MOV on the d = 12 model",
    ),
}


def _erratum_problems(pid, erratum, mv) -> list[str]:
    """Re-derive the erratum's stated cause; any entry means it is stale."""
    ref = REFERENCE[pid]
    dec = ref.decimals
    out = []
    if ref.mv != erratum.published:
        out.append(f"id {pid}: erratum pins published {erratum.published} but "
                   f"the reference now holds {ref.mv:.{dec}f}")
    if round(mv, dec) == ref.mv:
        out.append(f"id {pid}: computed {mv:.{dec}f} now matches the published "
                   "value; the erratum is stale")
    shorter = _first_order_mv(erratum.gain, erratum.pole, erratum.delay - 1)
    if round(shorter, dec) != erratum.published:
        out.append(f"id {pid}: d - 1 closed form {shorter:.6f} does not print as "
                   f"the published {erratum.published}")
    mov = float(cpa_objective(load_benchmark(pid))(np.array(ref.params)))
    if round(mov, dec) != ref.mean:
        out.append(f"id {pid}: published gains give MOV {mov:.6f}, not the "
                   f"published {ref.mean:.{dec}f}")
    return out


def test_criterion_1_mv_column():
    t0 = time.perf_counter()
    bad = []
    applied = []
    for pid in range(1, 11):
        ref = REFERENCE[pid]
        dec = ref.decimals
        mv = mv_benchmark(load_benchmark(pid))
        erratum = MV_ERRATA.get(pid)
        expected = ref.mv
        if erratum is not None:
            expected = round(_first_order_mv(erratum.gain, erratum.pole, erratum.delay), dec)
            bad.extend(_erratum_problems(pid, erratum, mv))
            applied.append(f"id {pid}: published {erratum.published:.{dec}f}, "
                           f"expected {expected:.{dec}f} ({erratum.cause})")
        if round(mv, dec) != expected:
            bad.append(f"id {pid}: computed {mv:.6f} -> {mv:.{dec}f} vs "
                       f"expected {expected:.{dec}f}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < MV_BUDGET_S
    _criterion(
        1,
        ok,
        f"MV column to 4 printed decimals on all ten problems in {elapsed:.2f} s"
        + f"; errata: {'; '.join(applied)}"
        + ("" if not bad else f"; mismatches: {'; '.join(bad)}"),
    )


def test_criterion_2_mov_reproduction(suite):
    report, elapsed = suite
    problems = []
    for row in report.rows:
        rel = abs(row.mov_mean - row.mov_reference) / row.mov_reference
        if not matches_reference(row.mov_mean, row.mov_reference):
            problems.append(f"id {row.problem_id}: mean {row.mov_mean:.6g} vs "
                            f"published {row.mov_reference} (rel {rel:.2e})")
        if not row.std_ok:
            problems.append(f"id {row.problem_id}: relative std "
                            f"{row.mov_std / row.mov_mean:.2e} > 1e-4")
    for row in report.rows:
        if not row.beats_bkmov:
            problems.append(f"id {row.problem_id}: mean {row.mov_mean:.6g} worse "
                            f"than best known {row.bkmov} + 0.1%")
    if elapsed >= SUITE_BUDGET_S:
        problems.append(f"runtime {elapsed:.1f} s >= {SUITE_BUDGET_S} s")
    if not report.passed and not problems:
        problems.append("suite-level pass flag disagrees with row checks")
    _criterion(
        2,
        not problems,
        f"suite mean MOV within 0.1% (or printed precision) with R={SUITE_RUNS}, "
        f"std <= 1e-4 relative, best-known reached, {elapsed:.1f} s"
        + ("" if not problems else f"; {'; '.join(problems)}"),
    )


def test_criterion_3_parameter_proximity(suite):
    report, _ = suite
    lines = []
    for row in report.rows:
        deltas = [
            abs(m - r) / abs(r) if r != 0 else abs(m)
            for m, r in zip(row.params_mean, row.params_reference)
        ]
        lines.append(
            f"id {row.problem_id}: max component delta "
            f"{max(deltas):.2%} ({'within' if row.params_within_1pct else 'outside'} 1%)"
        )
    # informational: reported, never asserted
    _criterion(3, True, "parameter proximity (informational): " + "; ".join(lines))


def _random_stable_single(rng):
    while True:
        pole = rng.uniform(-0.9, 0.95)
        dpole = rng.uniform(-0.9, 0.95)
        delay = int(rng.integers(1, 5))
        problem = SingleLoopProblem(
            process=DiscreteTransferFunction(
                num=(rng.uniform(0.1, 1.5),), den=(1.0, -pole), delay=delay
            ),
            disturbance=DiscreteTransferFunction(
                num=(rng.uniform(0.2, 1.0),), den=(1.0, -dpole)
            ),
            truncation=int(rng.integers(delay, 33)),
        )
        k = rng.uniform(-2, 2, 3)
        phi = closed_loop_impulse(problem, ReducedPidParams.from_array(k))
        if np.all(np.isfinite(phi)) and np.abs(phi).max() < 1e3:
            return problem, k


def _random_stable_cascade(rng):
    while True:
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        problem = CascadeProblem(
            outer=DiscreteTransferFunction(
                num=(rng.uniform(0.2, 1.2),), den=(1.0, -rng.uniform(-0.8, 0.95)), delay=d1
            ),
            inner=DiscreteTransferFunction(
                num=(rng.uniform(-1.2, 1.2),), den=(1.0, -rng.uniform(-0.8, 0.9)), delay=d2
            ),
            outer_disturbance=DiscreteTransferFunction(
                num=(1.0,), den=(1.0, -rng.uniform(-0.8, 0.95))
            ),
            inner_disturbance=DiscreteTransferFunction(
                num=(1.0,), den=(1.0, -rng.uniform(-0.8, 0.9))
            ),
            truncation=int(rng.integers(d1 + d2, 33)),
        )
        k = rng.uniform(-1.5, 1.5, 3)
        phi1, phi2 = cascade_impulse(problem, CascadeParams.from_array(k))
        peak = max(np.abs(phi1).max(), np.abs(phi2).max())
        if np.isfinite(peak) and peak < 1e3:
            return problem, k


def test_criterion_4_dense_oracle_equivalence():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(25):
        problem, k = _random_stable_single(rng)
        got = closed_loop_impulse(problem, ReducedPidParams.from_array(k))
        want = dense_closed_loop_single(problem, k)
        worst = max(worst, float(np.max(np.abs(got - want))))
    for _ in range(25):
        problem, k = _random_stable_cascade(rng)
        got1, got2 = cascade_impulse(problem, CascadeParams.from_array(k))
        want1, want2 = dense_cascade(problem, k)
        worst = max(worst, float(np.max(np.abs(got1 - want1))))
        worst = max(worst, float(np.max(np.abs(got2 - want2))))
    _criterion(
        4,
        worst < 1e-10,
        f"50 random stable instances (p <= 32) vs dense matrix solves, "
        f"max abs deviation {worst:.2e}",
    )


def test_criterion_5_mc_validation():
    t0 = time.perf_counter()
    checks = []

    problem1 = load_benchmark(1)
    k1 = ReducedPidParams(2.8408, -4.4059, 1.7486)
    analytic1 = float(cpa_objective(problem1)(k1.as_array()))
    est1 = mc_variance_single(problem1, k1, McConfig(samples=MC_SAMPLES, seed=51))
    checks.append(("assessment problem 1", analytic1, est1.estimate))

    air = load_case_study("air_single").loop
    k_air = ReducedPidParams(23.1165, -35.5929, 14.4531)
    analytic2 = float(cpa_objective(air)(k_air.as_array()))
    est2 = mc_variance_single(air, k_air, McConfig(samples=MC_SAMPLES, seed=52))
    checks.append(("air case, largest-weight parameters", analytic2, est2.estimate))

    immersion = load_case_study("immersion_cascade").loop
    k_c = CascadeParams(2.7638, -2.6554, -0.8436)
    analytic3 = float(cascade_objective(immersion)(k_c.as_array()))
    est3 = mc_variance_cascade(
        immersion, k_c,
        McConfig(samples=MC_SAMPLES, seed=53, correlation_mode="fully_correlated"),
    )
    checks.append(("immersion cascade, correlated shocks", analytic3, est3.estimate))

    elapsed = time.perf_counter() - t0
    bad = []
    for name, analytic, estimate in checks:
        rel = abs(estimate - analytic) / analytic
        if rel > MC_RTOL:
            bad.append(f"{name}: MC {estimate:.6g} vs analytic {analytic:.6g} "
                       f"(rel {rel:.2%})")
    if elapsed >= MC_BUDGET_S:
        bad.append(f"runtime {elapsed:.1f} s >= {MC_BUDGET_S} s")
    detail = ", ".join(f"{n}: rel {abs(e - a) / a:.2%}" for n, a, e in checks)
    _criterion(
        5,
        not bad,
        f"Monte-Carlo vs analytic at N=1e6 within 2% ({detail}) in {elapsed:.1f} s"
        + ("" if not bad else f"; {'; '.join(bad)}"),
    )


@pytest.fixture(scope="module")
def sweeps():
    cfg = TlboConfig(dimensions=3, seed=606)
    out = {}
    for name in ("air_single", "immersion_cascade"):
        problem = load_case_study(name)
        rhos = [r for r, _, _ in CASE_STUDY_REFERENCE[name]]
        out[name] = tune(problem, cfg, runs=2, rho_sweep=rhos)
    return out


def test_criterion_6_tuning_sweeps(sweeps):
    problems = []
    details = []
    for name, report in sweeps.items():
        refs = [s for _, _, s in CASE_STUDY_REFERENCE[name]]
        ours = [row.sigma2 for row in report.rows]
        details.append(
            name + ": " + ", ".join(f"{o:.4g} (ref {r:.4g})" for o, r in zip(ours, refs))
        )
        if not all(a > b for a, b in zip(ours, ours[1:])):
            problems.append(f"{name}: variance sequence not strictly decreasing {ours}")
        for (rho, _, ref), got in zip(CASE_STUDY_REFERENCE[name], ours):
            if got > ref * SWEEP_MARGIN:
                problems.append(
                    f"{name} rho={rho:g}: sigma2 {got:.4g} exceeds published "
                    f"{ref:.4g} + 5%"
                )
    _criterion(
        6,
        not problems,
        "weight sweeps strictly decreasing and at least as good as published + 5% "
        + "; ".join(details)
        + ("" if not problems else f"; {'; '.join(problems)}"),
    )


def test_criterion_7_optimizer_properties():
    problems = []

    def sphere(x):
        return float(x @ x)

    res = minimize(sphere, TlboConfig(dimensions=3, seed=701))
    if res.best_fitness >= 1e-6:
        problems.append(f"sphere best {res.best_fitness:.2e} >= 1e-6")

    a = minimize(sphere, TlboConfig(dimensions=3, seed=702))
    b = minimize(sphere, TlboConfig(dimensions=3, seed=702))
    if not (
        a.best_fitness == b.best_fitness
        and np.array_equal(a.best_point, b.best_point)
        and np.array_equal(a.fitness_history, b.fitness_history)
    ):
        problems.append("seeded runs are not byte-identical")

    seen = []

    def probing_sphere(x):
        seen.append(x.copy())
        return sphere(x)

    res_b = minimize(probing_sphere, TlboConfig(dimensions=3, lower=1.0, upper=2.0, seed=703))
    pts = np.vstack(seen)
    if not (np.all(pts >= 1.0 - 1e-12) and np.all(pts <= 2.0 + 1e-12)):
        problems.append("candidates escaped the bounds box")

    histories = [res.fitness_history, a.fitness_history, res_b.fitness_history]
    for pid in (1, 5, 9):
        r = minimize(cpa_objective(load_benchmark(pid)), TlboConfig(dimensions=3, seed=704))
        histories.append(r.fitness_history)
    if not all(np.all(np.diff(h) <= 0) for h in histories):
        problems.append("a fitness history increased")

    _criterion(
        7,
        not problems,
        "sphere sanity, byte-exact determinism, bound containment, monotone "
        "histories" + ("" if not problems else f"; {'; '.join(problems)}"),
    )


def test_criterion_8_step_simulation_properties():
    import dataclasses

    problems = []
    # steady-state error is an asymptotic property: the heavier-weighted
    # published parameter sets settle slowly, so give the loop room beyond
    # the tuning horizon before reading the final error
    air = dataclasses.replace(load_case_study("air_single"), horizon=1500)
    for rho, params, _ in CASE_STUDY_REFERENCE["air_single"]:
        rec = simulate_step(air, params)
        if not rec.stable or abs(rec.error[-1]) >= 1e-3 * air.setpoint:
            problems.append(f"air rho={rho:g}: final error {rec.error[-1]:.2e}")
    immersion = dataclasses.replace(load_case_study("immersion_cascade"), horizon=1500)
    for rho, params, _ in CASE_STUDY_REFERENCE["immersion_cascade"]:
        rec = simulate_step(immersion, params)
        if not rec.stable or abs(rec.error[-1]) >= 1e-3 * immersion.setpoint:
            problems.append(f"immersion rho={rho:g}: final error {rec.error[-1]:.2e}")

    k = CASE_STUDY_REFERENCE["air_single"][0][1]
    plain = simulate_step(air, k)
    staged = simulate_multistage(air, [(k, 0), (k, 60), (k, 130)])
    if not np.array_equal(plain.output, staged.output):
        problems.append("multistage with identical stages differs from single stage")

    _criterion(
        8,
        not problems,
        "zero steady-state error on all published tuned parameter sets; "
        "identical-stage multistage is bit-exact"
        + ("" if not problems else f"; {'; '.join(problems)}"),
    )
