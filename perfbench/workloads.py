"""Workload definitions for the pidmov benchmark.

Each workload has a set-up step (load the problems and build their
objectives, evaluated once at the published gains) and a pass: one sweep
over its operations through the public ``pidmov`` API, with the reference
checks and a result fingerprint recorded alongside the timings.

Every ``pidmov`` callable is looked up on the package at call time, so the
traced run sees the wrappers that ``tracing.install`` puts there.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np
from scipy.signal import lfilter

import pidmov as pm
from pidmov.benchmarks import (
    BKMOV_MARGIN,
    CASE_STUDY_REFERENCE,
    REFERENCE,
    STD_RTOL,
    matches_reference,
)

# Exceptions that mark one operation as failed; anything else is a bug in
# the benchmark or the program and ends the run.
OP_ERRORS = (pm.AssessmentError, pm.McStabilityError, RuntimeError)

ASSESS_RUNS = 5
TUNE_RUNS = 2
SWEEP_MARGIN = 1.05
MC_SAMPLES = 1_000_000
MC_RTOL = 0.02
IDENTITY_RTOL = 1e-9       # relative slack for identities that hold up to rounding


# Calibration: a fixed kernel of interpreter-bound recursion and short
# lfilter calls, the same mix pidmov spends its time on, but sharing no code
# with it. Timed next to every operation, it measures how fast the machine
# runs at that moment; times scaled by CAL_REF_S / (its time) are seconds at
# the speed where it takes CAL_REF_S. On shared hardware whose speed drifts
# by tens of percent within seconds, this takes the drift out of the
# comparison of two commits while leaving every change in pidmov in it.
CAL_REF_S = 0.005


def calibrate() -> float:
    t0 = time.perf_counter()
    x = y1 = y2 = 0.0
    for _ in range(30000):
        x = 0.3 * x + 0.1 * y1 - 0.05 * y2 + 1.0
        y2, y1 = y1, x
    a = np.arange(64.0)
    for _ in range(300):
        lfilter([1.0], [1.0, -0.5], a) @ a
    return time.perf_counter() - t0


class Pass:
    """Latencies, failures, checks and fingerprint of one pass.

    ``check`` records a reference check: agreement with the published
    tables, which the optimizer may miss at some seeds; these feed
    ``check_fail_frac``. ``require`` records a condition that holds for any
    seed when the program is right; one that fails makes the run incorrect.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s: list[float] = []        # wall time of each operation
        self.speed: list[float] = []       # CAL_REF_S / calibration time around it
        self.cal_s = 0.0                   # time spent calibrating
        self.failed = 0
        self.checks: list[tuple[str, bool]] = []
        self.invalid: list[str] = []
        self.fingerprint: list[list] = []

    def op(self, fn, *args, **kwargs):
        """Time one operation, calibrating just before and after it; return
        its result, or None if it raised one of ``OP_ERRORS``."""
        before = calibrate()
        span = self.tracer.open("bench.op") if self.tracer else None
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except OP_ERRORS:
            self.failed += 1
            return None
        finally:
            self.op_s.append(time.perf_counter() - t0)
            if span is not None:
                self.tracer.close(span)
            after = calibrate()
            self.cal_s += before + after
            self.speed.append(2 * CAL_REF_S / (before + after))

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    def require(self, name: str, ok: bool) -> None:
        if not ok:
            self.invalid.append(name)

    def write(self, report) -> None:
        """The CLI's report write path, minus the file: to_dict + json.dumps."""
        span = self.tracer.open("reports.to_json") if self.tracer else None
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if span is not None:
            self.tracer.close(span, a=len(text.encode()))


class AssessSuite:
    """The ten corpus problems through assess_single and the immersion
    cascade through assess_cascade, R=5 runs each."""

    name = "assess_suite"
    default_seed = 2024        # tier-1 suite seed
    tail_pct = 90              # middle of the two costliest: problem 3 (p=224), cascade
    min_passes = 4

    def setup(self):
        self.problems = [(pid, pm.load_benchmark(pid)) for pid in sorted(REFERENCE)]
        self.cascade = pm.load_case_study("immersion_cascade").loop
        for pid, problem in self.problems:
            pm.cpa_objective(problem)(REFERENCE[pid].params)
        pm.cascade_objective(self.cascade)(CASE_STUDY_REFERENCE["immersion_cascade"][0][1])

    def run_pass(self, seed: int, p: Pass) -> None:
        cfg = pm.TlboConfig(dimensions=3, seed=seed)
        for pid, problem in self.problems:
            ref = REFERENCE[pid]
            report = p.op(pm.assess_single, problem, cfg, runs=ASSESS_RUNS)
            if report is None:
                for check in ("mv", "mov", "std", "bkmov"):
                    p.check(f"{check}.{pid}", False)
                continue
            p.write(report)
            _require_run_stats(p, f"assess.{pid}", report)
            # The first d response coefficients are feedback-invariant, so
            # no controller beats MV.
            p.require(f"mv_floor.{pid}", report.mv <= report.mov_best * (1 + IDENTITY_RTOL))
            p.check(f"mv.{pid}", round(report.mv, ref.decimals) == ref.mv)
            p.check(f"mov.{pid}", matches_reference(report.mov, ref.mean, ref.decimals))
            p.check(f"std.{pid}", report.mov_std <= STD_RTOL * report.mov)
            p.check(
                f"bkmov.{pid}",
                report.mov <= ref.bkmov * (1.0 + BKMOV_MARGIN)
                or round(report.mov, ref.decimals) <= ref.bkmov,
            )
            p.fingerprint.append(
                [pid, report.mov, report.mov_std, report.mov_best, *report.params_mean.tolist()]
            )
        report = p.op(pm.assess_cascade, self.cascade, cfg, runs=ASSESS_RUNS)
        if report is not None:
            p.write(report)
            _require_run_stats(p, "assess.cascade", report)
            p.fingerprint.append(
                ["cascade", report.mov, report.mov_std, report.mov_best,
                 *report.params_mean.tolist()]
            )
        p.check("cascade_mov_finite", report is not None and math.isfinite(report.mov))


class TuneSweep:
    """The air-heater case study over its published rho grid, one
    tune(..., rho_sweep=[rho]) call per row, runs=2; then step simulations
    of the immersion cascade at its published gains, which are fixed, so
    they measure the cascade simulation without the optimizer."""

    name = "tune_sweep"
    default_seed = 606         # tier-1 sweep seed
    tail_pct = 75              # the costlier rows; rows differ little in cost
    min_passes = 2
    study = "air_single"
    cascade_study = "immersion_cascade"
    cascade_repeats = 10       # simulations of each published cascade row per pass

    def setup(self):
        self.case = pm.load_case_study(self.study)
        self.rows = [(rho, sigma2) for rho, _, sigma2 in CASE_STUDY_REFERENCE[self.study]]
        for rho, params, _ in CASE_STUDY_REFERENCE[self.study]:
            pm.tuning_objective(replace(self.case, weight=rho))(params)
        self.cascade_case = pm.load_case_study(self.cascade_study)
        self.cascade_rows = [(rho, params)
                             for rho, params, _ in CASE_STUDY_REFERENCE[self.cascade_study]]
        pm.simulate_step(self.cascade_case, self.cascade_rows[0][1])

    def run_pass(self, seed: int, p: Pass) -> None:
        cfg = pm.TlboConfig(dimensions=3, seed=seed)
        sigmas = []
        for rho, ref_sigma2 in self.rows:
            report = p.op(pm.tune, self.case, cfg, runs=TUNE_RUNS, rho_sweep=[rho])
            if report is None:
                p.check(f"sigma2.{rho:g}", False)
                sigmas.append(math.nan)
                continue
            p.write(report)
            row = report.rows[0]
            # The optimum's objective is its own IAE plus rho times its variance.
            combined = row.iae + rho * row.sigma2 if rho else row.iae
            p.require(
                f"objective.{rho:g}",
                0 < row.sigma2 < math.inf
                and abs(row.optimizer_fitness - combined) <= IDENTITY_RTOL * abs(combined),
            )
            p.check(f"sigma2.{rho:g}", row.sigma2 <= SWEEP_MARGIN * ref_sigma2)
            sigmas.append(row.sigma2)
            p.fingerprint.append([rho, *row.params, row.sigma2])
        p.check("sigma2_decreasing", all(a > b for a, b in zip(sigmas, sigmas[1:])))
        # Not operations: the simulations take milliseconds, and the rows
        # alone set the latencies.
        for rho, params in self.cascade_rows:
            records = [pm.simulate_step(self.cascade_case, params)
                       for _ in range(self.cascade_repeats)]
            iae = records[0].iae
            # The published gains stabilize the loop, and a simulation is
            # deterministic.
            p.require(
                f"cascade_step.{rho:g}",
                all(r.stable and r.iae == iae for r in records) and math.isfinite(iae),
            )
            p.fingerprint.append([f"cascade_step.{rho:g}", iae])


class McOracle:
    """Three Monte-Carlo validations at N=1e6: benchmark 1 at its published
    gains, air at the largest-weight gains, the cascade with fully
    correlated shocks. Seeds are the pass seed plus 0, 1 and 2."""

    name = "mc_oracle"
    default_seed = 51          # tier-1 seeds are 51, 52, 53
    tail_pct = 85              # middle of the cascade estimates, the top third
    min_passes = 4

    def setup(self):
        bench1 = pm.load_benchmark(1)
        air = pm.load_case_study("air_single").loop
        immersion = pm.load_case_study("immersion_cascade").loop
        k1 = pm.ReducedPidParams(*REFERENCE[1].params)
        k_air = pm.ReducedPidParams(*CASE_STUDY_REFERENCE["air_single"][-1][1])
        k_c = pm.CascadeParams(*CASE_STUDY_REFERENCE["immersion_cascade"][0][1])
        self.cases = [
            ("bench1", "mc_variance_single", bench1, k1, "independent",
             pm.cpa_objective(bench1)(k1.as_array())),
            ("air", "mc_variance_single", air, k_air, "independent",
             pm.cpa_objective(air)(k_air.as_array())),
            ("cascade", "mc_variance_cascade", immersion, k_c, "fully_correlated",
             pm.cascade_objective(immersion)(k_c.as_array())),
        ]

    def run_pass(self, seed: int, p: Pass) -> None:
        for i, (label, fn, problem, params, mode, analytic) in enumerate(self.cases):
            cfg = pm.McConfig(samples=MC_SAMPLES, seed=seed + i, correlation_mode=mode)
            est = p.op(getattr(pm, fn), problem, params, cfg)
            if est is None:
                p.check(f"mc.{label}", False)
                continue
            ok = abs(est.estimate - analytic) / analytic <= MC_RTOL
            p.check(f"mc.{label}", ok)
            # The oracle shares no code with the analytic route: agreement
            # is what makes either result trustworthy.
            p.require(f"mc.{label}", ok)
            p.fingerprint.append([label, est.estimate, est.standard_error])


def _require_run_stats(p: Pass, name: str, report) -> None:
    lo = report.mov_best * (1 - IDENTITY_RTOL)
    hi = report.mov_worst * (1 + IDENTITY_RTOL)
    p.require(name, math.isfinite(report.mov) and 0 < lo <= report.mov <= hi)


WORKLOADS = {w.name: w for w in (AssessSuite, TuneSweep, McOracle)}
