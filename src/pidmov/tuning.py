"""Setpoint-tracking simulation and combined IAE + weighted-variance tuning.

The tracking side runs a noise-free step simulation of the loop with the
incremental controller; the disturbance-rejection side reuses the analytic
truncated variance. Both enter the scalarized objective

    J(k) = IAE(k) + rho * sigma_y^2(k)

where IAE is accumulated per sample of the step response (the tracking term
is excited by the setpoint alone, the variance term by the disturbances
alone).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import CascadeParams, CascadeProblem, cascade_objective
from .reports import TuningReport, TuningRow
from .singleloop import (
    CountingObjective,
    ReducedPidParams,
    SingleLoopProblem,
    cpa_objective,
    seeded_runs,
    summarize_problem,
)
from .tlbo import DIVERGENCE_SENTINEL, TlboConfig

DIVERGENCE_LIMIT_FACTOR = 1e6   # |y| beyond this multiple of the setpoint -> unstable


@dataclass(frozen=True)
class TuningProblem:
    loop: SingleLoopProblem | CascadeProblem
    weight: float = 0.0
    horizon: int | None = None        # samples; defaults 200 single / 300 cascade
    sample_time: float = 1.0          # seconds per sample
    setpoint: float = 1.0

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight rho must be >= 0")
        if self.sample_time <= 0:
            raise ValueError("sample_time must be > 0")
        if self.setpoint == 0:
            raise ValueError("setpoint amplitude must be nonzero")
        n = self.horizon
        if n is None:
            n = 200 if isinstance(self.loop, SingleLoopProblem) else 300
        if n < 2:
            raise ValueError("horizon must be >= 2 samples")
        object.__setattr__(self, "horizon", int(n))
        self._check_horizon()

    def _check_horizon(self):
        tf = self.loop.process if isinstance(self.loop, SingleLoopProblem) else self.loop.outer
        roots = np.roots(tf.den) if len(tf.den) > 1 else np.array([])
        mags = np.abs(roots)
        mags = mags[(mags > 0) & (mags < 1)]
        if mags.size == 0:
            return
        tau = -1.0 / math.log(float(mags.max()))   # dominant time constant, samples
        if self.horizon < 10 * tau:
            warnings.warn(
                f"horizon of {self.horizon} samples may be too short to settle "
                f"(dominant time constant ~{tau:.0f} samples)",
                stacklevel=3,
            )


@dataclass
class StepResponseRecord:
    time: np.ndarray
    setpoint: np.ndarray
    output: np.ndarray
    error: np.ndarray
    iae: float
    overshoot_pct: float
    settling_time_s: float
    stable: bool
    diverged_at: int | None = None
    stage_criteria: list[dict] = field(default_factory=list)


def _finish_record(y, sp, n, ts, stages, diverged_at=None) -> StepResponseRecord:
    y = np.asarray(y)
    spv = np.full(n, sp)
    err = spv - y
    stable = diverged_at is None
    iae = float(np.abs(err).sum()) if stable else math.inf
    if stable:
        # peak excursion beyond the setpoint, in the step direction
        peak = float((y * np.sign(sp)).max())
        overshoot = max((peak - abs(sp)) / abs(sp) * 100.0, 0.0)
    else:
        overshoot = math.inf
    settling = math.inf
    if stable:
        band = 0.02 * abs(sp)
        out_of_band = np.nonzero(np.abs(err) > band)[0]
        if out_of_band.size == 0:
            settling = 0.0
        elif out_of_band[-1] + 1 < n:
            settling = float((out_of_band[-1] + 1) * ts)
    criteria = []
    for (start, stop) in stages:
        seg = err[start:stop]
        seg_y = y[start:stop]
        criteria.append(
            {
                "start_sample": int(start),
                "stop_sample": int(stop),
                "iae": float(np.abs(seg).sum()) if stable else math.inf,
                "peak_output": float(seg_y.max()) if stable else math.inf,
            }
        )
    return StepResponseRecord(
        time=np.arange(n) * ts,
        setpoint=spv,
        output=y,
        error=err,
        iae=iae,
        overshoot_pct=overshoot,
        settling_time_s=settling,
        stable=stable,
        diverged_at=diverged_at,
        stage_criteria=criteria,
    )


def _stage_schedule(stage_params, horizon):
    if not stage_params:
        raise ValueError("at least one stage is required")
    switches = [int(s) for _, s in stage_params]
    if switches[0] != 0:
        raise ValueError("first stage must start at sample 0")
    if any(b <= a for a, b in zip(switches, switches[1:])):
        raise ValueError("switch samples must be strictly increasing")
    bounds = switches + [horizon]
    return [(ks, bounds[i], bounds[i + 1]) for i, (ks, _) in enumerate(stage_params)]


def _simulate_single(problem: SingleLoopProblem, stage_params, horizon, ts, amplitude):
    """Noise-free unit-feedback loop: plant from the process model, incremental
    controller u(t) = u(t-1) + k1 e(t) + k2 e(t-1) + k3 e(t-2)."""
    tf = problem.process
    b = list(tf.num)
    a = list(tf.den[1:])
    d = tf.delay
    nb, na = len(b), len(a)
    schedule = _stage_schedule(stage_params, horizon)
    limit = DIVERGENCE_LIMIT_FACTOR * abs(amplitude)

    u = [0.0] * horizon
    y = [0.0] * horizon
    e1 = e2 = 0.0
    stages = []
    diverged = None
    for ks, start, stop in schedule:
        k1, k2, k3 = (float(v) for v in ks)
        stages.append((start, stop))
        if diverged is not None:
            continue
        for t in range(start, stop):
            acc = 0.0
            for j in range(nb):
                idx = t - d - j
                if idx >= 0:
                    acc += b[j] * u[idx]
            for i in range(na):
                idx = t - 1 - i
                if idx >= 0:
                    acc -= a[i] * y[idx]
            y[t] = acc
            if abs(acc) > limit:
                diverged = t
                break
            e = amplitude - acc
            u[t] = (u[t - 1] if t >= 1 else 0.0) + k1 * e + k2 * e1 + k3 * e2
            e2, e1 = e1, e
    return _finish_record(y, amplitude, horizon, ts, stages, diverged)


def _simulate_cascade(problem: CascadeProblem, stage_params, horizon, ts, amplitude):
    """Noise-free cascade: PI primary sets the inner-loop target, gain
    secondary drives the inner process; records the outer output."""
    g1, g2 = problem.outer, problem.inner
    b1, a1, d1 = list(g1.num), list(g1.den[1:]), g1.delay
    b2, a2, d2 = list(g2.num), list(g2.den[1:]), g2.delay
    schedule = _stage_schedule(stage_params, horizon)
    limit = DIVERGENCE_LIMIT_FACTOR * abs(amplitude)

    u = [0.0] * horizon
    y2 = [0.0] * horizon
    y1 = [0.0] * horizon
    v = 0.0
    e1p = 0.0
    stages = []
    diverged = None
    for ks, start, stop in schedule:
        k4, k5, k6 = (float(x) for x in ks)
        stages.append((start, stop))
        if diverged is not None:
            continue
        for t in range(start, stop):
            acc2 = 0.0
            for j in range(len(b2)):
                idx = t - d2 - j
                if idx >= 0:
                    acc2 += b2[j] * u[idx]
            for i in range(len(a2)):
                idx = t - 1 - i
                if idx >= 0:
                    acc2 -= a2[i] * y2[idx]
            y2[t] = acc2
            acc1 = 0.0
            for j in range(len(b1)):
                idx = t - d1 - j
                if idx >= 0:
                    acc1 += b1[j] * y2[idx]
            for i in range(len(a1)):
                idx = t - 1 - i
                if idx >= 0:
                    acc1 -= a1[i] * y1[idx]
            y1[t] = acc1
            if abs(acc1) > limit or abs(acc2) > limit * 100:
                diverged = t
                break
            e1 = amplitude - acc1
            v = v + k4 * e1 + k5 * e1p
            e1p = e1
            u[t] = k6 * (v - acc2)
    return _finish_record(y1, amplitude, horizon, ts, stages, diverged)


def simulate_step_single(
    problem: SingleLoopProblem,
    k: ReducedPidParams,
    horizon: int = 200,
    sample_time: float = 1.0,
    amplitude: float = 1.0,
) -> StepResponseRecord:
    return _simulate_single(problem, [((k.k1, k.k2, k.k3), 0)], horizon, sample_time, amplitude)


def simulate_step_cascade(
    problem: CascadeProblem,
    k: CascadeParams,
    horizon: int = 300,
    sample_time: float = 1.0,
    amplitude: float = 1.0,
) -> StepResponseRecord:
    return _simulate_cascade(problem, [((k.k4, k.k5, k.k6), 0)], horizon, sample_time, amplitude)


def simulate_multistage(problem: TuningProblem, stage_params) -> StepResponseRecord:
    """Step simulation switching controller parameters at given samples.

    The incremental control law carries u(t-1) and the error history across
    each switch, so the handover is bumpless. ``stage_params`` is a list of
    (params, switch_sample) with the first switch at 0.
    """
    stages = [(tuple(float(v) for v in ks), int(s)) for ks, s in stage_params]
    if isinstance(problem.loop, SingleLoopProblem):
        return _simulate_single(
            problem.loop, stages, problem.horizon, problem.sample_time, problem.setpoint
        )
    return _simulate_cascade(
        problem.loop, stages, problem.horizon, problem.sample_time, problem.setpoint
    )


def simulate_step(problem: TuningProblem, params) -> StepResponseRecord:
    """Single-stage step simulation under the problem's conventions."""
    return simulate_multistage(problem, [(params, 0)])


def _iae_term(record: StepResponseRecord, horizon: int) -> float:
    if record.stable:
        return record.iae
    t = record.diverged_at if record.diverged_at is not None else 0
    return DIVERGENCE_SENTINEL * (1.0 + (horizon - t) / horizon)


def tuning_objective(problem: TuningProblem) -> CountingObjective:
    """J(k) = IAE(k) + rho * sigma_y^2(k) over the controller parameters."""
    rho = problem.weight
    single = isinstance(problem.loop, SingleLoopProblem)
    var_fn = cpa_objective(problem.loop) if single else cascade_objective(problem.loop)

    def fn(k: np.ndarray) -> float:
        record = simulate_step(problem, k)
        iae = _iae_term(record, problem.horizon)
        if iae >= DIVERGENCE_SENTINEL:
            return iae
        if rho == 0.0:
            return iae
        var = var_fn(k)
        if var >= DIVERGENCE_SENTINEL:
            return var
        return iae + rho * var

    return CountingObjective(fn)


def tune(
    problem: TuningProblem,
    cfg: TlboConfig | None = None,
    runs: int = 3,
    rho_sweep: list[float] | None = None,
) -> TuningReport:
    """Optimize the combined objective; with ``rho_sweep``, produce one row
    per weight (best of ``runs`` seeded optimizer runs each)."""
    cfg = cfg or TlboConfig(dimensions=3)
    rhos = rho_sweep if rho_sweep is not None else [problem.weight]
    if any(r < 0 for r in rhos):
        raise ValueError("weight rho must be >= 0")

    single = isinstance(problem.loop, SingleLoopProblem)
    var_fn = cpa_objective(problem.loop) if single else cascade_objective(problem.loop)

    rows = []
    for rho in rhos:
        sub = replace(problem, weight=float(rho))
        results = seeded_runs(tuning_objective(sub), cfg, runs)
        best = min(results, key=lambda r: r.best_fitness)
        if best.best_fitness >= DIVERGENCE_SENTINEL:
            raise RuntimeError(f"tuning failed to stabilize the loop at rho={rho}")
        record = simulate_step(sub, best.best_point)
        rows.append(
            TuningRow(
                rho=float(rho),
                params=[float(x) for x in best.best_point],
                sigma2=float(var_fn(best.best_point)),
                iae=record.iae,
                overshoot_pct=record.overshoot_pct,
                settling_time_s=record.settling_time_s,
                optimizer_fitness=best.best_fitness,
            )
        )

    summary = summarize_problem(problem.loop)
    return TuningReport(
        kind=summary["type"],
        rows=rows,
        problem_summary=summary,
        optimizer_config=cfg,
        horizon=problem.horizon,
        sample_time=problem.sample_time,
        setpoint=problem.setpoint,
        runs=runs,
        assumptions=[
            "IAE accumulated per sample of the noise-free step response",
            "variance term computed from the analytic truncated series",
        ],
    )
