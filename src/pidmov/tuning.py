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
from scipy.signal import lfilter, lfiltic

from .cascade import CascadeProblem
from .reports import TuningReport, TuningRow
from .singleloop import SingleLoopProblem, _LoopKernel, seeded_runs, summarize_problem
from .tlbo import DIVERGENCE_SENTINEL, TlboConfig, divergence_penalty

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


def _finish_record(y, sp, n, ts, stages, diverged_at) -> StepResponseRecord:
    spv = np.full(n, sp)
    err = spv - y
    stable = diverged_at is None
    iae = overshoot = settling = math.inf
    if stable:
        iae = float(np.abs(err).sum())
        # peak excursion beyond the setpoint, in the step direction
        peak = float((y * np.sign(sp)).max())
        overshoot = max((peak - abs(sp)) / abs(sp) * 100.0, 0.0)
        out_of_band = np.nonzero(np.abs(err) > 0.02 * abs(sp))[0]
        if out_of_band.size == 0:
            settling = 0.0
        elif out_of_band[-1] + 1 < n:
            settling = float((out_of_band[-1] + 1) * ts)
    criteria = [
        {
            "start_sample": start,
            "stop_sample": stop,
            "iae": float(np.abs(err[start:stop]).sum()) if stable else math.inf,
            "peak_output": float(y[start:stop].max()) if stable else math.inf,
        }
        for start, stop in stages
    ]
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


def _stage_bounds(stage_params, horizon) -> list[tuple[int, int]]:
    if not stage_params:
        raise ValueError("at least one stage is required")
    switches = [int(s) for _, s in stage_params]
    if switches[0] != 0:
        raise ValueError("first stage must start at sample 0")
    if any(b <= a for a, b in zip(switches, switches[1:])):
        raise ValueError("switch samples must be strictly increasing")
    if switches[-1] >= horizon:
        raise ValueError("switch samples must lie within the horizon")
    return list(zip(switches, switches[1:] + [horizon]))


def _resume(a_cl: np.ndarray, x: np.ndarray, past: np.ndarray) -> np.ndarray:
    """1/A_cl applied to x, continuing from the earlier outputs ``past``."""
    if not past.size:
        return lfilter([1.0], a_cl, x)
    return lfilter([1.0], a_cl, x, zi=lfiltic([1.0], a_cl, past[::-1]))[0]


def _step_response(kernel: _LoopKernel, stages, horizon: int, amplitude: float):
    """Outer output of the step loop, and the first sample where an output
    left its divergence limit or was not finite (None if none); the output
    after that sample is zero.

    With the kernel's polynomials, the tracking error and the cascade's
    inner output solve

        A_cl e = (base + kappa inner) (1 - q^-1) r,   A_cl y2 = inner kappa P r

    The error is filtered rather than y: its forcing is a finite pulse, so
    the integral action drives it to exactly zero instead of to the
    rounding in the DC gain of path / A_cl.

    ``stages`` lists (gains, start) with the first start at 0 and no two
    consecutive gain sets equal. At a switch s the control before s, written
    as the new gains' law plus a correction c_u on u, adds (1 - q^-1) c_u to
    the forcing, and the filters resume from the signals before s.
    """
    limit = DIVERGENCE_LIMIT_FACTOR * abs(amplitude)
    # tracking error r - y, inner output (cascade only), and the integrator
    # increments and kappa actually applied
    e, y2, d_integ, kappas = np.zeros((4, horizon))
    for i, (ks, s) in enumerate(stages):
        stop = stages[i + 1][1] if i + 1 < len(stages) else horizon
        with np.errstate(invalid="ignore"):      # non-finite gains diverge below
            kappa, p, a_cl = kernel.closed_loop(ks)
            lead = kernel.base + kappa * kernel.inner
        x = np.zeros(stop)
        x[: lead.size] = amplitude * lead[:stop]
        corr = np.zeros(stop)      # (1 - q^-1) c_u
        if s:
            w = 0.0 if kernel.single else y2[:s]
            integ = np.cumsum(d_integ[:s])
            integ_new = np.cumsum(np.convolve(p, e[:s])[:s])
            # u(t >= s) - u_new(t) stays at kappa (I - I_new)(s - 1)
            c_u = np.append(kappas[:s] * (integ - w) - kappa * (integ_new - w),
                            kappa * (integ[-1] - integ_new[-1]))
            corr[: s + 1] = np.diff(c_u, prepend=0.0)
            x -= np.convolve(kernel.path, corr)[:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            e[s:stop] = _resume(a_cl, x[s:stop], e[:s])
            kept = np.abs(amplitude - e[s:stop]) <= limit
            if not kernel.single:
                f = kappa * amplitude * np.convolve(p, np.ones(stop))[:stop] + corr
                y2[s:stop] = _resume(a_cl, np.convolve(kernel.inner, f)[s:stop], y2[:s])
                # the inner output may run 100x further before the loop counts as lost
                kept &= np.abs(y2[s:stop]) <= 100.0 * limit
        if not kept.all():
            t = s + int(np.argmin(kept))
            e[t + 1:] = amplitude
            return amplitude - e, t
        if stop < horizon:
            d_integ[s:stop] = np.convolve(p, e[:stop])[s:stop]
            kappas[s:stop] = kappa
    return amplitude - e, None


def simulate_multistage(problem: TuningProblem, stage_params) -> StepResponseRecord:
    """Step simulation switching controller parameters at given samples.

    The incremental control law carries its integrator and the error history
    across each switch, so the handover is bumpless. ``stage_params`` is a
    list of (params, switch_sample) with the first switch at 0.
    """
    stages = [(tuple(float(v) for v in ks), int(s)) for ks, s in stage_params]
    n, sp = problem.horizon, problem.setpoint
    bounds = _stage_bounds(stages, n)
    # one filter run per distinct gain set keeps repeated stages bit-exact
    distinct = [st for i, st in enumerate(stages) if i == 0 or st[0] != stages[i - 1][0]]
    y, diverged_at = _step_response(_LoopKernel(problem.loop), distinct, n, sp)
    return _finish_record(y, sp, n, problem.sample_time, bounds, diverged_at)


def simulate_step(problem: TuningProblem, params) -> StepResponseRecord:
    """Single-stage step simulation under the problem's conventions."""
    return simulate_multistage(problem, [(params, 0)])


def tuning_objective(problem: TuningProblem):
    """J(k) = IAE(k) + rho * sigma_y^2(k) over the controller parameters."""
    rho = problem.weight
    n, sp = problem.horizon, problem.setpoint
    kernel = _LoopKernel(problem.loop)

    def fn(k: np.ndarray) -> float:
        y, diverged_at = _step_response(kernel, [(k, 0)], n, sp)
        if diverged_at is not None:
            return divergence_penalty(diverged_at, n)
        iae = float(np.abs(sp - y).sum())    # _finish_record's sum, so J == record.iae
        if rho == 0.0:
            return iae
        var = kernel.variance(k)
        if var >= DIVERGENCE_SENTINEL:
            return var
        return iae + rho * var

    return fn


def _check_settling(radius: float, horizon: int, rho: float) -> None:
    """Warn when a tuned loop cannot settle within the horizon: at closed-loop
    radius r its slowest mode needs about ln 0.02 / ln r samples to fall
    into the 2% band."""
    if radius >= 1:
        warnings.warn(f"rho={rho:g}: tuned loop is not stable "
                      f"(closed-loop radius {radius:.5f})", stacklevel=3)
    elif radius > 0 and (need := math.log(0.02) / math.log(radius)) > horizon:
        warnings.warn(f"rho={rho:g}: tuned loop needs ~{need:.0f} samples to settle "
                      f"within 2% (closed-loop radius {radius:.5f}), more than the "
                      f"horizon of {horizon} samples", stacklevel=3)


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

    kernel = _LoopKernel(problem.loop)
    rows = []
    for rho in rhos:
        sub = replace(problem, weight=float(rho))
        results = seeded_runs(tuning_objective(sub), cfg, runs)
        best = min(results, key=lambda r: r.best_fitness)
        if best.best_fitness >= DIVERGENCE_SENTINEL:
            raise RuntimeError(f"tuning failed to stabilize the loop at rho={rho}")
        record = simulate_step(sub, best.best_point)
        radius = kernel.radius(best.best_point)
        _check_settling(radius, problem.horizon, rho)
        rows.append(
            TuningRow(
                rho=float(rho),
                params=[float(x) for x in best.best_point],
                sigma2=kernel.variance(best.best_point),
                iae=record.iae,
                overshoot_pct=record.overshoot_pct,
                settling_time_s=record.settling_time_s,
                optimizer_fitness=best.best_fitness,
                closed_loop_radius=radius,
                record=record,
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
            "variance term computed from the analytic truncated shock response",
        ],
    )
