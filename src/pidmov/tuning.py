"""Setpoint-tracking simulation and combined IAE + weighted-variance tuning.

The tracking side runs a noise-free step simulation of the loop with the
incremental controller; the disturbance-rejection side reuses the analytic
truncated variance. Both enter the scalarized objective

    J(k) = IAE(k) + rho * sigma_y^2(k)

where IAE is accumulated per sample of the step response (the tracking term
is excited by the setpoint alone, the variance term by the disturbances
alone). Both responses run through the same 1/A_cl, so each candidate's
step and shock response are one filter call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.signal import lfiltic

from .cascade import CascadeProblem
from .reports import TuningReport, TuningRow
from .singleloop import (AssessmentError, SingleLoopProblem, _LoopKernel, seeded_runs,
                         summarize_problem)
from .tlbo import DIVERGENCE_SENTINEL, TlboConfig, divergence_penalty, finite, whole

DIVERGENCE_LIMIT_FACTOR = 1e6   # |y| beyond this multiple of the setpoint -> unstable


@dataclass(frozen=True)
class TuningProblem:
    loop: SingleLoopProblem | CascadeProblem
    weight: float = 0.0
    horizon: int | None = None        # samples; defaults 200 single / 300 cascade
    sample_time: float = 1.0          # seconds per sample
    setpoint: float = 1.0

    def __post_init__(self):
        if finite(self.weight, "weight rho") < 0:
            raise ValueError("weight rho must be >= 0")
        if finite(self.sample_time, "sample_time") <= 0:
            raise ValueError("sample_time must be > 0")
        if finite(self.setpoint, "setpoint") == 0:
            raise ValueError("setpoint amplitude must be nonzero")
        if self.horizon is None:
            n = 200 if isinstance(self.loop, SingleLoopProblem) else 300
        else:
            n = whole(self.horizon, "horizon")
        if n < 2:
            raise ValueError("horizon must be >= 2 samples")
        object.__setattr__(self, "horizon", n)


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


def _stage(kernel: _LoopKernel, kappa, p, a_cl, amplitude: float,
           e: np.ndarray, y2: np.ndarray, s: int = 0, corr=None,
           phi: np.ndarray | None = None) -> np.ndarray:
    """Run the step loop under the gain sets in the rows of kappa (m,),
    p (m, k) and a_cl (m, n) from sample s to the end of the (m, stop) rows
    e and y2: fill e[:, s:] with the tracking errors r - y and y2[:, s:] with
    the cascade's inner outputs (zeros in the single loop), continuing from
    the samples before s; with an (m, p) ``phi``, fill it with each row's
    shock response of the variance objective too. Every signal of a row goes
    through its 1/A_cl in one ``kernel.responses`` call. Return each row's
    first sample where an output left its divergence limit or was not
    finite, or stop if none did. Call it inside ``np.errstate`` that ignores
    overflow and invalid operations.

    The forcing of e is amplitude (base + kappa inner), a finite pulse; at a
    switch s > 0 (the record runs a batch of one row), ``corr`` carries the
    (1 - q^-1) c_u correction of the control (see ``_step_response``).
    """
    limit = DIVERGENCE_LIMIT_FACTOR * abs(amplitude)
    stop = e.shape[1]
    cascade = not kernel.single
    # one row of forcings all candidates share in the single loop, where
    # kappa is 1, and one per candidate in the cascade: e's, y2's, phi's
    rows = len(kappa) if cascade else 1
    signals = [e, y2] if cascade else [e]
    width = stop - s if phi is None else max(stop - s, phi.shape[1])
    x = np.zeros((rows, len(signals) + (phi is not None), width))
    lead = amplitude * (kernel.base + (kappa if cascade else np.ones(1))[:, None] * kernel.inner)
    xe = np.zeros((rows, stop))
    xe[:, : lead.shape[1]] = lead[:, :stop]
    if s:
        xe -= np.convolve(kernel.path, corr)[:stop]
    x[:, 0, : stop - s] = xe[:, s:]
    if cascade:
        for i in range(rows):
            f = kappa[i] * amplitude * np.convolve(p[i], np.ones(stop))[:stop]
            if s:
                f += corr
            x[i, 1, : stop - s] = np.convolve(kernel.inner, f)[s:stop]
    if phi is not None:
        x[:, -1, : phi.shape[1]] = kernel.shock_forcing(kappa)
    zi = None
    if s:
        zi = np.array([[lfiltic([1.0], a, v[i, :s][::-1]) for v in signals]
                       for i, a in enumerate(a_cl)])
    out = kernel.responses(a_cl, x, zi)
    for j, v in enumerate(signals):
        v[:, s:] = out[:, j, : stop - s]
    if phi is not None:
        phi[:] = out[:, -1, : phi.shape[1]]
    kept = np.abs(amplitude - e[:, s:]) <= limit
    if cascade:
        # the inner output may run 100x further before the loop counts as lost
        kept &= np.abs(y2[:, s:]) <= 100.0 * limit
    return s + np.where(kept.all(axis=1), stop - s, np.argmin(kept, axis=1))


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
    # tracking error r - y, inner output (zero in the single loop), and the integrator
    # increments and kappa actually applied
    e, y2, d_integ, kappas = np.zeros((4, horizon))
    for i, (ks, s) in enumerate(stages):
        stop = stages[i + 1][1] if i + 1 < len(stages) else horizon
        with np.errstate(invalid="ignore"):      # non-finite gains diverge in _stage
            kappa, p, a_cl = kernel.closed_loop_batch([ks])
        corr = None
        if s:
            corr = np.zeros(stop)      # (1 - q^-1) c_u
            integ = np.cumsum(d_integ[:s])
            integ_new = np.cumsum(np.convolve(p[0], e[:s])[:s])
            # u(t >= s) - u_new(t) stays at kappa (I - I_new)(s - 1)
            c_u = np.append(kappas[:s] * (integ - y2[:s]) - kappa[0] * (integ_new - y2[:s]),
                            kappa[0] * (integ[-1] - integ_new[-1]))
            corr[: s + 1] = np.diff(c_u, prepend=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            t = int(_stage(kernel, kappa, p, a_cl, amplitude,
                           e[None, :stop], y2[None, :stop], s, corr)[0])
        if t < stop:
            e[t + 1:] = amplitude
            return amplitude - e, t
        if stop < horizon:
            d_integ[s:stop] = np.convolve(p[0], e[:stop])[s:stop]
            kappas[s:stop] = kappa[0]
    return amplitude - e, None


def simulate_multistage(problem: TuningProblem, stage_params) -> StepResponseRecord:
    """Step simulation switching controller parameters at given samples.

    The incremental control law carries its integrator and the error history
    across each switch, so the handover is bumpless. ``stage_params`` is a
    list of (params, switch_sample) with the first switch at 0.
    """
    stages = [(tuple(float(v) for v in ks), whole(s, "switch")) for ks, s in stage_params]
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
    """J(k) = IAE(k) + rho * sigma_y^2(k) over the controller parameters.
    ``fn.batch`` maps an (n, 3) gain matrix to its n values through one
    ``_stage`` call, the step record's body, which also filters each row's
    shock response where rho > 0; ``fn(k)`` is a batch of one row."""
    rho = problem.weight
    n, sp = problem.horizon, problem.setpoint
    kernel = _LoopKernel(problem.loop)
    p = problem.loop.truncation

    def batch(ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        e, y2 = np.zeros((2, len(ks), n))
        phi = np.empty((len(ks), p)) if rho != 0.0 else None
        # non-finite gains and diverging loops are penalized, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            t = _stage(kernel, *kernel.closed_loop_batch(ks), sp, e, y2, phi=phi)
            # _finish_record's sum over _step_response's y, so J == record.iae
            out = np.where(t < n, divergence_penalty(t, n), np.abs(sp - (sp - e)).sum(axis=1))
            if phi is not None:
                bounded = out < DIVERGENCE_SENTINEL
                var = kernel.sum_of_squares(phi[bounded])
                out[bounded] = np.where(var < DIVERGENCE_SENTINEL,
                                        out[bounded] + rho * var, var)
        return out

    def fn(k: np.ndarray) -> float:
        return float(batch(np.asarray(k, dtype=float)[None])[0])

    fn.batch = batch
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
    # TuningProblem checks every weight before any optimizer runs
    subs = [replace(problem, weight=float(r))
            for r in (rho_sweep if rho_sweep is not None else [problem.weight])]
    if not subs:
        raise ValueError("rho_sweep must list at least one weight")

    kernel = _LoopKernel(problem.loop)
    rows = []
    for sub in subs:
        rho = sub.weight
        results = seeded_runs(tuning_objective(sub), cfg, runs)
        best = min(results, key=lambda r: r.best_fitness)
        if best.best_fitness >= DIVERGENCE_SENTINEL:
            raise AssessmentError(f"no candidate stabilized the loop at rho={rho}")
        record = simulate_step(sub, best.best_point)
        radius = kernel.radius(best.best_point)
        _check_settling(radius, problem.horizon, rho)
        rows.append(
            TuningRow(
                rho=rho,
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
        runs=len(results),
        assumptions=[
            "IAE accumulated per sample of the noise-free step response",
            "variance term computed from the analytic truncated shock response",
        ],
    )
