"""Achievable-performance math for a PID-restricted single loop.

With the setpoint at zero, the closed-loop response to a unit disturbance
shock solves

    (I + k1*St + k2*F*St + k3*F^2*St) phi = nbar

in the truncated series algebra, where St is the Toeplitz operator built
from the process step response (the controller's built-in integrator folds
the 1/(1-q^-1) factor into the process side), F is the one-step delay and
nbar the disturbance impulse response. The truncated output variance
phi'phi * sigma_a^2 is the objective the optimizer drives down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .lti import (
    DiscreteTransferFunction,
    ImpulseSeq,
    identity_series,
    shift_trunc,
    solve_trunc,
)
from .reports import AssessmentReport, collect_run_stats
from .tlbo import DIVERGENCE_SENTINEL, OptResult, TlboConfig, minimize


@dataclass(frozen=True)
class ReducedPidParams:
    """Controller numerator coefficients (k1 + k2 q^-1 + k3 q^-2)/(1 - q^-1)."""

    k1: float
    k2: float
    k3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3], dtype=float)

    def to_gains(self) -> "PidGains":
        kd = self.k3
        kp = -self.k2 - 2.0 * kd
        ki = self.k1 + self.k2 + self.k3
        return PidGains(kp=kp, ki=ki, kd=kd)

    @classmethod
    def from_array(cls, k) -> "ReducedPidParams":
        k = np.asarray(k, dtype=float)
        return cls(k1=float(k[0]), k2=float(k[1]), k3=float(k[2]))


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float
    kd: float

    def to_reduced(self) -> ReducedPidParams:
        return ReducedPidParams(
            k1=self.kp + self.ki + self.kd,
            k2=-(self.kp + 2.0 * self.kd),
            k3=self.kd,
        )


@dataclass(frozen=True)
class SingleLoopProblem:
    process: DiscreteTransferFunction
    disturbance: DiscreteTransferFunction
    noise_variance: float = 1.0
    truncation: int | None = None  # defaults to 8 * process delay

    def __post_init__(self):
        if self.process.delay < 1:
            raise ValueError("process dead time must be >= 1 sample")
        if self.noise_variance < 0:
            raise ValueError("noise variance must be >= 0")
        p = self.truncation if self.truncation is not None else 8 * self.process.delay
        if p < self.process.delay:
            raise ValueError(
                f"truncation p={p} shorter than the process dead time "
                f"d={self.process.delay}"
            )
        object.__setattr__(self, "truncation", int(p))


def _loop_series(problem: SingleLoopProblem):
    """Precompute the step-response columns and disturbance response."""
    p = problem.truncation
    st = problem.process.step_response(p - 1).coeffs
    nbar = problem.disturbance.impulse_response(p - 1).coeffs
    return (
        identity_series(p),
        st,
        shift_trunc(st, 1),
        shift_trunc(st, 2),
        nbar,
    )


def _response(e0, st0, st1, st2, nbar, k) -> np.ndarray:
    system = e0 + k[0] * st0 + k[1] * st1 + k[2] * st2
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_trunc(system, nbar)


def closed_loop_impulse(problem: SingleLoopProblem, k: ReducedPidParams) -> ImpulseSeq:
    """Closed-loop response phi(0..p-1) to a unit disturbance shock.

    phi(0) always equals the leading disturbance coefficient: feedback cannot
    act before the dead time elapses.
    """
    phi = _response(*_loop_series(problem), k.as_array())
    return ImpulseSeq(phi, kind="impulse")


def output_variance(phi: ImpulseSeq, noise_variance: float) -> float:
    if noise_variance < 0:
        raise ValueError("noise variance must be >= 0")
    return phi.sum_of_squares() * noise_variance


def guarded_variance(phi: np.ndarray, noise_variance: float) -> float:
    """phi'phi * sigma^2 with an order-preserving penalty where float64
    overflows; divergence that overflows earlier ranks worse."""
    bad = ~np.isfinite(phi)
    if bad.any():
        j = int(np.argmax(bad))
        n = phi.size
        return DIVERGENCE_SENTINEL * (1.0 + (n - j) / n)
    v = float(phi @ phi) * noise_variance
    if not math.isfinite(v):
        return DIVERGENCE_SENTINEL
    return v


class CountingObjective:
    """Callable objective with an observable evaluation count."""

    def __init__(self, fn):
        self._fn = fn
        self.evaluations = 0

    def __call__(self, k) -> float:
        self.evaluations += 1
        return self._fn(np.asarray(k, dtype=float))


def cpa_objective(problem: SingleLoopProblem) -> CountingObjective:
    """Truncated output variance as a function of (k1, k2, k3)."""
    e0, st0, st1, st2, nbar = _loop_series(problem)
    sigma2 = problem.noise_variance

    def fn(k: np.ndarray) -> float:
        return guarded_variance(_response(e0, st0, st1, st2, nbar, k), sigma2)

    return CountingObjective(fn)


def mv_benchmark(problem: SingleLoopProblem) -> float:
    """Variance of the feedback-invariant part of the disturbance response:
    sigma^2 * sum of the first d squared disturbance coefficients."""
    d = problem.process.delay
    nbar = problem.disturbance.impulse_response(d - 1).coeffs
    return float(nbar @ nbar) * problem.noise_variance


def run_seeds(base_seed: int, runs: int) -> list[int]:
    """Deterministic per-run seeds derived from one base seed."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(runs)]


def default_cpa_config(seed: int = 0) -> TlboConfig:
    return TlboConfig(dimensions=3, seed=seed)


class AssessmentError(RuntimeError):
    pass


def seeded_runs(objective, cfg: TlboConfig, runs: int) -> list[OptResult]:
    """One optimizer run of ``objective`` per seed derived from ``cfg.seed``,
    over the three controller gains."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if cfg.dimensions != 3:
        raise ValueError("the controller search needs a 3-dimensional config")
    return [minimize(objective, replace(cfg, seed=s)) for s in run_seeds(cfg.seed, runs)]


def _assess(problem, objective, cfg: TlboConfig | None, runs: int,
            mv: float | None = None) -> AssessmentReport:
    """Statistics of independent seeded runs minimizing ``objective``; the
    single loop and the cascade differ only in the objective and the MV floor."""
    cfg = cfg or default_cpa_config()
    results = seeded_runs(objective, cfg, runs)
    for r in results:
        if not math.isfinite(r.best_fitness) or r.best_fitness >= DIVERGENCE_SENTINEL:
            raise AssessmentError(
                f"optimizer failed to find a finite-variance controller "
                f"(best fitness {r.best_fitness:.3e})"
            )
    stats = collect_run_stats(results)
    summary = summarize_problem(problem)
    return AssessmentReport(
        kind=summary["type"],
        mov=stats.mean,
        mov_std=stats.std,
        mov_worst=stats.worst,
        mov_best=stats.best,
        params_mean=stats.params_mean,
        params_std=stats.params_std,
        mv=mv,
        eta=None if mv is None else (mv / stats.mean if stats.mean > 0 else float("nan")),
        runs=runs,
        evaluations=objective.evaluations,
        mean_elapsed=stats.mean_elapsed,
        per_run=stats.per_run,
        problem_summary=summary,
        optimizer_config=cfg,
        run_histories=stats.histories,
    )


def assess_single(
    problem: SingleLoopProblem,
    cfg: TlboConfig | None = None,
    runs: int = 30,
) -> AssessmentReport:
    """Estimate the restricted-structure minimum output variance over
    independent seeded optimizer runs."""
    return _assess(problem, cpa_objective(problem), cfg, runs, mv_benchmark(problem))


def summarize_problem(problem) -> dict:
    """Report block of a single-loop or cascade problem: its type and every
    field, transfer functions as num/den/delay."""
    out = {"type": "single" if isinstance(problem, SingleLoopProblem) else "cascade"}
    for f in fields(problem):
        v = getattr(problem, f.name)
        if isinstance(v, DiscreteTransferFunction):
            v = {"num": list(v.num), "den": list(v.den), "delay": v.delay}
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out
