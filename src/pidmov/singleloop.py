"""Achievable-performance math for a PID-restricted single loop, and the
closed-loop polynomial kernel that the single loop and the PI/P cascade share.

For fixed gains every loop here is LTI with the characteristic polynomial

    A_cl = (1 - q^-1) a + q^-d b (k1 + k2 q^-1 + k3 q^-2)

in the backward shift q^-1. With the setpoint at zero, the output response
to a unit disturbance shock is

    phi = (1/A_cl) [(1 - q^-1) a nbar]

with nbar the disturbance impulse response, so its first p samples are one
``lfilter`` call over a forcing that is fixed per problem. The truncated
output variance phi'phi * sigma_a^2 is the objective the optimizer drives
down.

Every closed-loop filter here goes through ``_LoopKernel.responses``, one
``lti.lfilter`` call from rest per candidate over all the signals it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .lti import DiscreteTransferFunction, lfilter
from .reports import AssessmentReport, block, run_entry
from .tlbo import (DIVERGENCE_SENTINEL, OptResult, TlboConfig, divergence_penalty, finite,
                   lockstep, whole)


class _Gains:
    """A controller's three gains as a dataclass, and as an array and back."""

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=float)

    @classmethod
    def from_array(cls, k):
        if np.shape(k) != (3,):
            raise ValueError(f"expected the three gains "
                             f"{', '.join(f.name for f in fields(cls))}, got shape {np.shape(k)}")
        return cls(*(float(v) for v in np.asarray(k, dtype=float)))


@dataclass(frozen=True)
class ReducedPidParams(_Gains):
    """Controller numerator coefficients (k1 + k2 q^-1 + k3 q^-2)/(1 - q^-1)."""

    k1: float
    k2: float
    k3: float

    def to_gains(self) -> "PidGains":
        kd = self.k3
        kp = -self.k2 - 2.0 * kd
        ki = self.k1 + self.k2 + self.k3
        return PidGains(kp=kp, ki=ki, kd=kd)


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


def _truncation(p, dead_time: int) -> int:
    """The truncation p of a loop with the given dead time: 8 dead times by
    default, and a whole number no shorter than the dead time."""
    p = whole(p, "truncation") if p is not None else 8 * dead_time
    if p < dead_time:
        raise ValueError(f"truncation p={p} shorter than the dead time {dead_time}")
    return p


@dataclass(frozen=True)
class SingleLoopProblem:
    process: DiscreteTransferFunction
    disturbance: DiscreteTransferFunction
    noise_variance: float = 1.0
    truncation: int | None = None  # defaults to 8 * process delay

    def __post_init__(self):
        if self.process.delay < 1:
            raise ValueError("process dead time must be >= 1 sample")
        if finite(self.noise_variance, "noise variance") < 0:
            raise ValueError("noise variance must be >= 0")
        object.__setattr__(self, "truncation", _truncation(self.truncation, self.process.delay))


class _LoopKernel:
    """Closed-loop polynomials in q^-1 of a single loop or a PI/P cascade.

    The controller integrates, dI = P e with e = r - y, and drives
    u = kappa (I - w): P = k1 + k2 q^-1 + k3 q^-2, kappa = 1 and w = 0 in the
    single loop; P = k4 + k5 q^-1, kappa = k6 and w = y2 (the inner output)
    in the cascade. For fixed gains

        A_cl = (1 - q^-1) (base + kappa inner) + kappa path P

    with base = a, inner = 0, path = q^-d b in the single loop and
    base = a1 a2, inner = a1 q^-d2 b2, path = q^-(d1+d2) b1 b2 in the
    cascade. The response to shock j is

        phi_j = (1/A_cl) [(1 - q^-1) (c_j + kappa g_j) n_j]

    with n_j the disturbance impulse response truncated to p samples,
    c = base and g = inner for the disturbance on the (outer) output, and
    c = a2 q^-d1 b1, g = 0 for the cascade's inner disturbance, where
    a2 + k6 q^-d2 b2 cancels. The forcing is affine in kappa, so it is built
    once and the gains only change A_cl. The forcing carries the truncated
    n_j rather than folding n_j's denominator into A_cl: where a disturbance
    pole equals a process pole, that product has a repeated root and loses
    accuracy.
    """

    def __init__(self, loop):
        self.loop = loop
        self.single = isinstance(loop, SingleLoopProblem)
        if self.single:
            self.path = loop.process.delayed_num
            base, inner = np.array(loop.process.den), np.zeros(1)
        else:
            qb2 = loop.inner.delayed_num
            self.path = np.convolve(loop.outer.delayed_num, qb2)
            base = np.convolve(loop.outer.den, loop.inner.den)
            inner = np.convolve(loop.outer.den, qb2)
        n = max(base.size, inner.size)
        self.base = np.pad(base, (0, n - base.size))
        self.inner = np.pad(inner, (0, n - inner.size))
        # A_cl = a0 + kappa (a1 + fb P): the differenced base and inner, and
        # the path delayed by each power of q^-1 in P
        m = 3 if self.single else 2
        size = max(n + 1, self.path.size + m - 1)
        self._a0, self._a1 = (np.diff(np.pad(v, (0, size - n)), prepend=0.0)
                              for v in (self.base, self.inner))
        self._fb = np.column_stack(
            [np.pad(self.path, (i, size - self.path.size - i)) for i in range(m)])

    def closed_loop_batch(self, ks):
        """kappa, P and A_cl of every row of an (n, 3) gain matrix, each one
        expression over the batch; one gain set is a batch of one row."""
        ks = np.asarray(ks, dtype=float)
        if ks.ndim != 2 or ks.shape[1] != 3:
            names = "k1, k2, k3" if self.single else "k4, k5, k6"
            raise ValueError(f"expected rows of the three gains {names}, got shape {ks.shape}")
        if self.single:
            # kappa is 1, and 1.0 * v is v, so the single loop skips that product
            return np.ones(len(ks)), ks, self._a0 + (self._a1 + ks @ self._fb.T)
        kappa, p = ks[:, 2], ks[:, :2]
        return kappa, p, self._a0 + kappa[:, None] * (self._a1 + p @ self._fb.T)

    def forcing(self, weights) -> tuple[np.ndarray, np.ndarray]:
        """f0 and f1 with sum_j weights[j] phi_j = (1/A_cl)(f0 + kappa f1);
        with ``weights`` a matrix, one pair of rows per row of it."""
        loop, p = self.loop, self.loop.truncation

        def row(poly, tf):
            n = tf.impulse_response(p - 1)
            return np.diff(np.convolve(poly, n)[:p], prepend=0.0)

        if self.single:
            f0, f1 = row(self.base, loop.disturbance)[None], np.zeros((1, p))
        else:
            c2 = np.convolve(loop.inner.den, loop.outer.delayed_num)
            f0 = np.array([row(self.base, loop.outer_disturbance),
                           row(c2, loop.inner_disturbance)])
            f1 = np.array([row(self.inner, loop.outer_disturbance), np.zeros(p)])
        weights = np.asarray(weights, dtype=float)
        return weights @ f0, weights @ f1

    def shock(self, ks, forcing) -> np.ndarray:
        """The shock response of ``forcing`` (from ``forcing()``) under one
        gain set, over the truncation."""
        # non-finite gains give a non-finite A_cl and response, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            kappa, _, a_cl = self.closed_loop_batch([ks])
            f0, f1 = forcing
            x = f0 + kappa[0] * f1
            return self.responses(a_cl, x.reshape(1, -1, x.shape[-1]))[0].reshape(x.shape)

    def responses(self, a_cl, x) -> np.ndarray:
        """1/A_cl of row i of the (m, n) a_cl applied from rest to every
        signal that candidate needs, in one ``lfilter`` call per row: x is
        the (1, signals, width) forcing all rows share or the
        (m, signals, width) forcing of each. Causal, so a signal zero-padded
        to the width keeps the bits of its own shorter call."""
        m, one = len(a_cl), np.ones(1)
        xs = x if len(x) == m else [x[0]] * m
        rows = [lfilter(one, a, xi) for a, xi in zip(a_cl, xs)]
        return np.array(rows) if m else np.empty((0, *x.shape[1:]))

    @cached_property
    def _unit(self):
        """f0, f1 and the scale of the variance objective; in the cascade, with
        fully correlated shocks, those of s1 phi1 + s2 phi2."""
        if self.single:
            return (*self.forcing([1.0]), self.loop.noise_variance)
        return (*self.forcing(np.sqrt(self.loop.noise_variances)), 1.0)

    def shock_forcing(self, kappa) -> np.ndarray:
        """The forcing f0 + kappa f1 of the variance objective's shock
        response under each kappa: one (m, p) row per kappa in the cascade,
        and in the single loop, where kappa is 1, one (1, p) row all share."""
        f0, f1, _ = self._unit
        return (f0 + f1)[None] if self.single else f0 + kappa[:, None] * f1

    def sum_of_squares(self, phi) -> np.ndarray:
        """Truncated output variance of each (m, p) row of shock responses,
        penalized where it diverges: every row's sum of squares in one
        stacked product. Call it inside ``np.errstate`` that ignores
        overflow and invalid operations."""
        scale = self._unit[2]
        # the (1, p) @ (p, 1) product of each row is the ddot np.vdot makes,
        # so a finite sum is guarded_variance's bit for bit; only the rows
        # whose sum is not finite pay for its ordered penalty
        v = np.matmul(phi[:, None, :], phi[:, :, None])[:, 0, 0] * scale
        bad = ~np.isfinite(v)
        if bad.any():
            v[bad] = [guarded_variance(row, scale) for row in phi[bad]]
        return v

    def variance_batch(self, ks) -> np.ndarray:
        """Truncated output variance of every row of an (n, 3) gain matrix,
        penalized where it diverges: each row's shock response through its
        1/A_cl, then ``sum_of_squares``."""
        # non-finite and huge gains give non-finite A_cl and forcings, and
        # diverging responses, all penalized rather than warned about
        with np.errstate(over="ignore", invalid="ignore"):
            kappa, _, a_cl = self.closed_loop_batch(ks)
            phi = self.responses(a_cl, self.shock_forcing(kappa)[:, None])[:, 0]
            return self.sum_of_squares(phi)

    def variance(self, ks) -> float:
        """Truncated output variance of one gain set: a batch of one row."""
        return float(self.variance_batch(np.asarray(ks, dtype=float)[None])[0])

    # the kernel is the variance objective, with the batch ``tlbo.minimize`` takes
    __call__ = variance
    batch = variance_batch

    def radius(self, ks) -> float:
        """Largest |root| of A_cl under one gain set; inf where A_cl is not
        finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            a_cl = self.closed_loop_batch([ks])[2][0]
        if not np.isfinite(a_cl).all():
            return math.inf
        return float(np.abs(np.roots(a_cl)).max(initial=0.0))


def closed_loop_impulse(problem: SingleLoopProblem, k: ReducedPidParams) -> np.ndarray:
    """Closed-loop response phi(0..p-1) to a unit disturbance shock.

    phi(0) always equals the leading disturbance coefficient: feedback cannot
    act before the dead time elapses.
    """
    kernel = _LoopKernel(problem)
    return kernel.shock(k.as_array(), kernel.forcing([1.0]))


def closed_loop_radius(loop, params) -> float:
    """Largest |root| of the closed-loop polynomial A_cl of a single loop or
    a cascade under the given gains; the loop is stable below 1."""
    return _LoopKernel(loop).radius(params)


def guarded_variance(phi: np.ndarray, noise_variance: float) -> float:
    """phi'phi * sigma^2 with an order-preserving penalty where float64
    overflows; divergence that overflows earlier ranks worse."""
    # vdot is the ddot of phi @ phi, but it raises no overflow warning on a
    # diverging phi; only a non-finite sum pays for the scan
    v = float(np.vdot(phi, phi)) * noise_variance
    if math.isfinite(v):
        return v
    bad = ~np.isfinite(phi)
    if bad.any():
        return divergence_penalty(int(np.argmax(bad)), phi.size)
    return DIVERGENCE_SENTINEL


def cpa_objective(problem: SingleLoopProblem) -> _LoopKernel:
    """Truncated output variance as a function of (k1, k2, k3)."""
    return _LoopKernel(problem)


def mv_benchmark(problem: SingleLoopProblem) -> float:
    """Variance of the feedback-invariant part of the disturbance response:
    sigma^2 * sum of the first d squared disturbance coefficients."""
    d = problem.process.delay
    nbar = problem.disturbance.impulse_response(d - 1)
    return float(nbar @ nbar) * problem.noise_variance


class AssessmentError(RuntimeError):
    pass


def seeded_runs(objective, cfg: TlboConfig, runs: int) -> list[OptResult]:
    """One optimizer run of ``objective`` per seed derived from ``cfg.seed``,
    over the three controller gains, the runs stepped in lockstep."""
    if (runs := whole(runs, "runs")) < 1:
        raise ValueError("runs must be >= 1")
    return lockstep(objective, cfg, np.random.SeedSequence(cfg.seed).generate_state(runs))


def _assess(problem, objective, cfg: TlboConfig | None, runs: int,
            mv: float | None = None) -> AssessmentReport:
    """Statistics of independent seeded runs minimizing ``objective``; the
    single loop and the cascade differ only in the objective and the MV floor."""
    cfg = cfg or TlboConfig(dimensions=3)
    results = seeded_runs(objective, cfg, runs)
    for r in results:
        if not math.isfinite(r.best_fitness) or r.best_fitness >= DIVERGENCE_SENTINEL:
            raise AssessmentError(
                f"optimizer failed to find a finite-variance controller "
                f"(best fitness {r.best_fitness:.3e})"
            )
    fits = np.array([r.best_fitness for r in results])
    points = np.vstack([r.best_point for r in results])
    ddof = 1 if len(results) > 1 else 0      # one run has no spread: std 0.0
    mov, params_best = float(fits.mean()), points[int(np.argmin(fits))]
    summary = summarize_problem(problem)
    return AssessmentReport(
        kind=summary["type"],
        mov=mov,
        mov_std=float(fits.std(ddof=ddof)),
        mov_worst=float(fits.max()),
        mov_best=float(fits.min()),
        params_mean=points.mean(axis=0),
        params_std=points.std(axis=0, ddof=ddof),
        params_best=params_best,
        # at a point some run found: the mean of optima in different basins
        # may be a controller no run found, and unstable
        closed_loop_radius=closed_loop_radius(problem, params_best),
        mv=mv,
        eta=None if mv is None else (mv / mov if mov > 0 else float("nan")),
        runs=len(results),
        evaluations=sum(r.evaluations for r in results),
        mean_elapsed=float(np.mean([r.elapsed for r in results])),
        per_run=[run_entry(r) for r in results],
        problem_summary=summary,
        optimizer_config=cfg,
        run_histories=[r.fitness_history for r in results],
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
    field."""
    kind = "single" if isinstance(problem, SingleLoopProblem) else "cascade"
    return {"type": kind, **block(problem)}
