"""Achievable-performance math for a PI/P cascade.

The primary (outer) controller is PI, (k4 + k5 q^-1)/(1 - q^-1); the
secondary (inner) controller is a pure gain k6. With both setpoints at zero
and unit shocks on the two disturbances, the outer output decomposes as
phi1*a1(0) + phi2*a2(0) where, in the truncated series algebra,

    A    = I + k6*Im2
    W    = k4*k6*Im1*A^-1*S2 + k5*k6*Im1*A^-1*F*S2
    phi1 = (I + W)^-1 nbar1
    phi2 = (I + W)^-1 Im1 A^-1 nbar2

Im1/Im2 are the process impulse-response operators, S2 the inner step
response operator (the PI integrator folds into the inner process path).
Both dead times are >= 1, so (I + W) and A are unit lower triangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import (
    DiscreteTransferFunction,
    ImpulseSeq,
    conv_trunc,
    identity_series,
    shift_trunc,
    solve_trunc,
)
from .reports import AssessmentReport
from .singleloop import CountingObjective, _assess, guarded_variance
from .tlbo import TlboConfig


@dataclass(frozen=True)
class CascadeParams:
    k4: float
    k5: float
    k6: float

    def as_array(self) -> np.ndarray:
        return np.array([self.k4, self.k5, self.k6], dtype=float)

    @classmethod
    def from_array(cls, k) -> "CascadeParams":
        k = np.asarray(k, dtype=float)
        return cls(k4=float(k[0]), k5=float(k[1]), k6=float(k[2]))


@dataclass(frozen=True)
class CascadeProblem:
    outer: DiscreteTransferFunction
    inner: DiscreteTransferFunction
    outer_disturbance: DiscreteTransferFunction
    inner_disturbance: DiscreteTransferFunction
    noise_variances: tuple[float, float] = (1.0, 1.0)
    truncation: int | None = None  # defaults to 8 * (d1 + d2)

    def __post_init__(self):
        if self.outer.delay < 1 or self.inner.delay < 1:
            raise ValueError("both loop dead times must be >= 1 sample")
        v1, v2 = self.noise_variances
        if v1 < 0 or v2 < 0:
            raise ValueError("noise variances must be >= 0")
        object.__setattr__(self, "noise_variances", (float(v1), float(v2)))
        dsum = self.outer.delay + self.inner.delay
        p = self.truncation if self.truncation is not None else 8 * dsum
        if p < dsum:
            raise ValueError(f"truncation p={p} shorter than the total dead time {dsum}")
        object.__setattr__(self, "truncation", int(p))


def _cascade_series(problem: CascadeProblem):
    p = problem.truncation
    g1 = problem.outer.impulse_response(p - 1).coeffs
    g2 = problem.inner.impulse_response(p - 1).coeffs
    s2 = np.cumsum(g2)
    n1 = problem.outer_disturbance.impulse_response(p - 1).coeffs
    n2 = problem.inner_disturbance.impulse_response(p - 1).coeffs
    return identity_series(p), g1, g2, s2, n1, n2


def _phis(e0, g1, g2, s2, n1, n2, k):
    k4, k5, k6 = k
    with np.errstate(over="ignore", invalid="ignore"):
        a_series = e0 + k6 * g2
        inner_step = solve_trunc(a_series, s2)        # A^-1 S2 column
        w = conv_trunc(g1, k4 * k6 * inner_step + k5 * k6 * shift_trunc(inner_step, 1))
        iw = e0 + w
        phi1 = solve_trunc(iw, n1)
        phi2 = solve_trunc(iw, conv_trunc(g1, solve_trunc(a_series, n2)))
    return phi1, phi2


def cascade_impulse(
    problem: CascadeProblem, k: CascadeParams
) -> tuple[ImpulseSeq, ImpulseSeq]:
    """Outer-output responses to unit shocks on the two disturbances."""
    phi1, phi2 = _phis(*_cascade_series(problem), k.as_array())
    return ImpulseSeq(phi1, kind="impulse"), ImpulseSeq(phi2, kind="impulse")


def cascade_variance(
    phi1: ImpulseSeq, phi2: ImpulseSeq, sigma1: float, sigma2: float
) -> float:
    """phi1'phi1 s1^2 + phi2'phi2 s2^2 + 2 phi1'phi2 s1 s2.

    The cross term assumes fully correlated shocks; the Monte-Carlo oracle
    exposes both that reading and the independent one.
    """
    if len(phi1) != len(phi2):
        raise ValueError(f"length mismatch: {len(phi1)} vs {len(phi2)}")
    if sigma1 < 0 or sigma2 < 0:
        raise ValueError("standard deviations must be >= 0")
    a, b = phi1.coeffs, phi2.coeffs
    return (
        float(a @ a) * sigma1**2
        + float(b @ b) * sigma2**2
        + 2.0 * float(a @ b) * sigma1 * sigma2
    )


def cascade_objective(problem: CascadeProblem) -> CountingObjective:
    """Outer-output variance as a function of (k4, k5, k6)."""
    series = _cascade_series(problem)
    s1 = math.sqrt(problem.noise_variances[0])
    s2 = math.sqrt(problem.noise_variances[1])

    def fn(k: np.ndarray) -> float:
        phi1, phi2 = _phis(*series, k)
        # the fully correlated cross term makes the variance one sum of squares
        with np.errstate(over="ignore", invalid="ignore"):
            return guarded_variance(s1 * phi1 + s2 * phi2, 1.0)

    return CountingObjective(fn)


def assess_cascade(
    problem: CascadeProblem,
    cfg: TlboConfig | None = None,
    runs: int = 30,
) -> AssessmentReport:
    """Estimate the achievable outer-output variance over independent runs.

    The cascade variance landscape can hold a spurious basin near the
    "both loops open" ridge (tiny secondary gain, differenced primary), so
    the achievability claim is carried by ``mov_best``; mean/std remain the
    run-to-run reliability statistics.
    """
    return _assess(problem, cascade_objective(problem), cfg, runs)
