"""Achievable-performance math for a PI/P cascade.

The primary (outer) controller is PI, (k4 + k5 q^-1)/(1 - q^-1); the
secondary (inner) controller is a pure gain k6. With both setpoints at zero
and unit shocks on the two disturbances, the outer output decomposes as
phi1*a1(0) + phi2*a2(0), where

    A_cl = (1 - q^-1) a1 (a2 + k6 q^-d2 b2) + k6 q^-(d1+d2) b1 b2 (k4 + k5 q^-1)
    phi1 = (1/A_cl) [(1 - q^-1) a1 (a2 + k6 q^-d2 b2) n1]
    phi2 = (1/A_cl) [(1 - q^-1) a2 q^-d1 b1 n2]

with n1, n2 the disturbance impulse responses truncated to p samples. The
closed-loop polynomial and the forcings come from the kernel the single
loop uses (``singleloop._LoopKernel``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import DiscreteTransferFunction
from .reports import AssessmentReport
from .singleloop import _assess, _Gains, _LoopKernel, _truncation
from .tlbo import TlboConfig, finite


@dataclass(frozen=True)
class CascadeParams(_Gains):
    k4: float
    k5: float
    k6: float


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
        v1, v2 = (finite(v, "noise variance") for v in self.noise_variances)
        if v1 < 0 or v2 < 0:
            raise ValueError("noise variances must be >= 0")
        object.__setattr__(self, "noise_variances", (v1, v2))
        object.__setattr__(self, "truncation",
                           _truncation(self.truncation, self.outer.delay + self.inner.delay))


def cascade_impulse(problem: CascadeProblem, k: CascadeParams) -> np.ndarray:
    """Outer-output responses to unit shocks on the two disturbances, one row
    each: (2, p), so ``phi1, phi2 = cascade_impulse(...)``."""
    kernel = _LoopKernel(problem)
    return kernel.shock(k.as_array(), kernel.forcing(np.eye(2)))


def cascade_objective(problem: CascadeProblem) -> _LoopKernel:
    """Outer-output variance as a function of (k4, k5, k6), with fully
    correlated shocks: phi1'phi1 s1^2 + phi2'phi2 s2^2 + 2 phi1'phi2 s1 s2."""
    return _LoopKernel(problem)


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
