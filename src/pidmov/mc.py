"""Monte-Carlo validation of the analytic variances.

The oracle drives the closed loop sample-by-sample with white Gaussian
noise, keeping the controller and every transfer function as separate
difference equations. The estimator shares nothing with the analytic
closed-loop kernel, so agreement between the two is evidence, not
tautology (the analytic shock response is consulted only to refuse loops
whose response does not decay before a long simulation is wasted on them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .cascade import CascadeParams, CascadeProblem, cascade_impulse
from .lti import DiscreteTransferFunction
from .singleloop import ReducedPidParams, SingleLoopProblem, closed_loop_impulse

DIVERGENCE_LIMIT = 1e9


class McStabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class McConfig:
    samples: int
    burn_in: int | None = None            # default samples // 10
    seed: int = 0
    correlation_mode: str = "independent"  # cascade only; or "fully_correlated"

    def __post_init__(self):
        burn = self.burn_in if self.burn_in is not None else self.samples // 10
        if self.samples <= burn or burn < 0:
            raise ValueError("need samples > burn_in >= 0")
        if self.correlation_mode not in ("independent", "fully_correlated"):
            raise ValueError(f"unknown correlation mode {self.correlation_mode!r}")
        object.__setattr__(self, "burn_in", int(burn))


@dataclass
class McEstimate:
    estimate: float
    standard_error: float
    samples: int
    burn_in: int
    mode: str

    def validation_block(self, analytic: float) -> dict:
        rel = abs(self.estimate - analytic) / analytic if analytic else math.inf
        return {
            "mode": self.mode,
            "samples": self.samples,
            "burn_in": self.burn_in,
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "analytic": analytic,
            "relative_error": rel,
        }


def _variance_with_se(y: np.ndarray, burn: int, mode: str) -> McEstimate:
    post = y[burn:]
    est = float(np.var(post))
    nbatch = 50 if post.size >= 5000 else max(2, post.size // 100)
    usable = (post.size // nbatch) * nbatch
    batches = post[:usable].reshape(nbatch, -1)
    bvars = batches.var(axis=1)
    se = float(bvars.std(ddof=1) / math.sqrt(nbatch))
    return McEstimate(
        estimate=est,
        standard_error=se,
        samples=y.size,
        burn_in=burn,
        mode=mode,
    )


def _filter_path(tf: DiscreteTransferFunction, x: np.ndarray) -> np.ndarray:
    """Open-loop filtering of an exogenous signal through num/den * q^-delay."""
    b = np.zeros(tf.delay + len(tf.num))
    b[tf.delay:] = tf.num
    return lfilter(b, tf.den, x)


def _check_decay(phis, label: str):
    """Reject loops whose shock response does not die out over 16 dead times."""
    for phi in phis:
        if not np.all(np.isfinite(phi)):
            raise McStabilityError(f"{label}: closed-loop response diverges")
        n = phi.size
        head = float(phi[: n // 2] @ phi[: n // 2])
        tail = float(phi[n // 2 :] @ phi[n // 2 :])
        if head == 0.0:
            continue
        if tail > 0.5 * head:
            raise McStabilityError(
                f"{label}: closed-loop response does not decay "
                f"(tail/head energy ratio {tail / head:.3f})"
            )


def mc_variance_single(
    problem: SingleLoopProblem, k: ReducedPidParams, cfg: McConfig
) -> McEstimate:
    """Empirical output variance of the stochastic single loop."""
    probe = replace(problem, truncation=16 * problem.process.delay)
    _check_decay([closed_loop_impulse(probe, k).coeffs], "single loop")

    n = cfg.samples
    rng = np.random.default_rng(cfg.seed)
    shocks = rng.standard_normal(n) * math.sqrt(problem.noise_variance)
    w = _filter_path(problem.disturbance, shocks).tolist()

    tf = problem.process
    b = list(tf.num)
    a = list(tf.den[1:])
    d = tf.delay
    nb, na = len(b), len(a)
    k1, k2, k3 = k.k1, k.k2, k.k3

    u = [0.0] * n
    x = [0.0] * n
    y = [0.0] * n
    e1 = e2 = 0.0
    for t in range(n):
        acc = 0.0
        for j in range(nb):
            idx = t - d - j
            if idx >= 0:
                acc += b[j] * u[idx]
        for i in range(na):
            idx = t - 1 - i
            if idx >= 0:
                acc -= a[i] * x[idx]
        x[t] = acc
        yt = acc + w[t]
        y[t] = yt
        if abs(yt) > DIVERGENCE_LIMIT:
            raise McStabilityError(f"single loop diverged at sample {t}")
        e = -yt
        u[t] = (u[t - 1] if t >= 1 else 0.0) + k1 * e + k2 * e1 + k3 * e2
        e2, e1 = e1, e
    return _variance_with_se(np.asarray(y), cfg.burn_in, "single")


def mc_variance_cascade(
    problem: CascadeProblem, k: CascadeParams, cfg: McConfig
) -> McEstimate:
    """Empirical outer-output variance of the stochastic cascade.

    In fully_correlated mode the inner shock is a scaled copy of the outer
    one, which is the reading under which the analytic cross term holds
    exactly; in independent mode the cross contribution averages out.
    """
    probe = replace(problem, truncation=16 * (problem.outer.delay + problem.inner.delay))
    _check_decay([phi.coeffs for phi in cascade_impulse(probe, k)], "cascade")

    n = cfg.samples
    s1 = math.sqrt(problem.noise_variances[0])
    s2 = math.sqrt(problem.noise_variances[1])
    rng = np.random.default_rng(cfg.seed)
    z1 = rng.standard_normal(n)
    if cfg.correlation_mode == "fully_correlated":
        z2 = z1
    else:
        z2 = rng.standard_normal(n)
    w1 = _filter_path(problem.outer_disturbance, s1 * z1).tolist()
    w2 = _filter_path(problem.inner_disturbance, s2 * z2).tolist()

    b1, a1, d1 = list(problem.outer.num), list(problem.outer.den[1:]), problem.outer.delay
    b2, a2, d2 = list(problem.inner.num), list(problem.inner.den[1:]), problem.inner.delay
    k4, k5, k6 = k.k4, k.k5, k.k6

    u = [0.0] * n
    x1 = [0.0] * n
    x2 = [0.0] * n
    y1 = [0.0] * n
    y2 = [0.0] * n
    v = 0.0
    e1p = 0.0
    for t in range(n):
        acc2 = 0.0
        for j in range(len(b2)):
            idx = t - d2 - j
            if idx >= 0:
                acc2 += b2[j] * u[idx]
        for i in range(len(a2)):
            idx = t - 1 - i
            if idx >= 0:
                acc2 -= a2[i] * x2[idx]
        x2[t] = acc2
        y2t = acc2 + w2[t]
        y2[t] = y2t

        acc1 = 0.0
        for j in range(len(b1)):
            idx = t - d1 - j
            if idx >= 0:
                acc1 += b1[j] * y2[idx]
        for i in range(len(a1)):
            idx = t - 1 - i
            if idx >= 0:
                acc1 -= a1[i] * x1[idx]
        x1[t] = acc1
        y1t = acc1 + w1[t]
        y1[t] = y1t
        if abs(y1t) > DIVERGENCE_LIMIT:
            raise McStabilityError(f"cascade loop diverged at sample {t}")

        e1 = -y1t
        v = v + k4 * e1 + k5 * e1p
        e1p = e1
        u[t] = k6 * (v - y2t)
    return _variance_with_se(np.asarray(y1), cfg.burn_in, cfg.correlation_mode)
