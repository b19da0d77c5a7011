"""Monte-Carlo validation of the analytic variances.

The oracle drives the closed loop sample-by-sample with white Gaussian
noise, keeping the controller and every transfer function as separate
difference equations. The estimator shares nothing with the analytic
closed-loop kernel, so agreement between the two is evidence, not
tautology (the analytic shock response is consulted only to refuse loops
whose response does not decay before a long simulation is wasted on them).

A run of N samples is split into R = max(1, N // CHAIN_SAMPLES) independent
chains of L = N // R samples each, stepped together: every step of the
difference equations acts on one (R,) row of time-major (L, R) arrays, so
the Python loop runs L times, not N. Each chain starts at rest, has its own
shocks (one (R, L) draw per noise source) and discards its own
burn_in // R samples. Below 2 * CHAIN_SAMPLES there is one chain, and the
run is the plain sample-by-sample simulation. The estimate is the variance
of all kept samples; its standard error is the spread of the variances of
50 equal batches of the kept samples, laid out chain after chain, over
sqrt(50).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .cascade import CascadeParams, CascadeProblem, cascade_impulse
from .lti import DiscreteTransferFunction
from .singleloop import ReducedPidParams, SingleLoopProblem, closed_loop_impulse
from .tlbo import whole

CHAIN_SAMPLES = 10_000
DIVERGENCE_LIMIT = 1e9
VALIDATION_RTOL = 0.02    # accepted relative error of an estimate against the analytic value


class McStabilityError(RuntimeError):
    pass


@dataclass(frozen=True)
class McConfig:
    samples: int
    burn_in: int | None = None            # default samples // 10
    seed: int = 0
    correlation_mode: str = "independent"  # cascade only; or "fully_correlated"

    def __post_init__(self):
        for name in ("samples", "seed"):
            object.__setattr__(self, name, whole(getattr(self, name), name))
        burn = (whole(self.burn_in, "burn_in") if self.burn_in is not None
                else self.samples // 10)
        if self.samples <= burn or burn < 0:
            raise ValueError("need samples > burn_in >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.correlation_mode not in ("independent", "fully_correlated"):
            raise ValueError(f"unknown correlation mode {self.correlation_mode!r}")
        object.__setattr__(self, "burn_in", burn)
        _, length, chain_burn = self.layout
        if length <= chain_burn:
            raise ValueError(f"chains of {length} samples keep none after "
                             f"their burn-in of {chain_burn} samples")

    @property
    def layout(self) -> tuple[int, int, int]:
        """Chains, samples per chain and burn-in per chain."""
        chains = max(1, self.samples // CHAIN_SAMPLES)
        return chains, self.samples // chains, self.burn_in // chains


@dataclass
class McEstimate:
    estimate: float
    standard_error: float
    samples: int
    burn_in: int
    mode: str
    chains: int = 1

    def validation_block(self, analytic: float) -> dict:
        rel = abs(self.estimate - analytic) / analytic if analytic else math.inf
        se = self.standard_error
        return {
            "mode": self.mode,
            "samples": self.samples,
            "burn_in": self.burn_in,
            "chains": self.chains,
            "estimate": self.estimate,
            "standard_error": se,
            "analytic": analytic,
            "relative_error": rel,
            "z": (self.estimate - analytic) / se if se else math.nan,
            # too few samples for the relative-error check to tell right from wrong
            "underpowered": 3 * se > VALIDATION_RTOL * self.estimate,
        }


def _variance_with_se(y: np.ndarray, burn: int, mode: str) -> McEstimate:
    """Estimate from time-major outputs (L, R), each chain after its burn-in."""
    chains = y.shape[1]
    post = y[burn:].T.ravel()
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
        burn_in=chains * burn,
        mode=mode,
        chains=chains,
    )


def _filter_path(tf: DiscreteTransferFunction, x: np.ndarray) -> np.ndarray:
    """Open-loop filtering of exogenous signals (L, R) through num/den * q^-delay."""
    b = np.zeros(tf.delay + len(tf.num))
    b[tf.delay:] = tf.num
    return lfilter(b, tf.den, x, axis=0)


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


def _simulate_single(problem: SingleLoopProblem, k: ReducedPidParams, w: np.ndarray) -> np.ndarray:
    """Outputs (L, R) of R single-loop chains started at rest, driven by the
    output disturbances w (L, R)."""
    tf = problem.process
    b = list(tf.num)
    a = list(tf.den[1:])
    d = tf.delay
    k1, k2, k3 = k.k1, k.k2, k.k3

    n, chains = w.shape
    h = d + len(b) + len(a)    # rows of rest ahead of sample 0, enough for every lag
    u, x = np.zeros((2, h + n, chains))
    y = np.empty((n, chains))
    e1 = e2 = np.zeros(chains)
    for t in range(n):
        s = h + t
        acc = 0.0
        for j, bj in enumerate(b):
            acc = acc + bj * u[s - d - j]
        for i, ai in enumerate(a):
            acc = acc - ai * x[s - 1 - i]
        x[s] = acc
        yt = acc + w[t]
        y[t] = yt
        if not (np.abs(yt) <= DIVERGENCE_LIMIT).all():
            raise McStabilityError(f"single loop diverged at sample {t}")
        e = -yt
        u[s] = u[s - 1] + k1 * e + k2 * e1 + k3 * e2
        e2, e1 = e1, e
    return y


def _simulate_cascade(
    problem: CascadeProblem, k: CascadeParams, w1: np.ndarray, w2: np.ndarray
) -> np.ndarray:
    """Outer outputs (L, R) of R cascade chains started at rest, driven by the
    outer and inner output disturbances w1, w2 (L, R)."""
    b1, a1, d1 = list(problem.outer.num), list(problem.outer.den[1:]), problem.outer.delay
    b2, a2, d2 = list(problem.inner.num), list(problem.inner.den[1:]), problem.inner.delay
    k4, k5, k6 = k.k4, k.k5, k.k6

    n, chains = w1.shape
    h = d1 + d2 + len(b1) + len(b2) + len(a1) + len(a2)    # rows of rest ahead of sample 0
    u, x1, x2, y2 = np.zeros((4, h + n, chains))
    y1 = np.empty((n, chains))
    v = e1p = np.zeros(chains)
    for t in range(n):
        s = h + t
        acc2 = 0.0
        for j, bj in enumerate(b2):
            acc2 = acc2 + bj * u[s - d2 - j]
        for i, ai in enumerate(a2):
            acc2 = acc2 - ai * x2[s - 1 - i]
        x2[s] = acc2
        y2t = acc2 + w2[t]
        y2[s] = y2t

        acc1 = 0.0
        for j, bj in enumerate(b1):
            acc1 = acc1 + bj * y2[s - d1 - j]
        for i, ai in enumerate(a1):
            acc1 = acc1 - ai * x1[s - 1 - i]
        x1[s] = acc1
        y1t = acc1 + w1[t]
        y1[t] = y1t
        if not (np.abs(y1t) <= DIVERGENCE_LIMIT).all():
            raise McStabilityError(f"cascade loop diverged at sample {t}")

        e1 = -y1t
        v = v + k4 * e1 + k5 * e1p
        e1p = e1
        u[s] = k6 * (v - y2t)
    return y1


def mc_variance_single(
    problem: SingleLoopProblem, k: ReducedPidParams, cfg: McConfig
) -> McEstimate:
    """Empirical output variance of the stochastic single loop."""
    probe = replace(problem, truncation=16 * problem.process.delay)
    _check_decay([closed_loop_impulse(probe, k)], "single loop")

    chains, length, burn = cfg.layout
    rng = np.random.default_rng(cfg.seed)
    shocks = rng.standard_normal((chains, length)).T * math.sqrt(problem.noise_variance)
    w = _filter_path(problem.disturbance, shocks)
    return _variance_with_se(_simulate_single(problem, k, w), burn, "single")


def mc_variance_cascade(
    problem: CascadeProblem, k: CascadeParams, cfg: McConfig
) -> McEstimate:
    """Empirical outer-output variance of the stochastic cascade.

    In fully_correlated mode the inner shock is a scaled copy of the outer
    one, which is the reading under which the analytic cross term holds
    exactly; in independent mode the cross contribution averages out.
    """
    probe = replace(problem, truncation=16 * (problem.outer.delay + problem.inner.delay))
    _check_decay(cascade_impulse(probe, k), "cascade")

    chains, length, burn = cfg.layout
    s1 = math.sqrt(problem.noise_variances[0])
    s2 = math.sqrt(problem.noise_variances[1])
    rng = np.random.default_rng(cfg.seed)
    z1 = rng.standard_normal((chains, length)).T
    if cfg.correlation_mode == "fully_correlated":
        z2 = z1
    else:
        z2 = rng.standard_normal((chains, length)).T
    w1 = _filter_path(problem.outer_disturbance, s1 * z1)
    w2 = _filter_path(problem.inner_disturbance, s2 * z2)
    y1 = _simulate_cascade(problem, k, w1, w2)
    return _variance_with_se(y1, burn, cfg.correlation_mode)
