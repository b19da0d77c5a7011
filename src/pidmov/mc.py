"""Monte-Carlo validation of the analytic variances.

The oracle drives the closed loop with white Gaussian noise, keeping the
controller and every transfer function as separate difference equations.
The estimator shares nothing with the analytic closed-loop kernel, so
agreement between the two is evidence, not tautology (the analytic shock
response is consulted only to refuse loops whose response does not decay
before a long simulation is wasted on them).

A run of N samples with burn-in B is split into independent chains sized by
the loop's own settling time. The settling probe runs the oracle's own
simulators on the loop's response to a unit shock from rest, one column per
noise source, each through its disturbance filter. Scaled by each source's
noise standard deviation, the columns give the response energy per sample:
the square of their sum with fully correlated cascade shocks, the sum of
their squares otherwise. From rest Var(y_t) grows as the energy up to t, so
``settle`` is the number of samples up to and including the first one after
which the response holds at most SETTLE_TOL of its total energy: from there
on each sample's variance falls short of the stationary one by at most
SETTLE_TOL. The probe's horizon starts at 16 dead times (of both loops in
the cascade) and doubles until its last half holds at most SETTLE_TOL of the
energy, stopping once it reaches B; a loop that has not settled by then has
no ``settle`` (None) and runs as one chain. Otherwise the run has
R = max(1, B // settle) chains, capped at N - B - MIN_KEPT_SAMPLES + 1 so it
keeps at least MIN_KEPT_SAMPLES samples, of L = N // R samples each, and
each chain discards its own B // R >= settle samples.

The chains are stepped together over the (R,) rows of time-major (L, R)
arrays, one dead time at a time: the process inputs of the next d samples
(d2, the inner dead time, in the cascade) are already known. So each
numerator term, the outputs and errors, and the controller's running sum
(one np.add.accumulate, which adds row after row) are one expression per
block, and only the denominator recursion runs sample by sample. Every
sample keeps the float operations, in their order, of the plain
sample-by-sample simulation, so the outputs equal it bit for bit while the
Python loop runs about L / d times, not N. Each chain starts at rest and has
its own shocks (one (R, L) draw per noise source). The estimate is the
variance of all kept samples; its standard error is the spread of the
variances of 50 equal batches of the kept samples, laid out chain after
chain, over sqrt(50) (fewer batches, at least two of two samples, for runs
that keep fewer than 5000).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .cascade import CascadeParams, CascadeProblem, cascade_impulse
from .lti import DiscreteTransferFunction
from .singleloop import ReducedPidParams, SingleLoopProblem, closed_loop_impulse
from .tlbo import whole

DIVERGENCE_LIMIT = 1e9
VALIDATION_RTOL = 0.02    # accepted relative error of an estimate against the analytic value
MIN_KEPT_SAMPLES = 4      # two batches of two, the fewest with a nonzero batch spread
SETTLE_TOL = 1e-6         # shock-response energy a chain may leave after its burn-in


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
        kept = self.samples - burn
        if kept < MIN_KEPT_SAMPLES:
            raise ValueError(f"{self.samples} samples keep {kept} after a burn-in of "
                             f"{burn} samples, fewer than the "
                             f"{MIN_KEPT_SAMPLES} the standard error needs")

    def layout(self, settle: int | None) -> tuple[int, int, int]:
        """Chains, samples per chain and burn-in per chain for a loop that
        settles within ``settle`` samples (None: not within the burn-in)."""
        chains = 1
        if settle is not None:
            cap = self.samples - self.burn_in - MIN_KEPT_SAMPLES + 1
            chains = max(1, min(self.burn_in // settle, cap))
        return chains, self.samples // chains, self.burn_in // chains


@dataclass
class McEstimate:
    estimate: float
    standard_error: float
    samples: int
    burn_in: int
    mode: str
    chains: int = 1
    settle: int | None = None

    def validation_block(self, analytic: float) -> dict:
        rel = abs(self.estimate - analytic) / analytic if analytic else math.inf
        se = self.standard_error
        return {
            "mode": self.mode,
            "samples": self.samples,
            "burn_in": self.burn_in,
            "chains": self.chains,
            "settle": self.settle,
            "estimate": self.estimate,
            "standard_error": se,
            "analytic": analytic,
            "relative_error": rel,
            "z": (self.estimate - analytic) / se if se else math.nan,
            # too few samples for the relative-error check to tell right from wrong
            "underpowered": 3 * se > VALIDATION_RTOL * self.estimate,
        }


def _variance_with_se(y: np.ndarray, burn: int, mode: str, settle: int | None) -> McEstimate:
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
        settle=settle,
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


def _process_block(x: np.ndarray, inp: np.ndarray, tf: DiscreteTransferFunction,
                   s0: int, m: int) -> np.ndarray:
    """Write rows s0..s0+m-1 of the state x of num/den * q^-delay driven by inp,
    and return them; inp must be known up to row s0 + m - 1 - delay.

    Each sample is ((0.0 + b0 inp[s-d]) + b1 inp[s-d-1] + ...) - a1 x[s-1] - ...:
    each numerator term is one expression over the block, the denominator
    recursion runs sample by sample.
    """
    lag = s0 - tf.delay
    acc = 0.0
    for j, bj in enumerate(tf.num):
        acc = acc + bj * inp[lag - j:lag - j + m]
    block = x[s0:s0 + m]
    block[...] = acc
    a = tf.den[1:]
    for s in range(s0, s0 + m):
        xs = x[s]
        for i, ai in enumerate(a):
            np.subtract(xs, ai * x[s - 1 - i], out=xs)
    return block


def _check_outputs(y: np.ndarray, label: str):
    """Raise at the first sample where some chain fails |y| <= DIVERGENCE_LIMIT
    (NaN included)."""
    if not (-DIVERGENCE_LIMIT <= y.min() and y.max() <= DIVERGENCE_LIMIT):
        t = int(np.argmin((np.abs(y) <= DIVERGENCE_LIMIT).all(axis=1)))
        raise McStabilityError(f"{label} diverged at sample {t}")


def _simulate_single(problem: SingleLoopProblem, k: ReducedPidParams, w: np.ndarray) -> np.ndarray:
    """Outputs (L, R) of R single-loop chains started at rest, driven by the
    output disturbances w (L, R)."""
    tf = problem.process
    d = tf.delay
    k1, k2, k3 = k.k1, k.k2, k.k3

    n, chains = w.shape
    h = d + len(tf.num) + len(tf.den)    # rows of rest ahead of sample 0, enough for every lag
    u, x = np.zeros((2, h + n, chains))
    y = np.empty((n, chains))
    e = np.zeros((d + 2, chains))        # e[s0-2], e[s0-1], then the block's errors
    steps = np.zeros((3 * d + 1, chains))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, n, d):        # a block of d samples reads only earlier u
            m = min(d, n - t0)
            s0 = h + t0
            np.add(_process_block(x, u, tf, s0, m), w[t0:t0 + m], out=y[t0:t0 + m])
            np.negative(y[t0:t0 + m], out=e[2:m + 2])
            # u[s] = ((u[s-1] + k1 e[s]) + k2 e[s-1]) + k3 e[s-2]: a running sum
            # over the rows u[s0-1], k1 e[s0], k2 e[s0-1], k3 e[s0-2], k1 e[s0+1], ...
            rows = steps[:3 * m + 1]
            np.multiply(k1, e[2:m + 2], out=rows[1::3])
            np.multiply(k2, e[1:m + 1], out=rows[2::3])
            np.multiply(k3, e[:m], out=rows[3::3])
            np.add.accumulate(rows, axis=0, out=rows)
            u[s0:s0 + m] = rows[3::3]
            steps[0] = rows[-1]
            e[:2] = e[m:m + 2]
    _check_outputs(y, "single loop")
    return y


def _simulate_cascade(
    problem: CascadeProblem, k: CascadeParams, w1: np.ndarray, w2: np.ndarray
) -> np.ndarray:
    """Outer outputs (L, R) of R cascade chains started at rest, driven by the
    outer and inner output disturbances w1, w2 (L, R)."""
    outer, inner = problem.outer, problem.inner
    d2 = inner.delay
    k4, k5, k6 = k.k4, k.k5, k.k6

    n, chains = w1.shape
    h = sum(tf.delay + len(tf.num) + len(tf.den) for tf in (outer, inner))    # rows of rest
    u, x1, x2, y2 = np.zeros((4, h + n, chains))
    y1 = np.empty((n, chains))
    e = np.zeros((d2 + 1, chains))       # e[s0-1], then the block's outer errors
    steps = np.zeros((2 * d2 + 1, chains))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, n, d2):       # a block of d2 samples reads only earlier u
            m = min(d2, n - t0)
            s0 = h + t0
            y2t = np.add(_process_block(x2, u, inner, s0, m), w2[t0:t0 + m],
                         out=y2[s0:s0 + m])
            np.add(_process_block(x1, y2, outer, s0, m), w1[t0:t0 + m], out=y1[t0:t0 + m])
            np.negative(y1[t0:t0 + m], out=e[1:m + 1])
            # v[s] = (v[s-1] + k4 e[s]) + k5 e[s-1]: a running sum over the rows
            # v[s0-1], k4 e[s0], k5 e[s0-1], k4 e[s0+1], ...
            rows = steps[:2 * m + 1]
            np.multiply(k4, e[1:m + 1], out=rows[1::2])
            np.multiply(k5, e[:m], out=rows[2::2])
            np.add.accumulate(rows, axis=0, out=rows)
            ut = np.subtract(rows[2::2], y2t, out=u[s0:s0 + m])
            np.multiply(k6, ut, out=ut)
            steps[0] = rows[-1]
            e[0] = e[m]
    _check_outputs(y1, "cascade loop")
    return y1


def _settle(energy: Callable[[int], np.ndarray], horizon: int, burn_in: int) -> int | None:
    """Samples up to and including the first one after which the shock
    response energy per sample, ``energy(n)`` over n samples from rest, holds
    at most SETTLE_TOL of its total; None when the horizon, doubled from
    ``horizon``, reaches ``burn_in`` before its last half holds that little.
    A response that diverges is reported as the probe's, at its own sample."""
    while True:
        try:
            e = energy(horizon)
        except McStabilityError as exc:
            raise McStabilityError(
                f"settling probe (unit-shock response over {horizon} samples): {exc}") from None
        after = np.append(np.cumsum(e[:0:-1])[::-1], 0.0)    # energy after each sample
        limit = SETTLE_TOL * (e[0] + after[0])
        if after[horizon // 2 - 1] <= limit:
            return int(np.argmax(after <= limit)) + 1
        if horizon >= burn_in:
            return None
        horizon *= 2


def _impulse(n: int, columns: int) -> np.ndarray:
    """A unit shock at sample 0 in each of ``columns`` chains of n samples."""
    x = np.zeros((n, columns))
    x[0] = 1.0
    return x


def _shock_response_single(problem: SingleLoopProblem, k: ReducedPidParams,
                           n: int) -> np.ndarray:
    """The oracle's output (n, 1) for a unit noise shock at sample 0."""
    return _simulate_single(problem, k, _filter_path(problem.disturbance, _impulse(n, 1)))


def _shock_response_cascade(problem: CascadeProblem, k: CascadeParams,
                            n: int) -> np.ndarray:
    """The oracle's outer outputs (n, 2) for a unit outer noise shock (column
    0) and a unit inner one (column 1) at sample 0."""
    shock = _impulse(n, 2)
    w1 = _filter_path(problem.outer_disturbance, shock * (1.0, 0.0))
    w2 = _filter_path(problem.inner_disturbance, shock * (0.0, 1.0))
    return _simulate_cascade(problem, k, w1, w2)


def mc_variance_single(
    problem: SingleLoopProblem, k: ReducedPidParams, cfg: McConfig
) -> McEstimate:
    """Empirical output variance of the stochastic single loop."""
    d = problem.process.delay
    probe = replace(problem, truncation=16 * d)
    _check_decay([closed_loop_impulse(probe, k)], "single loop")
    settle = _settle(lambda n: _shock_response_single(problem, k, n)[:, 0] ** 2,
                     16 * d, cfg.burn_in)

    chains, length, burn = cfg.layout(settle)
    rng = np.random.default_rng(cfg.seed)
    shocks = rng.standard_normal((chains, length)).T * math.sqrt(problem.noise_variance)
    w = _filter_path(problem.disturbance, shocks)
    return _variance_with_se(_simulate_single(problem, k, w), burn, "single", settle)


def mc_variance_cascade(
    problem: CascadeProblem, k: CascadeParams, cfg: McConfig
) -> McEstimate:
    """Empirical outer-output variance of the stochastic cascade.

    In fully_correlated mode the inner shock is a scaled copy of the outer
    one, which is the reading under which the analytic cross term holds
    exactly; in independent mode the cross contribution averages out.
    """
    d = problem.outer.delay + problem.inner.delay
    probe = replace(problem, truncation=16 * d)
    _check_decay(cascade_impulse(probe, k), "cascade")
    s1 = math.sqrt(problem.noise_variances[0])
    s2 = math.sqrt(problem.noise_variances[1])
    correlated = cfg.correlation_mode == "fully_correlated"

    def energy(n):
        y = _shock_response_cascade(problem, k, n) * (s1, s2)
        return y.sum(axis=1) ** 2 if correlated else (y ** 2).sum(axis=1)

    settle = _settle(energy, 16 * d, cfg.burn_in)
    chains, length, burn = cfg.layout(settle)
    rng = np.random.default_rng(cfg.seed)
    z1 = rng.standard_normal((chains, length)).T
    z2 = z1 if correlated else rng.standard_normal((chains, length)).T
    w1 = _filter_path(problem.outer_disturbance, s1 * z1)
    w2 = _filter_path(problem.inner_disturbance, s2 * z2)
    y1 = _simulate_cascade(problem, k, w1, w2)
    return _variance_with_se(y1, burn, cfg.correlation_mode, settle)
