"""Monte-Carlo validation of the analytic variances.

The oracle drives the closed loop with white Gaussian noise, keeping the
controller and every transfer function as separate difference equations.
The estimator shares nothing with the analytic closed-loop kernel, so
agreement between the two is evidence, not tautology.

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
energy, stopping once it reaches B. The probe is the oracle's only stability
verdict. It refuses a response that crosses the divergence limit, and one
that has not settled by B and whose last half still holds more than half
the energy of its first; that verdict is taken over at least 32 dead times,
so a burn-in shorter than that does not decide it. Any other loop that has
not settled by B has no ``settle`` (None) and runs as one chain. Otherwise
the run has R = max(1, B // settle) chains, capped at
N - B - MIN_KEPT_SAMPLES + 1 so it keeps at least MIN_KEPT_SAMPLES samples,
of L = N // R samples each, and each chain discards its own B // R >= settle
samples.

The chains are stepped together over the (R,) rows of time-major (L, R)
arrays, one dead time at a time: the process inputs of the next d samples
(d2, the inner dead time, in the cascade) are already known. So each
numerator term, the outputs and errors, and the controller's running sum
are one expression per block, and only the denominator recursion runs
sample by sample. The running sum adds row after row: one
np.add.accumulate below WIDE_CHAINS chains, where its per-chain inner loop
is cheap, and one np.add per row from there on. Every sample keeps the
float operations, in their order, of the plain sample-by-sample
simulation, so the outputs equal it bit for bit while the Python loop runs
about L / d times, not N. The simulators keep their states (process inputs
and outputs) in rolling windows: the rows of history the lags reach, then
WINDOW_ROWS rounded down to whole blocks; a full window moves its last
rows to the front. Each chain starts at rest and has its own shocks (one
(R, L) draw per noise source). One draw buffer serves every source in
turn, scaled in place, and then holds the outputs, so an estimate's
working set is about three N-sample arrays: the draws (then the outputs)
and the two filtered disturbances in the cascade, or the outputs and the
variance step's copies in the single loop. The estimate is the
variance of all kept samples; its standard error is the spread of the
variances of 50 equal batches of the kept samples, laid out chain after
chain, over sqrt(50) (fewer batches, at least two of two samples, for runs
that keep fewer than 5000).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cascade import CascadeParams, CascadeProblem
from .lti import DiscreteTransferFunction, lfilter
from .singleloop import ReducedPidParams, SingleLoopProblem
from .tlbo import whole

DIVERGENCE_LIMIT = 1e9
VALIDATION_RTOL = 0.02    # accepted relative error of an estimate against the analytic value
MIN_KEPT_SAMPLES = 4      # two batches of two, the fewest with a nonzero batch spread
SETTLE_TOL = 1e-6         # shock-response energy a chain may leave after its burn-in
WINDOW_ROWS = 64          # simulator state rows kept past the history
WIDE_CHAINS = 64          # chains from which the running sum adds one row at a time


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
    return McEstimate(estimate=est, standard_error=se, samples=y.size, burn_in=chains * burn,
                      mode=mode, chains=chains, settle=settle)


def _filter_path(tf: DiscreteTransferFunction, x: np.ndarray) -> np.ndarray:
    """Open-loop filtering of exogenous signals (L, R) through num/den * q^-delay."""
    return lfilter(tf.delayed_num, tf.den, x, axis=0)


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


def _running_sum(rows: np.ndarray):
    """rows[i] = rows[i-1] + rows[i] down the rows, in place and in order.
    One np.add.accumulate runs a strided loop per column, so from WIDE_CHAINS
    columns on one np.add per row is faster; both add row after row."""
    if rows.shape[1] < WIDE_CHAINS:
        np.add.accumulate(rows, axis=0, out=rows)
    else:
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, out=row)


def _stretch(block: int) -> int:
    """Rows of a state window past its history: WINDOW_ROWS, rounded down to
    whole blocks of ``block`` samples (one block at least)."""
    return max(1, WINDOW_ROWS // block) * block


def _simulate_single(problem: SingleLoopProblem, k: ReducedPidParams, w: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Outputs (L, R) of R single-loop chains started at rest, driven by the
    output disturbances w (L, R); written into ``out`` when given."""
    tf = problem.process
    d = tf.delay
    k1, k2, k3 = k.k1, k.k2, k.k3

    n, chains = w.shape
    h = d + len(tf.num) + len(tf.den)    # rows of history, enough for every lag
    span = _stretch(d)
    state = np.zeros((2, h + span, chains))    # u and x: h rows of history, then span rows
    u, x = state
    y = np.empty((n, chains)) if out is None else out
    e = np.zeros((d + 2, chains))        # e[s0-2], e[s0-1], then the block's errors
    steps = np.zeros((3 * d + 1, chains))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, n, d):        # a block of d samples reads only earlier u
            m = min(d, n - t0)
            s0 = h + t0 % span
            if s0 == h and t0:
                state[:, :h] = state[:, span:]
            np.add(_process_block(x, u, tf, s0, m), w[t0:t0 + m], out=y[t0:t0 + m])
            np.negative(y[t0:t0 + m], out=e[2:m + 2])
            # u[s] = ((u[s-1] + k1 e[s]) + k2 e[s-1]) + k3 e[s-2]: a running sum
            # over the rows u[s0-1], k1 e[s0], k2 e[s0-1], k3 e[s0-2], k1 e[s0+1], ...
            rows = steps[:3 * m + 1]
            np.multiply(k1, e[2:m + 2], out=rows[1::3])
            np.multiply(k2, e[1:m + 1], out=rows[2::3])
            np.multiply(k3, e[:m], out=rows[3::3])
            _running_sum(rows)
            u[s0:s0 + m] = rows[3::3]
            steps[0] = rows[-1]
            e[:2] = e[m:m + 2]
    _check_outputs(y, "single loop")
    return y


def _simulate_cascade(
    problem: CascadeProblem, k: CascadeParams, w1: np.ndarray, w2: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Outer outputs (L, R) of R cascade chains started at rest, driven by the
    outer and inner output disturbances w1, w2 (L, R); written into ``out``
    when given."""
    outer, inner = problem.outer, problem.inner
    d2 = inner.delay
    k4, k5, k6 = k.k4, k.k5, k.k6

    n, chains = w1.shape
    h = sum(tf.delay + len(tf.num) + len(tf.den) for tf in (outer, inner))    # rows of history
    span = _stretch(d2)
    state = np.zeros((4, h + span, chains))    # u, x1, x2 and y2, windowed as in the single loop
    u, x1, x2, y2 = state
    y1 = np.empty((n, chains)) if out is None else out
    e = np.zeros((d2 + 1, chains))       # e[s0-1], then the block's outer errors
    steps = np.zeros((2 * d2 + 1, chains))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, n, d2):       # a block of d2 samples reads only earlier u
            m = min(d2, n - t0)
            s0 = h + t0 % span
            if s0 == h and t0:
                state[:, :h] = state[:, span:]
            y2t = np.add(_process_block(x2, u, inner, s0, m), w2[t0:t0 + m],
                         out=y2[s0:s0 + m])
            np.add(_process_block(x1, y2, outer, s0, m), w1[t0:t0 + m], out=y1[t0:t0 + m])
            np.negative(y1[t0:t0 + m], out=e[1:m + 1])
            # v[s] = (v[s-1] + k4 e[s]) + k5 e[s-1]: a running sum over the rows
            # v[s0-1], k4 e[s0], k5 e[s0-1], k4 e[s0+1], ...
            rows = steps[:2 * m + 1]
            np.multiply(k4, e[1:m + 1], out=rows[1::2])
            np.multiply(k5, e[:m], out=rows[2::2])
            _running_sum(rows)
            ut = np.subtract(rows[2::2], y2t, out=u[s0:s0 + m])
            np.multiply(k6, ut, out=ut)
            steps[0] = rows[-1]
            e[0] = e[m]
    _check_outputs(y1, "cascade loop")
    return y1


def _settle(energy: Callable[[int], np.ndarray], horizon: int, burn_in: int,
            label: str) -> int | None:
    """Samples up to and including the first one after which the shock
    response energy per sample, ``energy(n)`` over n samples from rest, holds
    at most SETTLE_TOL of its total; None when the horizon, doubled from
    ``horizon``, reaches ``burn_in`` before its last half holds that little.
    Refuses a response that diverges, at its own sample, and one whose last
    half holds more than half the energy of its first at the first horizon
    that reaches both ``burn_in`` and twice ``horizon``: the verdict on a
    short burn-in is that of a longer one, and it never rests on the first
    horizon alone. A response that settles only past the horizon that
    reached ``burn_in`` has no settle (None)."""
    verdict = max(burn_in, 2 * horizon)
    late = False             # past the horizon that reached the burn-in
    while True:
        try:
            e = energy(horizon)
        except McStabilityError as exc:
            raise McStabilityError(
                f"settling probe (unit-shock response over {horizon} samples): {exc}") from None
        after = np.append(np.cumsum(e[:0:-1])[::-1], 0.0)    # energy after each sample
        total, tail = e[0] + after[0], after[horizon // 2 - 1]
        if tail <= SETTLE_TOL * total:
            return None if late else int(np.argmax(after <= SETTLE_TOL * total)) + 1
        if horizon >= verdict:
            if tail > 0.5 * (head := total - tail):
                raise McStabilityError(
                    f"{label}: closed-loop response does not decay (tail/head energy ratio "
                    f"{tail / head if head else math.inf:.3f} over {horizon} samples)")
            return None
        late = horizon >= burn_in
        horizon *= 2


def _shock_response(simulate, paths, n: int) -> np.ndarray:
    """The oracle's outputs (n, sources) for a unit shock at sample 0 on each
    noise source alone: column j drives only the disturbance path j."""
    shock = np.zeros((n, len(paths)))
    shock[0] = 1.0
    return simulate(*(_filter_path(tf, shock * e) for tf, e in zip(paths, np.eye(len(paths)))))


def _estimate(simulate, paths, scales, delay: int, cfg: McConfig, mode: str,
              label: str) -> McEstimate:
    """The estimate for a loop whose outputs (L, R) ``simulate`` gives from one
    disturbance per path in ``paths``, path j driven by white noise of standard
    deviation ``scales[j]``, with the probe starting at 16 ``delay`` samples;
    fully correlated shocks reuse the first source's draw."""
    correlated = cfg.correlation_mode == "fully_correlated"
    # the scales weigh the sources against each other; a lone source needs
    # none, since the settle rule is a ratio of its energies
    weights = np.array(scales) if len(scales) > 1 else np.ones(1)

    def energy(n):
        y = _shock_response(simulate, paths, n) * weights
        return y.sum(axis=1) ** 2 if correlated else (y ** 2).sum(axis=1)

    settle = _settle(energy, 16 * delay, cfg.burn_in, label)
    chains, length, burn = cfg.layout(settle)
    rng = np.random.default_rng(cfg.seed)
    # one (R, L) buffer holds each source's draw in turn and, once they are
    # spent, the outputs; path j filters its scaled draw as (L, R)
    z = rng.standard_normal((chains, length))
    w = []
    for j, (tf, s) in enumerate(zip(paths, scales)):
        if j and not correlated:
            rng.standard_normal(out=z)
        if correlated and j + 1 < len(paths):    # the draw is scaled again for the next path
            w.append(_filter_path(tf, s * z.T))
        else:
            w.append(_filter_path(tf, np.multiply(z, s, out=z).T))
    y = simulate(*w, out=z.reshape(length, chains))
    del w    # the disturbances are spent: free them before the variance step's copies
    return _variance_with_se(y, burn, mode, settle)


def mc_variance_single(
    problem: SingleLoopProblem, k: ReducedPidParams, cfg: McConfig
) -> McEstimate:
    """Empirical output variance of the stochastic single loop."""
    return _estimate(partial(_simulate_single, problem, k), [problem.disturbance],
                     [math.sqrt(problem.noise_variance)], problem.process.delay, cfg,
                     "single", "single loop")


def mc_variance_cascade(
    problem: CascadeProblem, k: CascadeParams, cfg: McConfig
) -> McEstimate:
    """Empirical outer-output variance of the stochastic cascade.

    In fully_correlated mode the inner shock is a scaled copy of the outer
    one, which is the reading under which the analytic cross term holds
    exactly; in independent mode the cross contribution averages out.
    """
    return _estimate(partial(_simulate_cascade, problem, k),
                     [problem.outer_disturbance, problem.inner_disturbance],
                     [math.sqrt(v) for v in problem.noise_variances],
                     problem.outer.delay + problem.inner.delay, cfg,
                     cfg.correlation_mode, "cascade loop")
