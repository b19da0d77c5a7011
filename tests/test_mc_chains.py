"""The chain-vectorized Monte-Carlo oracle against one-chain scalar references.

``pidmov.mc`` steps R independent chains together over time-major (L, R)
arrays, one dead time of samples per step. Each column must equal, bit for
bit, the chain that ``oracles.mc_chain_single`` / ``mc_chain_cascade``
produce one scalar sample at a time from the same disturbances with the same
float operations in the same order, whatever the process order and however
the chain length falls on the dead time; divergence must be caught at the
same sample, and the chain layout, the draw order and the reported counts
must follow the documented rule.
"""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from pidmov import (
    CascadeParams,
    DiscreteTransferFunction,
    McConfig,
    McStabilityError,
    ReducedPidParams,
    SingleLoopProblem,
    cascade_impulse,
    load_benchmark,
    load_case_study,
    mc_variance_cascade,
    mc_variance_single,
)
from pidmov.mc import CHAIN_SAMPLES, DIVERGENCE_LIMIT, _simulate_cascade, _simulate_single

from oracles import mc_chain_cascade, mc_chain_single

BENCH1 = load_benchmark(1)
AIR = load_case_study("air_single").loop
IMMERSION = load_case_study("immersion_cascade").loop
# three numerator terms and a third-order denominator, closed-loop radius 0.77
THIRD_ORDER = SingleLoopProblem(
    process=DiscreteTransferFunction(num=(0.1, 0.05, 0.02), den=(1.0, -0.6, -0.01, 0.03),
                                     delay=3),
    disturbance=DiscreteTransferFunction(num=(1.0,), den=(1.0, -0.6)),
)
SINGLE_CASES = {
    "bench1": (BENCH1, (2.8408, -4.4059, 1.7486)),
    "air": (AIR, (23.1165, -35.5929, 14.4531)),
    "third_order": (THIRD_ORDER, (1.5, -1.2, 0.2)),
}
CASCADE_K = (2.7638, -2.6554, -0.8436)
ASSESSED_CASCADE_K = (2.5223, -2.5218, -1.1225)


def with_lengths(names):
    """Each name at chain lengths that are, and are not, whole numbers of dead
    times; the 3000-sample case keeps the bare name as its id."""
    return [pytest.param(name, n, id=name if n == 3000 else f"{name}-{n}")
            for name in names for n in (3000, 2999, 7, 1)]


def disturbance(tf, shocks):
    """Shocks (L, R) filtered through num/den * q^-delay, column by column."""
    num = np.concatenate([np.zeros(tf.delay), tf.num])
    return np.column_stack([lfilter(num, tf.den, col) for col in shocks.T])


def assert_columns_match(y, refs):
    assert y.shape[1] == len(refs)
    for col, ref in zip(y.T, refs):
        assert np.array_equal(col, ref)


def diverged_sample(excinfo) -> int:
    return int(str(excinfo.value).rsplit("at sample ", 1)[1])


@pytest.mark.parametrize("name, n", with_lengths(sorted(SINGLE_CASES)))
def test_single_columns_match_scalar_reference(name, n):
    problem, k = SINGLE_CASES[name]
    rng = np.random.default_rng(7)
    w = disturbance(problem.disturbance,
                    rng.standard_normal((n, 4)) * math.sqrt(problem.noise_variance))
    y = _simulate_single(problem, ReducedPidParams(*k), w)
    refs = [mc_chain_single(problem, k, col, DIVERGENCE_LIMIT) for col in w.T]
    assert all(t is None for _, t in refs)
    assert_columns_match(y, [ref for ref, _ in refs])


@pytest.mark.parametrize("mode, n", with_lengths(["independent", "fully_correlated"]))
def test_cascade_columns_match_scalar_reference(mode, n):
    rng = np.random.default_rng(8)
    s1, s2 = (math.sqrt(v) for v in IMMERSION.noise_variances)
    z1 = rng.standard_normal((n, 4))
    z2 = z1 if mode == "fully_correlated" else rng.standard_normal((n, 4))
    w1 = disturbance(IMMERSION.outer_disturbance, s1 * z1)
    w2 = disturbance(IMMERSION.inner_disturbance, s2 * z2)
    y = _simulate_cascade(IMMERSION, CascadeParams(*CASCADE_K), w1, w2)
    refs = [mc_chain_cascade(IMMERSION, CASCADE_K, a, b, DIVERGENCE_LIMIT)
            for a, b in zip(w1.T, w2.T)]
    assert all(t is None for _, t in refs)
    assert_columns_match(y, [ref for ref, _ in refs])


# columns scaled apart, so each chain crosses the limit at its own sample
SCALES = np.array([1.0, 1e3, 1e6])


def test_single_divergence_at_reference_sample():
    w = np.random.default_rng(9).standard_normal((500, 3)) * SCALES
    for problem, k in [(BENCH1, (40.0, 40.0, 40.0)), (THIRD_ORDER, (60.0, 60.0, 60.0))]:
        ts = [mc_chain_single(problem, k, col, DIVERGENCE_LIMIT)[1] for col in w.T]
        assert None not in ts and len(set(ts)) == 3
        assert min(ts) % problem.process.delay != 0    # inside a dead-time block
        with pytest.raises(McStabilityError, match="single loop diverged") as excinfo:
            _simulate_single(problem, ReducedPidParams(*k), w)
        assert diverged_sample(excinfo) == min(ts)


def test_cascade_divergence_at_reference_sample():
    k = (40.0, 40.0, -5.0)
    rng = np.random.default_rng(10)
    w1, w2 = (rng.standard_normal((500, 3)) * SCALES for _ in range(2))
    ts = [mc_chain_cascade(IMMERSION, k, a, b, DIVERGENCE_LIMIT)[1]
          for a, b in zip(w1.T, w2.T)]
    assert None not in ts and len(set(ts)) == 3
    assert min(ts) % IMMERSION.inner.delay != 0    # inside a dead-time block
    with pytest.raises(McStabilityError, match="cascade loop diverged") as excinfo:
        _simulate_cascade(IMMERSION, CascadeParams(*k), w1, w2)
    assert diverged_sample(excinfo) == min(ts)


def test_nan_output_counts_as_divergence():
    problem, k = SINGLE_CASES["bench1"]
    w = np.random.default_rng(11).standard_normal((200, 3))
    w[37, 1] = np.nan
    assert mc_chain_single(problem, k, w[:, 1], DIVERGENCE_LIMIT)[1] == 37
    with pytest.raises(McStabilityError, match="at sample 37$"):
        _simulate_single(problem, ReducedPidParams(*k), w)
    w1 = np.random.default_rng(12).standard_normal((200, 2)) * 1e-3
    w2 = w1.copy()
    w2[41, 0] = np.nan
    # an inner NaN reaches the outer output through the outer dead time
    t = mc_chain_cascade(IMMERSION, CASCADE_K, w1[:, 0], w2[:, 0], DIVERGENCE_LIMIT)[1]
    assert t == 41 + IMMERSION.outer.delay
    with pytest.raises(McStabilityError, match=f"at sample {t}$"):
        _simulate_cascade(IMMERSION, CascadeParams(*CASCADE_K), w1, w2)
    # an outer NaN inside a dead-time block of the cascade
    w1[44, 1] = np.nan
    assert mc_chain_cascade(IMMERSION, CASCADE_K, w1[:, 1], w1[:, 1], DIVERGENCE_LIMIT)[1] == 44
    assert 44 % IMMERSION.inner.delay != 0
    with pytest.raises(McStabilityError, match="at sample 44$"):
        _simulate_cascade(IMMERSION, CascadeParams(*CASCADE_K), w1, w1)


def test_chain_layout():
    assert McConfig(samples=2 * CHAIN_SAMPLES - 1).layout == (1, 19_999, 1_999)
    assert McConfig(samples=2 * CHAIN_SAMPLES).layout == (2, 10_000, 1_000)
    assert McConfig(samples=150_000).layout == (15, 10_000, 1_000)
    k = ReducedPidParams(*SINGLE_CASES["bench1"][1])
    est = mc_variance_single(BENCH1, k, McConfig(samples=150_000, seed=4))
    assert (est.chains, est.samples, est.burn_in) == (15, 150_000, 15_000)
    block = est.validation_block(3.0728)
    assert (block["chains"], block["samples"], block["burn_in"]) == (15, 150_000, 15_000)
    # the block reports what was simulated: 3 chains of 11667 samples
    est = mc_variance_single(BENCH1, k, McConfig(samples=35_002, seed=4))
    assert (est.chains, est.samples, est.burn_in) == (3, 35_001, 3 * 1_166)


def test_chains_that_keep_no_sample_rejected():
    # 2 chains of 10000 samples, each burning 10000, then 9999: 0 and 2 kept
    with pytest.raises(ValueError, match="keep 0 after"):
        McConfig(samples=20_001, burn_in=20_000)
    with pytest.raises(ValueError, match="keep 2 after"):
        McConfig(samples=20_001, burn_in=19_999)
    McConfig(samples=20_001, burn_in=19_997)    # 2 x 2 kept
    # fewer than two batches of two leave a zero batch spread, or none at all
    for samples in (1, 2, 3):
        with pytest.raises(ValueError, match=f"keep {samples} after"):
            McConfig(samples=samples)
    est = mc_variance_single(BENCH1, ReducedPidParams(*SINGLE_CASES["bench1"][1]),
                             McConfig(samples=4))
    assert est.samples == 4 and est.standard_error > 0


def test_one_chain_is_the_scalar_simulation():
    problem, k = SINGLE_CASES["bench1"]
    cfg = McConfig(samples=15_000, seed=4)
    est = mc_variance_single(problem, ReducedPidParams(*k), cfg)
    rng = np.random.default_rng(4)
    shocks = rng.standard_normal(15_000) * math.sqrt(problem.noise_variance)
    w = disturbance(problem.disturbance, shocks[:, None])[:, 0]
    y, _ = mc_chain_single(problem, k, w, DIVERGENCE_LIMIT)
    assert est.chains == 1
    assert est.estimate == float(np.var(y[cfg.burn_in:]))


def test_chains_draw_order_burn_in_and_flattening():
    # independent cascade: z1 is one (R, L) draw, then z2; each chain burns
    # its own burn_in // R samples; the kept samples are taken chain by chain
    cfg = McConfig(samples=30_000, seed=13, correlation_mode="independent")
    est = mc_variance_cascade(IMMERSION, CascadeParams(*CASCADE_K), cfg)
    chains, length, burn = cfg.layout
    assert (chains, length, burn) == (3, 10_000, 1_000)
    rng = np.random.default_rng(13)
    z1 = rng.standard_normal((chains, length))
    z2 = rng.standard_normal((chains, length))
    s1, s2 = (math.sqrt(v) for v in IMMERSION.noise_variances)
    w1 = disturbance(IMMERSION.outer_disturbance, s1 * z1.T)
    w2 = disturbance(IMMERSION.inner_disturbance, s2 * z2.T)
    kept = np.concatenate([
        mc_chain_cascade(IMMERSION, CASCADE_K, a, b, DIVERGENCE_LIMIT)[0][burn:]
        for a, b in zip(w1.T, w2.T)
    ])
    assert est.estimate == pytest.approx(float(np.var(kept)), rel=1e-12)
    batch_vars = kept.reshape(50, -1).var(axis=1)
    assert est.standard_error == pytest.approx(
        float(batch_vars.std(ddof=1) / math.sqrt(50)), rel=1e-12)


def test_validation_block_flags_underpowered_estimates():
    k = CascadeParams(*ASSESSED_CASCADE_K)
    phi1, phi2 = cascade_impulse(IMMERSION, k)
    v1, v2 = IMMERSION.noise_variances
    analytic = float(phi1 @ phi1) * v1 + float(phi2 @ phi2) * v2
    est = mc_variance_cascade(
        IMMERSION, k, McConfig(samples=20_000, seed=1, correlation_mode="independent"))
    block = est.validation_block(analytic)
    assert block["underpowered"] is True
    assert 3 * est.standard_error > 0.02 * est.estimate
    assert block["z"] == (est.estimate - analytic) / est.standard_error

    k1 = ReducedPidParams(*SINGLE_CASES["bench1"][1])
    est = mc_variance_single(BENCH1, k1, McConfig(samples=1_000_000, seed=51))
    block = est.validation_block(3.0728)
    assert block["underpowered"] is False
    assert block["chains"] == 100
    assert abs(block["z"]) < 4
