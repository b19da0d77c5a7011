"""The chain-vectorized Monte-Carlo oracle against one-chain scalar references.

``pidmov.mc`` steps R independent chains together over time-major (L, R)
arrays, one dead time of samples per step. Each column must equal, bit for
bit, the chain that ``oracles.mc_chain_single`` / ``mc_chain_cascade``
produce one scalar sample at a time from the same disturbances with the same
float operations in the same order, whatever the process order and however
the chain length falls on the dead time and on the state windows, and on
either side of the width where the running sum changes form; divergence must
be caught at the same sample, and the chain layout, the draw order and the
reported counts must follow the documented rule: as many chains as the
loop's settling time fits into the burn-in. An estimate holds about three
N-sample arrays at its peak.
"""

import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from pidmov import (
    CascadeParams,
    DiscreteTransferFunction,
    McConfig,
    McStabilityError,
    ReducedPidParams,
    SingleLoopProblem,
    cascade_impulse,
    closed_loop_impulse,
    load_benchmark,
    load_case_study,
    mc_variance_cascade,
    mc_variance_single,
)
from pidmov.mc import (
    DIVERGENCE_LIMIT,
    MIN_KEPT_SAMPLES,
    SETTLE_TOL,
    WIDE_CHAINS,
    _shock_response,
    _simulate_cascade,
    _simulate_single,
    _stretch,
)

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


def with_lengths(names, block):
    """Each name at chain lengths that are, and are not, whole numbers of dead
    times, and that end on and just past a state-window shift (``block``
    gives a name's dead time), at 4 chains and at WIDE_CHAINS chains, either
    side of the running sum's switch. The 3000-sample case at 4 chains keeps
    the bare name as its id."""
    params = []
    for name in names:
        span = _stretch(block(name))
        for width in (4, WIDE_CHAINS):
            for n in (3000, 2999, 7, 1, span, span + 1, 2 * span, 2 * span + 1):
                id_ = name if n == 3000 else f"{name}-{n}"
                params.append(pytest.param(name, n, width,
                                           id=id_ if width == 4 else f"{id_}-wide"))
    return params


def disturbance(tf, shocks):
    """Shocks (L, R) filtered through num/den * q^-delay, column by column."""
    num = np.concatenate([np.zeros(tf.delay), tf.num])
    return np.column_stack([lfilter(num, tf.den, col) for col in shocks.T])


def widen(w, width):
    """``width`` columns from the 4 of w: column c is w[:, c % 4] times
    2 ** (c // 4), so its chain is the reference chain of w[:, c % 4] scaled by
    that power of two exactly, and no two columns are equal."""
    c = np.arange(width)
    return w[:, c % 4] * 2.0 ** (c // 4)


def assert_columns_match(y, refs):
    assert y.shape[1] % len(refs) == 0
    for c, col in enumerate(y.T):
        assert np.array_equal(col, refs[c % len(refs)] * 2.0 ** (c // len(refs)))


def diverged_sample(excinfo) -> int:
    return int(str(excinfo.value).rsplit("at sample ", 1)[1])


@pytest.mark.parametrize("name, n, width", with_lengths(
    sorted(SINGLE_CASES), lambda name: SINGLE_CASES[name][0].process.delay))
def test_single_columns_match_scalar_reference(name, n, width):
    problem, k = SINGLE_CASES[name]
    rng = np.random.default_rng(7)
    w = disturbance(problem.disturbance,
                    rng.standard_normal((n, 4)) * math.sqrt(problem.noise_variance))
    y = _simulate_single(problem, ReducedPidParams(*k), widen(w, width))
    refs = [mc_chain_single(problem, k, col, DIVERGENCE_LIMIT) for col in w.T]
    assert all(t is None for _, t in refs)
    assert_columns_match(y, [ref for ref, _ in refs])


@pytest.mark.parametrize("mode, n, width", with_lengths(
    ["independent", "fully_correlated"], lambda mode: IMMERSION.inner.delay))
def test_cascade_columns_match_scalar_reference(mode, n, width):
    rng = np.random.default_rng(8)
    s1, s2 = (math.sqrt(v) for v in IMMERSION.noise_variances)
    z1 = rng.standard_normal((n, 4))
    z2 = z1 if mode == "fully_correlated" else rng.standard_normal((n, 4))
    w1 = disturbance(IMMERSION.outer_disturbance, s1 * z1)
    w2 = disturbance(IMMERSION.inner_disturbance, s2 * z2)
    y = _simulate_cascade(IMMERSION, CascadeParams(*CASCADE_K), widen(w1, width),
                          widen(w2, width))
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
    cfg = McConfig(samples=150_000)    # burn-in 15,000
    # a loop that settles within 42 samples: 15,000 // 42 chains, each burning 42
    assert cfg.layout(42) == (357, 420, 42)
    assert cfg.layout(7_500) == (2, 75_000, 7_500)
    # a loop that settles only after the burn-in, or not at all, is one chain
    for settle in (15_000, 15_001, None):
        assert cfg.layout(settle) == (1, 150_000, 15_000)
    k = ReducedPidParams(*SINGLE_CASES["bench1"][1])
    est = mc_variance_single(BENCH1, k, McConfig(samples=150_000, seed=4))
    assert (est.settle, est.chains, est.samples, est.burn_in) == (42, 357, 149_940, 357 * 42)
    block = est.validation_block(3.0728)
    assert ((block["settle"], block["chains"], block["samples"], block["burn_in"])
            == (42, 357, 149_940, 14_994))
    # the block reports what was simulated: 83 chains of 421 samples, 59 short of N
    est = mc_variance_single(BENCH1, k, McConfig(samples=35_002, seed=4))
    assert (est.settle, est.chains, est.samples, est.burn_in) == (42, 83, 34_943, 83 * 42)


def test_chains_that_keep_no_sample_rejected():
    # one chain keeps samples - burn_in; fewer than two batches of two leave a
    # zero batch spread, or none at all
    for burn_in, kept in ((20_000, 1), (19_998, 3)):
        with pytest.raises(ValueError, match=f"keep {kept} after"):
            McConfig(samples=20_001, burn_in=burn_in)
    for samples in (1, 2, 3):
        with pytest.raises(ValueError, match=f"keep {samples} after"):
            McConfig(samples=samples)
    # 19,997 chains of one sample would each burn their only sample; the cap
    # samples - burn_in - MIN_KEPT_SAMPLES + 1 leaves one chain keeping 4
    cfg = McConfig(samples=20_001, burn_in=19_997)
    assert cfg.layout(1) == (1, 20_001, 19_997)
    cfg = McConfig(samples=1_000, burn_in=990)
    assert cfg.layout(1) == (7, 142, 141)    # 7 chains keep 7
    est = mc_variance_single(BENCH1, ReducedPidParams(*SINGLE_CASES["bench1"][1]),
                             McConfig(samples=4))
    assert (est.chains, est.samples) == (1, 4) and est.standard_error > 0


def test_one_chain_is_the_scalar_simulation():
    # a burn-in shorter than bench 1's 42 settling samples leaves one chain
    # with no settle: the response has not yet left at most SETTLE_TOL of its
    # energy in the last half of the probe's first horizon, 16 dead times,
    # which reaches the burn-in; the second horizon, which the decay verdict
    # needs, sees it settle, but too late to give chains
    problem, k = SINGLE_CASES["bench1"]
    cfg = McConfig(samples=15_000, burn_in=41, seed=4)
    est = mc_variance_single(problem, ReducedPidParams(*k), cfg)
    rng = np.random.default_rng(4)
    shocks = rng.standard_normal(15_000) * math.sqrt(problem.noise_variance)
    w = disturbance(problem.disturbance, shocks[:, None])[:, 0]
    y, _ = mc_chain_single(problem, k, w, DIVERGENCE_LIMIT)
    assert (est.settle, est.chains, est.samples, est.burn_in) == (None, 1, 15_000, 41)
    assert est.estimate == float(np.var(y[41:]))


def test_chains_draw_order_burn_in_and_flattening():
    # independent cascade: z1 is one (R, L) draw, then z2; each chain burns
    # its own burn_in // R samples; the kept samples are taken chain by chain
    cfg = McConfig(samples=30_000, seed=13, correlation_mode="independent")
    est = mc_variance_cascade(IMMERSION, CascadeParams(*CASCADE_K), cfg)
    assert est.settle == 180
    chains, length, burn = cfg.layout(est.settle)
    assert (chains, length, burn) == (16, 1_875, 187)
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
    assert kept.size == 16 * 1_688
    assert est.estimate == pytest.approx(float(np.var(kept)), rel=1e-12)
    batch_vars = kept[:kept.size // 50 * 50].reshape(50, -1).var(axis=1)
    assert est.standard_error == pytest.approx(
        float(batch_vars.std(ddof=1) / math.sqrt(50)), rel=1e-12)


def test_validation_block_flags_underpowered_estimates():
    # the assessed immersion gains have a time constant near 8,000 samples:
    # the probe does not settle within the 2,000-sample burn-in, so one chain
    k = CascadeParams(*ASSESSED_CASCADE_K)
    phi1, phi2 = cascade_impulse(IMMERSION, k)
    v1, v2 = IMMERSION.noise_variances
    analytic = float(phi1 @ phi1) * v1 + float(phi2 @ phi2) * v2
    est = mc_variance_cascade(
        IMMERSION, k, McConfig(samples=20_000, seed=1, correlation_mode="independent"))
    block = est.validation_block(analytic)
    assert (block["settle"], block["chains"], block["samples"]) == (None, 1, 20_000)
    assert block["underpowered"] is True
    assert 3 * est.standard_error > 0.02 * est.estimate
    assert block["z"] == (est.estimate - analytic) / est.standard_error

    k1 = ReducedPidParams(*SINGLE_CASES["bench1"][1])
    est = mc_variance_single(BENCH1, k1, McConfig(samples=1_000_000, seed=51))
    block = est.validation_block(3.0728)
    assert block["underpowered"] is False
    assert (block["settle"], block["chains"], block["samples"]) == (42, 2_380, 999_600)
    assert abs(block["z"]) < 4


def assert_same_response(y, phi):
    assert np.max(np.abs(y - phi)) <= 1e-12 * np.max(np.abs(phi))


@pytest.mark.parametrize("name", ["bench1", "third_order"])
def test_probe_is_the_single_loop_shock_response(name):
    # the oracle's own simulation of a unit shock is the kernel's 1/A_cl
    # response over the truncation, with no random number involved
    problem, k = SINGLE_CASES[name]
    phi = closed_loop_impulse(problem, ReducedPidParams(*k))
    y = _shock_response(partial(_simulate_single, problem, ReducedPidParams(*k)),
                        [problem.disturbance], phi.size)
    assert y.shape == (problem.truncation, 1)
    assert_same_response(y[:, 0], phi)


def test_probe_is_the_cascade_shock_response():
    phis = cascade_impulse(IMMERSION, CascadeParams(*CASCADE_K))
    y = _shock_response(partial(_simulate_cascade, IMMERSION, CascadeParams(*CASCADE_K)),
                        [IMMERSION.outer_disturbance, IMMERSION.inner_disturbance],
                        IMMERSION.truncation)
    assert y.shape == (IMMERSION.truncation, 2)
    for col, phi in zip(y.T, phis):
        assert_same_response(col, phi)


def settle_by_definition(energy) -> int:
    """Samples through the first one after which at most SETTLE_TOL of the
    energy is left."""
    after = energy.sum() - np.cumsum(energy)
    return int(np.flatnonzero(after <= SETTLE_TOL * energy.sum())[0]) + 1


def test_settle_follows_its_definition():
    # checked on the kernel's responses over 4000 samples, far past settling
    k = ReducedPidParams(*SINGLE_CASES["bench1"][1])
    phi = closed_loop_impulse(replace(BENCH1, truncation=4000), k)
    est = mc_variance_single(BENCH1, k, McConfig(samples=100_000, seed=1))
    assert est.settle == settle_by_definition(phi ** 2) == 42
    kc = CascadeParams(*CASCADE_K)
    phi1, phi2 = cascade_impulse(replace(IMMERSION, truncation=4000), kc)
    s1, s2 = (math.sqrt(v) for v in IMMERSION.noise_variances)
    for mode, energy in (("fully_correlated", (s1 * phi1 + s2 * phi2) ** 2),
                         ("independent", (s1 * phi1) ** 2 + (s2 * phi2) ** 2)):
        est = mc_variance_cascade(IMMERSION, kc, McConfig(samples=100_000, seed=1,
                                                          correlation_mode=mode))
        assert est.settle == settle_by_definition(energy)
        assert est.burn_in // est.chains >= est.settle


def test_slower_loop_gets_fewer_longer_chains():
    # bench 1 detuned to a fifth of its gains: closed-loop radius 0.958, not 0.7
    k = np.array(SINGLE_CASES["bench1"][1])
    cfg = McConfig(samples=100_000, seed=1)
    fast = mc_variance_single(BENCH1, ReducedPidParams(*k), cfg)
    slow = mc_variance_single(BENCH1, ReducedPidParams(*(0.2 * k)), cfg)
    assert (fast.settle, slow.settle) == (42, 161)
    assert slow.chains < fast.chains
    assert slow.samples // slow.chains > fast.samples // fast.chains
    assert (fast.chains, slow.chains) == (10_000 // 42, 10_000 // 161)


def test_loop_not_settled_within_burn_in_is_one_chain():
    # bench 1 at a twentieth of its gains settles within 728 samples; the
    # probe's horizon stops at 1280 samples for a burn-in of 1000, before its
    # last half holds at most SETTLE_TOL of the energy
    k = ReducedPidParams(*(0.05 * np.array(SINGLE_CASES["bench1"][1])))
    est = mc_variance_single(BENCH1, k, McConfig(samples=20_000, burn_in=1_000, seed=1))
    assert (est.settle, est.chains, est.samples, est.burn_in) == (None, 1, 20_000, 1_000)
    est = mc_variance_single(BENCH1, k, McConfig(samples=20_000, seed=1))
    assert (est.settle, est.chains, est.samples, est.burn_in) == (728, 2, 20_000, 2_000)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(MIN_KEPT_SAMPLES, 10**7), st.data())
def test_layout_rule(samples, data):
    burn_in = data.draw(st.integers(0, samples - MIN_KEPT_SAMPLES), label="burn_in")
    settle = data.draw(st.integers(1, 2 * burn_in + 2), label="settle")
    chains, length, burn = McConfig(samples=samples, burn_in=burn_in).layout(settle)
    assert chains >= 1
    assert 0 <= samples - chains * length < chains
    assert burn == burn_in // chains
    assert chains * (length - burn) >= MIN_KEPT_SAMPLES
    if chains > 1:
        assert burn >= settle
    if burn_in < settle:
        assert chains == 1
    # only the cap on kept samples stops short of burn_in // settle chains
    if burn_in // settle <= samples - burn_in - MIN_KEPT_SAMPLES + 1:
        assert chains == max(1, burn_in // settle)


def test_estimate_holds_about_three_sample_arrays():
    # the draws are scaled in place, the outputs are written into the spent
    # draws, and the simulators keep only rolling state windows: at its peak an
    # estimate holds its draws (then outputs), the filtered disturbances and
    # the variance step's copies, under 3.5 arrays of N samples
    n = 200_000
    runs = [partial(mc_variance_single, BENCH1, ReducedPidParams(*SINGLE_CASES["bench1"][1]),
                    McConfig(samples=n, seed=51)),
            partial(mc_variance_cascade, IMMERSION, CascadeParams(*CASCADE_K),
                    McConfig(samples=n, seed=53, correlation_mode="fully_correlated"))]
    for run in runs:
        run()    # first-call allocations of numpy and scipy stay out of the count
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * n
