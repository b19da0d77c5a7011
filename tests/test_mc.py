from dataclasses import replace

import numpy as np
import pytest

from pidmov import (
    CascadeParams,
    DiscreteTransferFunction,
    McConfig,
    McStabilityError,
    ReducedPidParams,
    SingleLoopProblem,
    cascade_impulse,
    cascade_objective,
    closed_loop_radius,
    cpa_objective,
    load_benchmark,
    load_case_study,
    mc_variance_cascade,
    mc_variance_single,
)

TABLE3_K1 = ReducedPidParams(2.8408, -4.4059, 1.7486)


def test_config_validation():
    with pytest.raises(ValueError, match="samples"):
        McConfig(samples=100, burn_in=100)
    with pytest.raises(ValueError, match="mode"):
        McConfig(samples=100, correlation_mode="sideways")
    with pytest.raises(ValueError, match="seed"):
        McConfig(samples=1000, seed=-1)
    assert McConfig(samples=1000).burn_in == 100
    for bad in ({"samples": 1000.5}, {"burn_in": 10.5}, {"seed": 1.5}):
        with pytest.raises(ValueError, match="must be a whole number"):
            McConfig(**{"samples": 1000, **bad})
    assert McConfig(samples=1000.0, burn_in=10.0).burn_in == 10


def test_static_disturbance_open_loop():
    # white-gain disturbance, controller off: variance is c^2 sigma^2
    c = 0.7
    problem = SingleLoopProblem(
        process=DiscreteTransferFunction(num=(0.1,), den=(1.0, -0.5), delay=2),
        disturbance=DiscreteTransferFunction(num=(c,), den=(1.0,)),
        noise_variance=2.0,
    )
    est = mc_variance_single(problem, ReducedPidParams(0, 0, 0), McConfig(samples=60_000, seed=1))
    expected = c * c * 2.0
    assert abs(est.estimate - expected) <= 3 * est.standard_error
    assert abs(est.estimate - expected) / expected < 0.05


def test_single_loop_matches_analytic():
    problem = load_benchmark(1)
    analytic = float(cpa_objective(problem)(TABLE3_K1.as_array()))
    est = mc_variance_single(problem, TABLE3_K1, McConfig(samples=400_000, seed=3))
    assert abs(est.estimate - analytic) / analytic < 0.02
    assert analytic == pytest.approx(3.0728, abs=2e-4)


def test_seeded_reproducibility():
    problem = load_benchmark(1)
    a = mc_variance_single(problem, TABLE3_K1, McConfig(samples=50_000, seed=9))
    b = mc_variance_single(problem, TABLE3_K1, McConfig(samples=50_000, seed=9))
    assert a.estimate == b.estimate
    assert a.standard_error == b.standard_error


def test_unstable_candidate_rejected_by_precheck():
    problem = load_benchmark(1)
    with pytest.raises(McStabilityError, match="decay|diverge"):
        mc_variance_single(problem, ReducedPidParams(40.0, 40.0, 40.0),
                           McConfig(samples=10_000, seed=0))


def test_slowly_settling_loop_admitted():
    # bench 1 at 0.03 times its published gains: closed-loop radius 0.9944,
    # settled after 1230 samples, so 40,000 // 1230 = 32 chains; the
    # variance it converges to is the long-horizon one, not the 17.40 that
    # the 40-sample truncation keeps. At this N the standard error is 2.8%,
    # so the 2% agreement is this seed's; the bound of three standard errors
    # is the statistical check
    problem = load_benchmark(1)
    k = 0.03 * TABLE3_K1.as_array()
    long_horizon = float(cpa_objective(replace(problem, truncation=40_000))(k))
    assert long_horizon == pytest.approx(47.49, abs=0.01)
    est = mc_variance_single(problem, ReducedPidParams.from_array(k),
                             McConfig(samples=400_000, seed=1))
    assert (est.settle, est.chains) == (1230, 32)
    assert abs(est.estimate - long_horizon) / long_horizon < 0.02
    assert abs(est.estimate - long_horizon) < 3 * est.standard_error


def test_slowly_diverging_loop_refused_as_not_decaying():
    # bench 1's published gains with k1 lowered to k1 + k2 + k3 = -1e-4:
    # integral action of the wrong sign, a real root just outside the unit
    # circle; the probe's response neither settles nor crosses the
    # divergence limit within the burn-in, but its last half holds more
    # energy than its first
    problem = load_benchmark(1)
    k = TABLE3_K1.as_array()
    k[0] = -1e-4 - k[1] - k[2]
    assert 1.0 < closed_loop_radius(problem, k) < 1.0001
    with pytest.raises(McStabilityError,
                       match="^single loop: closed-loop response does not decay"):
        mc_variance_single(problem, ReducedPidParams.from_array(k),
                           McConfig(samples=20_000, seed=0))


def test_decay_verdict_does_not_depend_on_a_short_burn_in():
    # a burn-in shorter than the probe's first horizon (16 dead times, 80
    # samples) still gets the verdict over two horizons: the 0.03x loop's
    # last half over 80 samples holds 0.63 of its first half's energy, but
    # less than half over 160, and the wrong-sign loop holds more at both
    problem = load_benchmark(1)
    slow = ReducedPidParams.from_array(0.03 * TABLE3_K1.as_array())
    k = TABLE3_K1.as_array()
    k[0] = -1e-4 - k[1] - k[2]
    diverging = ReducedPidParams.from_array(k)
    for samples, burn_in in ((500, None), (800, None), (1_000, None), (20_000, 50)):
        cfg = McConfig(samples=samples, burn_in=burn_in, seed=1)
        est = mc_variance_single(problem, slow, cfg)
        assert (est.settle, est.chains) == (None, 1)
        with pytest.raises(McStabilityError, match="does not decay"):
            mc_variance_single(problem, diverging, cfg)


def test_open_loop_integrating_disturbance_rejected():
    # random walk never settles; the oracle must refuse rather than report a
    # meaningless variance
    problem = load_benchmark(8)
    with pytest.raises(McStabilityError):
        mc_variance_single(problem, ReducedPidParams(0.0, 0.0, 0.0),
                           McConfig(samples=10_000, seed=0))


def test_standard_error_scales_with_sqrt_n():
    problem = load_benchmark(1)
    se = []
    for n in (100_000, 200_000):
        est = mc_variance_single(problem, TABLE3_K1, McConfig(samples=n, seed=11))
        se.append(est.standard_error)
    ratio = se[0] / se[1]
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.2)


def test_cascade_fully_correlated_matches_cross_term_formula():
    problem = load_case_study("immersion_cascade").loop
    k = CascadeParams(2.7638, -2.6554, -0.8436)
    analytic = float(cascade_objective(problem)(k.as_array()))
    est = mc_variance_cascade(
        problem, k, McConfig(samples=400_000, seed=5, correlation_mode="fully_correlated")
    )
    assert abs(est.estimate - analytic) / analytic < 0.02


def test_cascade_independent_drops_cross_term():
    problem = load_case_study("immersion_cascade").loop
    k = CascadeParams(2.7638, -2.6554, -0.8436)
    phi1, phi2 = cascade_impulse(problem, k)
    s1, s2 = (v**0.5 for v in problem.noise_variances)
    no_cross = float(phi1 @ phi1) * s1**2 + float(phi2 @ phi2) * s2**2
    with_cross = no_cross + 2.0 * float(phi1 @ phi2) * s1 * s2
    est = mc_variance_cascade(
        problem, k, McConfig(samples=400_000, seed=6, correlation_mode="independent")
    )
    assert abs(est.estimate - no_cross) / no_cross < 0.02
    # and the two readings differ measurably here, so the test discriminates
    assert abs(with_cross - no_cross) / no_cross > 0.05


def test_cascade_modes_coincide_without_inner_noise():
    base = load_case_study("immersion_cascade").loop
    import dataclasses

    problem = dataclasses.replace(base, noise_variances=(base.noise_variances[0], 0.0))
    k = CascadeParams(2.7638, -2.6554, -0.8436)
    a = mc_variance_cascade(problem, k, McConfig(samples=80_000, seed=7,
                                                 correlation_mode="independent"))
    b = mc_variance_cascade(problem, k, McConfig(samples=80_000, seed=7,
                                                 correlation_mode="fully_correlated"))
    assert a.estimate == pytest.approx(b.estimate, rel=1e-12)
    phi1, _ = cascade_impulse(problem, k)
    single_formula = float(phi1 @ phi1) * problem.noise_variances[0]
    assert abs(a.estimate - single_formula) / single_formula < 0.05


def test_validation_block_shape():
    problem = load_benchmark(1)
    est = mc_variance_single(problem, TABLE3_K1, McConfig(samples=50_000, seed=2))
    block = est.validation_block(analytic=3.0728)
    assert set(block) >= {"mode", "samples", "estimate", "standard_error",
                          "analytic", "relative_error"}
    assert block["relative_error"] < 0.05
