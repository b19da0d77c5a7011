import math

import numpy as np
import pytest

from pidmov import (TlboConfig, assess_cascade, assess_single, load_benchmark,
                    load_case_study, minimize)


def sphere(x):
    return float(x @ x)


def test_sphere_reaches_global_optimum():
    res = minimize(sphere, TlboConfig(dimensions=3, seed=1))
    assert res.best_fitness < 1e-6
    assert np.all(np.abs(res.best_point) < 1e-2)


def test_seeded_determinism_is_bit_exact():
    cfg = TlboConfig(dimensions=4, seed=123)
    a = minimize(sphere, cfg)
    b = minimize(sphere, TlboConfig(dimensions=4, seed=123))
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.best_point, b.best_point)
    assert np.array_equal(a.fitness_history, b.fitness_history)
    assert a.evaluations == b.evaluations


def test_different_seeds_differ():
    a = minimize(sphere, TlboConfig(dimensions=3, seed=1))
    b = minimize(sphere, TlboConfig(dimensions=3, seed=2))
    assert not np.array_equal(a.best_point, b.best_point)


def test_history_non_increasing_and_ends_at_best():
    res = minimize(sphere, TlboConfig(dimensions=5, seed=7))
    assert np.all(np.diff(res.fitness_history) <= 0)
    assert res.best_fitness == res.fitness_history[-1]


def test_evaluation_count_exact():
    for seed in (0, 5, 9):
        res = minimize(sphere, TlboConfig(dimensions=2, seed=seed, population=11))
        assert res.evaluations == 11 * (1 + res.iterations)


def test_bounds_respected_throughout():
    lo, hi = 2.0, 3.0
    seen = []

    def probe(x):
        seen.append(x.copy())
        return sphere(x)

    res = minimize(probe, TlboConfig(dimensions=3, lower=lo, upper=hi, seed=4))
    pts = np.vstack(seen)
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)
    assert np.all(res.best_point >= lo) and np.all(res.best_point <= lo + 1e-6)


def test_asymmetric_per_dimension_bounds():
    cfg = TlboConfig(dimensions=2, lower=(-1.0, 5.0), upper=(1.0, 6.0), seed=2)
    res = minimize(sphere, cfg)
    assert -1 <= res.best_point[0] <= 1
    assert 5 <= res.best_point[1] <= 6
    assert res.best_point[1] == pytest.approx(5.0, abs=1e-6)


def test_window_termination_before_cap():
    res = minimize(sphere, TlboConfig(dimensions=3, seed=3))
    assert res.terminated_by_window
    assert res.iterations < 2000


def test_max_iterations_cap():
    cfg = TlboConfig(dimensions=3, seed=3, max_iterations=6, termination_tol=1e-300)
    res = minimize(sphere, cfg)
    assert res.iterations == 6
    assert not res.terminated_by_window


@pytest.mark.parametrize("cap", [1, 5, 6])
def test_max_iterations_is_exact_for_odd_and_even_caps(cap):
    cfg = TlboConfig(dimensions=2, seed=1, max_iterations=cap, termination_window=1000)
    res = minimize(sphere, cfg)
    assert res.iterations == cap
    assert len(res.fitness_history) == cap + 1


def test_evaluations_follow_history():
    capped = minimize(sphere, TlboConfig(dimensions=3, seed=3, max_iterations=6))
    windowed = minimize(sphere, TlboConfig(dimensions=3, seed=3))
    nans = minimize(lambda x: math.nan if x[0] > 0 else sphere(x),
                    TlboConfig(dimensions=2, seed=8, population=13))
    assert capped.iterations == 6 and not capped.terminated_by_window
    assert windowed.terminated_by_window
    assert nans.nan_evaluations > 0
    for res, npop in ((capped, 20), (windowed, 20), (nans, 13)):
        assert res.evaluations == npop * len(res.fitness_history)
        assert res.iterations == len(res.fitness_history) - 1


def test_seeded_trajectory_is_pinned():
    """Recorded values: a change to the random draw order or to the phase
    arithmetic moves them."""
    def close(x):
        return pytest.approx(x, rel=1e-12, abs=0.0)

    res = minimize(sphere, TlboConfig(dimensions=3, seed=702))
    assert (res.iterations, res.evaluations) == (86, 1740)
    assert res.best_fitness == close(4.831421629530721e-11)

    cfg = TlboConfig(dimensions=3, seed=2024)
    single = assess_single(load_benchmark(1), cfg, runs=5)
    assert single.evaluations == 10260
    assert [r["iterations"] for r in single.per_run] == [104, 100, 94, 96, 114]
    assert single.mov == close(3.072766425014991)

    cascade = assess_cascade(load_case_study("immersion_cascade").loop, cfg, runs=5)
    assert cascade.evaluations == 14780
    assert [r["iterations"] for r in cascade.per_run] == [228, 100, 56, 198, 152]
    assert cascade.mov == close(0.0005499255512063868)


def test_nan_candidates_rejected_and_counted():
    calls = {"n": 0}

    def nan_in_region(x):
        calls["n"] += 1
        if x[0] > 0:
            return float("nan")
        return float(x @ x)

    res = minimize(nan_in_region, TlboConfig(dimensions=2, seed=8))
    assert res.nan_evaluations > 0
    assert np.isfinite(res.best_fitness)
    assert res.best_point[0] <= 0


def test_config_validation():
    with pytest.raises(ValueError, match="population"):
        TlboConfig(dimensions=2, population=1)
    with pytest.raises(ValueError, match="bound"):
        TlboConfig(dimensions=2, lower=1.0, upper=1.0)
    with pytest.raises(ValueError, match="termination_tol"):
        TlboConfig(dimensions=2, termination_tol=0.0)
    with pytest.raises(ValueError, match="dimensions"):
        TlboConfig(dimensions=0)
    # a negative seed would fail inside SeedSequence, and max_iterations < 1
    # would run no phase and return the initial population's best
    with pytest.raises(ValueError, match="seed"):
        TlboConfig(dimensions=2, seed=-1)
    for n in (0, -5):
        with pytest.raises(ValueError, match="max_iterations"):
            TlboConfig(dimensions=2, max_iterations=n)
    assert TlboConfig(dimensions=2, seed=0, max_iterations=1).max_iterations == 1


def test_rastrigin_multimodal_quality():
    # multimodal sanity: should land in or very near the global basin
    def rastrigin(x):
        return float(10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x)))

    cfg = TlboConfig(dimensions=2, lower=-5.12, upper=5.12, seed=6)
    res = minimize(rastrigin, cfg)
    assert res.best_fitness < 2.0
