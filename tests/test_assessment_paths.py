"""The single loop, the cascade and tuning share one assessment path: the
argument guards and the report's problem block must read the same for each."""

import pytest

from pidmov import (
    TlboConfig,
    assess_cascade,
    assess_single,
    load_benchmark,
    load_case_study,
    tune,
)

# A short optimizer run: these tests read the guards and the problem block,
# not the optimum.
QUICK = TlboConfig(dimensions=3, seed=1, max_iterations=10)


def immersion():
    return load_case_study("immersion_cascade").loop


def air():
    return load_case_study("air_single")


def test_single_problem_block():
    d = assess_single(load_benchmark(1), QUICK, runs=1).to_dict()
    assert d["problem"] == {
        "type": "single",
        "process": {"num": [0.2], "den": [1.0, -0.8], "delay": 5},
        "disturbance": {"num": [1.0], "den": [1.0, -0.6, -0.4], "delay": 0},
        "noise_variance": 1.0,
        "truncation": 40,
    }


def test_cascade_problem_block():
    d = assess_cascade(immersion(), QUICK, runs=1).to_dict()
    assert d["problem"] == {
        "type": "cascade",
        "outer": {"num": [0.04292], "den": [1.0, -0.9575], "delay": 7},
        "inner": {"num": [-0.5314], "den": [1.0, -0.6023], "delay": 3},
        "outer_disturbance": {"num": [1.0], "den": [1.0, -0.9575], "delay": 0},
        "inner_disturbance": {"num": [1.0], "den": [1.0, -0.6023], "delay": 0},
        "noise_variances": [5e-05, 0.0005],
        "truncation": 80,
    }


def test_tuning_problem_block():
    d = tune(air(), QUICK, runs=1).to_dict()
    assert d["problem"] == {
        "type": "single",
        "process": {"num": [0.0413], "den": [1.0, -0.8952], "delay": 4},
        "disturbance": {"num": [0.2], "den": [1.0, -1.8952, 0.8952], "delay": 0},
        "noise_variance": 1e-05,
        "truncation": 32,
    }


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg, runs: assess_single(load_benchmark(1), cfg, runs=runs),
        lambda cfg, runs: assess_cascade(immersion(), cfg, runs=runs),
        lambda cfg, runs: tune(air(), cfg, runs=runs),
    ],
    ids=["assess_single", "assess_cascade", "tune"],
)
@pytest.mark.parametrize(
    "cfg, runs, match",
    [
        (QUICK, 0, "runs"),
        (QUICK, 1.5, "runs must be a whole number"),
        (TlboConfig(dimensions=2, max_iterations=10), 1, "three gains"),
    ],
    ids=["no_runs", "fractional_runs", "two_dimensions"],
)
def test_entry_points_reject_bad_arguments(run, cfg, runs, match):
    with pytest.raises(ValueError, match=match):
        run(cfg, runs)


def test_integral_float_runs_count_as_runs():
    # 2.0 runs failed inside SeedSequence; it now reads, and reports, as 2
    report = assess_single(load_benchmark(1), QUICK, runs=2.0)
    assert report.runs == 2 and type(report.runs) is int
    assert len(report.per_run) == 2
