import math

import numpy as np
import pytest

from pidmov import (
    CASE_STUDY_REFERENCE,
    REFERENCE,
    ReferenceEntry,
    SingleLoopProblem,
    TlboConfig,
    load_benchmark,
    load_case_study,
    mv_benchmark,
    run_benchmark_suite,
)
from pidmov.benchmarks import matches_reference
from pidmov.cascade import CascadeProblem


def test_reference_table_sanity():
    assert len(REFERENCE) == 10
    for entry in REFERENCE.values():
        assert entry.mv <= entry.bkmov
        assert entry.mean <= entry.bkmov * (1 + 1e-3)
        assert len(entry.params) == 3


def test_reference_entry_rejects_inverted_bound():
    with pytest.raises(ValueError, match="exceeds"):
        ReferenceEntry(99, mv=2.0, bkmov=1.0, mean=1.0, std=0.0, worst=1.0,
                       time_s=0.0, params=(0.0, 0.0, 0.0))


def test_load_benchmark_models():
    p1 = load_benchmark(1)
    assert p1.process.num == (0.2,)
    assert p1.process.delay == 5
    assert p1.truncation == 40
    assert p1.noise_variance == 1.0
    # expanded denominator of (1-q)(1+0.4q)
    assert p1.disturbance.den == pytest.approx((1.0, -0.6, -0.4))

    p3 = load_benchmark(3)
    assert p3.process.delay == 28
    assert p3.truncation == 224

    p10 = load_benchmark(10)
    assert p10.disturbance.num[0] == pytest.approx(math.sqrt(0.001))


def test_load_benchmark_unknown_id():
    with pytest.raises(KeyError, match="1..10"):
        load_benchmark(99)


def test_mv_column_against_independent_formulas():
    # row 8: integrating disturbance, three invariant ones
    assert mv_benchmark(load_benchmark(8)) == pytest.approx(3.0)
    # row 2: geometric sum with d = 12 terms
    r = 0.8669**2
    assert mv_benchmark(load_benchmark(2)) == pytest.approx(
        0.08919**2 * (1 - r**12) / (1 - r), rel=1e-12
    )
    # row 3: geometric sum with d = 28 terms
    r3 = 0.9604**2
    assert mv_benchmark(load_benchmark(3)) == pytest.approx(
        0.5108**2 * (1 - r3**28) / (1 - r3), rel=1e-12
    )


def test_air_case_study():
    problem = load_case_study("air_single")
    loop = problem.loop
    assert isinstance(loop, SingleLoopProblem)
    g = loop.process.impulse_response(6).coeffs
    # closed form 0.0413 * 0.8952^(k-4)
    assert g == pytest.approx([0, 0, 0, 0, 0.0413, 0.0413 * 0.8952,
                               0.0413 * 0.8952**2], abs=1e-12)
    # integrating load disturbance: pole at 1
    roots = np.roots(loop.disturbance.den)
    assert np.isclose(roots, 1.0).any()
    assert loop.noise_variance == pytest.approx(1e-5)
    assert problem.sample_time == 10.0
    assert problem.horizon == 200


def test_immersion_case_study():
    problem = load_case_study("immersion_cascade")
    loop = problem.loop
    assert isinstance(loop, CascadeProblem)
    assert loop.inner.num[0] == pytest.approx(-0.5314)
    assert loop.outer.delay == 7 and loop.inner.delay == 3
    assert loop.truncation == 80
    assert problem.sample_time == 6.0
    # noise scale consistent with the published variance column (the source
    # text overstates both variances tenfold)
    assert loop.noise_variances == pytest.approx((5e-5, 5e-4))


def test_unknown_case_study():
    with pytest.raises(KeyError, match="air_single"):
        load_case_study("boiler")


def test_case_study_reference_rows():
    assert [r for r, _, _ in CASE_STUDY_REFERENCE["air_single"]] == [0.0, 1e5, 2.5e5, 10e5]
    assert [r for r, _, _ in CASE_STUDY_REFERENCE["immersion_cascade"]] == [
        0.0, 1e6, 10e6, 100e6
    ]
    for rows in CASE_STUDY_REFERENCE.values():
        sigmas = [s for _, _, s in rows]
        assert sigmas == sorted(sigmas, reverse=True)


def test_matches_reference_combines_rtol_and_print_precision():
    assert matches_reference(3.07277, 3.0728)            # 0.1% branch
    assert matches_reference(0.00244501, 0.0024)         # printed-precision branch
    assert not matches_reference(0.00254, 0.0024)
    # 0.23% off and printed as 3.0800: outside both branches
    assert not matches_reference(3.08, 3.0728)


def test_single_problem_suite_run_deterministic():
    cfg = TlboConfig(dimensions=3, seed=7)
    a = run_benchmark_suite(cfg, repetitions=2, problems=[1])
    b = run_benchmark_suite(cfg, repetitions=2, problems=[1])
    assert len(a.rows) == 1
    ra, rb = a.rows[0], b.rows[0]
    assert ra.mov_mean == rb.mov_mean
    assert ra.mov_ok and ra.std_ok and ra.beats_bkmov
    assert ra.mv_computed == pytest.approx(2.9427, abs=1e-4)


def test_suite_best_known_check_honors_print_precision():
    # problem 10's true optimum (~0.0024450) prints as 0.0024, which is also
    # the best-known reference; reaching the printed value within rounding
    # counts as reaching it
    report = run_benchmark_suite(TlboConfig(dimensions=3, seed=2024),
                                 repetitions=2, problems=[10])
    row = report.rows[0]
    assert row.mov_mean > row.bkmov  # only due to print quantization
    assert row.beats_bkmov
    assert row.mov_ok


def test_suite_rejects_unknown_problem():
    with pytest.raises(KeyError, match="1..10"):
        run_benchmark_suite(repetitions=1, problems=[42])


def test_suite_raises_usage_errors():
    # only optimizer failures become failed rows; a bad config is the caller's
    with pytest.raises(ValueError, match="3-dimensional"):
        run_benchmark_suite(TlboConfig(dimensions=2), repetitions=1, problems=[1])


def test_suite_report_serialization():
    report = run_benchmark_suite(TlboConfig(dimensions=3, seed=7),
                                 repetitions=1, problems=[8])
    d = report.to_dict()
    assert d["report"] == "benchmark-suite"
    assert len(d["rows"]) == 1
    md = report.to_markdown()
    assert "| 8 |" in md
    csv_rows = report.csv_rows()
    assert csv_rows[0]["id"] == 8
