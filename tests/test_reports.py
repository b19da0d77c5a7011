"""Report contents that every writer shares: the closed-loop radius of each
optimum, the optimizer's evaluation counts, and JSON that a strict parser
reads (no NaN or Infinity tokens)."""

import json
import math

import numpy as np

import pidmov.benchmarks
from pidmov import (
    AssessmentError,
    TlboConfig,
    assess_cascade,
    assess_single,
    closed_loop_radius,
    load_benchmark,
    load_case_study,
    run_benchmark_suite,
    tune,
)
from pidmov.reports import write_json
from pidmov.singleloop import _assess, seeded_runs

QUICK = TlboConfig(dimensions=3, seed=1, max_iterations=10)


def strict_load(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_assessment_reports_radius_at_best_params():
    for problem, assess in ((load_benchmark(1), assess_single),
                            (load_case_study("immersion_cascade").loop, assess_cascade)):
        report = assess(problem, QUICK, runs=2)
        assert report.closed_loop_radius == closed_loop_radius(problem, report.params_best)
        assert report.to_dict()["closed_loop_radius"] == report.closed_loop_radius
        assert report.to_dict()["params"]["best"] == report.params_best.tolist()


def test_radius_is_taken_at_a_point_some_run_found():
    # two wells in the cascade's gains, each stable where their midpoint is
    # not: runs ending in different wells average to a controller no run found
    loop = load_case_study("immersion_cascade").loop
    wells = np.array([[-47.2, 46.15, 0.018], [-0.12, 0.21, -1.26]])

    def two_wells(k):
        return float(min(np.sum((k - wells[0]) ** 2), np.sum((k - wells[1]) ** 2) + 1.0))

    report = _assess(loop, two_wells, TlboConfig(dimensions=3, seed=1), runs=4)
    points = np.array([r["params"] for r in report.per_run])
    basin = np.argmin(((points[:, None] - wells) ** 2).sum(axis=2), axis=1)
    assert sorted(set(basin.tolist())) == [0, 1]
    best = int(np.argmin([r["fitness"] for r in report.per_run]))
    assert report.params_best.tolist() == points[best].tolist()
    assert report.closed_loop_radius == closed_loop_radius(loop, report.params_best) < 1
    assert closed_loop_radius(loop, report.params_mean) > 1.1


def test_per_run_entries_count_nan_evaluations():
    # a sphere that reads NaN on a third of the box: TLBO rejects and counts
    # those candidates, and each run's report entry carries its count
    def objective(k):
        return math.nan if k[0] > 50 / 3 else float(k @ k)

    results = seeded_runs(objective, QUICK, 3)
    report = _assess(load_benchmark(1), objective, QUICK, runs=3)
    assert [r["nan_evaluations"] for r in report.per_run] == [
        r.nan_evaluations for r in results]
    assert sum(r.nan_evaluations for r in results) > 0
    assert report.evaluations == sum(r["evaluations"] for r in report.per_run)
    assert report.to_dict()["per_run"] == report.per_run


def test_tuning_rows_report_radius():
    case = load_case_study("air_single")
    report = tune(case, QUICK, runs=1, rho_sweep=[0.0, 1e5])
    for row, d in zip(report.rows, report.to_dict()["rows"]):
        assert row.closed_loop_radius == closed_loop_radius(case.loop, row.params)
        assert d["closed_loop_radius"] == row.closed_loop_radius


def test_never_settling_tuning_row_is_null(tmp_path):
    case = load_case_study("immersion_cascade")
    report = tune(case, TlboConfig(dimensions=3, seed=606), runs=2, rho_sweep=[1e6])
    row = report.rows[0]
    # the tuned response stays outside the 2% band to the end of the horizon
    assert row.settling_time_s == math.inf
    d = strict_load(write_json(tmp_path / "tune.json", report.to_dict()))
    assert d["rows"][0]["settling_time_s"] is None
    assert d["rows"][0]["iae"] == row.iae


def test_failed_suite_row_is_null(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise AssessmentError("no finite-variance controller")

    monkeypatch.setattr(pidmov.benchmarks, "assess_single", fail)
    report = run_benchmark_suite(QUICK, repetitions=1, problems=[1])
    row = report.rows[0]
    assert row.mov_mean == math.inf and all(math.isnan(k) for k in row.params_mean)
    d = strict_load(write_json(tmp_path / "suite.json", report.to_dict()))["rows"][0]
    assert d["mov_mean"] is None and d["mov_std"] is None
    assert d["params_mean"] == [None, None, None]
    assert d["mv_computed"] == row.mv_computed
