import json

from pidmov.cli import main

BENCH1 = {
    "process": {"num": [0.2], "den": [1.0, -0.8], "delay": 5},
    "disturbance": {"num": [1.0], "den": [1.0, -0.6, -0.4], "delay": 0},
    "noise": {"variance": 1.0},
    "tlbo": {"np": 20, "bounds": [-50, 50], "tol": 1e-7, "window": 20, "seed": 3},
}

CASCADE = {
    "outer": {"num": [0.04292], "den": [1.0, -0.9575], "delay": 7},
    "inner": {"num": [-0.5314], "den": [1.0, -0.6023], "delay": 3},
    "outer_disturbance": {"num": [1.0], "den": [1.0, -0.9575]},
    "inner_disturbance": {"num": [1.0], "den": [1.0, -0.6023]},
    "noise": {"variances": [5e-5, 5e-4]},
    "tlbo": {"seed": 11},
}

AIR = {
    "process": {"num": [0.0413], "den": [1.0, -0.8952], "delay": 4},
    "disturbance": {"num": [0.2], "den": [1.0, -1.8952, 0.8952]},
    "noise": {"variance": 1e-5},
    "tuning": {
        "rho": 0.0,
        "rho_sweep": [0.0, 1e5],
        "horizon": 200,
        "sample_time": 10.0,
        "setpoint": 1.0,
        "multistage": [
            {"params": [5.3333, -6.8756, 1.8693], "switch": 0},
            {"params": [7.9520, -10.2099, 2.8804], "switch": 100},
        ],
    },
    "tlbo": {"seed": 5},
}


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_assess_single_loop(tmp_path, capsys):
    path = write(tmp_path, BENCH1)
    code = main(["assess", str(path), "--runs", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "MOV" in out and "3.0727" in out
    assert "eta" in out
    payload = json.loads((tmp_path / "problem_assess.json").read_text())
    assert payload["kind"] == "single"
    assert abs(payload["mov"]["mean"] - 3.0728) < 2e-4
    assert payload["optimizer"]["seed"] == 3


def test_assess_cascade_by_file_shape(tmp_path, capsys):
    path = write(tmp_path, CASCADE, "immersion.json")
    code = main(["assess", str(path), "--runs", "2", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "immersion_assess.json").read_text())
    assert payload["kind"] == "cascade"
    assert min(r["fitness"] for r in payload["per_run"]) <= 4.8117e-4 * 1.001


def test_assess_history_export(tmp_path):
    path = write(tmp_path, BENCH1)
    code = main(["assess", str(path), "--runs", "2", "--history",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "problem_history.csv").read_text().splitlines()
    assert lines[0] == "run,phase,best_fitness"
    runs = {line.split(",")[0] for line in lines[1:]}
    assert runs == {"0", "1"}


def test_assess_yaml_problem_file(tmp_path):
    path = tmp_path / "problem.yaml"
    path.write_text(
        "process: {num: [0.1], den: [1.0, -0.8], delay: 3}\n"
        "disturbance: {num: [1.0], den: [1.0, -1.0]}\n"
        "tlbo: {seed: 2}\n"
    )
    code = main(["assess", str(path), "--runs", "1", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "problem_assess.json").read_text())
    assert abs(payload["mov"]["mean"] - 3.2032) < 2e-4


def test_assess_missing_field_is_usage_error(tmp_path, capsys):
    doc = {"process": {"num": [0.2], "delay": 5},
           "disturbance": {"num": [1.0], "den": [1.0]}}
    path = write(tmp_path, doc)
    code = main(["assess", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "den" in err


def test_assess_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["assess", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "line" in capsys.readouterr().err


def test_assess_infeasible_truncation_message(tmp_path, capsys):
    doc = dict(BENCH1)
    doc["assessment"] = {"p": 3}
    path = write(tmp_path, doc)
    code = main(["assess", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "truncation" in capsys.readouterr().err


def test_tune_rho_sweep_writes_rows_and_series(tmp_path, capsys):
    path = write(tmp_path, AIR, "air.json")
    code = main(["tune", str(path), "--rho-sweep", "--runs", "1",
                 "--out", str(tmp_path), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads((tmp_path / "air_tune.json").read_text())
    rows = payload["rows"]
    assert [r["rho"] for r in rows] == [0.0, 1e5]
    assert rows[0]["sigma2"] > rows[1]["sigma2"]
    assert (tmp_path / "air_tune.csv").exists()
    assert (tmp_path / "air_step_rho0.csv").exists()
    assert (tmp_path / "air_step_rho100000.csv").exists()
    assert "rho=0" in out


def test_tune_negative_rho_rejected(tmp_path, capsys):
    doc = dict(AIR)
    doc["tuning"] = {"rho": -1.0}
    path = write(tmp_path, doc)
    code = main(["tune", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert "rho" in capsys.readouterr().err


def test_tune_multistage_writes_composite_series(tmp_path, capsys):
    path = write(tmp_path, AIR, "air.json")
    code = main(["tune", str(path), "--multistage", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "multistage IAE" in out
    payload = json.loads((tmp_path / "air_multistage.json").read_text())
    assert len(payload["stage_criteria"]) == 2
    series = (tmp_path / "air_multistage_series.csv").read_text().splitlines()
    assert series[0] == "time_s,setpoint,output"
    assert len(series) == 201


def test_bench_subset_and_exit_code(tmp_path, capsys):
    code = main(["bench", "--runs", "2", "--seed", "7", "--problems", "1,8",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "| 1 |" in out and "| 8 |" in out
    payload = json.loads((tmp_path / "bench_suite.json").read_text())
    assert payload["passed"] is True
    assert (tmp_path / "bench_suite.csv").exists()
    assert (tmp_path / "bench_suite.md").exists()


def test_bench_unknown_problem_usage_error(tmp_path, capsys):
    code = main(["bench", "--problems", "99", "--out", str(tmp_path)])
    assert code == 2


def test_validate_matches_analytic(tmp_path, capsys):
    path = write(tmp_path, BENCH1)
    code = main(["validate", str(path), "--params", "2.8408,-4.4059,1.7486",
                 "--samples", "150000", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "rel error" in out
    payload = json.loads((tmp_path / "problem_validate.json").read_text())
    assert payload["relative_error"] < 0.02
    # --samples re-derives the burn-in from the new sample count
    assert payload["samples"] == 150000
    assert payload["burn_in"] == 15000


def test_validate_mode_overrides_problem_file(tmp_path, capsys):
    # the problem file leaves the mode at its fully-correlated default; the
    # exit code is not checked, since the analytic side is the
    # fully-correlated variance whatever the mode
    path = write(tmp_path, CASCADE, "immersion.json")
    main(["validate", str(path), "--params", "2.7638,-2.6554,-0.8436",
          "--samples", "20000", "--mode", "independent", "--out", str(tmp_path)])
    assert "mode independent" in capsys.readouterr().out
    payload = json.loads((tmp_path / "immersion_validate.json").read_text())
    assert payload["mode"] == "independent"
    assert payload["samples"] == 20000


def test_validate_unstable_params_fail(tmp_path, capsys):
    path = write(tmp_path, BENCH1)
    code = main(["validate", str(path), "--params", "40,40,40",
                 "--samples", "20000", "--out", str(tmp_path)])
    assert code == 1
    assert "failed" in capsys.readouterr().err


def test_reports_identical_apart_from_timestamps(tmp_path):
    path = write(tmp_path, BENCH1)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["assess", str(path), "--runs", "1", "--out", str(out1)]) == 0
    assert main(["assess", str(path), "--runs", "1", "--out", str(out2)]) == 0

    def strip(p):
        d = json.loads((p / "problem_assess.json").read_text())
        d.pop("meta")
        for r in d["per_run"]:
            r.pop("elapsed_s")
        d.pop("mean_elapsed_s")
        return d

    assert strip(out1) == strip(out2)
