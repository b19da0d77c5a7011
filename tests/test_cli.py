import json

import pytest

from pidmov import CascadeParams, cascade_impulse
from pidmov.cli import _parse_loop, main

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


def test_assess_validate_independent_cascade(tmp_path):
    # the analytic side of an independent-shock check has no cross term
    doc = {**CASCADE, "mc": {"mode": "independent", "samples": 200000, "seed": 1}}
    path = write(tmp_path, doc, "immersion.json")
    code = main(["assess", str(path), "--runs", "2", "--validate", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "immersion_assess.json").read_text())
    v = payload["validation"]
    assert v["mode"] == "independent"
    loop = _parse_loop(doc)
    phi1, phi2 = cascade_impulse(loop, CascadeParams(*payload["params"]["mean"]))
    assert v["analytic"] == pytest.approx(
        float(phi1 @ phi1) * 5e-5 + float(phi2 @ phi2) * 5e-4, rel=1e-12)
    assert v["relative_error"] <= 0.02


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


def test_tune_rho_sweep_without_sweep_is_usage_error(tmp_path, capsys):
    doc = dict(AIR)
    doc["tuning"] = {"rho": 0.0}
    path = write(tmp_path, doc)
    code = main(["tune", str(path), "--rho-sweep", "--out", str(tmp_path)])
    assert code == 2
    assert "problem file has no tuning.rho_sweep" in capsys.readouterr().err
    assert not (tmp_path / "problem_tune.json").exists()


@pytest.mark.parametrize("argv", [
    ["assess", "{file}", "--runs", "0"],
    ["assess", "{file}", "--runs", "-3"],
    ["tune", "{file}", "--runs", "two"],
    ["validate", "{file}", "--params", "2.8408,-4.4059,1.7486", "--samples", "0"],
])
def test_count_flags_reject_non_positive_values(tmp_path, capsys, argv):
    path = write(tmp_path, BENCH1)
    with pytest.raises(SystemExit) as exc:
        main([a.format(file=path) for a in argv] + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pidmov")
    assert "must be a positive integer" in err
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]   # no report


@pytest.mark.parametrize("argv, section, value", [
    pytest.param(["tune"], "tuning", {"rho": "abc"}, id="tuning-rho"),
    pytest.param(["tune"], "tuning", {"rho_sweep": [0, "x"]}, id="tuning-rho_sweep"),
    pytest.param(["tune"], "tuning", {"horizon": "abc"}, id="tuning-horizon"),
    pytest.param(["tune"], "tuning", {"horizon": float("inf")}, id="tuning-horizon-inf"),
    pytest.param(["tune"], "tuning", {"multistage": [{"params": [1, "a", 2]}]},
                 id="tuning-multistage"),
    pytest.param(["tune"], "tuning", [1, 2], id="tuning-list"),
    pytest.param(["assess"], "noise", 5, id="noise-number"),
    pytest.param(["assess"], "tlbo", [1, 2], id="tlbo-list"),
    pytest.param(["assess"], "assessment", "p", id="assessment-string"),
    pytest.param(["assess", "--validate"], "mc", 5, id="mc-number"),
])
def test_malformed_section_is_usage_error(tmp_path, capsys, argv, section, value):
    base = AIR if argv[0] == "tune" else BENCH1
    path = write(tmp_path, {**base, section: value})
    code = main([argv[0], str(path), *argv[1:], "--runs", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"section '{section}'" in err
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]   # no report


def test_quoted_p_multiplier_parses_as_a_number():
    # a string times the dead time was a repeated string: "8" read as p = 88888
    assert _parse_loop({**BENCH1, "assessment": {"p_multiplier": "8"}}).truncation == 40


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
    # the problem file leaves the mode at its fully-correlated default; with
    # independent shocks the analytic side drops the cross term,
    # phi1'phi1 s1^2 + phi2'phi2 s2^2 = 5.108e-4 here (6.097e-4 with it)
    path = write(tmp_path, CASCADE, "immersion.json")
    code = main(["validate", str(path), "--params", "2.7638,-2.6554,-0.8436",
                 "--samples", "20000", "--mode", "independent", "--out", str(tmp_path)])
    assert "mode independent" in capsys.readouterr().out
    payload = json.loads((tmp_path / "immersion_validate.json").read_text())
    assert payload["mode"] == "independent"
    assert payload["samples"] == 20000
    assert payload["analytic"] == pytest.approx(5.108e-4, rel=1e-3)
    assert code == 0


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


def test_validate_notes_underpowered_check(tmp_path, capsys):
    # at the assessed immersion gains 20000 independent-shock samples leave a
    # standard error near 2.7%, too wide for the 2% check to mean anything
    path = write(tmp_path, CASCADE, "immersion.json")
    code = main(["validate", str(path), "--params", "2.5223,-2.5218,-1.1225",
                 "--samples", "20000", "--mode", "independent", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "immersion_validate.json").read_text())
    assert payload["underpowered"] is True
    assert payload["chains"] == 2
    assert payload["z"] == pytest.approx(
        (payload["estimate"] - payload["analytic"]) / payload["standard_error"])
    assert "note: underpowered" in out
    # the verdict is still the 2% rule alone
    assert code == (0 if payload["relative_error"] <= 0.02 else 1)


def test_validate_powered_check_has_no_note(tmp_path, capsys):
    path = write(tmp_path, BENCH1)
    code = main(["validate", str(path), "--params", "2.8408,-4.4059,1.7486",
                 "--samples", "400000", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "problem_validate.json").read_text())
    assert code == 0
    assert payload["underpowered"] is False
    assert payload["chains"] == 40
    assert "underpowered" not in out


def test_assess_validate_notes_underpowered_check(tmp_path, capsys):
    doc = {**CASCADE, "mc": {"mode": "independent", "samples": 20000, "seed": 1}}
    path = write(tmp_path, doc, "immersion.json")
    code = main(["assess", str(path), "--runs", "2", "--validate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    v = json.loads((tmp_path / "immersion_assess.json").read_text())["validation"]
    assert v["underpowered"] is True
    assert "note: underpowered" in out
    assert code == (0 if v["relative_error"] <= 0.02 else 1)


def _exit_code(argv) -> int:
    """main's exit code, also where argparse exits through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, doc", [
    pytest.param(["assess", "{file}"], {**BENCH1, "tlbo": {"seed": -1}}, id="tlbo-seed"),
    pytest.param(["assess", "{file}", "--seed", "-1"], BENCH1, id="assess-flag"),
    pytest.param(["tune", "{file}", "--seed", "-1"], AIR, id="tune-flag"),
    pytest.param(["bench", "--problems", "8", "--seed", "-1"], BENCH1, id="bench-flag"),
    pytest.param(["assess", "{file}", "--validate"],
                 {**BENCH1, "mc": {"samples": 20000, "seed": -1}}, id="mc-seed"),
    pytest.param(["validate", "{file}", "--params", "2.8408,-4.4059,1.7486"],
                 {**BENCH1, "mc": {"samples": 20000, "seed": -1}}, id="validate-mc-seed"),
    pytest.param(["assess", "{file}"], {**BENCH1, "tlbo": {"max_iters": 0}},
                 id="tlbo-max_iters"),
])
def test_negative_seed_and_no_phase_are_usage_errors(tmp_path, capsys, argv, doc):
    path = write(tmp_path, doc)
    code = _exit_code([a.format(file=path) for a in argv]
                      + ["--runs", "1"] * (argv[0] != "validate") + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]   # no report


def test_seed_zero_is_valid(tmp_path, capsys):
    path = write(tmp_path, BENCH1)
    assert main(["assess", str(path), "--runs", "1", "--seed", "0",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["validate", "{file}", "--seed", "5"],
    ["validate", "{file}", "--runs", "7"],
    ["validate", "{file}", "--format", "csv"],
    ["bench", "--problems", "8", "--runs", "1", "--format", "csv"],
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, argv):
    # validate runs no optimizer and writes no table; bench always writes all three
    path = write(tmp_path, BENCH1)
    if argv[0] == "validate":
        argv = argv + ["--params", "2.8408,-4.4059,1.7486", "--samples", "20000"]
    code = _exit_code([a.format(file=path) for a in argv] + ["--out", str(tmp_path)])
    assert code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]   # no report
