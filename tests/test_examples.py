"""The CLI commands the README shows, run on the shipped problem files."""

import json
import re
import shlex
from pathlib import Path

import pytest

from pidmov.cli import main

ROOT = Path(__file__).resolve().parents[1]

# README command -> (flags that keep it small, reports it must write)
EXPECTED = {
    "pidmov assess problems/benchmark1.yaml --runs 5 --seed 1 --validate":
        (["--runs", "2"], ["benchmark1_assess.json"]),
    "pidmov tune problems/air_temperature.yaml --rho-sweep --out reports/":
        (["--runs", "1"], ["air_temperature_tune.json"]
         + [f"air_temperature_step_rho{r}.csv" for r in ("0", "100000", "250000", "1e+06")]),
    "pidmov tune problems/air_temperature.yaml --multistage":
        ([], ["air_temperature_multistage.json"]),
    "pidmov bench --runs 5 --seed 2024 --problems 1,3,5":
        (["--runs", "2"], ["bench_suite.json", "bench_suite.csv", "bench_suite.md"]),
    'pidmov validate problems/immersion_cascade.yaml --params "2.76,-2.66,-0.84"':
        (["--samples", "200000"], ["immersion_cascade_validate.json"]),
}


def readme_commands() -> list[str]:
    cli = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", cli, re.S).group(1)
    return [line.strip() for line in block.splitlines() if line.startswith("pidmov ")]


def test_readme_lists_the_tested_commands():
    assert readme_commands() == list(EXPECTED)


@pytest.mark.parametrize("command", list(EXPECTED))
def test_readme_command_runs_on_shipped_problem(tmp_path, monkeypatch, capsys, command):
    small, reports = EXPECTED[command]
    argv = shlex.split(command)[1:]
    if "--out" in argv:                 # drop the README's own output directory
        i = argv.index("--out")
        del argv[i:i + 2]
    monkeypatch.chdir(ROOT)
    assert main(argv + small + ["--out", str(tmp_path)]) == 0
    for name in reports:
        assert (tmp_path / name).exists(), name
    if "--validate" in argv:
        payload = json.loads((tmp_path / "benchmark1_assess.json").read_text())
        assert payload["validation"]["relative_error"] <= 0.02
