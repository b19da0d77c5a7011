"""Report containers and their JSON/CSV/Markdown serialization."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .lti import DiscreteTransferFunction


def run_entry(r) -> dict:
    """The ``per_run`` report entry of one optimizer run (an ``OptResult``)."""
    return {
        "fitness": float(r.best_fitness),
        "params": [float(x) for x in r.best_point],
        "iterations": int(r.iterations),
        "evaluations": int(r.evaluations),
        "nan_evaluations": int(r.nan_evaluations),
        "elapsed_s": float(r.elapsed),
        "terminated_by_window": bool(r.terminated_by_window),
    }


def block(obj) -> dict:
    """Report block of a dataclass (a problem, an optimizer config): every
    field, arrays and tuples as lists, transfer functions as num/den/delay."""
    out = {}
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, DiscreteTransferFunction):
            v = {"num": list(v.num), "den": list(v.den), "delay": v.delay}
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = v
    return out


def _meta() -> dict:
    return {"created_utc": datetime.now(timezone.utc).isoformat()}


@dataclass
class AssessmentReport:
    """Outcome of a restricted-structure achievable-variance assessment."""

    kind: str                      # "single" | "cascade"
    mov: float
    mov_std: float
    mov_worst: float
    mov_best: float
    params_mean: np.ndarray        # spread statistics of the run optima
    params_std: np.ndarray
    params_best: np.ndarray        # the best run's point
    runs: int
    evaluations: int
    mean_elapsed: float
    per_run: list[dict]
    problem_summary: dict
    optimizer_config: object
    mv: float | None = None        # single loop only
    eta: float | None = None       # mv / mov
    closed_loop_radius: float | None = None   # at params_best
    assumptions: list[str] = field(default_factory=list)
    validation: dict | None = None
    run_histories: list[np.ndarray] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        d = {
            "report": "assessment",
            "kind": self.kind,
            "mov": {
                "mean": self.mov,
                "std": self.mov_std,
                "worst": self.mov_worst,
                "best": self.mov_best,
            },
            "params": {
                "mean": self.params_mean.tolist(),
                "std": self.params_std.tolist(),
                "best": self.params_best.tolist(),
            },
            "closed_loop_radius": self.closed_loop_radius,
            "runs": self.runs,
            "evaluations": self.evaluations,
            "mean_elapsed_s": self.mean_elapsed,
            "per_run": self.per_run,
            "problem": self.problem_summary,
            "optimizer": block(self.optimizer_config),
            "assumptions": self.assumptions,
            "meta": _meta(),
        }
        if self.mv is not None:
            d["mv"] = self.mv
            d["eta"] = self.eta
        if self.validation is not None:
            d["validation"] = self.validation
        return d

    def csv_row(self) -> dict:
        row = {
            "kind": self.kind,
            "mv": "" if self.mv is None else f"{self.mv:.6g}",
            "mov_mean": f"{self.mov:.6g}",
            "mov_std": f"{self.mov_std:.3e}",
            "mov_worst": f"{self.mov_worst:.6g}",
            "time_s": f"{self.mean_elapsed:.4f}",
        }
        for i, (m, s) in enumerate(zip(self.params_mean, self.params_std), 1):
            row[f"k{i}_mean"] = f"{m:.6g}"
            row[f"k{i}_std"] = f"{s:.3e}"
        return row


@dataclass
class TuningRow:
    rho: float
    params: list[float]
    sigma2: float
    iae: float
    overshoot_pct: float
    settling_time_s: float
    optimizer_fitness: float
    closed_loop_radius: float
    # the row's StepResponseRecord, for the series files; not serialized
    record: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "params": self.params,
            "closed_loop_radius": self.closed_loop_radius,
            "sigma2": self.sigma2,
            "iae": self.iae,
            "overshoot_pct": self.overshoot_pct,
            "settling_time_s": self.settling_time_s,
            "objective": self.optimizer_fitness,
        }


@dataclass
class TuningReport:
    kind: str
    rows: list[TuningRow]
    problem_summary: dict
    optimizer_config: object
    horizon: int
    sample_time: float
    setpoint: float
    runs: int
    assumptions: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "report": "tuning",
            "kind": self.kind,
            "rows": [r.to_dict() for r in self.rows],
            "simulation": {
                "horizon": self.horizon,
                "sample_time": self.sample_time,
                "setpoint": self.setpoint,
            },
            "runs": self.runs,
            "problem": self.problem_summary,
            "optimizer": block(self.optimizer_config),
            "assumptions": self.assumptions,
            "meta": _meta(),
        }

    def csv_rows(self) -> list[dict]:
        out = []
        for r in self.rows:
            row = {"rho": f"{r.rho:.6g}", "sigma2": f"{r.sigma2:.6g}",
                   "iae": f"{r.iae:.6g}", "overshoot_pct": f"{r.overshoot_pct:.4f}",
                   "settling_time_s": f"{r.settling_time_s:.6g}"}
            for i, v in enumerate(r.params, 1):
                row[f"k{i}"] = f"{v:.6g}"
            out.append(row)
        return out


@dataclass
class SuiteRow:
    problem_id: int
    mv_computed: float
    mv_reference: float
    mv_matches_reference: bool
    mov_mean: float
    mov_std: float
    mov_worst: float
    mov_reference: float
    bkmov: float
    mov_ok: bool
    std_ok: bool
    beats_bkmov: bool
    params_mean: list[float]
    params_reference: list[float]
    params_within_1pct: bool
    mean_elapsed_s: float
    reference_time_s: float

    @property
    def ok(self) -> bool:
        """The row's verdict: MOV and its spread within tolerance, BKMOV beaten."""
        return self.mov_ok and self.std_ok and self.beats_bkmov

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SuiteReport:
    rows: list[SuiteRow]
    repetitions: int
    optimizer_config: object
    assumptions: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "report": "benchmark-suite",
            "repetitions": self.repetitions,
            "passed": self.passed,
            "rows": [r.to_dict() for r in self.rows],
            "optimizer": block(self.optimizer_config),
            "assumptions": self.assumptions,
            "meta": _meta(),
        }

    def to_markdown(self) -> str:
        lines = [
            "| id | MV | MV ref | MOV mean | MOV std | MOV worst | ref mean | BKMOV | time (s) | ok |",
            "|---:|---:|---:|---:|---:|---:|---:|---:|---:|:--|",
        ]
        for r in self.rows:
            ok = "yes" if r.ok else "NO"
            lines.append(
                f"| {r.problem_id} | {r.mv_computed:.4f} | {r.mv_reference:.4f} "
                f"| {r.mov_mean:.6g} | {r.mov_std:.2e} | {r.mov_worst:.6g} "
                f"| {r.mov_reference:.4f} | {r.bkmov:.4f} "
                f"| {r.mean_elapsed_s:.3f} | {ok} |"
            )
        lines.append("")
        lines.append(f"repetitions: {self.repetitions}; suite pass: {self.passed}")
        return "\n".join(lines)

    def csv_rows(self) -> list[dict]:
        out = []
        for r in self.rows:
            row = {
                "id": r.problem_id,
                "mv": f"{r.mv_computed:.6g}",
                "mv_ref": f"{r.mv_reference:.6g}",
                "mov_mean": f"{r.mov_mean:.8g}",
                "mov_std": f"{r.mov_std:.3e}",
                "mov_worst": f"{r.mov_worst:.8g}",
                "mov_ref": f"{r.mov_reference:.6g}",
                "bkmov": f"{r.bkmov:.6g}",
                "time_s": f"{r.mean_elapsed_s:.4f}",
                "ok": str(r.ok),
            }
            for i, (m, ref) in enumerate(zip(r.params_mean, r.params_reference), 1):
                row[f"k{i}_mean"] = f"{m:.6g}"
                row[f"k{i}_ref"] = f"{ref:.6g}"
            out.append(row)
        return out


def _strict(v):
    """JSON has no inf or NaN: a non-finite float is written as null."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    return v


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def write_csv(path: str | Path, rows: list[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_series_csv(path: str | Path, record) -> Path:
    """Step-response series (time, setpoint, output) for external plotting."""
    rows = [
        {"time_s": f"{t:.6g}", "setpoint": f"{sp:.10g}", "output": f"{y:.10g}"}
        for t, sp, y in zip(record.time, record.setpoint, record.output)
    ]
    return write_csv(path, rows)


def write_history_csv(path: str | Path, histories) -> Path:
    """Per-phase best fitness of each run, for convergence plots."""
    rows = []
    for run, hist in enumerate(histories):
        for phase, fitness in enumerate(hist):
            rows.append({"run": run, "phase": phase, "best_fitness": f"{fitness:.12g}"})
    return write_csv(path, rows)
