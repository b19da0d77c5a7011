"""Command-line front end.

Problem files are JSON or YAML documents with a model section (single-loop:
``process`` + ``disturbance``; cascade: ``outer`` + ``inner`` +
``outer_disturbance`` + ``inner_disturbance``), each model given as
``{num: [...], den: [...], delay: int}`` with coefficients in ascending
powers of q^-1, plus optional ``noise``, ``assessment``, ``tuning``,
``tlbo`` and ``mc`` sections.

Exit codes: 0 success, 1 validation/acceptance failure, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import tlbo
from .benchmarks import run_benchmark_suite
from .cascade import CascadeParams, CascadeProblem, assess_cascade
from .lti import DiscreteTransferFunction
from .mc import (VALIDATION_RTOL, McConfig, McStabilityError, mc_variance_cascade,
                 mc_variance_single)
from .reports import write_csv, write_history_csv, write_json, write_series_csv
from .singleloop import (
    AssessmentError,
    ReducedPidParams,
    SingleLoopProblem,
    _LoopKernel,
    assess_single,
)
from .tlbo import TlboConfig
from .tuning import TuningProblem, _stage_bounds, simulate_multistage, tune

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

MC_DEFAULT_SAMPLES = 1_000_000


class ProblemFileError(Exception):
    pass


def _load_document(path: Path) -> dict:
    if not path.exists():
        raise ProblemFileError(f"problem file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"{path}: cannot read problem file: {exc}") from exc
    try:
        if path.suffix.lower() in (".yaml", ".yml"):
            doc = yaml.safe_load(text)
        else:
            doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except yaml.YAMLError as exc:      # its message spans several lines
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ProblemFileError(f"{path}: invalid YAML{where}: {problem}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a mapping")
    return doc


def _section(doc: dict, name: str, required: bool = False) -> dict:
    """A mapping section; {} when an optional one is absent or left empty."""
    entry = doc.get(name)
    if entry is None and required:
        raise ProblemFileError(f"missing required section '{name}'")
    if entry is not None and not isinstance(entry, dict):
        raise ProblemFileError(f"section '{name}' must be a mapping")
    return entry or {}


def _field(where: str) -> str:
    """'tlbo.np' names field 'np' of section 'tlbo'; a flag names itself."""
    section, dot, key = where.partition(".")
    return f"section '{section}': field '{key}'" if dot else where


def _number(value, where: str, whole: bool = False):
    """The one reader of a number from a problem file or a flag: a finite
    float (``tlbo.finite``), or an exact int where ``whole`` (``tlbo.whole``).
    A quoted number reads as a number (PyYAML reads ``1e5`` as a string)."""
    x = value
    if isinstance(x, str):
        try:
            x = int(x)
        except ValueError:
            with suppress(ValueError):
                x = float(x)
    try:
        return (tlbo.whole if whole else tlbo.finite)(x, where)
    except ValueError:
        kind = "a whole number" if whole else "a finite number"
        raise ProblemFileError(f"{_field(where)} must be {kind}, got {value!r}") from None


def _numbers(value, where: str, n: int | None = None) -> list[float]:
    """A list of ``n`` finite floats, or of one or more where ``n`` is None."""
    if not isinstance(value, (list, tuple)) or not value or len(value) != (n or len(value)):
        raise ProblemFileError(
            f"{_field(where)} must be a list of {n or 'one or more'} numbers, got {value!r}")
    return [_number(v, where) for v in value]


def _checked(make, where: str, **fields):
    """``make(**fields)``, with the ValueError it raises on a bad value as a
    usage error."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def _parse_tf(doc: dict, name: str) -> DiscreteTransferFunction:
    entry = _section(doc, name, required=True)
    return _checked(DiscreteTransferFunction, f"section '{name}'",
                    num=tuple(_numbers(entry.get("num"), f"{name}.num")),
                    den=tuple(_numbers(entry.get("den"), f"{name}.den")),
                    delay=_number(entry.get("delay", 0), f"{name}.delay", whole=True))


def _parse_loop(doc: dict):
    single = "process" in doc
    if single == ("outer" in doc):
        raise ProblemFileError(
            "problem file needs either single-loop sections (process, disturbance) or "
            "cascade sections (outer, inner, outer_disturbance, inner_disturbance), not both")
    noise = _section(doc, "noise")
    assessment = _section(doc, "assessment")
    if single:
        make = SingleLoopProblem
        models = {name: _parse_tf(doc, name) for name in ("process", "disturbance")}
        dead_time = models["process"].delay
        models["noise_variance"] = _number(noise.get("variance", 1.0), "noise.variance")
    else:
        make = CascadeProblem
        models = {name: _parse_tf(doc, name) for name in
                  ("outer", "inner", "outer_disturbance", "inner_disturbance")}
        dead_time = models["outer"].delay + models["inner"].delay
        models["noise_variances"] = tuple(
            _numbers(noise.get("variances", [1.0, 1.0]), "noise.variances", 2))
    p = assessment.get("p")
    if p is None:    # p_multiplier times the dead time, which must come out whole
        p = _number(assessment.get("p_multiplier", 8), "assessment.p_multiplier") * dead_time
    return _checked(make, "problem", **models,
                    truncation=_number(p, "assessment.p", whole=True))


def _parse_tlbo(doc: dict, seed_override: int | None) -> TlboConfig:
    t = _section(doc, "tlbo")
    lower, upper = _numbers(t.get("bounds", [-50.0, 50.0]), "tlbo.bounds", 2)
    seed = seed_override if seed_override is not None else t.get("seed", 0)
    return _checked(TlboConfig, "section 'tlbo'", dimensions=3, lower=lower, upper=upper,
                    population=_number(t.get("np", 20), "tlbo.np", whole=True),
                    termination_window=_number(t.get("window", 20), "tlbo.window", whole=True),
                    termination_tol=_number(t.get("tol", 1e-7), "tlbo.tol"),
                    max_iterations=_number(t.get("max_iters", 2000), "tlbo.max_iters", whole=True),
                    seed=_number(seed, "tlbo.seed", whole=True))


def _parse_mc(doc: dict) -> McConfig:
    m = _section(doc, "mc")
    burn_in = m.get("burn_in")
    if burn_in is not None:
        burn_in = _number(burn_in, "mc.burn_in", whole=True)
    return _checked(McConfig, "section 'mc'", burn_in=burn_in,
                    samples=_number(m.get("samples", MC_DEFAULT_SAMPLES), "mc.samples",
                                    whole=True),
                    seed=_number(m.get("seed", 0), "mc.seed", whole=True),
                    correlation_mode=m.get("mode", "fully_correlated"))


def _parse_tuning(doc: dict, loop) -> tuple[TuningProblem, list[float] | None, list]:
    t = _section(doc, "tuning")
    sweep = t.get("rho_sweep")
    if sweep is not None:
        sweep = _numbers(sweep, "tuning.rho_sweep")
        if any(r < 0 for r in sweep):
            raise ProblemFileError("section 'tuning': field 'rho_sweep' entries must be >= 0")
    horizon = t.get("horizon")
    if horizon is not None:
        horizon = _number(horizon, "tuning.horizon", whole=True)
    problem = _checked(TuningProblem, "section 'tuning'", loop=loop, horizon=horizon,
                       weight=_number(t.get("rho", 0.0), "tuning.rho"),
                       sample_time=_number(t.get("sample_time", 1.0), "tuning.sample_time"),
                       setpoint=_number(t.get("setpoint", 1.0), "tuning.setpoint"))
    schedule = t.get("multistage", [])
    if not isinstance(schedule, list):
        raise ProblemFileError("section 'tuning': field 'multistage' must be a list of stages")
    stages = []
    for i, st in enumerate(schedule):
        where = f"tuning.multistage[{i}]"
        if not isinstance(st, dict):
            raise ProblemFileError(f"{_field(where)} must be a mapping")
        stages.append((tuple(_numbers(st.get("params"), f"{where}.params", 3)),
                       _number(st.get("switch", 0), f"{where}.switch", whole=True)))
    if stages:
        _checked(_stage_bounds, "section 'tuning': field 'multistage'",
                 stage_params=stages, horizon=problem.horizon)
    return problem, sweep, stages


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else Path.cwd()


def _mc_validation(loop, k: np.ndarray, mc_cfg: McConfig) -> dict:
    """Monte-Carlo estimate at ``k`` against the analytic variance it converges
    to: truncated where the oracle's own settling probe found the shock
    response spent, never short of the problem's truncation, or at N samples
    when the probe did not settle within the burn-in; with independent
    cascade shocks the cross term averages out."""
    if isinstance(loop, SingleLoopProblem):
        est = mc_variance_single(loop, ReducedPidParams.from_array(k), mc_cfg)
    else:
        est = mc_variance_cascade(loop, CascadeParams.from_array(k), mc_cfg)
    horizon = mc_cfg.samples if est.settle is None else max(loop.truncation, est.settle)
    kernel = _LoopKernel(replace(loop, truncation=horizon))
    if kernel.single or mc_cfg.correlation_mode == "fully_correlated":
        return est.validation_block(kernel.variance(k))
    phi1, phi2 = kernel.shock(k, kernel.forcing(np.eye(2)))
    v1, v2 = loop.noise_variances
    return est.validation_block(float(phi1 @ phi1) * v1 + float(phi2 @ phi2) * v2)


def _verdict(block: dict) -> int:
    """Print the underpowered note of a Monte-Carlo check, apply the relative
    tolerance, say on stderr why it failed, and return the exit code."""
    if block["underpowered"]:
        print(f"note: underpowered, 3 standard errors are "
              f"{3 * block['standard_error'] / block['estimate']:.1%} of the estimate, "
              f"more than the {VALIDATION_RTOL:.0%} tolerance; raise the sample count")
    if block["relative_error"] <= VALIDATION_RTOL:
        return EXIT_OK
    print("validation failed: Monte-Carlo disagrees with the analytic "
          f"variance by more than {VALIDATION_RTOL:.0%}", file=sys.stderr)
    return EXIT_FAILURE


def cmd_assess(args) -> int:
    doc = _load_document(Path(args.file))
    loop = _parse_loop(doc)
    cfg = _parse_tlbo(doc, args.seed)
    mc_cfg = _parse_mc(doc) if args.validate else None
    runs = args.runs if args.runs is not None else 30
    assess = assess_single if isinstance(loop, SingleLoopProblem) else assess_cascade
    try:
        report = assess(loop, cfg, runs=runs)
    except AssessmentError as exc:
        print(f"assessment failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    if args.validate:
        try:
            report.validation = _mc_validation(loop, report.params_best, mc_cfg)
        except McStabilityError as exc:
            print(f"validation failed: {exc}", file=sys.stderr)
            return EXIT_FAILURE

    out = _out_dir(args)
    stem = Path(args.file).stem
    payload = report.to_dict()
    write_json(out / f"{stem}_assess.json", payload)
    if args.format == "csv":
        write_csv(out / f"{stem}_assess.csv", [report.csv_row()])
    if args.history:
        write_history_csv(out / f"{stem}_history.csv", report.run_histories)

    print(f"kind:        {report.kind}")
    print(f"MOV (mean):  {report.mov:.6g}   std {report.mov_std:.3e}   "
          f"worst {report.mov_worst:.6g}")
    if report.mv is not None:
        print(f"MV:          {report.mv:.6g}")
        print(f"eta = MV/MOV: {report.eta:.4f}")
    print(f"params:      {np.array2string(report.params_best, precision=4)} (best run)")
    if report.validation is not None:
        v = report.validation
        print(f"MC check:    {v['estimate']:.6g} vs analytic {v['analytic']:.6g} "
              f"(rel err {v['relative_error']:.2%}, z {v['z']:+.2f})")
        return _verdict(v)
    return EXIT_OK


def cmd_tune(args) -> int:
    doc = _load_document(Path(args.file))
    loop = _parse_loop(doc)
    cfg = _parse_tlbo(doc, args.seed)
    problem, sweep, stages = _parse_tuning(doc, loop)
    runs = args.runs if args.runs is not None else 3
    out = _out_dir(args)
    stem = Path(args.file).stem

    if args.multistage:
        if not stages:
            raise ProblemFileError("problem file has no tuning.multistage stages")
        record = simulate_multistage(problem, stages)
        write_series_csv(out / f"{stem}_multistage_series.csv", record)
        payload = {
            "report": "multistage-simulation",
            "stages": [{"params": list(p), "switch": s} for p, s in stages],
            "iae": record.iae,
            "overshoot_pct": record.overshoot_pct,
            "settling_time_s": record.settling_time_s,
            "stable": record.stable,
            "stage_criteria": record.stage_criteria,
        }
        write_json(out / f"{stem}_multistage.json", payload)
        print(f"multistage IAE: {record.iae:.6g}  overshoot: "
              f"{record.overshoot_pct:.2f}%  settling: {record.settling_time_s:.6g} s")
        return EXIT_OK

    if args.rho_sweep and sweep is None:
        raise ProblemFileError("problem file has no tuning.rho_sweep")
    rhos = sweep if args.rho_sweep else None
    try:
        report = tune(problem, cfg, runs=runs, rho_sweep=rhos)
    except AssessmentError as exc:
        print(f"tuning failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    write_json(out / f"{stem}_tune.json", report.to_dict())
    if args.format == "csv":
        write_csv(out / f"{stem}_tune.csv", report.csv_rows())
    for row in report.rows:
        write_series_csv(out / f"{stem}_step_rho{row.rho:g}.csv", row.record)
        print(f"rho={row.rho:<10g} sigma2={row.sigma2:.6g}  IAE={row.iae:.6g}  "
              f"overshoot={row.overshoot_pct:.2f}%  settling={row.settling_time_s:.6g} s")
    return EXIT_OK


def cmd_bench(args) -> int:
    problems = [_number(p, "--problems", whole=True)
                for p in (args.problems or "").split(",") if p]
    cfg = TlboConfig(dimensions=3, seed=args.seed if args.seed is not None else 0)
    runs = args.runs if args.runs is not None else 5
    try:
        report = run_benchmark_suite(cfg, repetitions=runs, problems=problems)
    except KeyError as exc:
        raise ProblemFileError(exc.args[0]) from exc
    out = _out_dir(args)
    write_json(out / "bench_suite.json", report.to_dict())
    write_csv(out / "bench_suite.csv", report.csv_rows())
    (out / "bench_suite.md").write_text(report.to_markdown() + "\n")
    print(report.to_markdown())
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_validate(args) -> int:
    doc = _load_document(Path(args.file))
    loop = _parse_loop(doc)
    mc_cfg = _parse_mc(doc)
    if args.samples is not None:
        mc_cfg = _checked(partial(replace, mc_cfg), "--samples", samples=args.samples,
                          burn_in=None)
    if args.mode:
        mc_cfg = replace(mc_cfg, correlation_mode=args.mode)
    params = np.asarray(_numbers(args.params.replace(",", " ").split(), "--params", 3))
    try:
        block = _mc_validation(loop, params, mc_cfg)
    except McStabilityError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    out = _out_dir(args)
    write_json(out / f"{Path(args.file).stem}_validate.json",
               {"report": "mc-validation", **block})
    print(f"analytic:  {block['analytic']:.6g}")
    print(f"MC:        {block['estimate']:.6g}  (SE {block['standard_error']:.2e}, "
          f"mode {block['mode']}, N {block['samples']})")
    print(f"rel error: {block['relative_error']:.2%}  (z {block['z']:+.2f}, "
          f"{block['chains']} chains)")
    return _verdict(block)


def _int_at_least(low: int, what: str):
    """argparse type of an integer flag no smaller than ``low``."""
    def parse(text: str) -> int:
        with suppress(ProblemFileError):
            if (n := _number(text, "", whole=True)) >= low:
                return n
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


_count = _int_at_least(1, "a positive integer")
_seed = _int_at_least(0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pidmov",
        description="Achievable-variance assessment and tuning of PID and "
                    "PI/P cascade loops",
    )
    # each subcommand takes only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="report output directory")
    optimizer = argparse.ArgumentParser(add_help=False, parents=[common])
    optimizer.add_argument("--seed", type=_seed, default=None, help="optimizer base seed")
    optimizer.add_argument("--runs", type=_count, default=None, help="independent runs")
    table = argparse.ArgumentParser(add_help=False, parents=[optimizer])
    table.add_argument("--format", choices=("json", "csv"), default="json",
                       help="extra table format (JSON is always written)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", parents=[table],
                       help="achievable output variance of a problem file")
    p.add_argument("file")
    p.add_argument("--validate", action="store_true",
                   help="attach a Monte-Carlo cross-check of the optimum")
    p.add_argument("--history", action="store_true",
                   help="write per-run convergence history CSV")
    p.set_defaults(fn=cmd_assess)

    p = sub.add_parser("tune", parents=[table],
                       help="IAE + weighted-variance controller tuning")
    p.add_argument("file")
    p.add_argument("--rho-sweep", action="store_true",
                   help="sweep the weights listed in tuning.rho_sweep")
    p.add_argument("--multistage", action="store_true",
                   help="simulate the tuning.multistage parameter schedule")
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("bench", parents=[optimizer],
                       help="run the embedded benchmark suite")
    p.add_argument("--problems", default=None, help="comma-separated ids, e.g. 1,3,5")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("validate", parents=[common],
                       help="Monte-Carlo vs analytic variance at fixed parameters")
    p.add_argument("file")
    p.add_argument("--params", required=True,
                   help="controller parameters, e.g. '2.84,-4.41,1.75'")
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--mode", choices=("independent", "fully_correlated"), default=None)
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
