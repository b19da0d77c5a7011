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
from dataclasses import replace
from pathlib import Path

import numpy as np

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
from .tuning import TuningProblem, simulate_multistage, tune

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

MC_DEFAULT_SAMPLES = 1_000_000


class ProblemFileError(Exception):
    pass


def _load_document(path: Path) -> dict:
    if not path.exists():
        raise ProblemFileError(f"problem file not found: {path}")
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        import yaml

        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ProblemFileError(f"{path}: invalid YAML: {exc}") from exc
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
            ) from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{path}: top level must be a mapping")
    return doc


def _section(doc: dict, name: str) -> dict:
    """An optional mapping section; {} when absent or left empty."""
    entry = doc.get(name)
    if entry is None:
        return {}
    if not isinstance(entry, dict):
        raise ProblemFileError(f"section '{name}' must be a mapping")
    return entry


def _parse_tf(doc: dict, section: str) -> DiscreteTransferFunction:
    entry = doc.get(section)
    if entry is None:
        raise ProblemFileError(f"missing required section '{section}'")
    if not isinstance(entry, dict):
        raise ProblemFileError(f"section '{section}' must be a mapping")
    for key in ("num", "den"):
        if key not in entry:
            raise ProblemFileError(f"section '{section}' is missing field '{key}'")
        if not isinstance(entry[key], (list, tuple)) or not entry[key]:
            raise ProblemFileError(
                f"field '{section}.{key}' must be a non-empty coefficient list"
            )
    try:
        return DiscreteTransferFunction(
            num=tuple(float(c) for c in entry["num"]),
            den=tuple(float(c) for c in entry["den"]),
            delay=int(entry.get("delay", 0)),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"section '{section}': {exc}") from exc


def _parse_loop(doc: dict):
    single = "process" in doc
    cascade = "outer" in doc
    if single and cascade:
        raise ProblemFileError(
            "problem file defines both 'process' and 'outer'; pick one loop shape"
        )
    if not single and not cascade:
        raise ProblemFileError(
            "problem file needs either single-loop sections "
            "(process, disturbance) or cascade sections "
            "(outer, inner, outer_disturbance, inner_disturbance)"
        )
    noise = _section(doc, "noise")
    assessment = _section(doc, "assessment")
    try:
        p_mult = float(assessment.get("p_multiplier", 8))
        if single:
            process = _parse_tf(doc, "process")
            disturbance = _parse_tf(doc, "disturbance")
            truncation = assessment.get("p", p_mult * process.delay)
            return SingleLoopProblem(
                process=process,
                disturbance=disturbance,
                noise_variance=float(noise.get("variance", 1.0)),
                truncation=int(truncation),
            )
        outer = _parse_tf(doc, "outer")
        inner = _parse_tf(doc, "inner")
        variances = noise.get("variances", [1.0, 1.0])
        if not isinstance(variances, (list, tuple)) or len(variances) != 2:
            raise ProblemFileError("field 'noise.variances' must be a pair")
        truncation = assessment.get("p", p_mult * (outer.delay + inner.delay))
        return CascadeProblem(
            outer=outer,
            inner=inner,
            outer_disturbance=_parse_tf(doc, "outer_disturbance"),
            inner_disturbance=_parse_tf(doc, "inner_disturbance"),
            noise_variances=(float(variances[0]), float(variances[1])),
            truncation=int(truncation),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ProblemFileError(str(exc)) from exc


def _parse_tlbo(doc: dict, seed_override: int | None) -> TlboConfig:
    t = _section(doc, "tlbo")
    bounds = t.get("bounds", [-50.0, 50.0])
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ProblemFileError("field 'tlbo.bounds' must be [lower, upper]")
    try:
        return TlboConfig(
            dimensions=3,
            population=int(t.get("np", 20)),
            lower=float(bounds[0]),
            upper=float(bounds[1]),
            termination_window=int(t.get("window", 20)),
            termination_tol=float(t.get("tol", 1e-7)),
            max_iterations=int(t.get("max_iters", 2000)),
            seed=int(seed_override if seed_override is not None else t.get("seed", 0)),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"section 'tlbo': {exc}") from exc


def _parse_mc(doc: dict) -> McConfig:
    m = _section(doc, "mc")
    try:
        return McConfig(
            samples=int(m.get("samples", MC_DEFAULT_SAMPLES)),
            burn_in=m.get("burn_in"),
            seed=int(m.get("seed", 0)),
            correlation_mode=m.get("mode", "fully_correlated"),
        )
    except (OverflowError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"section 'mc': {exc}") from exc


def _parse_tuning(doc: dict, loop) -> tuple[TuningProblem, list[float] | None, list]:
    t = _section(doc, "tuning")
    try:
        rho = float(t.get("rho", 0.0))
        sweep = t.get("rho_sweep")
        if sweep is not None:
            if not isinstance(sweep, (list, tuple)) or not sweep:
                raise ProblemFileError("field 'tuning.rho_sweep' must be a non-empty list")
            sweep = [float(r) for r in sweep]
            if any(r < 0 for r in sweep):
                raise ProblemFileError("field 'tuning.rho_sweep' entries must be >= 0")
        if rho < 0:
            raise ProblemFileError("field 'tuning.rho' must be >= 0")
        horizon = t.get("horizon")
        problem = TuningProblem(
            loop=loop,
            weight=rho,
            horizon=None if horizon is None else int(horizon),
            sample_time=float(t.get("sample_time", 1.0)),
            setpoint=float(t.get("setpoint", 1.0)),
        )
        stages = []
        for i, st in enumerate(t.get("multistage", [])):
            if not isinstance(st, dict) or "params" not in st:
                raise ProblemFileError(f"tuning.multistage[{i}] needs a 'params' field")
            stages.append((tuple(float(v) for v in st["params"]), int(st.get("switch", 0))))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ProblemFileError(f"section 'tuning': {exc}") from exc
    return problem, sweep, stages


def _out_dir(args) -> Path:
    return Path(args.out) if args.out else Path.cwd()


def _params_from_flag(text: str, n: int = 3):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ProblemFileError(f"--params needs {n} comma-separated values")
    return [float(p) for p in parts]


def _mc_validation(loop, k: np.ndarray, mc_cfg: McConfig) -> dict:
    """Monte-Carlo estimate at ``k`` against the analytic variance it converges
    to; with independent cascade shocks the cross term averages out."""
    kernel = _LoopKernel(loop)
    est = (mc_variance_single(loop, ReducedPidParams.from_array(k), mc_cfg) if kernel.single
           else mc_variance_cascade(loop, CascadeParams.from_array(k), mc_cfg))
    if kernel.single or mc_cfg.correlation_mode == "fully_correlated":
        return est.validation_block(kernel.variance(k))
    phi1, phi2 = kernel.shock(k, kernel.forcing(np.eye(2)))
    v1, v2 = loop.noise_variances
    return est.validation_block(float(phi1 @ phi1) * v1 + float(phi2 @ phi2) * v2)


def _print_underpowered_note(block: dict) -> None:
    """The pass/fail rule stays the fixed relative tolerance; this only says
    when the estimate is too noisy for that rule to tell right from wrong."""
    if block["underpowered"]:
        print(f"note: underpowered, 3 standard errors are "
              f"{3 * block['standard_error'] / block['estimate']:.1%} of the estimate, "
              f"more than the {VALIDATION_RTOL:.0%} tolerance; raise the sample count")


def cmd_assess(args) -> int:
    doc = _load_document(Path(args.file))
    loop = _parse_loop(doc)
    cfg = _parse_tlbo(doc, args.seed)
    mc_cfg = _parse_mc(doc) if args.validate else None
    runs = args.runs if args.runs is not None else 30
    try:
        if isinstance(loop, SingleLoopProblem):
            report = assess_single(loop, cfg, runs=runs)
        else:
            report = assess_cascade(loop, cfg, runs=runs)
    except AssessmentError as exc:
        print(f"assessment failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    if args.validate:
        try:
            report.validation = _mc_validation(loop, report.params_mean, mc_cfg)
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
    print(f"params:      {np.array2string(report.params_mean, precision=4)}")
    if report.validation is not None:
        v = report.validation
        print(f"MC check:    {v['estimate']:.6g} vs analytic {v['analytic']:.6g} "
              f"(rel err {v['relative_error']:.2%}, z {v['z']:+.2f})")
        _print_underpowered_note(v)
        if v["relative_error"] > VALIDATION_RTOL:
            print("validation failed: Monte-Carlo disagrees with the analytic "
                  f"variance by more than {VALIDATION_RTOL:.0%}", file=sys.stderr)
            return EXIT_FAILURE
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
        if len(stages) < 1:
            print("problem file has no tuning.multistage stages", file=sys.stderr)
            return EXIT_USAGE
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
        print("problem file has no tuning.rho_sweep", file=sys.stderr)
        return EXIT_USAGE
    rhos = sweep if args.rho_sweep else None
    report = tune(problem, cfg, runs=runs, rho_sweep=rhos)
    write_json(out / f"{stem}_tune.json", report.to_dict())
    if args.format == "csv":
        write_csv(out / f"{stem}_tune.csv", report.csv_rows())
    for row in report.rows:
        write_series_csv(out / f"{stem}_step_rho{row.rho:g}.csv", row.record)
        print(f"rho={row.rho:<10g} sigma2={row.sigma2:.6g}  IAE={row.iae:.6g}  "
              f"overshoot={row.overshoot_pct:.2f}%  settling={row.settling_time_s:.6g} s")
    return EXIT_OK


def cmd_bench(args) -> int:
    problems = None
    if args.problems:
        try:
            problems = [int(p) for p in args.problems.split(",") if p]
        except ValueError:
            print(f"--problems must be comma-separated ids, got {args.problems!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    cfg = TlboConfig(dimensions=3, seed=args.seed if args.seed is not None else 0)
    runs = args.runs if args.runs is not None else 5
    try:
        report = run_benchmark_suite(cfg, repetitions=runs, problems=problems)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return EXIT_USAGE
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
        mc_cfg = replace(mc_cfg, samples=args.samples, burn_in=None)
    if args.mode:
        mc_cfg = replace(mc_cfg, correlation_mode=args.mode)
    params = np.asarray(_params_from_flag(args.params))
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
    _print_underpowered_note(block)
    return EXIT_OK if block["relative_error"] <= VALIDATION_RTOL else EXIT_FAILURE


def _int_at_least(low: int, what: str):
    """argparse type of an integer flag no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return n

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
