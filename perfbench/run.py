"""pidmov benchmark: time a workload end to end, check its results, print
the metrics.

    python3 perfbench/run.py --workload assess_suite --seed 2024 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all           # every workload, default seeds

Each run starts fresh single-threaded child processes (``worker.py``), one
at a time: four that only set up, then one that sets up and measures. The
set-up time of each is timed from process start to the child's ``READY``
line and scaled by the speed factor the child measures just after it
(``workloads.calibrate``); ``setup_s`` is the median of the five. With
``--trace 1`` a single child runs the passes untraced and then traced, and
the per-layer metrics are printed instead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a record of the
run (environment stamp, per-pass fingerprints, latencies and checks) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("assess_suite", "tune_sweep", "mc_oracle")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("op_ok_frac", "frac"),
    ("check_ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
]


class ChildError(RuntimeError):
    pass


def run_child(args: list[str]) -> tuple[float, float, dict | None]:
    """Run one worker; return the seconds from its start to READY, the
    speed factor it measured after that, and its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = {**os.environ, **CHILD_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise ChildError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[0]), json.loads(lines[-1]) if len(lines) > 1 else None


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def summarize(res: dict) -> dict:
    """Outcome counts and end-to-end metrics (all but setup_s) of one run."""
    passes = res["passes"]
    ops = [t for p in passes for t in p["op_ref_s"]]
    failed = sum(p["failed"] for p in passes)
    checks = [(name, ok) for p in passes for name, ok in p["checks"]]
    bad_checks = [name for name, ok in checks if not ok]
    invalid = [name for p in passes for name in p["invalid"]]
    # Linear interpolation between order statistics, as numpy's default.
    tail = statistics.quantiles(ops, n=100, method="inclusive")[res["tail_pct"] - 1]
    return {
        "attempted": len(ops),
        "failed": failed,
        "checks": len(checks),
        "bad_checks": bad_checks,
        "invalid": invalid,
        "correct": failed == 0 and not invalid,
        "tail_beyond": sum(t > tail for t in ops),
        "raw": {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "op_p50_s": statistics.median(t for p in passes for t in p["op_s"]),
            "speed_p50": statistics.median(f for p in passes for f in p["speed"]),
        },
        "metrics": {
            "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
            "op_p50_s": statistics.median(ops),
            "op_tail_s": tail,
            "op_ok_frac": 1.0 - failed / len(ops),
            "check_ok_frac": 1.0 - len(bad_checks) / len(checks),
            "peak_rss_mb": res["peak_rss_mb"],
        },
    }


def run_workload(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    seed_args = [] if seed is None else ["--seed", str(seed)]
    common = ["--workload", workload, *seed_args, "--seconds", str(seconds)]
    tag = f"{workload}-seed{'default' if seed is None else seed}"
    if trace:
        _, _, res = run_child([*common, "--trace", str(OUT / f"spans-{tag}.npz")])
        setups = []
        metrics = {k: {"value": v, "unit": res["units"][k]} for k, v in res["per_layer"].items()}
    else:
        setups = [run_child([*common, "--setup-only"])[:2] for _ in range(SETUP_SAMPLES - 1)]
        setup, speed, res = run_child(common)
        setups.append((setup, speed))
    s = summarize(res)
    if not trace:
        s["raw"]["setup_s"] = statistics.median(t for t, _ in setups)
        values = {"setup_s": statistics.median(t * f for t, f in setups), **s.pop("metrics")}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    else:
        del s["metrics"]
    res["env"].update(cpu_count=os.cpu_count(), git_commit=git_commit(), **CHILD_ENV)
    record = {**res, "setup_samples_s_speed": setups, "summary": s, "metrics": metrics}
    (OUT / f"run-{tag}{'-trace' if trace else ''}.json").write_text(json.dumps(record, indent=1))
    return {"workload": workload, "seed": res["seed"], "tail_pct": res["tail_pct"],
            "metrics": metrics, **s}


def print_report(r: dict) -> None:
    bad = {n: r["bad_checks"].count(n) for n in sorted(set(r["bad_checks"]))}
    print(f"== {r['workload']}  seed {r['seed']}  ops {r['attempted']}  "
          f"checks {r['checks']}  correct {r['correct']}")
    for name, m in r["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'op_fail_frac':28s} {r['failed'] / r['attempted']:.6g} frac "
          f"({r['failed']}/{r['attempted']})")
    print(f"  {'check_fail_frac':28s} {len(r['bad_checks']) / r['checks']:.6g} frac "
          f"({len(r['bad_checks'])}/{r['checks']})"
          + "".join(f"; {n} x{c}" for n, c in bad.items()))
    print(f"  op_tail_s is p{r['tail_pct']} of {r['attempted']} ops, "
          f"{r['tail_beyond']} beyond it")
    raw = r["raw"]
    setup = f"setup_s {raw['setup_s']:.6g} s, " if "setup_s" in raw else ""
    print(f"  unscaled: {setup}wall_s {raw['wall_s']:.6g} s, op_p50_s {raw['op_p50_s']:.6g} s; "
          f"median speed {raw['speed_p50']:.4g} of the calibration reference")
    if r["invalid"]:
        print(f"  results failing a required condition: {', '.join(r['invalid'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, help="workload seed (default: the tier-1 seed)")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run, per-layer metrics")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pidmov" / "__init__.py").is_file():
        print(f"pidmov sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_report(r)
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        final["metrics"] = results[0]["metrics"]
    else:
        final["workloads"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
