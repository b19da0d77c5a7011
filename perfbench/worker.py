"""One benchmark process: set up one workload, then run timed passes.

Started by ``run.py``, one at a time, with BLAS and OpenMP pinned to one
thread. Prints ``READY`` once set-up is done (the parent times set-up up to
that line), then the speed factor measured just after set-up (see
``Pass.op``), then, unless ``--setup-only``, one JSON line with every pass.

Pass 0 uses the workload seed itself, so with the default seed it matches
the tier-1 configuration; later passes use seeds derived from it, so one
run averages over several optimizer trajectories.

With ``--trace`` every pass seed runs twice, untraced and then with the span
tracer installed; the per-layer metrics come from the traced passes and
``trace.overhead_frac`` compares the two sets of pass times.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# A run stops starting passes past this point, even below min_passes, so
# that it ends well inside the 180 s limit on any machine.
HARD_STOP_S = 140.0
SETUP_CAL_REPEATS = 5


def pass_seed(seed: int, i: int) -> int:
    if i == 0:
        return seed
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def one_pass(wl, seed: int, tracer=None) -> dict:
    """Run one pass. Besides raw wall times it reports them scaled to the
    calibration speed: each operation by the speed measured around it, the
    rest of the pass (checks, serialization) by the pass's median speed."""
    p = workloads.Pass(tracer)
    span = tracer.open("bench.pass", seed) if tracer else None
    t0 = time.perf_counter()
    wl.run_pass(seed, p)
    wall = time.perf_counter() - t0 - p.cal_s
    if span is not None:
        tracer.close(span)
    op_ref = [t * f for t, f in zip(p.op_s, p.speed)]
    rest = wall - sum(p.op_s)
    return {"seed": seed, "wall_s": wall, "op_s": p.op_s, "speed": p.speed,
            "wall_ref_s": sum(op_ref) + rest * statistics.median(p.speed),
            "op_ref_s": op_ref, "failed": p.failed, "checks": p.checks,
            "invalid": p.invalid, "fingerprint": p.fingerprint}


def repeat(step, seconds: float, min_steps: int) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until the next call would end past
    ``seconds``, but at least ``min_steps`` times unless past HARD_STOP_S."""
    took = []
    t_begin = time.perf_counter()
    while True:
        if took:
            limit = seconds if len(took) >= min_steps else HARD_STOP_S
            if time.perf_counter() - t_begin + statistics.median(took) > limit:
                return
        t0 = time.perf_counter()
        step(len(took))
        took.append(time.perf_counter() - t0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="SPANS.npz", help="traced run; write the spans here")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    seed = wl.default_seed if args.seed is None else args.seed
    wl.setup()
    print("READY", flush=True)
    # The parent scales set-up time by the machine speed measured here.
    cal = statistics.median(workloads.calibrate() for _ in range(SETUP_CAL_REPEATS))
    print(json.dumps(workloads.CAL_REF_S / cal), flush=True)
    if args.setup_only:
        return 0

    result = {
        "workload": wl.name,
        "seed": seed,
        "tail_pct": wl.tail_pct,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    passes = []
    if args.trace:
        tracer = tracing.Tracer()
        traced = []
        span_s = []

        def step(i):
            # Untraced and traced pass on the same seed, back to back, so
            # that drifts in machine speed hit both sides alike.
            s = pass_seed(seed, i)
            passes.append(one_pass(wl, s))
            uninstall = tracing.install(tracer)
            try:
                traced.append(one_pass(wl, s, tracer))
            finally:
                uninstall()
            span_s.append(tracing.span_cost())

        repeat(step, args.seconds, 1)
        tracer.save(args.trace)
        per_layer = tracing.layer_metrics(tracer, len(traced), statistics.median(span_s))
        w_plain = statistics.median(p["wall_ref_s"] for p in passes)
        w_traced = statistics.median(p["wall_ref_s"] for p in traced)
        per_layer["trace.overhead_frac"] = (w_traced - w_plain) / w_plain
        passes += traced
        result["per_layer"] = per_layer
        result["units"] = dict(tracing.PER_LAYER)
    else:
        repeat(lambda i: passes.append(one_pass(wl, pass_seed(seed, i))),
               args.seconds, wl.min_passes)
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
