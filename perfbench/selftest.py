"""Self-test of the benchmark: same-seed passes give identical fingerprints,
and tracing changes no result.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Takes about a minute: three passes of each workload.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _fingerprint(wl, seed, tracer=None):
    p = workloads.Pass(tracer)
    wl.run_pass(seed, p)
    assert p.failed == 0 and not p.invalid
    return p.fingerprint


def _check_workload(name):
    wl = workloads.WORKLOADS[name]()
    wl.setup()
    seed = worker.pass_seed(wl.default_seed, 1)
    first = _fingerprint(wl, seed)
    assert first, f"{name}: empty fingerprint"
    assert _fingerprint(wl, seed) == first, f"{name}: same-seed passes differ"
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = _fingerprint(wl, seed, tracer)
    finally:
        uninstall()
    assert traced == first, f"{name}: tracing changed the results"
    assert len(tracer.start) > 0, f"{name}: tracing recorded no spans"


def test_pass_seeds_are_deterministic_and_distinct():
    seeds = [worker.pass_seed(2024, i) for i in range(8)]
    assert seeds[0] == 2024
    assert seeds == [worker.pass_seed(2024, i) for i in range(8)]
    assert len(set(seeds)) == len(seeds)


def test_assess_suite_fingerprint():
    _check_workload("assess_suite")


def test_tune_sweep_fingerprint():
    _check_workload("tune_sweep")


def test_mc_oracle_fingerprint():
    _check_workload("mc_oracle")


if __name__ == "__main__":
    for test in (test_pass_seeds_are_deterministic_and_distinct, test_assess_suite_fingerprint,
                 test_tune_sweep_fingerprint, test_mc_oracle_fingerprint):
        test()
        print(f"ok  {test.__name__}", flush=True)
