"""Embedded benchmark corpus and reference results.

Ten single-loop assessment problems with published minimum-variance and
best-known restricted-variance results, plus the two temperature-control
tuning case studies. Reference numbers are stored exactly as printed in the
source tables; comparisons therefore combine a relative tolerance with a
round-to-printed-precision check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cascade import CascadeProblem
from .lti import DiscreteTransferFunction
from .reports import SuiteReport, SuiteRow
from .singleloop import AssessmentError, SingleLoopProblem, assess_single, mv_benchmark
from .tlbo import TlboConfig, whole
from .tuning import TuningProblem

SIGMA_ASSUMPTION = (
    "unit shock variance assumed for the embedded assessment problems "
    "(reproduces the published minimum-variance column)"
)

MOV_RTOL = 1e-3          # relative match to the published mean
STD_RTOL = 1e-4          # run-to-run relative spread
BKMOV_MARGIN = 1e-3      # must reach the best known value within 0.1%
PARAM_RTOL = 0.01        # informational parameter proximity


def _poly(*factors) -> tuple[float, ...]:
    out = np.array([1.0])
    for f in factors:
        out = np.convolve(out, f)
    return tuple(float(c) for c in out)


def _tf(num, den, delay=0) -> DiscreteTransferFunction:
    return DiscreteTransferFunction(num=tuple(num), den=tuple(den), delay=delay)


# (process, disturbance) pairs of the embedded assessment corpus.
_BENCHMARKS: dict[int, tuple[DiscreteTransferFunction, DiscreteTransferFunction]] = {
    1: (_tf([0.2], [1, -0.8], 5), _tf([1.0], _poly([1, -1], [1, 0.4]))),
    2: (_tf([0.08919], [1, -0.8669], 12), _tf([0.08919], [1, -0.8669])),
    3: (_tf([0.5108], [1, -0.9604], 28), _tf([0.5108], [1, -0.9604])),
    4: (
        _tf([1.0], [1, -0.8], 6),
        _tf([1.0, 0.6], _poly([1, -0.5], [1, -0.6], [1, 0.7])),
    ),
    5: (
        _tf([1.0], [1, -0.8], 6),
        _tf([1.0, -0.2], _poly([1, -1], [1, -0.3], [1, 0.4], [1, -0.5])),
    ),
    6: (
        _tf([1.0], [1, -0.8], 6),
        _tf([1.0, 0.6], _poly([1, -1], [1, -0.5], [1, -0.6], [1, 0.7])),
    ),
    7: (
        _tf([0.1], [1, -0.8], 5),
        _tf([0.1], _poly([1, -1], [1, -0.3], [1, -0.6])),
    ),
    8: (_tf([0.1], [1, -0.8], 3), _tf([1.0], [1, -1])),
    9: (_tf([0.1], [1, -0.8], 6), _tf([0.1], _poly([1, -1], [1, -0.7]))),
    10: (
        _tf([0.1], [1, -0.8], 3),
        _tf([math.sqrt(0.001)], _poly([1, -1], [1, 0.2])),
    ),
}


@dataclass(frozen=True)
class ReferenceEntry:
    problem_id: int
    mv: float
    bkmov: float
    mean: float
    std: float
    worst: float
    time_s: float
    params: tuple[float, float, float]
    decimals: int = 4        # precision the source table prints

    def __post_init__(self):
        if self.mv > self.bkmov:
            raise ValueError(
                f"reference entry {self.problem_id}: MV {self.mv} exceeds "
                f"best-known restricted variance {self.bkmov}"
            )


REFERENCE: dict[int, ReferenceEntry] = {
    1: ReferenceEntry(1, 2.9427, 3.0728, 3.0728, 3.36e-10, 3.0728, 0.3106,
                      (2.8408, -4.4059, 1.7486)),
    2: ReferenceEntry(2, 0.0306, 0.0310, 0.0310, 2.15e-11, 0.0310, 0.7524,
                      (1.8236, -3.3531, 1.5299)),
    3: ReferenceEntry(3, 3.0112, 3.0238, 3.0232, 5.16e-10, 3.0232, 3.6852,
                      (0.4989, -0.9663, 0.4674)),
    4: ReferenceEntry(4, 3.4004, 3.4065, 3.4064, 4.94e-09, 3.4064, 0.3624,
                      (0.1354, -0.2523, 0.1170)),
    5: ReferenceEntry(5, 11.9528, 13.8076, 13.8068, 5.18e-07, 13.8068, 0.3800,
                      (0.7241, -1.2058, 0.5178)),
    6: ReferenceEntry(6, 58.3406, 87.7377, 87.7069, 7.88e-10, 87.7069, 0.4128,
                      (0.8327, -1.4003, 0.6094)),
    7: ReferenceEntry(7, 0.2978, 0.4246, 0.4246, 5.36e-08, 0.4246, 0.2691,
                      (8.0941, -13.1891, 5.5927)),
    8: ReferenceEntry(8, 3.0000, 3.2032, 3.2032, 3.40e-08, 3.2032, 0.1900,
                      (6.5338, -9.2379, 3.3583)),
    9: ReferenceEntry(9, 0.3144, 0.4268, 0.4267, 2.50e-09, 0.4267, 0.3395,
                      (8.2318, -13.7793, 5.9701)),
    10: ReferenceEntry(10, 0.0023, 0.0024, 0.0024, 2.41e-10, 0.0024, 0.1436,
                       (6.1676, -8.5741, 3.0332)),
}

# Published weight-sweep outcomes for the two tuning case studies:
# (rho, params, sigma_y^2).
CASE_STUDY_REFERENCE: dict[str, list[tuple[float, tuple[float, float, float], float]]] = {
    "air_single": [
        (0.0, (5.3333, -6.8756, 1.8693), 7.7624e-5),
        (1e5, (7.9520, -10.2099, 2.8804), 4.0747e-5),
        (2.5e5, (9.5647, -12.4166, 3.6362), 3.2726e-5),
        (10e5, (23.1165, -35.5929, 14.4531), 2.6432e-5),
    ],
    "immersion_cascade": [
        (0.0, (2.7638, -2.6554, -0.8436), 6.0551e-4),
        (1e6, (3.0563, -2.9922, -0.9631), 5.3566e-4),
        (10e6, (2.8715, -2.8482, -1.0054), 4.9421e-4),
        (100e6, (2.9088, -2.8420, -0.9538), 4.8117e-4),
    ],
}


def load_benchmark(problem_id: int) -> SingleLoopProblem:
    """One of the ten embedded assessment problems (unit shock variance,
    truncation at eight dead times)."""
    if problem_id not in _BENCHMARKS:
        raise KeyError(f"unknown benchmark id {problem_id}; valid ids are 1..10")
    process, disturbance = _BENCHMARKS[problem_id]
    return SingleLoopProblem(process=process, disturbance=disturbance, noise_variance=1.0)


def load_case_study(name: str) -> TuningProblem:
    """Temperature-control tuning cases.

    air_single: pipe-heater air loop, 10 s sampling; the load disturbance is
    integrating (random-walk heat load filtered by the process lag).
    immersion_cascade: coolant-flow cascade, 6 s sampling, negative-gain
    inner process.
    """
    if name == "air_single":
        loop = SingleLoopProblem(
            process=_tf([0.0413], [1, -0.8952], 4),
            disturbance=_tf([0.2], _poly([1, -1], [1, -0.8952])),
            noise_variance=1e-5,
        )
        return TuningProblem(loop=loop, horizon=200, sample_time=10.0, setpoint=1.0)
    if name == "immersion_cascade":
        loop = CascadeProblem(
            outer=_tf([0.04292], [1, -0.9575], 7),
            inner=_tf([-0.5314], [1, -0.6023], 3),
            outer_disturbance=_tf([1.0], [1, -0.9575]),
            inner_disturbance=_tf([1.0], [1, -0.6023]),
            noise_variances=(5e-5, 5e-4),
        )
        return TuningProblem(loop=loop, horizon=300, sample_time=6.0, setpoint=1.0)
    raise KeyError(f"unknown case study {name!r}; valid: air_single, immersion_cascade")


def matches_reference(value: float, reference: float, decimals: int = 4,
                      rtol: float = MOV_RTOL) -> bool:
    """Relative match, or exact agreement at the precision the reference was
    printed with (values near the print quantum cannot do better)."""
    if reference != 0 and abs(value - reference) / abs(reference) <= rtol:
        return True
    return round(value, decimals) == reference


def run_benchmark_suite(
    cfg: TlboConfig | None = None,
    repetitions: int = 5,
    problems: list[int] | None = None,
) -> SuiteReport:
    """Assess every selected problem and compare against the reference table.

    Per-problem optimizer errors (``AssessmentError``) are recorded as failed
    rows, not raised, so one divergent problem cannot abort the suite.
    """
    if (repetitions := whole(repetitions, "repetitions")) < 1:
        raise ValueError("repetitions must be >= 1")
    cfg = cfg or TlboConfig(dimensions=3)
    ids = sorted(set(problems or _BENCHMARKS))     # one row per id
    loops = {i: load_benchmark(i) for i in ids}    # an unknown id fails before any run

    def one(problem_id: int) -> SuiteRow:
        ref = REFERENCE[problem_id]
        problem = loops[problem_id]
        mv = mv_benchmark(problem)
        failed = SuiteRow(
            problem_id=problem_id,
            mv_computed=mv,
            mv_reference=ref.mv,
            mv_matches_reference=round(mv, ref.decimals) == ref.mv,
            mov_mean=math.inf, mov_std=math.inf, mov_worst=math.inf,
            mov_reference=ref.mean, bkmov=ref.bkmov,
            mov_ok=False, std_ok=False, beats_bkmov=False,
            params_mean=[math.nan] * 3,
            params_reference=list(ref.params),
            params_within_1pct=False,
            mean_elapsed_s=math.nan,
            reference_time_s=ref.time_s,
        )
        try:
            report = assess_single(problem, cfg, runs=repetitions)
        except AssessmentError:
            return failed
        params_close = all(
            abs(m - r) <= PARAM_RTOL * abs(r) if r != 0 else abs(m) <= PARAM_RTOL
            for m, r in zip(report.params_mean, ref.params)
        )
        return replace(
            failed,
            mov_mean=report.mov,
            mov_std=report.mov_std,
            mov_worst=report.mov_worst,
            mov_ok=matches_reference(report.mov, ref.mean, ref.decimals),
            std_ok=report.mov_std <= STD_RTOL * report.mov,
            beats_bkmov=(
                report.mov <= ref.bkmov * (1.0 + BKMOV_MARGIN)
                or round(report.mov, ref.decimals) <= ref.bkmov
            ),
            params_mean=[float(x) for x in report.params_mean],
            params_within_1pct=params_close,
            mean_elapsed_s=report.mean_elapsed,
        )

    return SuiteReport(
        rows=[one(i) for i in ids],
        repetitions=repetitions,
        optimizer_config=cfg,
        assumptions=[SIGMA_ASSUMPTION],
    )
