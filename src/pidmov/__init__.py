"""Achievable-variance assessment and multi-objective tuning of PID and
PI/P cascade control loops, with a population-based global optimizer and a
Monte-Carlo validation oracle."""

from .benchmarks import (
    CASE_STUDY_REFERENCE,
    REFERENCE,
    ReferenceEntry,
    load_benchmark,
    load_case_study,
    run_benchmark_suite,
)
from .cascade import (
    CascadeParams,
    CascadeProblem,
    assess_cascade,
    cascade_impulse,
    cascade_objective,
)
from .lti import DiscreteTransferFunction
from .mc import McConfig, McEstimate, McStabilityError, mc_variance_cascade, mc_variance_single
from .reports import AssessmentReport, SuiteReport, TuningReport
from .singleloop import (
    AssessmentError,
    PidGains,
    ReducedPidParams,
    SingleLoopProblem,
    assess_single,
    closed_loop_impulse,
    closed_loop_radius,
    cpa_objective,
    mv_benchmark,
)
from .tlbo import DIVERGENCE_SENTINEL, OptResult, TlboConfig, minimize
from .tuning import (
    StepResponseRecord,
    TuningProblem,
    simulate_multistage,
    simulate_step,
    tune,
    tuning_objective,
)

__version__ = "0.1.0"

__all__ = [
    "AssessmentError",
    "AssessmentReport",
    "CASE_STUDY_REFERENCE",
    "CascadeParams",
    "CascadeProblem",
    "DIVERGENCE_SENTINEL",
    "DiscreteTransferFunction",
    "McConfig",
    "McEstimate",
    "McStabilityError",
    "OptResult",
    "PidGains",
    "REFERENCE",
    "ReducedPidParams",
    "ReferenceEntry",
    "SingleLoopProblem",
    "StepResponseRecord",
    "SuiteReport",
    "TlboConfig",
    "TuningProblem",
    "TuningReport",
    "assess_cascade",
    "assess_single",
    "cascade_impulse",
    "cascade_objective",
    "closed_loop_impulse",
    "closed_loop_radius",
    "cpa_objective",
    "load_benchmark",
    "load_case_study",
    "mc_variance_cascade",
    "mc_variance_single",
    "minimize",
    "mv_benchmark",
    "run_benchmark_suite",
    "simulate_multistage",
    "simulate_step",
    "tune",
    "tuning_objective",
]
