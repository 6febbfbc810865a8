"""Saddle-point optimization with optimistic gradient ascent and proximal steps."""

from .problem import (
    MissingSaddlePointError,
    ProblemConstants,
    PsiUndefinedError,
    SaddleProblem,
    ValidationReport,
    validate_problem,
)
from .report import MetricRecord, RunReport
from .schedule import (
    AdaptiveSchedule,
    LinearSchedule,
    ScheduleKind,
    ScheduleState,
    StepSizeViolationError,
    advance_schedule,
    balanced_alpha,
    default_adaptive,
    default_linear,
    make_schedule,
    theta_threshold,
)
from .solver import (
    GapCertificate,
    NonFiniteIterateError,
    SolverState,
    gap_certificate,
    run,
    step,
)

__all__ = [
    "AdaptiveSchedule",
    "GapCertificate",
    "LinearSchedule",
    "MetricRecord",
    "MissingSaddlePointError",
    "NonFiniteIterateError",
    "ProblemConstants",
    "PsiUndefinedError",
    "RunReport",
    "SaddleProblem",
    "ScheduleKind",
    "ScheduleState",
    "SolverState",
    "StepSizeViolationError",
    "ValidationReport",
    "advance_schedule",
    "balanced_alpha",
    "default_adaptive",
    "default_linear",
    "gap_certificate",
    "make_schedule",
    "run",
    "step",
    "theta_threshold",
    "validate_problem",
]
