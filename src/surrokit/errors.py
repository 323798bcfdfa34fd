"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: data-shaped problems (bad files,
degenerate columns) exit 2, numerical failures exit 3.
"""


class SurrokitError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(SurrokitError, ValueError):
    """Malformed external data: bad CSV header, non-numeric cell, weight-file
    count mismatch, invalid model file."""


class DegenerateColumnError(SurrokitError, ValueError):
    """A column is constant where the requested transform needs spread."""


class UndefinedVarianceError(SurrokitError, ValueError):
    """A statistic that divides by the response variance met a constant
    response."""


class TrainingDivergedError(SurrokitError, ArithmeticError):
    """Training produced a non-finite loss or RBF exponent."""


class RankDeficiencyError(SurrokitError, ArithmeticError):
    """A linear solve failed or returned non-finite coefficients."""


class InfeasibleRunError(SurrokitError, RuntimeError):
    """An optimization run never found a constraint-feasible point.

    Carries the smallest total constraint violation observed so callers can
    report how close the run came.
    """

    def __init__(self, message: str, best_violation: float):
        super().__init__(message)
        self.best_violation = best_violation
