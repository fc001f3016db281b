"""Exception types shared across the package.

The CLI maps these onto exit codes: validation/schema problems exit with 2,
I/O problems with 3, and non-fatal computational conditions (divergence,
no break-even flip) with 1. ``config_value`` is the type rule every config
reader applies to a scalar value.
"""

import math


class BreakevenError(Exception):
    """Base class for all package errors."""


class ValidationError(BreakevenError):
    """Bad inputs: shapes, parameter ranges, schema violations. ``field``
    names the offending input when a single one is at fault."""

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


class ComputationalError(BreakevenError):
    """A computation could not produce a usable result."""


class NonFiniteError(ComputationalError):
    """NaN or Inf encountered; in training loops this signals divergence."""


class NoConvergenceError(ComputationalError):
    """An eigensolver failed: LAPACK did not converge, or Lanczos could not
    draw a start vector outside its Krylov span."""


class InvalidKError(ValidationError):
    """Requested more eigenpairs than the operator dimension allows."""


class DimensionMismatchError(ValidationError):
    pass


class BnUnsupportedError(ValidationError):
    """Operation does not support batch-normalization layers."""


class NoBnLayerError(ValidationError):
    pass


class ZeroDirectionError(ValidationError):
    """Hessian-vector product direction has zero norm."""


class DegenerateOffsetError(ValidationError):
    """Closed-form break-even curvature is undefined at zero offset."""


class InsufficientDataError(ValidationError):
    pass


class InsufficientCheckpointsError(ValidationError):
    pass


class RankDeficientError(ComputationalError):
    """Fewer positive eigenvalues than requested eigenvectors."""


class DegenerateProjectionError(ComputationalError):
    """Projection norm too small relative to the vector norm."""


class CsvParseError(ValidationError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class InvalidParamsError(ValidationError):
    pass


class InvalidConfigError(ValidationError):
    pass


class NeedTwoValuesError(ValidationError):
    """Sweep axes need at least two values to compare."""


class SchemaError(ValidationError):
    """A config value is rejected; ``field`` is its dotted path."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}", field)


class UnknownMetricError(ValidationError):
    pass


def config_value(kind: type, value, field: str | None = None):
    """The one type rule for a scalar config value: an ``int`` takes JSON
    integers only, a ``float`` any finite JSON number (not ``NaN`` or
    ``Infinity``) and is stored as a float, a ``str`` only a string, a
    ``bool`` only ``true`` or ``false``; a bool is none of the others.
    Raises InvalidParamsError naming ``field`` otherwise."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
    if type(value) is not kind:
        raise InvalidParamsError(f"expected {kind.__name__}", field)
    if kind is float and not math.isfinite(value):
        raise InvalidParamsError("expected a finite number", field)
    return value
