"""Exception hierarchy shared by all colliderbias modules."""

from __future__ import annotations


class ColliderBiasError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ColliderBiasError):
    """A structure parameterization is malformed."""


class OutOfRangeError(ParameterError):
    """A probability lies outside its allowed range."""

    def __init__(self, field: str, value: float, lo: float = 0.0, hi: float = 1.0,
                 open_interval: bool = False):
        self.field = field
        self.value = value
        bracket = "()" if open_interval else "[]"
        super().__init__(
            f"{field} = {value!r} is outside {bracket[0]}{lo}, {hi}{bracket[1]}"
        )


class MissingFieldError(ParameterError):
    """A field required by the structure kind is absent."""

    def __init__(self, kind: str, field: str):
        self.kind = kind
        self.field = field
        super().__init__(f"structure kind {kind} requires field {field}")


class ExtraFieldError(ParameterError):
    """A field not applicable to the structure kind is present."""

    def __init__(self, kind: str, field: str):
        self.kind = kind
        self.field = field
        super().__init__(f"structure kind {kind} does not take field {field}")


class DegenerateStratumError(ColliderBiasError):
    """A conditioning stratum is degenerate (zero mass, or the quantities
    defined on it collapse)."""

    def __init__(self, variable: str, level: int, detail: str | None = None):
        self.variable = variable
        self.level = level
        super().__init__(detail or f"stratum {variable}={level} has zero probability")


class UnknownVariableError(ColliderBiasError):
    """An event names a variable that the structure does not contain."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown variable {name!r}")


class UndefinedRatioError(ColliderBiasError):
    """A ratio-scale measure has a zero denominator."""

    def __init__(self, detail: str):
        super().__init__(f"ratio undefined: {detail}")


class SingularDesignError(ColliderBiasError):
    """The regression design is singular (regressors perfectly collinear)."""


class PrecisionLossError(ColliderBiasError):
    """Double precision cannot represent the result: it overflowed to a
    non-finite value, or rounding lost a quantity that is exactly null."""


class InvalidResolutionError(ParameterError):
    """A sign grid was requested with fewer than 2 cells per axis."""

    def __init__(self, resolution: int):
        self.resolution = resolution
        super().__init__(f"grid resolution must be >= 2, got {resolution}")
