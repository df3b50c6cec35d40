"""Exception hierarchy shared by all colliderbias modules, the guard that
raises one for a single value or for a batch of draws, and ``np``, the one
handle through which every module reads numpy.

numpy is loaded on the first read of an attribute of ``np``, so importing the
package and answering a single query load no numpy; only a batch, a grid and
the sampler do.  No module-level code (default arguments and class bodies
included) may read an attribute of ``np``."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np
else:

    class _Numpy:
        """numpy, imported on the first attribute read; each attribute is
        then stored on the handle, so a later read costs what a module
        global costs."""

        def __getattr__(self, name):
            import numpy

            value = getattr(numpy, name)
            setattr(self, name, value)
            return value

    np = _Numpy()


class ColliderBiasError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ColliderBiasError):
    """A structure parameterization is malformed."""


class OutOfRangeError(ParameterError):
    """A probability lies outside [0, 1], or outside (0, 1) where required."""

    def __init__(self, field: str, value: float, open_interval: bool = False):
        self.field = field
        self.value = value
        interval = "(0.0, 1.0)" if open_interval else "[0.0, 1.0]"
        try:
            shown = repr(value)
        except ValueError:  # an integer with more digits than Python prints
            shown = f"an integer of {value.bit_length()} bits"
        super().__init__(f"{field} = {shown} is outside {interval}")


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

    def __init__(self, variable: str, level: int):
        self.variable = variable
        self.level = level
        super().__init__(f"stratum {variable}={level} has zero probability")


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
    """A sign grid was requested with a resolution outside [2, maximum]."""

    def __init__(self, resolution: int, maximum: int):
        self.resolution = resolution
        bound = ">= 2" if resolution < 2 else f"<= {maximum}"
        super().__init__(f"grid resolution must be {bound}, got {resolution}")


def raise_first_nonfinite(label: str, named: tuple[tuple[str, object], ...]) -> None:
    """Raise PrecisionLossError "<label> <name> = <value>" for the first
    (name, value) pair whose value is NaN or infinite.  A value is one
    number, or an array over a batch of draws, whose first bad draw
    :func:`raise_where` names; a number stands for every draw and names
    none.  Where a value is an array, every entry of every value is tested
    at once first, and searched by name and draw only when one is bad."""
    arrays, numbers = [], []
    for _, value in named:
        (arrays if getattr(value, "ndim", 0) else numbers).append(value)
    if arrays and all(map(math.isfinite, numbers)):
        every = np.concatenate(arrays, axis=None) if arrays[1:] else arrays[0]
        if np.count_nonzero(np.isfinite(every)) == every.size:
            return
    for name, value in named:
        if getattr(value, "ndim", 0):
            bad = ~np.isfinite(value)
        else:
            bad = not math.isfinite(value)
        raise_where(bad, lambda v: PrecisionLossError(f"{label} {name} = {v!r}"), value)


def raise_where(bad, error, *args) -> None:
    """Raise ``error(*args)`` if ``bad`` holds.

    ``bad`` is one truth value, or a boolean array over a batch of draws.  In
    a batch the error is built from the first bad draw's entry of each array
    argument, and its ``draw`` attribute and message name that draw.
    """
    if bad is False:
        return
    if getattr(bad, "ndim", 0) == 0:
        if bad:
            raise error(*args)
        return
    draw = int(bad.argmax())
    if bad[draw]:
        exc = error(*(arg.item(draw) if getattr(arg, "ndim", 0) else arg for arg in args))
        exc.draw = draw
        exc.args = (f"draw {draw}: {exc}",)
        raise exc
