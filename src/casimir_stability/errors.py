"""Exception types shared across the package.

The CLI maps these onto exit codes: validation errors -> 2, convergence
budget errors -> 3, unphysical truncation -> 4.  The input checks shared by
every layer (finite numbers, 3-vectors and orders) live here too.
"""

import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Bad input: schema violations, overlapping spheres, empty sweeps."""


class GeometryError(ValidationError):
    """Objects overlap or coincide."""


class ZeroFrequencyError(ValueError):
    """Dispersion model diverges at kappa = 0; use the kappa-floor policy
    of the energy module instead of evaluating the model there."""


class CapabilityError(ValidationError):
    """Requested order/size beyond what the special functions support."""


class ConvergenceBudgetError(RuntimeError):
    """Refinement budget exhausted before the tolerance was met.

    The partial result, if any, is attached as ``.partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class UnphysicalTruncationError(RuntimeError):
    """A ln det of I - N cannot be trusted, for one of three causes: a
    determinant (of I - N, an m-block, the remainder or the Schur complement)
    is not positive, so increase l_max; a matrix has NaN or inf entries; or a
    stability difference ln det(I + K) has |K| >= 1/2 (too large a step h)."""


class PrecisionError(RuntimeError):
    """Monte Carlo sample too short/correlated for the requested precision."""


class ToleranceError(ValidationError):
    """Finite-difference step outside its admissible range."""


def _finite_array(values, what, sign="positive", error=ValidationError):
    """``values`` as a float array if every entry is finite and of ``sign``, else ``error``.

    ``sign`` is "positive", "nonnegative" or None (either sign); the message
    names ``what``, the rule and a bad entry (a scalar as given).
    """
    array = np.asarray(values, float)
    if array.size:
        lo, hi = array.min(), array.max()  # a NaN carries through both
        low = lo >= 0.0 if sign == "nonnegative" else lo > (0.0 if sign else -math.inf)
        if not (low and hi < math.inf):
            bad = values if array.ndim == 0 else (hi if low else lo).item()
            rule = f"finite and {sign}" if sign else "finite"
            raise error(f"{what} must be {rule}, got {bad!r}")
    return array


def _finite(value, what, sign="positive", error=ValidationError):
    """``value`` as a float: the one-number :func:`_finite_array` (a
    one-element list is a TypeError, as it is for ``float``)."""
    return float(_finite_array(float(value), what, sign, error))


def _vector(values, what, error=ValidationError):
    """``values`` as a tuple of three finite floats, else ``error``."""
    vector = tuple(float(v) for v in values)
    if len(vector) != 3 or not all(map(math.isfinite, vector)):
        raise error(f"{what} must be a finite 3-vector, got {values!r}")
    return vector


def _order(value, what, least=1):
    """``value`` if it is an integer >= ``least`` (a bool is not), else ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return value
