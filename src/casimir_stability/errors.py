"""Exception types shared across the package.

The CLI maps these onto exit codes: validation errors -> 2, convergence
budget errors -> 3, unphysical truncation -> 4.  The input checks shared by
every layer (finite numbers, 3-vectors and orders) live here too.
"""

import math
import numbers


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
    """An eigenvalue of I - N dropped below zero; increase l_max."""


class PrecisionError(RuntimeError):
    """Monte Carlo sample too short/correlated for the requested precision."""


class ToleranceError(ValidationError):
    """Finite-difference step outside its admissible range."""


def _finite(value, what, sign="positive", error=ValidationError):
    """``value`` as a float if it is finite and of ``sign``, else ``error``.

    ``sign`` is "positive", "nonnegative" or None (either sign); the message
    names ``what`` and the rule.
    """
    number = float(value)
    signed = sign is None or number > 0.0 or (sign == "nonnegative" and number == 0.0)
    if not (math.isfinite(number) and signed):
        rule = f"finite and {sign}" if sign else "finite"
        raise error(f"{what} must be {rule}, got {value!r}")
    return number


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
