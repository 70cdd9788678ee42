"""Exception types shared across the package.

The CLI maps these onto exit codes: validation errors -> 2, convergence
budget errors -> 3, unphysical truncation -> 4.
"""


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
