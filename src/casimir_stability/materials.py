"""Imaginary-frequency response functions and material classification.

Units: hbar = c = 1, lengths in a user-chosen unit L, wavenumbers kappa in
1/L, frequencies of dispersion models in 1/L as well.  All response
functions are evaluated on the imaginary frequency axis, where they are
real and positive.

Objects are sorted into two sign classes relative to the embedding medium:
class I (eps above the medium, mu at or below it, sign +1) and class II
(the opposite inequalities, sign -1).  When neither set of inequalities
holds at every sampled wavenumber the class is indeterminate and no sign is
assigned.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, ZeroFrequencyError, _finite

__all__ = [
    "DispersionModel",
    "Medium",
    "MaterialClass",
    "eval_epsilon",
    "eval_mu",
    "classify",
    "VACUUM",
]


@dataclass(frozen=True)
class DispersionModel:
    """One of: constant, plasma, drude, lorentz, pec.

    lorentz oscillators are (f_j, omega_j, g_j) triples contributing
    f_j * omega_j^2 / (omega_j^2 + kappa^2 + g_j kappa) each.
    """

    kind: str
    value: float = 1.0
    omega_p: float = 0.0
    gamma: float = 0.0
    oscillators: tuple = ()

    @classmethod
    def constant(cls, value):
        return cls("constant", value=_finite(value, "constant response"))

    @classmethod
    def plasma(cls, omega_p):
        return cls("plasma", omega_p=_finite(omega_p, "plasma frequency"))

    @classmethod
    def drude(cls, omega_p, gamma):
        return cls(
            "drude",
            omega_p=_finite(omega_p, "drude plasma frequency"),
            gamma=_finite(gamma, "drude relaxation rate"),
        )

    @classmethod
    def lorentz(cls, oscillators):
        oscillators = tuple(tuple(map(float, o)) for o in oscillators)
        for f, w, g in oscillators:
            _finite(f, "lorentz oscillator strength", "nonnegative")
            _finite(w, "lorentz oscillator resonance")
            _finite(g, "lorentz oscillator damping", "nonnegative")
        return cls("lorentz", oscillators=oscillators)

    @classmethod
    def perfect_conductor(cls):
        return cls("pec")

    @property
    def is_pec(self):
        return self.kind == "pec"


VACUUM = DispersionModel.constant(1.0)


def eval_epsilon(model, kappa):
    """Evaluate a dispersion model at imaginary wavenumber kappa >= 0.

    Finite and positive for every kappa > 0; a perfect conductor evaluates
    to +inf.  Plasma and Drude models diverge at kappa = 0 and raise
    ZeroFrequencyError there.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be nonnegative")
    kind = model.kind
    if kind == "constant":
        return model.value
    if kind == "pec":
        return math.inf
    if kind == "plasma":
        if kappa == 0.0:
            raise ZeroFrequencyError(
                "plasma model diverges at kappa=0; apply the kappa-floor policy"
            )
        return 1.0 + (model.omega_p / kappa) ** 2
    if kind == "drude":
        if kappa == 0.0:
            raise ZeroFrequencyError(
                "drude model diverges at kappa=0; apply the kappa-floor policy"
            )
        return 1.0 + model.omega_p**2 / (kappa * (kappa + model.gamma))
    if kind == "lorentz":
        return 1.0 + sum(
            f * w**2 / (w**2 + kappa**2 + g * kappa) for (f, w, g) in model.oscillators
        )
    raise ValueError(f"unknown dispersion model kind {kind!r}")


def eval_mu(model, kappa):
    """Permeability counterpart of eval_epsilon (same functional forms)."""
    return eval_epsilon(model, kappa)


def _per_kappa(f, kappas):
    """f(kappa) for each of the array ``kappas``, as a float array of its shape.

    The response functions above are scalar functions of one kappa; every
    caller that works on an array of kappas evaluates them through this.
    """
    return np.reshape([f(k) for k in kappas.ravel().tolist()], kappas.shape)


@dataclass(frozen=True)
class Medium:
    """Spatially uniform background with its own eps and mu models.

    Neither model may be a perfect conductor (ValidationError).
    """

    eps_model: DispersionModel = field(default_factory=lambda: VACUUM)
    mu_model: DispersionModel = field(default_factory=lambda: VACUUM)

    def __post_init__(self):
        if self.eps_model.is_pec or self.mu_model.is_pec:
            raise ValidationError("a medium cannot be a perfect conductor")

    def eps(self, kappa):
        v = eval_epsilon(self.eps_model, kappa)
        if not math.isfinite(v):
            raise ValueError("medium permittivity must be finite")
        return v

    def mu(self, kappa):
        v = eval_mu(self.mu_model, kappa)
        if not math.isfinite(v):
            raise ValueError("medium permeability must be finite")
        return v

    def refractive_index(self, kappa):
        return math.sqrt(self.eps(kappa) * self.mu(kappa))


@dataclass(frozen=True)
class MaterialClass:
    """variant in {class_i, class_ii, neutral, indeterminate}; sign is +1,
    -1, 0 or None (unknown)."""

    variant: str
    sign: int | None

    CLASS_I = "class_i"
    CLASS_II = "class_ii"
    NEUTRAL = "neutral"
    INDETERMINATE = "indeterminate"


def classify(object_eps, object_mu, medium, kappa_samples):
    """Sign class of an object relative to the medium over given samples.

    Class I requires eps > eps_M and mu <= mu_M at every sample; class II
    the reversed inequalities; neutral requires exact equality of both
    responses.  Anything else is indeterminate: the relevant statements
    hold only when one set of inequalities holds over all the dominant
    wavenumbers, and no weighting between them is defined otherwise.
    """
    samples = list(kappa_samples)
    if not samples:
        raise ValueError("kappa_samples must be non-empty")
    if any(k <= 0.0 for k in samples):
        raise ValueError("kappa_samples must be positive")

    # a perfect conductor has eps -> inf and effective mu -> 0, the extreme
    # class I response, regardless of any mu model attached to it
    if object_eps.kind == "pec":
        return MaterialClass(MaterialClass.CLASS_I, +1)

    neutral = True
    class_i = True
    class_ii = True
    for kappa in samples:
        e = eval_epsilon(object_eps, kappa)
        m = eval_mu(object_mu, kappa)
        e_m = medium.eps(kappa)
        m_m = medium.mu(kappa)
        neutral = neutral and (e == e_m and m == m_m)
        class_i = class_i and (e > e_m and m <= m_m)
        class_ii = class_ii and (e < e_m and m >= m_m)
    if neutral:
        return MaterialClass(MaterialClass.NEUTRAL, 0)
    if class_i:
        return MaterialClass(MaterialClass.CLASS_I, +1)
    if class_ii:
        return MaterialClass(MaterialClass.CLASS_II, -1)
    return MaterialClass(MaterialClass.INDETERMINATE, None)
