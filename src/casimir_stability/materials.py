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

Frequency is a batch axis here too: the models, a medium's eps, mu and
refractive index, and ``classify`` take a number or an array of kappa.  A
number gives a Python float; an array gives a float array of its shape,
each entry the number's call bit for bit.
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
    ZeroFrequencyError there.  ``kappa`` is a number, giving a float, or an
    array, giving a float array of its shape whose every entry is the
    number's call; any negative entry is a ValueError, raised first.
    """
    k = np.asarray(kappa, float)
    if (k < 0.0).any():
        raise ValueError("kappa must be nonnegative")
    kind = model.kind
    if kind in ("plasma", "drude") and (k == 0.0).any():
        raise ZeroFrequencyError(
            f"{kind} model diverges at kappa=0; apply the kappa-floor policy"
        )
    if kind == "constant":
        v = model.value
    elif kind == "pec":
        v = math.inf
    elif kind == "plasma":
        r = model.omega_p / k
        v = 1.0 + r * r
    elif kind == "drude":
        v = 1.0 + model.omega_p**2 / (k * (k + model.gamma))
    elif kind == "lorentz":
        v = 1.0 + sum(
            f * w**2 / (w**2 + k * k + g * k) for (f, w, g) in model.oscillators
        )
    else:
        raise ValueError(f"unknown dispersion model kind {kind!r}")
    return _float_or_array(np.full(k.shape, v))


def eval_mu(model, kappa):
    """Permeability counterpart of eval_epsilon (same functional forms)."""
    return eval_epsilon(model, kappa)


def _float_or_array(v):
    """A 0-d result as a Python float, any other as its float array."""
    return float(v) if np.ndim(v) == 0 else v


@dataclass(frozen=True)
class Medium:
    """Spatially uniform background with its own eps and mu models.

    Neither model may be a perfect conductor (ValidationError).  ``eps``,
    ``mu`` and ``refractive_index`` take a number or an array of kappa, as
    :func:`eval_epsilon` does.
    """

    eps_model: DispersionModel = field(default_factory=lambda: VACUUM)
    mu_model: DispersionModel = field(default_factory=lambda: VACUUM)

    def __post_init__(self):
        if self.eps_model.is_pec or self.mu_model.is_pec:
            raise ValidationError("a medium cannot be a perfect conductor")

    def eps(self, kappa):
        v = eval_epsilon(self.eps_model, kappa)
        if not np.isfinite(v).all():
            raise ValueError("medium permittivity must be finite")
        return v

    def mu(self, kappa):
        v = eval_mu(self.mu_model, kappa)
        if not np.isfinite(v).all():
            raise ValueError("medium permeability must be finite")
        return v

    def refractive_index(self, kappa):
        return _float_or_array(np.sqrt(self.eps(kappa) * self.mu(kappa)))


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
    ``kappa_samples`` is an array of kappa (a number is one sample), and
    every response is evaluated once on the whole array.
    """
    samples = np.asarray(kappa_samples, float)
    if not samples.size:
        raise ValueError("kappa_samples must be non-empty")
    if (samples <= 0.0).any():
        raise ValueError("kappa_samples must be positive")

    # a perfect conductor has eps -> inf and effective mu -> 0, the extreme
    # class I response, regardless of any mu model attached to it
    if object_eps.kind == "pec":
        return MaterialClass(MaterialClass.CLASS_I, +1)

    e, m = eval_epsilon(object_eps, samples), eval_mu(object_mu, samples)
    e_m, m_m = medium.eps(samples), medium.mu(samples)
    if np.all((e == e_m) & (m == m_m)):
        return MaterialClass(MaterialClass.NEUTRAL, 0)
    if np.all((e > e_m) & (m <= m_m)):
        return MaterialClass(MaterialClass.CLASS_I, +1)
    if np.all((e < e_m) & (m >= m_m)):
        return MaterialClass(MaterialClass.CLASS_II, -1)
    return MaterialClass(MaterialClass.INDETERMINATE, None)
