"""Sphere T-matrices and half-space reflection at imaginary frequency.

A homogeneous sphere scatters each vector multipole wave independently, so
its T-matrix is diagonal in (polarization, l, m) and independent of m.  The
amplitudes follow from continuity of the tangential fields at the surface,
with interior index n_J = sqrt(eps_J mu_J) and exterior n_M.

Entries are stored as (sign, log|amplitude|) pairs: at small kappa*R the
amplitudes underflow like (kappa R)^(2l+1) while the translation matrices
they multiply overflow, and only the balanced product is representable.

Sign convention: the public entries satisfy "class I implies every diagonal
entry >= 0" (and class II implies <= 0), which makes the definiteness check
below agree with the material classification.  This flips the magnetic
sector relative to the raw boundary-value amplitude; the raw signs, which
the energy assembly needs, are available from :meth:`TMatrix.raw_signed_log`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, GeometryError
from .materials import Medium, eval_epsilon, eval_mu
from .specfun import log_bessel_i_array, log_bessel_k_array

__all__ = [
    "SphereObject",
    "TMatrix",
    "mie_tmatrix",
    "fresnel_reflection",
    "definiteness",
    "MAX_MULTIPOLE_ORDER",
]

# beyond this order the log-series special functions are untested
MAX_MULTIPOLE_ORDER = 200


@dataclass(frozen=True)
class SphereObject:
    """Homogeneous sphere: center, radius and its two response models."""

    center: tuple
    radius: float
    eps: "DispersionModel"
    mu: "DispersionModel"
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 3:
            raise GeometryError("sphere center must be a 3-vector")
        if self.radius <= 0.0:
            raise GeometryError("sphere radius must be positive")


def _riccati(kind, l_max, x):
    """(mantissa of [x f_l(x)]', common log exponent) for l = 1..l_max.

    Mantissas are scaled by exp(-log f_l(x)), so the mantissa of f_l itself
    is 1 and the derivative's stays O(l + x) for any argument; products of
    mantissas from different functions then never overflow.
    """
    if kind == "i":
        logs = log_bessel_i_array(l_max + 1, x)
        drv_sign = 1.0
    else:
        logs = log_bessel_k_array(l_max + 1, x)
        drv_sign = -1.0
    ell = np.arange(1, l_max + 1)
    e = logs[1:-1]
    # f' = drv_sign * f_{l+1} + (l/x) f_l, all divided by f_l
    fp = drv_sign * np.exp(logs[2:] - e) + ell / x
    return 1.0 + x * fp, e


@dataclass(frozen=True)
class TMatrix:
    """Diagonal multipole scattering amplitudes of one sphere.

    ``sign_e/log_e`` hold the electric (TM) entries and ``sign_m/log_m`` the
    magnetic (TE) entries for l = 1..l_max, in the definiteness convention
    described in the module docstring.  Entries are real and m-independent.
    """

    kappa: float
    l_max: int
    sign_e: np.ndarray
    log_e: np.ndarray
    sign_m: np.ndarray
    log_m: np.ndarray

    def entry(self, pol, l):
        """Plain float entry for polarization "E" or "M" at order l."""
        if not 1 <= l <= self.l_max:
            raise ValueError("l out of range")
        s = self.sign_e[l - 1] if pol == "E" else self.sign_m[l - 1]
        g = self.log_e[l - 1] if pol == "E" else self.log_m[l - 1]
        if s == 0.0:
            return 0.0
        return s * math.exp(min(g, 709.0))

    def diagonal(self):
        """Dense diagonal over the (P, l, m) basis, electric sector first."""
        out = []
        for pol in ("E", "M"):
            for l in range(1, self.l_max + 1):
                out.extend([self.entry(pol, l)] * (2 * l + 1))
        return np.asarray(out)

    def raw_signed_log(self):
        """(sign, log|amp|) over the basis, raw boundary-value signs.

        The raw magnetic amplitude is minus the stored entry; the energy
        assembly must use raw signs so that no adjustable constant enters.
        """
        reps = 2 * np.arange(1, self.l_max + 1) + 1
        signs = np.concatenate([np.repeat(self.sign_e, reps), np.repeat(-self.sign_m, reps)])
        logs = np.concatenate([np.repeat(self.log_e, reps), np.repeat(self.log_m, reps)])
        return signs, logs


def mie_tmatrix(sphere, medium, kappa, l_max):
    """T-matrix of a homogeneous sphere at imaginary wavenumber kappa.

    Amplitudes solve the tangential-field continuity conditions at the
    surface.  With x = n_M kappa R, y = n_J kappa R and D f = [z f_l(z)]',
    the raw amplitudes are

        TE: -(mu_J Di(x) i_l(y) - mu_M Di(y) i_l(x))
             / (mu_J Dk(x) i_l(y) - mu_M Di(y) k_l(x))
        TM: the same expression with mu -> eps.

    A perfect conductor uses the limits TM: -Di(x)/Dk(x), TE: -i_l/k_l.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if l_max < 1:
        raise ValueError("l_max must be at least 1")
    if l_max > MAX_MULTIPOLE_ORDER:
        raise CapabilityError(
            f"multipole order {l_max} exceeds supported {MAX_MULTIPOLE_ORDER}"
        )
    x = medium.refractive_index(kappa) * kappa * sphere.radius
    eps_m = medium.eps(kappa)
    mu_m = medium.mu(kappa)
    pec = sphere.eps.is_pec

    dix, ex = _riccati("i", l_max, x)
    dkx, fx = _riccati("k", l_max, x)
    shift = ex - fx
    if pec:
        raw_tm = -dix / dkx
        raw_te = np.full(l_max, -1.0)  # -i_l/k_l, both mantissas being 1
    else:
        eps_j = eval_epsilon(sphere.eps, kappa)
        mu_j = eval_mu(sphere.mu, kappa)
        y = math.sqrt(eps_j * mu_j) * kappa * sphere.radius
        diy, _ = _riccati("i", l_max, y)

        def amp(a_j, a_m):
            num = a_j * dix - a_m * diy
            den = a_j * dkx - a_m * diy
            return -num / den

        raw_te = amp(mu_j, mu_m)
        raw_tm = amp(eps_j, eps_m)
    live_e, live_m = raw_tm != 0.0, raw_te != 0.0
    with np.errstate(divide="ignore"):
        sign_e = np.where(live_e, np.copysign(1.0, raw_tm), 0.0)
        log_e = np.where(live_e, np.log(np.abs(raw_tm)) + shift, -math.inf)
        sign_m = np.where(live_m, -np.copysign(1.0, raw_te), 0.0)
        log_m = np.where(live_m, np.log(np.abs(raw_te)) + shift, -math.inf)
    return TMatrix(
        kappa=float(kappa),
        l_max=l_max,
        sign_e=sign_e,
        log_e=log_e,
        sign_m=sign_m,
        log_m=log_m,
    )


def fresnel_reflection(mat1, medium, kappa, k_transverse):
    """Imaginary-frequency Fresnel coefficients (r_TE, r_TM) of a half-space.

    ``mat1`` is a (eps_model, mu_model) pair or an object with ``eps`` and
    ``mu`` dispersion-model attributes.  kappa_i = sqrt(k_t^2 + eps_i mu_i
    kappa^2) is the normal decay constant on each side.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    if k_transverse < 0.0:
        raise ValueError("k_transverse must be nonnegative")
    eps_model = mat1[0] if isinstance(mat1, tuple) else mat1.eps
    mu_model = mat1[1] if isinstance(mat1, tuple) else mat1.mu
    eps_m = medium.eps(kappa)
    mu_m = medium.mu(kappa)
    kap_m = math.sqrt(k_transverse**2 + eps_m * mu_m * kappa**2)
    if eps_model.is_pec:
        return -1.0, 1.0
    eps_1 = eval_epsilon(eps_model, kappa)
    mu_1 = eval_mu(mu_model, kappa)
    kap_1 = math.sqrt(k_transverse**2 + eps_1 * mu_1 * kappa**2)
    r_te = (mu_1 * kap_m - mu_m * kap_1) / (mu_1 * kap_m + mu_m * kap_1)
    r_tm = (eps_1 * kap_m - eps_m * kap_1) / (eps_1 * kap_m + eps_m * kap_1)
    return r_te, r_tm


def definiteness(t, tol=0.0):
    """Sign report of a T-matrix: +1, -1, 0 or "mixed".

    +1 when the smallest diagonal entry is >= -tol, -1 when the largest is
    <= +tol, 0 when all magnitudes are within tol.
    """
    diag = t.diagonal()
    if np.all(np.abs(diag) <= tol):
        return 0
    if diag.min() >= -tol:
        return +1
    if diag.max() <= tol:
        return -1
    return "mixed"
