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
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, GeometryError, ValidationError
from .errors import _finite, _finite_array, _order, _vector
from .materials import eval_epsilon, eval_mu
from .specfun import log_bessel_i_array, log_bessel_k_array
from .translation import _band_of

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
    """Homogeneous sphere: center, radius and its two response models.

    A perfect conductor is an eps model only: a pec ``mu`` is rejected.
    """

    center: tuple
    radius: float
    eps: "DispersionModel"
    mu: "DispersionModel"
    label: str = ""

    def __post_init__(self):
        center = _vector(self.center, "sphere center", GeometryError)
        object.__setattr__(self, "center", center)
        _finite(self.radius, "sphere radius", error=GeometryError)
        if self.mu.is_pec:
            raise ValidationError(
                f"sphere {self.label!r}: a permeability cannot be a perfect conductor"
            )


def _riccati(kind, l_max, x):
    """(mantissa of [x f_l(x)]', common log exponent) for l = 1..l_max.

    Mantissas are scaled by exp(-log f_l(x)), so the mantissa of f_l itself
    is 1 and the derivative's stays O(l + x) for any argument; products of
    mantissas from different functions then never overflow.  ``x`` is a 1-D
    array of arguments, one row each.
    """
    if kind == "i":
        logs = log_bessel_i_array(l_max + 1, x)
        drv_sign = 1.0
    else:
        logs = log_bessel_k_array(l_max + 1, x)
        drv_sign = -1.0
    ell = np.arange(1, l_max + 1)
    e = logs[:, 1:-1]
    x = x[:, None]
    # f' = drv_sign * f_{l+1} + (l/x) f_l, all divided by f_l
    fp = drv_sign * np.exp(logs[:, 2:] - e) + ell / x
    return 1.0 + x * fp, e


@dataclass(frozen=True)
class TMatrix:
    """Diagonal multipole scattering amplitudes of one sphere.

    ``sign_e/log_e`` hold the electric (TM) entries and ``sign_m/log_m`` the
    magnetic (TE) entries for l = 1..l_max, in the definiteness convention
    described in the module docstring.  Entries are real and m-independent.
    Built for an array of kappa, ``kappa`` is that array and every
    amplitude field has a leading kappa axis; ``entry`` and ``diagonal``
    read a single-kappa matrix only.
    """

    kappa: float | np.ndarray
    l_max: int
    sign_e: np.ndarray
    log_e: np.ndarray
    sign_m: np.ndarray
    log_m: np.ndarray

    def entry(self, pol, l):
        """Plain float entry for polarization "E" or "M" at order l."""
        if np.ndim(self.kappa):
            raise ValueError("entry reads a T-matrix built for one kappa")
        if not 1 <= l <= self.l_max:
            raise ValueError("l out of range")
        s = self.sign_e[l - 1] if pol == "E" else self.sign_m[l - 1]
        g = self.log_e[l - 1] if pol == "E" else self.log_m[l - 1]
        if s == 0.0:
            return 0.0
        return s * math.exp(min(g, 709.0))

    def diagonal(self):
        """Dense diagonal over the (P, l, m) basis, electric sector first."""
        bands = [self.entry(pol, l) for pol in ("E", "M") for l in range(1, self.l_max + 1)]
        return np.asarray(bands)[_band_of(self.l_max)]

    def raw_signed_log(self):
        """(sign, log|amp|) per (P, l) band, raw boundary-value signs.

        One value per band, l = 1..l_max electric then magnetic (2 l_max,
        after any kappa axis): the amplitude is the same for the 2l + 1
        labels m of a band.  The raw magnetic amplitude is minus the stored
        entry; the energy assembly must use raw signs so that no adjustable
        constant enters.
        """
        return (
            np.concatenate([self.sign_e, -self.sign_m], axis=-1),
            np.concatenate([self.log_e, self.log_m], axis=-1),
        )


def mie_tmatrix(sphere, medium, kappa, l_max):
    """T-matrix of a homogeneous sphere at imaginary wavenumber kappa.

    Amplitudes solve the tangential-field continuity conditions at the
    surface.  With x = n_M kappa R, y = n_J kappa R and D f = [z f_l(z)]',
    the raw amplitudes are

        TE: -(mu_J Di(x) i_l(y) - mu_M Di(y) i_l(x))
             / (mu_J Dk(x) i_l(y) - mu_M Di(y) k_l(x))
        TM: the same expression with mu -> eps.

    A perfect conductor uses the limits TM: -Di(x)/Dk(x), TE: -i_l/k_l.
    ``kappa`` may be a 1-D array: the amplitudes then carry a leading kappa
    axis, and each row equals the scalar call's.  Every response model is
    evaluated once on the kappa array.
    """
    kappas = np.array(_finite_array(kappa, "kappa"), ndmin=1)
    if _order(l_max, "l_max") > MAX_MULTIPOLE_ORDER:
        raise CapabilityError(
            f"multipole order {l_max} exceeds supported {MAX_MULTIPOLE_ORDER}"
        )
    x = medium.refractive_index(kappas) * kappas * sphere.radius
    pec = sphere.eps.is_pec

    dix, ex = _riccati("i", l_max, x)
    dkx, fx = _riccati("k", l_max, x)
    shift = ex - fx
    if pec:
        raw_tm = -dix / dkx
        raw_te = np.full(dix.shape, -1.0)  # -i_l/k_l, both mantissas being 1
    else:
        eps_m, mu_m = medium.eps(kappas), medium.mu(kappas)
        eps_j, mu_j = eval_epsilon(sphere.eps, kappas), eval_mu(sphere.mu, kappas)
        y = np.sqrt(eps_j * mu_j) * kappas * sphere.radius
        diy, _ = _riccati("i", l_max, y)

        def amp(a_j, a_m):
            # the sphere's and the medium's response, as columns over kappa
            a_j, a_m = a_j[:, None], a_m[:, None]
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
    if np.ndim(kappa) == 0:
        kappas, sign_e, log_e, sign_m, log_m = (
            float(kappa), sign_e[0], log_e[0], sign_m[0], log_m[0]
        )
    return TMatrix(
        kappa=kappas,
        l_max=l_max,
        sign_e=sign_e,
        log_e=log_e,
        sign_m=sign_m,
        log_m=log_m,
    )


def fresnel_reflection(mat1, medium, kappa, k_transverse):
    """Imaginary-frequency Fresnel coefficients (r_TE, r_TM) of a half-space.

    ``mat1`` is an (eps_model, mu_model) pair; a perfect conductor is an eps
    model only (ValidationError for a pec mu).  kappa_i = sqrt(k_t^2 +
    eps_i mu_i kappa^2) is the normal decay constant on each side.
    ``kappa`` and ``k_transverse`` may be arrays that broadcast together:
    the coefficients are then arrays of that shape, every response model
    being evaluated once on the kappa array.
    """
    eps_model, mu_model = mat1
    if mu_model.is_pec:
        raise ValidationError("a half-space permeability cannot be a perfect conductor")
    kappas = _finite_array(kappa, "kappa")
    k_t = _finite_array(k_transverse, "k_transverse", "nonnegative")
    eps_m, mu_m = medium.eps(kappas), medium.mu(kappas)
    k_t2, kappa2 = k_t * k_t, kappas * kappas
    kap_m = np.sqrt(k_t2 + eps_m * mu_m * kappa2)
    if eps_model.is_pec:
        r_te, r_tm = np.full(kap_m.shape, -1.0), np.full(kap_m.shape, 1.0)
    else:
        eps_1, mu_1 = eval_epsilon(eps_model, kappas), eval_mu(mu_model, kappas)
        kap_1 = np.sqrt(k_t2 + eps_1 * mu_1 * kappa2)
        r_te = (mu_1 * kap_m - mu_m * kap_1) / (mu_1 * kap_m + mu_m * kap_1)
        r_tm = (eps_1 * kap_m - eps_m * kap_1) / (eps_1 * kap_m + eps_m * kap_1)
    if r_te.ndim == 0:
        return float(r_te), float(r_tm)
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
