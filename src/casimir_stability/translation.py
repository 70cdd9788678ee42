"""Multipole translation matrices for a uniform medium at imaginary frequency.

A translation matrix converts outgoing vector multipole waves centered at a
point ``d`` into regular waves about the origin (valid for |x| < |d|).  These
matrices carry all of the geometry dependence of the scattering formulation
of the interaction energy; the material response of individual objects lives
in the T-matrices of the scattering module.

Basis
-----
Waves are labeled by (P, l, m) with polarization P in {"E", "M"},
l = 1..l_max and m = -l..l.  The angular dependence uses real spherical
harmonics R_lm (see :func:`real_sph_harm`).  Two further conventions make
every matrix entry real at imaginary wavenumber and keep axial displacements
block-diagonal in m:

* the magnetic-sector basis wave carries a relative factor i with respect to
  the curl relation that generates it from the electric sector;
* the magnetic-sector label m refers to the real harmonic R_{l,-m}.

Scaling
-------
Entries grow like k_lambda(n kappa |d|) ~ (lambda/x)^lambda at small
argument and would overflow float64 well inside the physically relevant
range, so a :class:`TranslationMatrix` stores ``scaled`` values together
with a per-entry natural-log ``exponent``; the true entry is
``scaled * exp(exponent)``.  :meth:`TranslationMatrix.dense` materializes
plain floats when they are representable.  All entries of one (l, l') block
share the exponent log k_lmax, lmax being the largest lambda in that block.

Construction
------------
Everything that depends on neither kappa nor the direction of ``d`` is
computed once per (l_max, spin) into one flat table: for every term of every
entry, the entry it adds to, its (block, lambda) scale slot, its (lambda, mu)
harmonic slot and its coefficient, together with the real-basis change and
the index permutations of the electric/magnetic sector layout.  A build is
then whole-array work: one ``sph_harm_y`` call over all (lambda, mu), the
block exponents as one gather, one real weighted bincount over the terms,
U A U^dagger with U block-diagonal over the whole sector, and one gather
into the sector layout.

Reciprocity
-----------
X(-d) = D X(d)^T D (D = +1 on the electric and -1 on the magnetic sector),
so a pair of objects needs only one build per wavenumber;
:func:`reverse_translation` is the one implementation of that image.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import sph_harm_y

from .errors import GeometryError, ToleranceError
from .specfun import log_bessel_k_array, wigner3j

__all__ = [
    "TranslationMatrix",
    "translation_matrix",
    "translation_gradient",
    "reverse_translation",
    "scalar_translation_matrix",
    "momentum_space_G",
    "real_sph_harm",
]


def real_sph_harm(l, m, theta, phi):
    """Real spherical harmonic R_lm used as the angular basis.

    R_l0 = Y_l0; for m > 0, R_lm = sqrt(2) (-1)^m Re Y_lm; for m < 0,
    R_lm = sqrt(2) (-1)^m Im Y_{l|m|}.  Orthonormal on the unit sphere.
    """
    if m == 0:
        return np.real(sph_harm_y(l, 0, theta, phi))
    y = sph_harm_y(l, abs(m), theta, phi)
    s = math.sqrt(2.0) * (-1) ** abs(m)
    return s * (np.real(y) if m > 0 else np.imag(y))


def momentum_space_G(medium, kappa, k):
    """Medium Green's function in momentum space, a 3x3 PSD matrix.

    mu_M (I + k k^T / (n^2 kappa^2)) / (k^2 + n^2 kappa^2), evaluated at
    imaginary frequency where it is real and positive semidefinite.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    k = np.asarray(k, float)
    n2k2 = (medium.refractive_index(kappa) * kappa) ** 2
    mu_m = medium.mu(kappa)
    return mu_m * (np.eye(3) + np.outer(k, k) / n2k2) / (k @ k + n2k2)


# ---------------------------------------------------------------------------
# Index bookkeeping and basis change


def sector_indices(l_max, l_min=1):
    """(l, m) pairs in storage order for one polarization sector."""
    return [(l, m) for l in range(l_min, l_max + 1) for m in range(-l, l + 1)]


def sector_size(l_max, l_min=1):
    return (l_max + 1) ** 2 - l_min**2


@lru_cache(maxsize=None)
def _real_basis(l):
    """Unitary U with R_{l mu} = sum_m U[mu, m] Y_lm (indices offset by l)."""
    n = 2 * l + 1
    u = np.zeros((n, n), complex)
    u[l, l] = 1.0
    rt = 1.0 / math.sqrt(2.0)
    for s in range(1, l + 1):
        u[l + s, l + s] = (-1) ** s * rt
        u[l + s, l - s] = rt
        u[l - s, l - s] = 1j * rt
        u[l - s, l + s] = -1j * (-1) ** s * rt
    return u


# ---------------------------------------------------------------------------
# kappa- and direction-independent coefficient tables

# The addition theorem at imaginary wavenumber reads, in the complex basis,
#   out_{lm}(x - d) = sum_{l'm'} S_{(lm)(l'm')} reg_{l'm'}(x),  |x| < |d|,
# with every coefficient a finite sum over lambda of
#   t_lambda = 4 pi (-1)^(l+m) sqrt((2l+1)(2l'+1)(2lam+1)/4pi)
#              * (l l' lam; 0 0 0) * (l l' lam; m -m' m'-m)
#              * k_lam(n kappa |d|) * Y_{lam, m-m'}(dhat).
# Scalar waves use t_lambda itself (lambda of the same parity as l+l').
# Vector waves mix polarizations:
#   same polarization: weight [l(l+1)+l'(l'+1)-lam(lam+1)] / (2 sqrt(..))
#       on even-parity lambda;
#   cross polarization: weight -sqrt((lam^2-(l-l')^2)((l+l'+1)^2-lam^2))
#       / (2 sqrt(..)) on odd-parity lambda, with the (l l' lam; 0 0 0)
#       symbol evaluated at lambda - 1.
# Both closed forms are certified against direct numerical projection of the
# translated waves (see the unit tests).


def _lambda_terms(l, lp, m, mp, kind):
    """List of (lam, coeff) for one matrix entry; coeff excludes k and Y."""
    root = math.sqrt((2 * l + 1) * (2 * lp + 1) / (4.0 * math.pi))
    phase = 4.0 * math.pi * (-1) ** (l + m)
    mu = m - mp
    out = []
    parity = (l + lp) % 2 if kind != "cross" else (l + lp + 1) % 2
    for lam in range(abs(l - lp), l + lp + 2):
        if lam % 2 != parity or lam > l + lp + (1 if kind == "cross" else 0):
            continue
        if abs(mu) > lam:
            continue
        if kind == "cross":
            if lam < 1 or not (abs(l - lp) <= lam - 1 <= l + lp):
                continue
            w0 = wigner3j(l, lp, lam - 1, 0, 0, 0)
        else:
            w0 = wigner3j(l, lp, lam, 0, 0, 0)
        if w0 == 0.0:
            continue
        wm = wigner3j(l, lp, lam, m, -mp, -mu)
        if wm == 0.0:
            continue
        coeff = phase * root * math.sqrt(2 * lam + 1) * w0 * wm
        if kind == "same":
            coeff *= (l * (l + 1) + lp * (lp + 1) - lam * (lam + 1)) / (
                2.0 * math.sqrt(l * (l + 1) * lp * (lp + 1))
            )
        elif kind == "cross":
            under = (lam**2 - (l - lp) ** 2) * ((l + lp + 1) ** 2 - lam**2)
            coeff *= -math.sqrt(under) / (
                2.0 * math.sqrt(l * (l + 1) * lp * (lp + 1))
            )
        out.append((lam, coeff))
    return out


@dataclass(frozen=True)
class _Table:
    """Flat, kappa- and direction-independent build recipe for one (l_max, spin).

    Every matrix entry (in the complex basis) is a sum of terms
    coeff * exp(log k_lam - s_block) * Y_{lam, mu}; the term arrays hold, per
    term, the entry it adds to, its (block, lambda) scale slot, its harmonic
    slot and its coefficient; the terms of one entry are contiguous, in
    ascending lambda.
    """

    n_kinds: int
    nb: int
    l_offsets: np.ndarray  # first sector row of each l (reduceat segments)
    top_lam: np.ndarray  # largest lambda of each (l, l') block
    slot_block: np.ndarray  # (block, lambda) slot -> block
    slot_lam: np.ndarray  # (block, lambda) slot -> lambda
    y_lam: np.ndarray  # every (lambda, mu) with lambda <= l_top
    y_mu: np.ndarray
    term_re_im: np.ndarray  # 2 * entry + (0, 1): bincount bins of a term
    term_slot: np.ndarray
    term_y: np.ndarray
    term_coeff: np.ndarray
    # real-basis change U over the sector: U[r, r] = u_diag[r] and
    # U[r, flip[r]] = u_flip[r], where flip maps m to -m within each l
    u_diag: np.ndarray
    u_flip: np.ndarray
    flip: np.ndarray
    layout: np.ndarray  # final entry -> index into [Re A, Im B, -Im B]
    entry_block: np.ndarray  # final entry -> (l, l') block index


@lru_cache(maxsize=8)
def _coeff_tables(l_max, spin):
    """The flat build recipe (:class:`_Table`) for one (l_max, spin).

    Kinds are (same,) for scalar and (same, cross) for vector waves.
    """
    l_min = 0 if spin == "scalar" else 1
    kinds = ("scalar",) if spin == "scalar" else ("same", "cross")
    l_top = 2 * l_max + (1 if spin == "vector" else 0)
    ls = range(l_min, l_max + 1)
    n_l = len(ls)
    nb = sector_size(l_max, l_min)
    l_offsets = np.array([l * l - l_min * l_min for l in ls])
    top_lam = np.zeros(n_l * n_l, int)
    slot_block, slot_lam = [], []
    entry, slot, ylm, coeff = [], [], [], []
    for l in ls:
        for lp in ls:
            block = (l - l_min) * n_l + (lp - l_min)
            r0, c0 = l * l - l_min * l_min + l, lp * lp - l_min * l_min + lp
            terms = [
                ((ik * nb + r0 + m) * nb + c0 + mp, lam, lam * lam + lam + m - mp, c)
                for m in range(-l, l + 1)
                for mp in range(-lp, lp + 1)
                for ik, kind in enumerate(kinds)
                for lam, c in _lambda_terms(l, lp, m, mp, kind)
            ]
            lams = sorted({lam for _, lam, _, _ in terms})
            pos = {lam: len(slot_lam) + j for j, lam in enumerate(lams)}
            slot_block.extend([block] * len(lams))
            slot_lam.extend(lams)
            top_lam[block] = lams[-1]
            for e, lam, y, c in terms:
                entry.append(e)
                slot.append(pos[lam])
                ylm.append(y)
                coeff.append(c)
    y_lam = np.repeat(np.arange(l_top + 1), 2 * np.arange(l_top + 1) + 1)
    y_mu = np.arange(y_lam.size) - y_lam * y_lam - y_lam

    u = np.zeros((nb, nb), complex)
    flip = np.zeros(nb, int)
    for l, off in zip(ls, l_offsets):
        n = 2 * l + 1
        u[off : off + n, off : off + n] = _real_basis(l)
        flip[off : off + n] = off + np.arange(n)[::-1]
    u_diag = np.diagonal(u).copy()
    u_flip = np.where(flip != np.arange(nb), u[np.arange(nb), flip], 0.0)
    blocks = np.repeat(np.arange(n_l), 2 * np.arange(l_min, l_max + 1) + 1)
    entry_block = blocks[:, None] * n_l + blocks[None, :]
    rows = np.arange(nb)[:, None] * nb
    cols = np.arange(nb)[None, :]
    if spin == "scalar":
        layout = rows + cols
    else:
        # electric sector first; magnetic labels refer to R_{l,-m} and carry
        # the relative factor i, which makes all four sector blocks real:
        # EE = Re A, EM = Re(-i B flip_cols) = Im B flip_cols,
        # ME = Re(i flip_rows B) = -Im flip_rows B, MM = Re A flipped both ways
        frows = flip[:, None] * nb
        fcols = flip[None, :]
        layout = np.block(
            [[rows + cols, nb * nb + rows + fcols], [2 * nb * nb + frows + cols, frows + fcols]]
        )
        entry_block = np.tile(entry_block, (2, 2))
    entry = np.asarray(entry)
    return _Table(
        n_kinds=len(kinds),
        nb=nb,
        l_offsets=l_offsets,
        top_lam=top_lam,
        slot_block=np.asarray(slot_block),
        slot_lam=np.asarray(slot_lam),
        y_lam=y_lam,
        y_mu=y_mu,
        term_re_im=(2 * entry[:, None] + np.arange(2)).ravel(),
        term_slot=np.asarray(slot),
        term_y=np.asarray(ylm),
        term_coeff=np.asarray(coeff),
        u_diag=u_diag,
        u_flip=u_flip,
        flip=flip,
        layout=layout,
        entry_block=entry_block,
    )


# ---------------------------------------------------------------------------
# Matrix construction


@dataclass(frozen=True)
class TranslationMatrix:
    """Outgoing-to-regular wave conversion across a displacement.

    True entries equal ``scaled * exp(exponent)``; the split keeps small-
    wavenumber matrices representable.  ``spin`` is "vector" (two
    polarization sectors, electric first) or "scalar".
    """

    kappa: float
    displacement: np.ndarray
    l_max: int
    scaled: np.ndarray
    exponent: np.ndarray
    spin: str = "vector"

    @property
    def dim(self):
        return self.scaled.shape[0]

    def dense(self):
        """Plain float entries (overflows to inf outside float64 range)."""
        with np.errstate(over="ignore"):
            return self.scaled * np.exp(self.exponent)

    def signed_log(self):
        """(sign, log|entry|) arrays; log of a zero entry is -inf."""
        with np.errstate(divide="ignore"):
            return np.sign(self.scaled), np.log(np.abs(self.scaled)) + self.exponent


def _direction(d):
    d = np.asarray(d, float)
    c = float(np.linalg.norm(d))
    if c == 0.0:
        raise GeometryError("translation displacement must be nonzero")
    theta = math.acos(max(-1.0, min(1.0, d[2] / c)))
    phi = math.atan2(d[1], d[0])
    return d, c, theta, phi


def _block_max(a, offsets):
    """Maximum of each (l, l') block of the trailing two axes."""
    return np.maximum.reduceat(np.maximum.reduceat(a, offsets, axis=-2), offsets, axis=-1)


def _to_real_basis(tab, a):
    """U a U^dagger over the trailing two axes, using that U has at most two
    nonzero entries per row."""
    b = tab.u_diag[:, None] * a + tab.u_flip[:, None] * a[..., tab.flip, :]
    return b * tab.u_diag.conj() + b[..., tab.flip] * tab.u_flip.conj()


def _build(medium, kappa, d, l_max, spin):
    d, c, theta, phi = _direction(d)
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    x = medium.refractive_index(kappa) * kappa * c
    l_top = 2 * l_max + (1 if spin == "vector" else 0)
    logk = log_bessel_k_array(l_top, x)
    tab = _coeff_tables(l_max, spin)

    # k_lam grows with lam, so the largest lambda of a block sets its scale
    s = logk[tab.top_lam]
    kv = np.exp(logk[tab.slot_lam] - s[tab.slot_block])
    y = sph_harm_y(tab.y_lam, tab.y_mu, theta, phi)
    terms = (tab.term_coeff * kv[tab.term_slot]) * y[tab.term_y]
    nb = tab.nb
    a = np.bincount(
        tab.term_re_im, weights=terms.view(float), minlength=2 * tab.n_kinds * nb * nb
    ).view(complex)
    r = _to_real_basis(tab, a.reshape(tab.n_kinds, nb, nb))

    offsets = tab.l_offsets
    if spin == "scalar":
        size = _block_max(np.abs(r[0]), offsets)
        bad = _block_max(np.abs(r[0].imag), offsets) > 1e-10 * np.maximum(1.0, size)
        src = r[0].real
    else:
        a_r, b_r = r
        scale = np.maximum(_block_max(np.abs(r), offsets).max(axis=0), 1e-300)
        leak = _block_max(np.stack([np.abs(a_r.imag), np.abs(b_r.real)]), offsets)
        bad = leak.max(axis=0) > 1e-9 * scale
        src = np.concatenate([a_r.real.ravel(), b_r.imag.ravel(), -b_r.imag.ravel()])
    if bad.any():
        raise RuntimeError("real-basis entries acquired imaginary parts")
    return TranslationMatrix(
        kappa=float(kappa),
        displacement=d,
        l_max=l_max,
        scaled=src.ravel()[tab.layout],
        exponent=s[tab.entry_block],
        spin=spin,
    )


def reverse_translation(x):
    """Translation matrix for -d from the one for +d (exact reciprocity).

    X(-d) = D X(d)^T D, with D = +1 on the electric sector and -1 on the
    magnetic sector for vector waves, and D = 1 for scalar waves.  Applied
    to a displacement gradient dX/dd_i at d it gives minus that gradient
    at -d.
    """
    d_sign = np.ones(x.dim)
    if x.spin == "vector":
        d_sign[x.dim // 2 :] = -1.0
    return TranslationMatrix(
        kappa=x.kappa,
        displacement=-x.displacement,
        l_max=x.l_max,
        scaled=d_sign[:, None] * x.scaled.T * d_sign[None, :],
        exponent=x.exponent.T.copy(),
        spin=x.spin,
    )


def translation_matrix(medium, kappa, d, l_max):
    """Vector-wave translation matrix for displacement ``d``.

    Converts outgoing waves about the point ``d`` into regular waves about
    the origin, at imaginary wavenumber n_M kappa.
    """
    return _build(medium, kappa, d, l_max, "vector")


def scalar_translation_matrix(medium, kappa, d, l_max):
    """Scalar-wave reduction of the translation matrix (validation aid).

    Contracting these coefficients with regular/outgoing scalar waves
    reproduces the closed-form medium Green's function
    exp(-n kappa |x - x'|) / (4 pi |x - x'|).
    """
    return _build(medium, kappa, d, l_max, "scalar")


def _combine(mats, weights):
    """Weighted sum of equally-shaped scaled matrices, rescaled safely."""
    exponent = np.maximum.reduce([m.exponent for m in mats])
    scaled = np.zeros_like(mats[0].scaled)
    for w, m in zip(weights, mats):
        scaled += w * m.scaled * np.exp(m.exponent - exponent)
    ref = mats[0]
    return TranslationMatrix(
        kappa=ref.kappa,
        displacement=ref.displacement,
        l_max=ref.l_max,
        scaled=scaled,
        exponent=exponent,
        spin=ref.spin,
    )


def translation_gradient(medium, kappa, d, l_max, h, richardson=False, spin="vector"):
    """Displacement gradient (dX/dd_x, dX/dd_y, dX/dd_z) of the matrix.

    Central finite differences with step ``h``; with ``richardson`` the
    half-step evaluation is combined to cancel the leading error term.
    """
    d = np.asarray(d, float)
    dist = float(np.linalg.norm(d))
    if dist == 0.0:
        raise GeometryError("translation displacement must be nonzero")
    if h >= 0.1 * dist:
        raise ToleranceError("finite-difference step must be below 0.1*|d|")
    if h <= 1e-8 * dist:
        raise ToleranceError("finite-difference step underflows below 1e-8*|d|")

    def central(step):
        grads = []
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step
            plus = _build(medium, kappa, d + e, l_max, spin)
            minus = _build(medium, kappa, d - e, l_max, spin)
            grads.append(_combine([plus, minus], [0.5 / step, -0.5 / step]))
        return grads

    grads = central(h)
    if richardson:
        half = central(0.5 * h)
        grads = [
            _combine([g2, g1], [4.0 / 3.0, -1.0 / 3.0])
            for g1, g2 in zip(grads, half)
        ]
    return tuple(grads)
