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
with one natural-log ``exponent`` per (sector, l) x (sector', l') band,
log k_(l+l'): k_lambda grows with lambda, and l + l' is the largest lambda
of every band, since (l l' l+l'; m -m 0) never vanishes.  The true entry is
``scaled * exp(exponent)``, which :meth:`TranslationMatrix.dense` forms.

Construction
------------
Every build starts from the matrix of a displacement along +z.  There
Y_{lambda, m - m'}(theta = 0) vanishes unless m = m', and
Y_{lambda 0}(0) = sqrt((2 lambda + 1) / 4 pi), so one flat table per
(l_max, spin) holds the m = m' terms alone (4,148 at l_max 8): the entry
each adds to, its (l + l', lambda) scale slot and its coefficient.  It is
whole-array work: one :func:`~casimir_stability.specfun.wigner3j_rows` call
gives (l l' lambda; m -m 0) for every pair and lambda, a second the
(l l' lambda; 0 0 0) of every block, and the parity of l + l' + lambda
assigns each nonzero symbol its polarization kind; pairs go in chunks of
fixed size into term arrays allocated once at an upper bound.  A +z build
is then real arithmetic, for one kappa or a 1-D array of them: the band
exponents as one gather, one weighted bincount over the terms of every
kappa (bins offset by row), and one gather into the sector layout, which
applies the signs and m-reversals the real basis reduces to on the axis.
Each term is coefficient * k_lambda, so every row of a batched build equals
the single-kappa build bit for bit.  All a build takes from kappa, beyond
its value, is one row of log k_lambda(n kappa |d|) per kappa
(:func:`_bessel_rows`); a caller that builds one displacement chunk after
chunk of a grid makes the rows of the whole grid once and hands each build
its slice.

Any other d is the +z build at |d| in a rotated frame, X(d) = Q X(|d| z) Q^T
(Gumerov & Duraiswami, SIAM J. Sci. Comput. 25, 1344 (2003)), with Q
block-diagonal over (sector, l): the real-harmonic rotation D^l turning z
into d/|d| on the electric sector, its m-reversed copy on the magnetic one.
D^l comes from the 3 x 3 frame of d/|d| by the Ivanic-Ruedenberg recursion
(J. Phys. Chem. 100, 6342 (1996); erratum 102, 9099 (1998)), whole-array
work per l, once per direction: a :func:`_displacement` holds it, and a
caller that builds one displacement at many kappas, chunk after chunk,
prepares it once and hands it to every build.  Q does not mix l, so each
band keeps its exponent.  X Q^T takes one product per entry, since the +z
rows have one entry per band; Q (X Q^T) one matrix product per l, for every
kappa at once.  A displacement along +z takes no rotation.

Reciprocity
-----------
X(-d) = D X(d)^T D (D = +1 on the electric and -1 on the magnetic sector),
so a pair of objects needs only one build per wavenumber.  The energy
assembly applies that image to its balanced blocks as signs;
:func:`reverse_translation` applies it to a whole matrix, for the oracles.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GeometryError, ToleranceError, _finite, _finite_array, _order
from .materials import _per_kappa
from .specfun import log_bessel_k_array, wigner3j_rows
# not called here: the benchmark tracer (perfbench/spans.py) wraps this name
from .specfun import wigner3j  # noqa: F401

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
    Only the tests evaluate it, so scipy is imported here, not with the
    package.
    """
    from scipy.special import sph_harm_y

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
    kappa = _finite(kappa, "kappa")
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


def _band_of(l_max, spin="vector"):
    """The (sector, l) band of every basis label: each band repeated 2l + 1 times."""
    l_min, n_sec = (0, 1) if spin == "scalar" else (1, 2)
    reps = np.tile(2 * np.arange(l_min, l_max + 1) + 1, n_sec)
    return np.repeat(np.arange(reps.size), reps)


def _real_basis(l):
    """Unitary U with R_{l mu} = sum_m U[mu, m] Y_lm (indices offset by l).

    The builds never form it; the validation oracles change basis with it.
    """
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
# translated waves (see the unit tests).  Along +z only m = m' survives, and
# 4 pi sqrt((2lam+1)/4pi) Y_{lam 0}(0) = 2lam + 1.


@dataclass(frozen=True)
class _Table:
    """Flat, kappa-independent recipe of the +z build for one (l_max, spin).

    Every m = m' entry of a sector pair (the pairs (p, q) with m_p = m_q,
    row-major) is a sum of terms coeff * exp(log k_lam - log k_top), top =
    l + l'; the term arrays hold, per term, its entry, its (top, lambda)
    scale slot top (top + 1) / 2 + lambda and its coefficient.
    """

    n_kinds: int
    n_entries: int
    slot_top: np.ndarray  # (top, lambda) slot -> top
    slot_lam: np.ndarray  # (top, lambda) slot -> lambda
    term_entry: np.ndarray  # kind * n_entries + entry: the bincount bin
    term_slot: np.ndarray
    term_coeff: np.ndarray
    band_top: np.ndarray  # l + l' of each (sector, l) x (sector', l') band
    # final entry -> index into [same, cross, -cross, 0] (the zero: m != m')
    source: np.ndarray
    # (X Q^T)[r, c] = X[r, c0] Q[c, c0], c0 the column of r's label in c's
    # band: the two read from [same, cross, -cross, 0] and [D^l raveled, 0]
    turn_source: np.ndarray
    turn_at: np.ndarray
    turn_h: tuple  # the Ivanic-Ruedenberg steps to l = 2, ..., l_max
    turn_p: tuple  # (see _turn_step)


# sector pairs enumerated at once while building a table: bounds the
# (pair, lambda) work arrays, which would otherwise grow like l_max^4
_PAIR_CHUNK = 1 << 13


def _turn_step(l):
    """The Ivanic-Ruedenberg step from D^{l-1} to D^l, as two matrices.

    D^l = sum_i H_i D^{l-1} K_i over i = -1, 0, 1, with K_i the sum over j of
    D^1[i, j] P_j.  ``h`` stacks the H_i as rows (m, i) and ``p`` the P_j
    as rows j; P_j carries the 1/sqrt(denominator) of its column.  H holds
    the recursion's u U + v V + w W terms, P its edge rule at |m'| = l.
    """
    m = np.arange(-l, l + 1)
    am, pos = np.abs(m), m > 0
    h = np.zeros((2 * l + 1, 3, 2 * l - 1))

    def add(i, a, coeff, where=slice(None)):
        h[(m + l)[where], i + 1, (a + l - 1)[where]] += coeff[where]

    u = np.sqrt(np.maximum((l + m) * (l - m), 0.0))
    v = 0.5 * np.sqrt((1.0 + (m == 0)) * (l + am - 1) * (l + am)) * np.where(m == 0, -1.0, 1.0)
    w = -0.5 * np.sqrt(np.maximum((l - am - 1) * (l - am), 0.0))
    s = np.where(pos, 1, -1)
    add(0, m, u, am < l)
    add(1, m - s, v * np.where(pos, np.sqrt(1.0 + (m == 1)), 1.0 - (m == -1)))
    add(-1, s - m, v * np.where(pos, (m == 1) - 1.0, np.sqrt(1.0 + (m == -1))))
    add(1, m + s, w, (m != 0) & (am < l - 1))
    add(-1, -m - s, w * s, (m != 0) & (am < l - 1))

    denominator = np.where(am < l, (l + m) * (l - m), 2 * l * (2 * l - 1))
    p = np.zeros((3, 2 * l - 1, 2 * l + 1))
    p[1, :, 1:-1] = np.eye(2 * l - 1)
    p[2, -1, -1], p[0, 0, -1], p[2, 0, 0], p[0, -1, 0] = 1.0, -1.0, 1.0, 1.0
    p /= np.sqrt(denominator)
    return h.reshape(-1, 2 * l - 1), p.reshape(3, -1)


@lru_cache(maxsize=8)
def _coeff_tables(l_max, spin):
    """The :class:`_Table` of kinds (same,) for scalar, (same, cross) for vector waves."""
    l_min = 0 if spin == "scalar" else 1
    n_kinds = 1 if spin == "scalar" else 2
    l_top = 2 * l_max + (1 if spin == "vector" else 0)
    ls = np.arange(l_min, l_max + 1)
    n_l = ls.size
    nb = sector_size(l_max, l_min)
    sector_l = np.repeat(ls, 2 * ls + 1)
    sector_m = np.arange(nb) - sector_l * sector_l + l_min * l_min - sector_l

    # the m = m' entries (row p, column q) of one sector pair, row-major
    p, q = np.nonzero(sector_m[:, None] == sector_m[None, :])
    n_e = p.size
    entry_of = np.full((nb, nb), -1)
    entry_of[p, q] = np.arange(n_e)

    # the rest of a coefficient depends on (block, kind, lambda) only:
    # (2lam+1) sqrt((2l+1)(2l'+1)) (l l' lam; 0 0 0) and the kind's weight,
    # the cross kind taking its (0 0 0) symbol at lambda - 1
    b_l, b_lp = np.divmod(np.arange(n_l * n_l), n_l)
    z_lam0, z = wigner3j_rows(b_l + l_min, b_lp + l_min, 0, 0)
    w0 = np.zeros((n_l * n_l, l_top + 2))  # column lambda + 1 holds lambda
    zb, zk = np.nonzero(z)
    w0[zb, z_lam0[zb] + zk + 1] = z[zb, zk]
    b_l, b_lp, lam_b = b_l[:, None] + l_min, b_lp[:, None] + l_min, np.arange(l_top + 1)
    root = (2 * lam_b + 1) * np.sqrt((2 * b_l + 1) * (2 * b_lp + 1))
    factor = np.stack([root * w0[:, 1:], root * w0[:, :-1]], axis=1)
    if spin == "vector":
        norm = 2.0 * np.sqrt(b_l * (b_l + 1) * b_lp * (b_lp + 1))
        factor[:, 0] *= (b_l * (b_l + 1) + b_lp * (b_lp + 1) - lam_b * (lam_b + 1)) / norm
        under = (lam_b**2 - (b_l - b_lp) ** 2) * ((b_l + b_lp + 1) ** 2 - lam_b**2)
        factor[:, 1] *= -np.sqrt(np.maximum(under, 0)) / norm

    # the terms, pair by pair in chunks.  A pair has at most one term per
    # lambda of its triangle, so the fields are allocated at that bound and
    # filled in place: the terms are never held twice, and the bound's
    # unused tail is never touched
    bound = int(np.sum(sector_l[p] + sector_l[q] + 1 - np.abs(sector_l[p] - sector_l[q])))
    term_entry, term_slot = np.empty(bound, int), np.empty(bound, int)
    term_coeff = np.empty(bound)
    n_terms = 0
    for start in range(0, n_e, _PAIR_CHUNK):
        pc, qc = p[start : start + _PAIR_CHUNK], q[start : start + _PAIR_CHUNK]
        l, lp, m = sector_l[pc], sector_l[qc], sector_m[pc]
        # (l l' lam; m -m 0) with the phase (-1)^(l+m), for every pair;
        # (l l' lam; 0 0 0) vanishes only at odd l + l' + lam, so parity
        # selects the kind of each nonzero symbol: same (or scalar) at even,
        # cross at odd
        lam0, wm = wigner3j_rows(l, lp, m, -m)
        wm[(l + m) % 2 == 1] *= -1.0
        odd = ((l + lp + lam0) % 2 == 1)[:, None] ^ (np.arange(wm.shape[1]) % 2 == 1)
        live = wm != 0.0
        if spin == "scalar":
            t, k = np.nonzero(live & ~odd)
            kind = np.zeros_like(t)
        else:
            # in the order pair, kind, lambda
            t, kind, k = np.nonzero(np.stack([live & ~odd, live & odd], axis=1))
        lam = lam0[t] + k
        top = l[t] + lp[t]
        now = slice(n_terms, n_terms + t.size)
        term_entry[now] = kind * n_e + start + t
        term_slot[now] = top * (top + 1) // 2 + lam
        term_coeff[now] = factor[(l[t] - l_min) * n_l + lp[t] - l_min, kind, lam] * wm[t, k]
        n_terms = now.stop

    # final layout: where every entry is read from in [same, cross, -cross, 0]
    if spin == "scalar":
        source, shift = entry_of, 0
    else:
        # electric sector first.  The magnetic labels refer to R_{l,-m} and
        # carry the relative factor i, so on the axis the real basis gives
        # EE = same, EM = cross, ME = -cross and MM = same, the magnetic
        # rows and columns read at -m
        flip = sector_l * sector_l - l_min * l_min + sector_l - sector_m
        flipped = entry_of[flip][:, flip]
        source = np.block([[entry_of, entry_of], [flipped, flipped]])
        zero = np.zeros((nb, nb), int)
        shift = np.block([[zero, zero + n_e], [zero + 2 * n_e, zero]])
    source = np.where(source >= 0, source + shift, (2 * n_kinds - 1) * n_e)

    label, l_of = np.tile(sector_m, n_kinds), np.tile(sector_l, n_kinds)
    live = np.abs(label)[:, None] <= l_of
    c0 = np.where(live, np.arange(label.size) - label + label[:, None], 0)
    turn_source = np.where(live, np.take_along_axis(source, c0, axis=1), (2 * n_kinds - 1) * n_e)
    # Q[c, c0] is D^l[label_c, label_r] at c's l, where D^l starts in the
    # raveled list; the magnetic sector reads the m-reversed copy of D^l
    sign = np.repeat([1, -1][:n_kinds], nb)
    start = np.cumsum((2 * ls + 1) ** 2) - (2 * ls + 1) ** 2
    row = start[l_of - l_min] + (sign * label + l_of) * (2 * l_of + 1) + l_of
    turn_at = np.where(live, row + sign * label[:, None], start[-1] + (2 * l_max + 1) ** 2)
    turns = [_turn_step(l) for l in range(2, l_max + 1)]
    slot_top, slot_lam = np.tril_indices(l_top + 1)
    return _Table(
        n_kinds=n_kinds,
        n_entries=n_e,
        slot_top=slot_top,
        slot_lam=slot_lam,
        term_entry=term_entry[:n_terms],
        term_slot=term_slot[:n_terms],
        term_coeff=term_coeff[:n_terms],
        band_top=np.add.outer(np.tile(ls, n_kinds), np.tile(ls, n_kinds)),
        source=source,
        turn_source=turn_source,
        turn_at=turn_at,
        turn_h=tuple(h for h, _ in turns),
        turn_p=tuple(p for _, p in turns),
    )


# ---------------------------------------------------------------------------
# Matrix construction


@dataclass(frozen=True)
class TranslationMatrix:
    """Outgoing-to-regular wave conversion across a displacement.

    True entries equal ``scaled * exp(exponent)``; the split keeps small-
    wavenumber matrices representable.  ``exponent`` is the symmetric band
    matrix log k_(l+l') (order 2 l_max for vector, l_max + 1 for scalar
    waves), repeated over the labels of a band (:func:`_band_of`) to meet
    ``scaled``.  ``spin`` is "vector" (two polarization sectors, electric
    first) or "scalar".  Built for an array of kappa, ``kappa`` is that
    array and both carry a leading kappa axis.  Built for chosen
    ``entries``, a (rows, cols) pair of index arrays, ``scaled`` holds those
    entries along its last axis, and the matrix has no ``dim`` or ``dense``.
    """

    kappa: float | np.ndarray
    displacement: np.ndarray
    l_max: int
    scaled: np.ndarray
    exponent: np.ndarray
    spin: str = "vector"
    entries: tuple | None = None

    def _whole(self):
        if self.entries is not None:
            raise ValueError("a translation built for chosen entries has no dense form")

    @property
    def dim(self):
        self._whole()
        return self.scaled.shape[-1]

    def dense(self):
        """Plain float entries (overflows to inf outside float64 range).

        Only the nonzero ``scaled`` entries are multiplied, so a structural
        zero stays 0 where its band's exp(exponent) overflows.
        """
        self._whole()
        band = _band_of(self.l_max, self.spin)
        with np.errstate(over="ignore"):
            scale = np.exp(self.exponent)[..., band[:, None], band]
            return np.multiply(self.scaled, scale, out=self.scaled.copy(), where=self.scaled != 0.0)


def _direction(d):
    """``d`` as floats, |d|, and the frame whose third column is d/|d|.

    The frame is None along +z, where a build takes no rotation; it is
    R_z(phi) R_y(theta), taken from the components of d.
    """
    d = np.asarray(d, float)
    c = float(np.linalg.norm(d))
    if c == 0.0:
        raise GeometryError("translation displacement must be nonzero")
    if d[0] == 0.0 and d[1] == 0.0 and d[2] > 0.0:
        return d, c, None
    rho = math.hypot(d[0], d[1])
    cos_p, sin_p = (d[0] / rho, d[1] / rho) if rho > 0.0 else (1.0, 0.0)
    cos_t, sin_t = d[2] / c, rho / c
    return d, c, np.array(
        [[cos_p * cos_t, -sin_p, cos_p * sin_t], [sin_p * cos_t, cos_p, sin_p * sin_t], [-sin_t, 0.0, cos_t]]
    )


def _rotations(frame, tab):
    """D^0, ..., D^l_max of ``frame``: R_l(frame x) = D^l R_l(x) on the unit
    sphere, R_l the real harmonics (m = -l..l) of :func:`real_sph_harm`."""
    yzx = [1, 2, 0]  # R_{1,-1}, R_10, R_11 go as y, z, x
    r1 = frame[np.ix_(yzx, yzx)]
    out = [np.ones((1, 1)), r1]
    for h, p in zip(tab.turn_h, tab.turn_p):
        l = len(out)
        he = (h @ out[-1]).reshape(2 * l + 1, -1)
        out.append(he @ (r1 @ p).reshape(he.shape[1], -1))
    return out


@dataclass(frozen=True)
class _Displacement:
    """A displacement prepared for builds at one (l_max, spin).

    ``turn`` is None along +z; else it holds Q (see :func:`_rotate`): the
    raveled D^l list, zero-padded, and per l the stack of D^l and, on the
    magnetic sector, its m-reversed copy.  It depends on d/|d| alone, so
    one serves every kappa.
    """

    d: np.ndarray
    length: float
    l_max: int
    spin: str
    turn: tuple | None


def _displacement(d, l_max, spin="vector"):
    """``d`` with its length and rotation, made once for any number of builds."""
    l_min, n_sec = (0, 1) if spin == "scalar" else (1, 2)
    d, c, frame = _direction(d)
    _order(l_max, "l_max", l_min)
    if frame is None:
        return _Displacement(d, c, l_max, spin, None)
    rotations = _rotations(frame, _coeff_tables(l_max, spin))[l_min : l_max + 1]
    flat = np.concatenate([r.ravel() for r in rotations] + [np.zeros(1)])
    stacks = tuple(np.array([r, r[::-1, ::-1]][:n_sec]) for r in rotations)
    return _Displacement(d, c, l_max, spin, (flat, stacks))


def _rotate(src, turn, tab, spin):
    """Q X Q^T for the +z matrices X whose entries ``src`` holds (see
    :func:`_build`), Q block-diagonal over (sector, l): the rotations of
    ``turn`` (a :class:`_Displacement`'s) on the electric sector, their
    m-reversed copies on the magnetic one."""
    l_min, n_sec = (0, 1) if spin == "scalar" else (1, 2)
    flat, stacks = turn
    half = src.take(tab.turn_source, axis=-1) * flat.take(tab.turn_at)
    out = np.empty_like(half)
    n, dim = half.shape[0], half.shape[-1]
    half_rows, out_rows = (a.reshape(n, n_sec, dim // n_sec, dim) for a in (half, out))
    for l, q in enumerate(stacks, l_min):
        band = slice(l * l - l_min * l_min, (l + 1) ** 2 - l_min * l_min)
        out_rows[:, :, band] = q @ half_rows[:, :, band]
    return out


def _bessel_rows(medium, kappa, d):
    """log k_0, ..., log k_top of n_M kappa |d|, one row per kappa: all that a
    build of the prepared displacement ``d`` (:func:`_displacement`) takes
    from kappa beyond its own value.  top = 2 l_max + 1 for vector and
    2 l_max for scalar waves; each row equals the one-kappa call's bit for
    bit, so a slice of a grid's rows serves a build of that slice.
    """
    kappas = np.array(_finite_array(kappa, "kappa"), ndmin=1)
    x = _per_kappa(medium.refractive_index, kappas) * kappas * d.length
    return log_bessel_k_array(2 * d.l_max + (1 if d.spin == "vector" else 0), x)


def _build(medium, kappa, d, l_max, spin, entries=None, log_k=None):
    """The matrix for one displacement at one kappa or a 1-D array of them.

    The terms of every kappa are summed into the +z entries by one bincount
    whose bins are offset by row; a displacement off +z then rotates that
    matrix, with one rotation for every kappa.  ``d`` is a vector or a
    :func:`_displacement` prepared for this (l_max, spin), whose rotation is
    then not made again; ``log_k``, its :func:`_bessel_rows` at these
    kappas, is likewise not made again.  ``entries``, a (rows, cols) pair of
    index arrays, keeps only those entries of the final matrix.
    """
    if not isinstance(d, _Displacement):
        d = _displacement(d, l_max, spin)
    elif (d.l_max, d.spin) != (l_max, spin):
        raise ValueError(
            f"a displacement prepared at ({d.spin}, l_max {d.l_max}) is built at ({spin}, l_max {l_max})"
        )
    if log_k is None:
        log_k = _bessel_rows(medium, kappa, d)
    kappas = np.array(kappa, float, ndmin=1)
    tab = _coeff_tables(l_max, spin)

    # k_lam grows with lam, so l + l', the largest lambda of a band, sets its scale
    kv = np.exp(log_k.take(tab.slot_lam, axis=-1) - log_k.take(tab.slot_top, axis=-1))
    terms = kv.take(tab.term_slot, axis=-1)
    terms *= tab.term_coeff
    n, width = kappas.size, tab.n_kinds * tab.n_entries
    bins = tab.term_entry if n == 1 else (tab.term_entry + width * np.arange(n)[:, None]).ravel()
    a = np.bincount(bins, weights=terms.ravel(), minlength=n * width).reshape(n, width)
    src = np.concatenate([a, -a[:, tab.n_entries :], np.zeros((n, 1))], axis=-1)
    if d.turn is None:
        scaled = src.take(tab.source if entries is None else tab.source[entries], axis=-1)
    else:
        scaled = _rotate(src, d.turn, tab, spin)
        if entries is not None:
            scaled = scaled[:, entries[0], entries[1]]
    exponent = log_k.take(tab.band_top, axis=-1)
    if np.ndim(kappa) == 0:
        kappas, scaled, exponent = float(kappa), scaled[0], exponent[0]
    return TranslationMatrix(kappas, d.d, l_max, scaled, exponent, spin, entries)


def reverse_translation(x):
    """Translation matrix for -d from the one for +d (exact reciprocity).

    X(-d) = D X(d)^T D, with D = +1 on the electric sector and -1 on the
    magnetic sector for vector waves, and D = 1 for scalar waves.  Applied
    to a displacement gradient dX/dd_i at d it gives minus that gradient
    at -d.  A leading kappa axis is kept, and the symmetric band exponent
    is shared with ``x``.
    """
    d_sign = np.ones(x.dim)
    if x.spin == "vector":
        d_sign[x.dim // 2 :] = -1.0
    return TranslationMatrix(
        kappa=x.kappa,
        displacement=-x.displacement,
        l_max=x.l_max,
        scaled=d_sign[:, None] * np.swapaxes(x.scaled, -1, -2) * d_sign[None, :],
        exponent=x.exponent,
        spin=x.spin,
    )


def translation_matrix(medium, kappa, d, l_max, entries=None, log_k=None):
    """Vector-wave translation matrix for displacement ``d``.

    Converts outgoing waves about the point ``d`` into regular waves about
    the origin, at imaginary wavenumber n_M kappa.  ``kappa`` may be a 1-D
    array (one matrix per kappa, along a leading axis), and ``entries``, a
    (rows, cols) pair of index arrays, limits the build to those entries;
    a single kappa with every entry is the one-row view of that build.
    ``d`` may be a :func:`_displacement` prepared at this ``l_max``, and
    ``log_k`` its :func:`_bessel_rows` at ``kappa``.
    """
    return _build(medium, kappa, d, l_max, "vector", entries, log_k)


def scalar_translation_matrix(medium, kappa, d, l_max):
    """Scalar-wave reduction of the translation matrix (validation aid).

    Contracting these coefficients with regular/outgoing scalar waves
    reproduces the closed-form medium Green's function
    exp(-n kappa |x - x'|) / (4 pi |x - x'|).
    """
    return _build(medium, kappa, d, l_max, "scalar")


def _combine(mats, weights):
    """Weighted sum of equally-shaped scaled matrices, rescaled safely."""
    ref = mats[0]
    exponent = np.maximum.reduce([m.exponent for m in mats])
    band = _band_of(ref.l_max, ref.spin)
    scaled = np.zeros_like(ref.scaled)
    for w, m in zip(weights, mats):
        scaled += w * m.scaled * np.exp(m.exponent - exponent)[..., band[:, None], band]
    return TranslationMatrix(
        kappa=ref.kappa,
        displacement=ref.displacement,
        l_max=ref.l_max,
        scaled=scaled,
        exponent=exponent,
        spin=ref.spin,
    )


def translation_gradient(medium, kappa, d, l_max, h, richardson=False):
    """Displacement gradient (dX/dd_x, dX/dd_y, dX/dd_z) of the vector matrix.

    A validation aid with no caller in the package: the stability report
    differentiates whole I - N matrices instead, and the tests check its
    decomposition against a reference built on this gradient.  Central
    finite differences with step ``h``; with ``richardson`` the half-step
    evaluation is combined to cancel the leading error term.
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
            plus = _build(medium, kappa, d + e, l_max, "vector")
            minus = _build(medium, kappa, d - e, l_max, "vector")
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
