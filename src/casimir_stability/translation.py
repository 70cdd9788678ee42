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
the index permutations of the electric/magnetic sector layout.  The table is
itself whole-array work: every (l, l', m, m') of a sector pair is enumerated
at once, one :func:`~casimir_stability.specfun.wigner3j_rows` call gives
(l l' lambda; m -m' mu) for all of them and every lambda (the three-term
recursion in lambda), a second gives the (l l' lambda; 0 0 0) of every
block, and the parity of l + l' + lambda assigns each nonzero symbol its
polarization kind.  The pairs are enumerated in chunks of fixed size, and
the term arrays are allocated once at an upper bound and filled in place,
so the work arrays stay small next to the table.  A build is then
whole-array work as well, for one kappa or a 1-D array of them: one
``sph_harm_y`` call over all (lambda, mu), once per displacement, the block
exponents as one gather, one real weighted bincount over the terms of every
kappa (each kappa's entries in bins of their own, offset by row), U A
U^dagger with U block-diagonal over the whole sector, and one gather into
the sector layout, of every entry or of the chosen ``entries`` alone.  Each
term is (coefficient * k_lambda) * Y, in that order, so every row of a
batched build equals the single-kappa build bit for bit.

A displacement along +z (d_x = d_y = 0 < d_z) uses a second, coaxial
table.  There Y_{lambda, m - m'}(theta = 0) vanishes unless m = m', so the
table enumerates only those pairs, reads only the mu = 0 harmonics, and
changes basis only on the entries with |m| = |m'| that U mixes them into.
Its build is bitwise the general table's build of the same displacement,
from a fraction of the terms (4,148 instead of 46,244 at l_max 8).  It is
what makes the m-block ln det of collinear configurations cheap.

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


@dataclass(frozen=True)
class _Table:
    """Flat, kappa- and direction-independent build recipe for one (l_max, spin).

    Every matrix entry (in the complex basis) is a sum of terms
    coeff * exp(log k_lam - s_block) * Y_{lam, mu}; the term arrays hold, per
    term, the entry it adds to, its (block, lambda) scale slot, its harmonic
    slot and its coefficient; the terms of one entry are contiguous, in
    ascending lambda.  The entries are the sector pairs (p, q) the build
    fills, in row-major order: all of them, or for the coaxial table those
    with |m_p| = |m_q| (its terms have m_p = m_q, and the real-basis change
    mixes m with -m).
    """

    n_kinds: int
    nb: int
    top_lam: np.ndarray  # largest lambda of each (l, l') block
    slot_block: np.ndarray  # (block, lambda) slot -> block
    slot_lam: np.ndarray  # (block, lambda) slot -> lambda
    y_lam: np.ndarray  # the (lambda, mu) harmonics the terms read
    y_mu: np.ndarray
    term_re_im: np.ndarray  # 2 * (kind * entries + entry) + (0, 1): bincount bins
    term_slot: np.ndarray
    term_y: np.ndarray
    term_coeff: np.ndarray
    check_order: np.ndarray  # the entries grouped by (l, l') block
    block_start: np.ndarray  # where each block starts in check_order
    # real-basis change U over the sector, per entry (p, q): U[p, p] and
    # U[p, flip p] (flip maps m to -m within each l), the conjugates of
    # U[q, q] and U[q, flip q], and the entries (flip p, q) and (p, flip q)
    u_row_diag: np.ndarray
    u_row_flip: np.ndarray
    u_col_diag: np.ndarray
    u_col_flip: np.ndarray
    flip_row: np.ndarray
    flip_col: np.ndarray
    # final entry -> index into [Re A, Im B, -Im B, 0] (the zero: outside
    # the coaxial table)
    source: np.ndarray
    entry_block: np.ndarray  # final entry -> (l, l') block index


# sector pairs enumerated at once while building a table: bounds the
# (pair, lambda) work arrays, which would otherwise grow like l_max^4
_PAIR_CHUNK = 1 << 13


@lru_cache(maxsize=8)
def _coeff_tables(l_max, spin, coaxial=False):
    """The flat build recipe (:class:`_Table`) for one (l_max, spin).

    Kinds are (same,) for scalar and (same, cross) for vector waves.  The
    ``coaxial`` table serves displacements along +z only: there
    Y_{lam, m - m'}(theta = 0) vanishes unless m = m', so it holds the terms
    of those pairs alone and builds the same matrix from far fewer terms.
    """
    l_min = 0 if spin == "scalar" else 1
    n_kinds = 1 if spin == "scalar" else 2
    l_top = 2 * l_max + (1 if spin == "vector" else 0)
    ls = np.arange(l_min, l_max + 1)
    n_l = ls.size
    nb = sector_size(l_max, l_min)
    sector_l = np.repeat(ls, 2 * ls + 1)
    sector_m = np.arange(nb) - sector_l * sector_l + l_min * l_min - sector_l

    # every (row p, column q) of one sector pair with terms, in term order:
    # (l, l') block, then m, then m'; and the entries
    p, q = np.divmod(np.arange(nb * nb), nb)
    order = np.lexsort((q, p, sector_l[q], sector_l[p]))
    p, q = p[order], q[order]
    pairs = np.arange(nb * nb)
    if coaxial:
        keep = sector_m[p] == sector_m[q]
        p, q = p[keep], q[keep]
        pairs = np.flatnonzero(np.abs(sector_m[:, None]) == np.abs(sector_m[None, :]))
    n_e = pairs.size
    entry_of = np.full(nb * nb, -1)
    entry_of[pairs] = np.arange(n_e)
    row, col = np.divmod(pairs, nb)
    entry_blk = (sector_l[row] - l_min) * n_l + sector_l[col] - l_min
    check_order = np.argsort(entry_blk, kind="stable")

    # the rest of a coefficient depends on (block, kind, lambda) only:
    # 4 pi sqrt((2l+1)(2l'+1)(2lam+1)/4pi) (l l' lam; 0 0 0) and the kind's
    # weight, the cross kind taking its (0 0 0) symbol at lambda - 1
    b_l, b_lp = np.divmod(np.arange(n_l * n_l), n_l)
    z_lam0, z = wigner3j_rows(b_l + l_min, b_lp + l_min, 0, 0)
    w0 = np.zeros((n_l * n_l, l_top + 2))  # column lambda + 1 holds lambda
    zb, zk = np.nonzero(z)
    w0[zb, z_lam0[zb] + zk + 1] = z[zb, zk]
    b_l, b_lp, lam_b = b_l[:, None] + l_min, b_lp[:, None] + l_min, np.arange(l_top + 1)
    root = 4.0 * np.pi * np.sqrt((2 * b_l + 1) * (2 * b_lp + 1) * (2 * lam_b + 1) / (4.0 * np.pi))
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
    lam_low = np.maximum(np.abs(sector_l[p] - sector_l[q]), np.abs(sector_m[p] - sector_m[q]))
    bound = int(np.sum(sector_l[p] + sector_l[q] + 1 - lam_low))
    term_re_im, term_key, term_y = (np.empty(n, int) for n in (2 * bound, bound, bound))
    term_coeff = np.empty(bound)
    used = np.zeros((n_l * n_l, l_top + 1), bool)  # (block, lambda) slots
    n_terms = 0
    for start in range(0, p.size, _PAIR_CHUNK):
        pc, qc = p[start : start + _PAIR_CHUNK], q[start : start + _PAIR_CHUNK]
        l, lp, m, mp = sector_l[pc], sector_l[qc], sector_m[pc], sector_m[qc]
        # (l l' lam; m -m' -mu) with the phase (-1)^(l+m), for every pair;
        # (l l' lam; 0 0 0) vanishes only at odd l + l' + lam, so parity
        # selects the kind of each nonzero symbol: same (or scalar) at even,
        # cross at odd
        lam0, wm = wigner3j_rows(l, lp, m, -mp)
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
        block = (l[t] - l_min) * n_l + lp[t] - l_min
        used[block, lam] = True
        now = slice(n_terms, n_terms + t.size)
        term_re_im[2 * now.start : 2 * now.stop] = (
            2 * (kind * n_e + entry_of[pc * nb + qc][t])[:, None] + np.arange(2)
        ).ravel()
        term_key[now] = block * (l_top + 1) + lam
        term_y[now] = lam if coaxial else lam * lam + lam + (m - mp)[t]
        term_coeff[now] = factor[block, kind, lam] * wm[t, k]
        n_terms = now.stop

    # the (block, lambda) scale slots: block-major, ascending in lambda
    slot_block, slot_lam = np.nonzero(used)
    slot_of = (np.cumsum(used) - 1).ravel()
    top_lam = l_top - np.argmax(used[:, ::-1], axis=1)
    term_slot = term_key[:n_terms]
    for start in range(0, n_terms, _PAIR_CHUNK):
        part = term_slot[start : start + _PAIR_CHUNK]
        part[:] = slot_of[part]

    if coaxial:
        y_lam = np.arange(l_top + 1)
        y_mu = np.zeros_like(y_lam)
    else:
        y_lam = np.repeat(np.arange(l_top + 1), 2 * np.arange(l_top + 1) + 1)
        y_mu = np.arange(y_lam.size) - y_lam * y_lam - y_lam

    u = np.zeros((nb, nb), complex)
    flip = np.zeros(nb, int)
    for l, off in zip(range(l_min, l_max + 1), ls * ls - l_min * l_min):
        n = 2 * l + 1
        u[off : off + n, off : off + n] = _real_basis(l)
        flip[off : off + n] = off + np.arange(n)[::-1]
    u_diag = np.diagonal(u).copy()
    u_flip = np.where(flip != np.arange(nb), u[np.arange(nb), flip], 0.0)

    # final layout: where every entry is read from in [Re A, Im B, -Im B, 0]
    where = entry_of.reshape(nb, nb)
    entry_block = (sector_l[:, None] - l_min) * n_l + sector_l[None, :] - l_min
    if spin == "scalar":
        source, shift = where, 0
    else:
        # electric sector first; magnetic labels refer to R_{l,-m} and carry
        # the relative factor i, which makes all four sector blocks real:
        # EE = Re A, EM = Re(-i B flip_cols) = Im B flip_cols,
        # ME = Re(i flip_rows B) = -Im flip_rows B, MM = Re A flipped both ways
        flipped = where[flip]
        source = np.block([[where, where[:, flip]], [flipped, flipped[:, flip]]])
        zero = np.zeros((nb, nb), int)
        shift = np.block([[zero, zero + n_e], [zero + 2 * n_e, zero]])
        entry_block = np.tile(entry_block, (2, 2))
    # on the axis, the entries outside the table read the zero
    source = np.where(source >= 0, source + shift, (2 * n_kinds - 1) * n_e)
    return _Table(
        n_kinds=n_kinds,
        nb=nb,
        top_lam=top_lam,
        slot_block=slot_block,
        slot_lam=slot_lam,
        y_lam=y_lam,
        y_mu=y_mu,
        term_re_im=term_re_im[: 2 * n_terms],
        term_slot=term_slot,
        term_y=term_y[:n_terms],
        term_coeff=term_coeff[:n_terms],
        check_order=check_order,
        block_start=np.searchsorted(entry_blk[check_order], np.arange(n_l * n_l)),
        u_row_diag=u_diag[row],
        u_row_flip=u_flip[row],
        u_col_diag=u_diag[col].conj(),
        u_col_flip=u_flip[col].conj(),
        flip_row=entry_of[flip[row] * nb + col],
        flip_col=entry_of[row * nb + flip[col]],
        source=source,
        entry_block=entry_block,
    )


# ---------------------------------------------------------------------------
# Matrix construction


@dataclass(frozen=True)
class TranslationMatrix:
    """Outgoing-to-regular wave conversion across a displacement.

    True entries equal ``scaled * exp(exponent)``; the split keeps small-
    wavenumber matrices representable.  ``spin`` is "vector" (two
    polarization sectors, electric first) or "scalar".  Built for an array
    of kappa, ``kappa`` is that array and ``scaled`` and ``exponent`` carry
    a leading kappa axis.  Built for chosen ``entries``, a (rows, cols)
    pair of index arrays, they hold those entries along their last axis,
    and such a matrix has no ``dim`` or ``dense`` form.
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
        """Plain float entries (overflows to inf outside float64 range)."""
        self._whole()
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


def _to_real_basis(tab, a):
    """U a U^dagger on the table's entries (trailing axis), using that U has
    at most two nonzero entries per row."""
    b = tab.u_row_diag * a + tab.u_row_flip * a.take(tab.flip_row, axis=-1)
    return b * tab.u_col_diag + b.take(tab.flip_col, axis=-1) * tab.u_col_flip


def _build(medium, kappa, d, l_max, spin, entries=None):
    """The matrix for one displacement at one kappa or a 1-D array of them.

    The angular part, the harmonics of d, is evaluated once; the terms of
    every kappa are then summed into their entries by one bincount whose
    bins are offset by row.  ``entries``, a (rows, cols) pair of index
    arrays, builds only those entries of the final matrix.
    """
    d, c, theta, phi = _direction(d)
    kappas = np.array(kappa, float, ndmin=1)
    if not kappas.min() > 0.0:
        raise ValueError("kappa must be positive")
    x = _per_kappa(medium.refractive_index, kappas) * kappas * c
    l_top = 2 * l_max + (1 if spin == "vector" else 0)
    logk = log_bessel_k_array(l_top, x)
    tab = _coeff_tables(l_max, spin, d[0] == 0.0 and d[1] == 0.0 and d[2] > 0.0)

    # k_lam grows with lam, so the largest lambda of a block sets its scale
    s = logk.take(tab.top_lam, axis=-1)
    kv = np.exp(logk.take(tab.slot_lam, axis=-1) - s.take(tab.slot_block, axis=-1))
    y = sph_harm_y(tab.y_lam, tab.y_mu, theta, phi)
    terms = (tab.term_coeff * kv.take(tab.term_slot, axis=-1)) * y[tab.term_y]
    n, n_e = x.size, tab.u_row_diag.size
    width = 2 * tab.n_kinds * n_e
    bins = tab.term_re_im if n == 1 else (tab.term_re_im + width * np.arange(n)[:, None]).ravel()
    a = np.bincount(bins, weights=terms.view(float).ravel(), minlength=n * width).view(complex)
    r = _to_real_basis(tab, a.reshape(n, tab.n_kinds, n_e))

    def block_max(v):
        return np.maximum.reduceat(v.take(tab.check_order, axis=-1), tab.block_start, axis=-1)

    if spin == "scalar":
        size = block_max(np.abs(r[:, 0]))
        bad = block_max(np.abs(r[:, 0].imag)) > 1e-10 * np.maximum(1.0, size)
        parts = [r[:, 0].real]
    else:
        a_r, b_r = r[:, 0], r[:, 1]
        scale = np.maximum(block_max(np.abs(r)).max(axis=-2), 1e-300)
        leak = block_max(np.stack([np.abs(a_r.imag), np.abs(b_r.real)], axis=-2))
        bad = leak.max(axis=-2) > 1e-9 * scale
        parts = [a_r.real, b_r.imag, -b_r.imag]
    if bad.any():
        raise RuntimeError("real-basis entries acquired imaginary parts")
    src = np.concatenate(parts + [np.zeros((n, 1))], axis=-1)
    source, block = (tab.source, tab.entry_block) if entries is None else (
        tab.source[entries], tab.entry_block[entries]
    )
    scaled, exponent = src.take(source, axis=-1), s.take(block, axis=-1)
    if np.ndim(kappa) == 0:
        kappas, scaled, exponent = float(kappa), scaled[0], exponent[0]
    return TranslationMatrix(
        kappa=kappas,
        displacement=d,
        l_max=l_max,
        scaled=scaled,
        exponent=exponent,
        spin=spin,
        entries=entries,
    )


def reverse_translation(x):
    """Translation matrix for -d from the one for +d (exact reciprocity).

    X(-d) = D X(d)^T D, with D = +1 on the electric sector and -1 on the
    magnetic sector for vector waves, and D = 1 for scalar waves.  Applied
    to a displacement gradient dX/dd_i at d it gives minus that gradient
    at -d.  A leading kappa axis is kept.
    """
    d_sign = np.ones(x.dim)
    if x.spin == "vector":
        d_sign[x.dim // 2 :] = -1.0
    return TranslationMatrix(
        kappa=x.kappa,
        displacement=-x.displacement,
        l_max=x.l_max,
        scaled=d_sign[:, None] * np.swapaxes(x.scaled, -1, -2) * d_sign[None, :],
        exponent=np.swapaxes(x.exponent, -1, -2).copy(),
        spin=x.spin,
    )


def translation_matrix(medium, kappa, d, l_max, entries=None):
    """Vector-wave translation matrix for displacement ``d``.

    Converts outgoing waves about the point ``d`` into regular waves about
    the origin, at imaginary wavenumber n_M kappa.  ``kappa`` may be a 1-D
    array (one matrix per kappa, along a leading axis), and ``entries``, a
    (rows, cols) pair of index arrays, limits the build to those entries;
    a single kappa with every entry is the one-row view of that build.
    """
    return _build(medium, kappa, d, l_max, "vector", entries)


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
