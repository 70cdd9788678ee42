"""Forces, energy Laplacians and equilibrium analysis for sphere collections.

The central quantity is the Laplacian of the interaction energy under rigid
displacement of one object: a non-positive Laplacian at a force equilibrium
rules out stable levitation.  Two routes read one stencil of displacements
per node of a frozen grid (the same nodes and multipole order for every
displaced geometry, so quadrature error cancels in the differences), with
the labeled object at 0, +-h e_i and +-(h/2) e_i:

* finite differences of the energies, taken as the stencil's ln det ratios
  ln det[M(u)/M(0)] of M = I - N, and
* the three-term trace decomposition

      laplacian = term1 + term2 + term3,
      term_k = -(1/2pi) * integral dkappa  bracket_k(kappa),

  with bracket_1 = 2 n^2 kappa^2 tr[(1-N)^{-1} N], bracket_2 the
  mixed-gradient trace, and bracket_3 = sum_i tr[((1-N)^{-1} d_i N)^2].
  bracket_3 is a trace of the square of a symmetrizable matrix and is
  therefore nonnegative; with the negative prefactor the stored term3 is
  always <= 0.  For two same-sign-class groups bracket_1 and bracket_2 are
  also nonnegative, which forces laplacian <= 0 (no stable levitation).
  d_i N is the Richardson-refined central difference of the stencil.

Both routes, and every force, go through one Schur reduction per node: the
remainder group R (every object but the labeled one) enters through the
Schur complement of the labeled object's rows and columns, never as a
compound scatterer, and a difference of two ln dets is the ln det of a
small nb x nb matrix I + K summed as a trace series (see
:class:`_CommonGridEngine`).  No displaced I - N is factored whole, none
is placed whole but a pair's small m-block stack, and no difference carries
the rounding of two large ln dets.
Every force comes from one loop of ratios, :func:`_stencil_rows`, which
reads ln det[M(u)/M(u0)] for any steps u from the first, u0, as Rahi et
al., PRD 80, 085021 (2009), write the force as a difference of TGTG ln
dets.  -dE/da_i is minus the grid sum of the per-node difference
ln det[M(+h e_i)/M(0)] - ln det[M(-h e_i)/M(0)] over 2h
(:func:`_read_stencil`), and an axial force, the sweep's and the
equilibrium search's, one ratio of its +h end from its -h end
(:func:`_axial_force`).

A pair is radial: two spheres are isotropic, so E depends on r = |d| alone,
F = -E'(r) r^ and the Laplacian is E''(r) + 2 E'(r)/r.  Its force, axial
force and finite-difference Laplacian come from the ratios at r +- h and
r +- h/2, on the axis of the pair's own frame, where M is block-diagonal
in m (:meth:`_CommonGridEngine.radial`), through the same ratio loop and
the same finite-difference formula (:func:`_fd`).  Only its decomposition
reads the 13 dense points, and from them only dU and dP
(:func:`_read_stencil`).

Every displaced geometry is a new Configuration from :func:`_displaced`, and
the engine builds its (kappa, ...) stacks per chunk with ``casimir``'s pair
loop, from each displacement's pair rotations and Bessel rows made once
(:meth:`_CommonGridEngine.moved`).
"""

import copy
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .casimir import (
    Configuration,
    _blocks,
    _chunk,
    _complement,
    _gap,
    _geometry,
    _layout,
    _log_dets,
    _matsubara_sum,
    _place_blocks,
    _positive_logdet,
    _quad_nodes,
    _rows,
    _t_logs,
    default_l_max,
)
from .errors import ToleranceError, UnphysicalTruncationError, ValidationError, _finite, _order
from .materials import classify
# not called here: the benchmark tracer (perfbench/spans.py) wraps these names
from .scattering import mie_tmatrix  # noqa: F401
from .translation import translation_gradient, translation_matrix  # noqa: F401

__all__ = [
    "MAX_MATSUBARA_TERMS",
    "StabilityReport",
    "EquilibriumResult",
    "force",
    "laplacian_fd",
    "laplacian_decomposition",
    "find_axial_equilibrium",
    "stability_report",
]

# Matsubara terms the frozen finite-temperature grid may hold (it keeps
# per-term blocks in memory) before its truncation test gives up
MAX_MATSUBARA_TERMS = 20000


@dataclass
class StabilityReport:
    """Force, Laplacian and its trace decomposition for one object."""

    object_label: str
    force: np.ndarray
    laplacian: float
    term1: float
    term2: float
    term3: float
    predicted_sign_product: int | None
    h_used: float
    est_error: float


@dataclass
class EquilibriumResult:
    """Outcome of an axial force-zero search."""

    found: bool
    position: float | None = None
    report: StabilityReport | None = None


def _index(config, label):
    """Position of the labeled object in ``config.objects``."""
    for i, o in enumerate(config.objects):
        if o.label == label:
            return i
    raise ValidationError(f"no object labeled {label!r}")


def _displaced(config, label, u):
    """A new Configuration (and so its overlap rule), the labeled object moved by u."""
    objs = list(config.objects)
    i = _index(config, label)
    objs[i] = replace(objs[i], center=np.asarray(objs[i].center, float) + u)
    return Configuration(tuple(objs), config.medium, config.tau)


class _CommonGridEngine:
    """Frozen-grid energy evaluator for displacements of one object.

    The grid is the quadrature of ``n_nodes`` nodes at tau = 0, or the
    Matsubara frequencies up to the truncation of a low-order (l_max <= 4)
    sum at tau > 0, taken in chunks of ``casimir._chunk`` on the dense
    layout: as many kappas as the dense I - N fits in ``_CHUNK_ENTRIES``,
    and at least 2 (at order 210).  The T-matrices (``casimir._t_logs``)
    are built for the whole grid at once, and so are the rotation and the
    Bessel rows of each pair of a displacement (``casimir._geometry``), made
    once for every chunk and sliced per chunk (``casimir._rows``).

    I - N is never placed whole on the dense layout.  With the labeled
    object A first it is
    [[I, -U], [-V, M_RR]]: U (the A row) and V (the A column) hold the
    balanced blocks between A and the remainder R, and M_RR, those between
    unmoved objects, does not depend on the displacement.  Per chunk the
    engine places M_RR once, guards its ln det and keeps its inverse, both
    by eliminating its first identity block (:meth:`_remainder`); when R
    is one object there are no static pairs, M_RR = I, and nothing is
    placed or solved.  A displacement (:func:`_displaced`) builds only U
    and V, and ln det(I - N) = ln det M_RR + ln det S, where S = I - U P,
    P = M_RR^-1 V, is the nb x nb Schur complement of A.  Between a
    reference u0 and a displacement u,

        ln det M(u) - ln det M(u0) = ln det(I + K),  K = S(u0)^-1 dS,
        dS = -(dU P(u) + U(u0) dP),  dP = M_RR^-1 dV,

    the block differences dU and dV taken first, and ln det(I + K) is the
    trace series of :func:`_log_det_1p`: no pivot near 1 is rounded, so a
    difference keeps the relative precision of dU and dV.  :meth:`_ratio`
    is the one difference: the stencil takes its ratios from u0 = 0, and a
    force is the per-node ratio(+h) - ratio(-h) of two of them, or an axial
    force one ratio of its +h end from its -h end (:func:`_stencil_rows`).  Every displaced S is guarded, as a reference by
    :meth:`_schur` or through |K| < 1/2, which keeps det(I + K) > 0.
    ``energy(u)`` is the weighted sum of ln det M_RR + ln det S(u).

    The same formulas hold on the m-block layout, where U, V, S and K are
    stacks of 2 l_max + 1 m-blocks per kappa and K's series runs on their
    block diagonal: :meth:`radial` gives a pair's engine there, which its
    force, axial force and finite-difference Laplacian read.
    """

    def __init__(self, config, label, l_max=None, n_nodes=32):
        self.config, self.label = config, label
        self.idx = _index(config, label)
        _order(n_nodes, "n_nodes")
        self.l_max = default_l_max(config) if l_max is None else _order(l_max, "l_max")
        self.moving = [p for p in config._pairs if self.idx in p]
        self.rest = [i for i in range(len(config.objects)) if i != self.idx]
        if config.tau == 0.0:
            self.kappas, weights = _quad_nodes(n_nodes, 1.0 / config.min_gap())
            self.weights = weights / (2.0 * math.pi)
            self.t_logs = _t_logs(config, self.kappas, self.l_max)
        else:
            self.kappas, self.weights, self.t_logs = _matsubara_grid(config, self.l_max)
        self._set_layout(False)
        # r^ of a radial engine, whose displacement (0, 0, s) stands for s r^
        self.frame = None
        static = _geometry(config, [p for p in config._pairs if self.idx not in p], self.l_max, False, self.kappas)
        self.remainder = [self._remainder(c, static) for c in range(len(self.chunks))]

    def _set_layout(self, axial):
        """Take ``_layout(l_max, axial)`` and its chunks of the grid (``casimir._chunk``)."""
        self.layout = _layout(self.l_max, axial)
        self.nb = self.layout.width
        step = _chunk(self.config, self.l_max, axial)
        self.chunks = [slice(i, i + step) for i in range(0, len(self.kappas), step)]

    def radial(self):
        """(engine, r, r^) of a pair, None for three or more objects.

        A pair's energy depends on r = |d| alone, d the labeled object's
        centre less the other's, and r^ = d / r.  The engine is this grid
        and T-matrices on the m-block layout, in the pair's own frame: the
        other object at 0, the labeled one at (0, 0, r), so that a
        displacement (0, 0, s) puts the centres r + s apart, the same bits
        in every orientation.  It translates along z alone, builds U and V
        as m-blocks, and has no static pair (M_RR = I); an error names its
        displacement as s r^.
        """
        if len(self.rest) != 1:
            return None
        objs, (other,) = list(self.config.objects), self.rest
        d = np.asarray(objs[self.idx].center, float) - np.asarray(objs[other].center, float)
        r = float(np.linalg.norm(d))
        objs[self.idx] = replace(objs[self.idx], center=(0.0, 0.0, r))
        objs[other] = replace(objs[other], center=(0.0, 0.0, 0.0))
        eng = copy.copy(self)
        eng.config = Configuration(tuple(objs), self.config.medium, self.config.tau)
        eng._set_layout(True)
        eng.frame = d / r
        eng.remainder = [(0.0, None)] * len(eng.chunks)
        return eng, r, eng.frame

    def moved(self, u):
        """The moving pairs' :func:`~casimir_stability.casimir._geometry` on the
        grid, the labeled object displaced by u: what :meth:`_row_col` builds on."""
        axial = self.layout.entries is not None
        return _geometry(_displaced(self.config, self.label, u), self.moving, self.l_max, axial, self.kappas)

    def _chunk_blocks(self, c, geometry):
        """Balanced blocks of the pairs of ``geometry`` at the kappas of chunk c."""
        rows = self.chunks[c]
        t_logs, geometry = _rows(self.t_logs, geometry, rows)
        return _blocks(self.config.medium, self.kappas[rows], self.l_max, t_logs, geometry, self.layout)

    def _remainder(self, c, static):
        """(ln det M_RR, M_RR^-1) at the kappas of chunk c; (0, None) when M_RR = I.

        Both come from the complement of M_RR's first identity block
        (``casimir._complement``), which is guarded and inverted at (n - 2)
        nb rows for n objects: no factorization of M_RR whole.
        """
        if not static:
            return 0.0, None
        at = {j: k for k, j in enumerate(self.rest)}
        blocks = self._chunk_blocks(c, static)
        m_rr = _place_blocks({(at[i], at[j]): b for (i, j), b in blocks.items()}, self.layout)[:, 0]
        # M_RR = [[I, A], [C, D]]: Z = D - C A, det M_RR = det Z, and
        # M_RR^-1 = [[I + A Z^-1 C, -A Z^-1], [-Z^-1 C, Z^-1]], written over M_RR
        w = self.nb
        z = _complement(m_rr, w)
        logdet = _positive_logdet(z, "remainder matrix", *self.at(c))
        z_inv = np.linalg.inv(z)
        a, z_inv_c = m_rr[:, :w, w:], z_inv @ m_rr[:, w:, :w]
        a_z_inv = a @ z_inv
        m_rr[:, :w, :w] += a @ z_inv_c
        np.negative(a_z_inv, out=a)
        np.negative(z_inv_c, out=m_rr[:, w:, :w])
        m_rr[:, w:, w:] = z_inv
        return logdet, m_rr

    def at(self, c, u=None, u0=None):
        """The kappas of chunk c, and the error text after the kappa of its row i.

        The text names the displacement u, and the reference u0 it is taken
        from; it is formed only when an error asks for it.
        """
        rows = self.chunks[c]

        def where(i):
            text = f" (node {rows.start + i})"
            for name, v in ((f", {self.label!r} moved by", u), (" from", u0)):
                if v is not None:
                    # + 0.0: a zero prints as 0, never -0
                    v = (v if self.frame is None else v[2] * self.frame) + 0.0
                    text += f"{name} ({', '.join(f'{x:.6g}' for x in v)})"
            return text

        return self.kappas[rows], where

    def _row_col(self, c, moved):
        """(U, V) at the kappas of chunk c, ``moved`` a displacement's :meth:`moved`.

        On the m-block layout (a pair, :meth:`radial`) they are the two
        off-diagonal blocks of its placed I - N, one stack of m-blocks each.
        """
        blocks = self._chunk_blocks(c, moved)
        if self.layout.entries is not None:
            m = _place_blocks(blocks, self.layout)
            a, b = (slice(i * self.nb, (i + 1) * self.nb) for i in (self.idx, *self.rest))
            return -m[..., a, b], -m[..., b, a]
        u_row = np.concatenate([blocks[self.idx, j] for j in self.rest], axis=-1)
        v_col = np.concatenate([blocks[j, self.idx] for j in self.rest], axis=-2)
        return u_row, v_col

    def _schur(self, c, point, u):
        """(ln det S, P, S) of ``point`` = (U, V) at displacement u, S guarded."""
        u_row, v_col = point
        inverse = self.remainder[c][1]
        p = v_col if inverse is None else inverse @ v_col
        s = np.eye(self.nb) - u_row @ p
        names = [f"merged-remainder {name}" for name in self.layout.names]
        return _positive_logdet(s, names, *self.at(c, u)), p, s

    def _reference(self, c, point, u):
        """(U, V, P, S^-1) of ``point`` = (U, V) at u: the u0 of :meth:`_ratio`."""
        _, p, s = self._schur(c, point, u)
        return *point, p, np.linalg.inv(s)

    def _ratio(self, c, ref, point, u, u0):
        """ln det M(u) - ln det M(u0) per kappa of chunk c, and the dU and dP it used.

        ``ref`` is :meth:`_reference` at u0, ``point`` the (U, V) of u.
        """
        u_ref, _, p_ref, s_inv = ref
        du, dp = self._delta(c, ref, point)
        k = s_inv @ -(du @ (p_ref + dp) + u_ref @ dp)
        return _log_det_1p(k, *self.at(c, u, u0)), du, dp

    def _delta(self, c, ref, point):
        """dU and dP = M_RR^-1 dV of ``point`` = (U, V) from ``ref`` (:meth:`_reference`)."""
        du, dv = point[0] - ref[0], point[1] - ref[1]
        inverse = self.remainder[c][1]
        return du, (dv if inverse is None else inverse @ dv)

    def _sum(self, rows):
        """Weighted grid sum of the per-chunk ``rows``, one per node (or a column each)."""
        rows = np.concatenate(rows)
        weights = self.weights if rows.ndim == 1 else self.weights[:, None]
        # node after node in grid order: the bits do not depend on the chunk size
        return np.cumsum(weights * rows, axis=0)[-1]

    def energy(self, u):
        """Interaction energy with the labeled object displaced by u."""
        moved = self.moved(u)
        return float(self._sum(
            [
                logdet + self._schur(c, self._row_col(c, moved), u)[0]
                for c, (logdet, _) in enumerate(self.remainder)
            ]
        ))


def _trace_product(a, b):
    """tr(a b) for each matrix of two stacks: the sum of a * b^T."""
    prod = a * np.swapaxes(b, -1, -2)
    return prod.reshape(len(prod), -1).sum(axis=-1)


def _log_det_1p(k, kappas, where):
    """ln det(I + K) per kappa row of the stack k: sum (-1)^(n+1) tr(K^n) / n.

    A row is one matrix, or a stack of m-blocks: K is then their block
    diagonal, its traces and its norm taken over every block of the row.

    tr(K^n) is the sum of K^a * (K^b)^T with a + b = n, so each power K^b
    serves two terms.  With |K|, the Frobenius norm, the rest of the series
    after n terms is at most |K|^(n+1) / ((n + 1)(1 - |K|)); each row stops
    once that is below 2^-60 of its sum, so the rows of a stack do not
    change each other's bits.  A K that is not finite, or with |K| >= 1/2,
    raises UnphysicalTruncationError naming its kappa and ``where(row)``:
    the series is never cut short silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(_trace_product(k, np.swapaxes(k, -1, -2)))
    bad = ~(norm < 0.5)
    if bad.any():
        i = int(np.argmax(bad))
        raise UnphysicalTruncationError(
            f"ln det(I + K) at kappa = {kappas[i]:.6g}{where(i)}: |K| = {norm[i]:.3g} "
            "is not below 1/2 (a non-finite T-matrix or translation, or too large a step h)"
        )
    total = np.trace(k, axis1=-2, axis2=-1).reshape(len(k), -1).sum(axis=-1)
    powers, n = [k], 1
    while True:
        live = norm ** (n + 1) / ((n + 1) * (1.0 - norm)) > 2.0**-60 * np.abs(total)
        if not live.any():
            return total
        n += 1
        a, b = n // 2, n - n // 2
        if b > len(powers):
            powers.append(powers[-1] @ k)
        term = _trace_product(powers[a - 1], powers[b - 1]) / n
        total = total + np.where(live, term if n % 2 else -term, 0.0)


def _matsubara_grid(config, l_max):
    """(kappas, weights, T-matrix rows) of the frozen finite-temperature grid.

    The grid is truncated where the tail of a low-order (l_max <= 4) sum is
    below 1e-12 of it.  The sum's T-matrix rows, one run of kappas at a
    time, are built at the grid's order and kept as the grid's: the sum
    reads the first ``low`` bands of each sector.
    """
    low = min(l_max, 4)
    bands = np.r_[:low, l_max:l_max + low]
    axial = config._axis_positions is not None
    geometry = _geometry(config, config._pairs, low, axial)
    runs = []

    def term(kappas):
        runs.append(_t_logs(config, kappas, l_max))
        t_logs = [(s[:, bands], g[:, bands]) for s, g in runs[-1]]
        return _log_dets(config, kappas, low, t_logs, geometry)

    chunk = _chunk(config, low, axial, run=True)
    kappas, weights, _, _ = _matsubara_sum(term, config.tau, 1e-12, MAX_MATSUBARA_TERMS, chunk)
    rows = [
        tuple(np.concatenate([run[i][part] for run in runs])[: len(kappas)] for part in (0, 1))
        for i in range(len(config.objects))
    ]
    return np.array(kappas), np.array(weights), rows


def _default_h(config, label):
    a = config.objects[_index(config, label)]
    gap = min(_gap(a, o) for o in config.objects if o is not a)
    return 1e-3 * gap, gap


def _step(config, label, h):
    """Finite-difference step: ``h``, or 1e-3 * gap; in (1e-8, 0.1) * gap."""
    default, gap = _default_h(config, label)
    h = default if h is None else _finite(h, "step h", sign=None, error=ToleranceError)
    if h >= 0.1 * gap:
        raise ToleranceError("finite-difference step must be below 0.1*gap")
    if h <= 1e-8 * gap:
        raise ToleranceError("finite-difference step must be above 1e-8*gap")
    return h


def _stencil(h, axes=np.eye(3)):
    """0, then +h e, -h e per unit vector e of ``axes``, then the same at h/2.

    The 13 points of the three axes; their first 7 are the force's
    stencil.  A pair's radial engine takes the one axis e_z of its frame
    (:meth:`_CommonGridEngine.radial`): 5 points, the first 3 its force's.
    """
    out = [np.zeros(3)]
    for step in (h, 0.5 * h):
        for e in axes:
            out += [step * e, -(step * e)]
    return out


def _fd(ratios, h, r=None):
    """(Laplacian, est_error) from ln det[M(u)/M(0)] at ``_stencil(h, axes)[1:]``.

    Second central differences (the ratio at 0 is 0) summed over the axes
    at h and h/2, with one Richardson halving; est_error is the refined
    value's distance to h/2's.  With ``r``, the one axis is radial and the
    Laplacian E'' + 2 E'/r: the central first difference over r is added at
    each step, and its error, like the second difference's, is O(h^2).
    """
    e = np.reshape(ratios, (2, -1, 2))  # step, axis, sign

    def laplacian(s, step):
        value = sum((e[s, i, 0] + e[s, i, 1]) / step**2 for i in range(e.shape[1]))
        return value if r is None else value + (e[s, 0, 0] - e[s, 0, 1]) / (step * r)

    raw, half = (laplacian(s, step) for s, step in enumerate((h, 0.5 * h)))
    refined = (4.0 * half - raw) / 3.0
    return refined, abs(refined - half)


def _axial_force(eng, h, axis, s=0.0):
    """-dE/ds along ``axis`` at displacement s e_axis: one ratio
    ln det[M(+h)/M(-h)] of two ends, a two-point read of :func:`_stencil_rows`.

    The ends are s -+ h along the axis.  A pair reads its radial engine
    (:meth:`_CommonGridEngine.radial`): with d_s the displaced separation,
    the force is -E'(r_s) times the axis component of d_s / r_s, from the
    ends r_s -+ h.  These are taken in the axis's order, so the first, the
    reference an error names, is the user's -h end.
    """
    e, pair = np.eye(3)[axis], eng.radial()
    if pair is None:
        ends, scale = [(s - h) * e, (s + h) * e], 1.0
    else:
        objs = eng.config.objects
        d = np.subtract(objs[eng.idx].center, objs[eng.rest[0]].center) + s * e
        r_s = float(np.linalg.norm(d))
        # r_s + h first where moving along +e brings the centres closer
        step, scale = math.copysign(h, d[axis]), abs(d[axis]) / r_s
        eng, r, _ = pair
        ends = [np.array([0.0, 0.0, r_s - r + t]) for t in (-step, step)]
    ratio = float(eng._sum(_stencil_chunks(eng, ends, terms=False))[0])
    return -ratio * scale / (2.0 * h) + 0.0


def force(config, label, h=None, l_max=None, n_nodes=32):
    """Force on the labeled object, -grad E by common-grid differences.

    The force of :func:`stability_report`, from the force points of its
    stencil (:func:`_read_stencil`), so the two forces are the same bits:
    0 and +-h e_i, or for a pair -E'(r) r^ from r and r +- h on m-blocks.
    """
    h = _step(config, label, h)
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    return _read_stencil(eng, h, laplacian=False)[0]


def laplacian_fd(config, label, h=None, l_max=None, n_nodes=32, engine=None):
    """Displacement Laplacian of the energy from the stencil's ratios (``_fd``).

    The 13-point stencil, or for a pair E'' + 2 E'/r from the 5 radial
    points on m-blocks (:func:`_read_stencil`): no decomposition term, and
    for a pair no dense block.
    """
    h = _step(config, label, h)
    eng = engine or _CommonGridEngine(config, label, l_max, n_nodes)
    return _read_stencil(eng, h)[1][0]


def _sign_classes(config):
    """Material class of every object and the sign product of every pair.

    Each object is classified on the sample wavenumbers [0.5, 1, 2, 8] /
    min gap.  A pair's product s_a * s_b is defined only when both signs are
    definite and nonzero, else None.  Returns (classes by label, products
    by (label_a, label_b) with a listed before b in the configuration).
    """
    gap = config.min_gap()
    samples = [0.5 / gap, 1.0 / gap, 2.0 / gap, 8.0 / gap]
    classes = {
        o.label: classify(o.eps, o.mu, config.medium, samples)
        for o in config.objects
    }
    labels = list(classes)
    products = {}
    for i, j in config._pairs:
        a, b = labels[i], labels[j]
        s_a, s_b = classes[a].sign, classes[b].sign
        defined = s_a not in (None, 0) and s_b not in (None, 0)
        products[a, b] = s_a * s_b if defined else None
    return classes, products


def _sign_product(config, label):
    """s^A * s^R: the one product of the labeled object with every other.

    None unless every pair with the labeled object has the same defined
    product, i.e. both it and the remainder group have one definite class.
    """
    _, products = _sign_classes(config)
    mine = {p for pair, p in products.items() if label in pair}
    return mine.pop() if len(mine) == 1 else None


def laplacian_decomposition(config, label, h=None, l_max=None, n_nodes=32):
    """The trace decomposition (term1, term2, term3) of :func:`stability_report`."""
    rep = stability_report(config, label, h, l_max, n_nodes)
    return rep.term1, rep.term2, rep.term3


def _stencil_rows(eng, c, steps, moved, ratios=True, terms=True):
    """One row per kappa of chunk c: the ratios, then the weightless -b1,
    -b2, -b3.

    ``moved`` are the :meth:`~_CommonGridEngine.moved` of ``steps``.  The
    ratios are ln det[M(u)/M(u0)] of the steps u after the first, u0: any
    steps, when ``terms`` is false.  The decomposition's columns (``terms``)
    read ``_stencil(h, axes)`` of any axes; the axes are taken one at a
    time, and the blocks of an axis's points, and their dU and dP, are
    dropped before the next.  It reads the ratios' dU and dP: since the
    Richardson weights sum to 0, the refined central differences dU/da_i
    and M_RR^-1 dV/da_i are their weighted sums.  Without ``ratios`` no K
    is formed and no series run: each point gives only its dU and dP.
    """
    ref = eng._reference(c, eng._row_col(c, moved[0]), steps[0])
    if not terms:
        return np.column_stack(
            [eng._ratio(c, ref, eng._row_col(c, m), u, steps[0])[0] for m, u in zip(moved[1:], steps[1:])]
        )
    kappas, h = eng.kappas[eng.chunks[c]], steps[1].max()  # steps[1] = +h e
    axes = (len(steps) - 1) // 4
    u_ref, _, p_ref, s_inv = ref
    cols, b2, b3 = [None] * (len(steps) - 1), 0.0, 0.0
    for axis in range(axes):
        # +h, -h, +h/2, -h/2 of this axis (see _stencil)
        at = [s + sign for s in range(1 + 2 * axis, len(steps), 2 * axes) for sign in (0, 1)]
        # Richardson (4 D(h/2) - D(h)) / 3 of the central differences D
        du = dp = 0.0
        for s, w in zip(at, (-0.5, 0.5, 4.0, -4.0)):
            point = eng._row_col(c, moved[s])
            if ratios:
                cols[s - 1], d_u, d_p = eng._ratio(c, ref, point, steps[s], steps[0])
            else:
                d_u, d_p = eng._delta(c, ref, point)
            du, dp = du + w * d_u, dp + w * d_p
        du, dp = du / (3.0 * h), dp / (3.0 * h)
        b2 += 2.0 * _trace_product(s_inv, du @ dp)
        rdn = s_inv @ (du @ p_ref + u_ref @ dp)
        b3 += _trace_product(rdn, rdn)
    n_m = eng.config.medium.refractive_index(kappas)
    b1 = 2.0 * (n_m * kappas) ** 2 * _trace_product(s_inv, u_ref @ p_ref)
    return np.column_stack((cols if ratios else []) + [-b1, -b2, -b3])


def _stencil_chunks(eng, steps, ratios=True, terms=True):
    """:func:`_stencil_rows` at ``steps`` for every chunk, in grid order."""
    moved = [eng.moved(u) for u in steps]
    return [_stencil_rows(eng, c, steps, moved, ratios, terms) for c in range(len(eng.chunks))]


def _read_stencil(eng, h, laplacian=True, terms=False):
    """(force, (Laplacian, est_error) or None, (term1, term2, term3) or None).

    Three or more objects take one pass of the 13-point dense stencil, or
    of its first 7 points for the force alone.  A pair's energy is E(r):
    its force is -E'(r) r^ and its Laplacian E'' + 2 E'/r (:func:`_fd`),
    both from the ratios of its radial engine
    (:meth:`_CommonGridEngine.radial`) at r +- h and r +- h/2 from r.  Its
    decomposition is a second pass, of the 13 dense points' dU and dP
    alone.  Every force is the grid sum of the per-node differences
    ratio(+h e) - ratio(-h e), over 2h.
    """
    pair = eng.radial()
    dense = _stencil(h)[: None if laplacian or terms else 7]
    radial, r, unit = pair or (eng, None, None)
    steps = dense if pair is None else _stencil(h, np.eye(3)[2:])[: None if laplacian else 3]
    rows = _stencil_chunks(radial, steps, terms=terms and pair is None)
    n, axes = len(steps) - 1, 3 if pair is None else 1
    # the radial engine is this grid: eng._sum weighs its rows too
    f = -eng._sum([row[:, : 2 * axes : 2] - row[:, 1 : 2 * axes : 2] for row in rows]) / (2.0 * h)
    # + 0.0: a component of r^ that is 0 gives 0, never -0
    f = f if pair is None else f * unit + 0.0
    sums = eng._sum(rows)
    lap = _fd(sums[:n], h, r) if laplacian else None
    if not terms:
        return f, lap, None
    return f, lap, tuple(sums[n:] if pair is None else eng._sum(_stencil_chunks(eng, dense, ratios=False)))


def stability_report(config, label, h=None, l_max=None, n_nodes=32):
    """Force, FD Laplacian, decomposition and sign prediction on one frozen grid.

    One pass of the stencil, or for a pair its radial ratios and then the
    decomposition's dense points (:func:`_read_stencil`).
    """
    h = _step(config, label, h)
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    f, (lap, err), terms = _read_stencil(eng, h, terms=True)
    return StabilityReport(label, f, lap, *terms, _sign_product(config, label), h, err)


def find_axial_equilibrium(
    config, label, axis, bracket, tol=1e-6, l_max=None, n_nodes=32
):
    """Find a zero of the axial force component within ``bracket``.

    ``bracket`` is a pair of displacements of the labeled object along
    ``axis`` (0, 1 or 2) relative to its configured position.  The force is
    ln det[M(s + h)/M(s - h)] on one frozen grid (that of ``config``, with
    its step h; see :func:`_axial_force`, which reads a pair's radial
    engine), and Brent's method locates its zero to ``tol``.  Returns an EquilibriumResult whose report is
    :func:`stability_report` at the root; absence of a sign change is a
    result, not an error.
    """
    _finite(tol, "tol")
    if axis not in (0, 1, 2):
        raise ValidationError(f"axis must be 0, 1 or 2, got {axis!r}")
    lo, hi = (_finite(end, "bracket end", sign=None) for end in bracket)
    base = config.objects[_index(config, label)].center
    h = _step(config, label, None)
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    # cached: brentq evaluates the two ends of the bracket again
    f = functools.cache(lambda s: _axial_force(eng, h, axis, s))
    if f(lo) * f(hi) > 0.0:
        return EquilibriumResult(found=False)
    # imported here: scipy.optimize would add a third to the CLI's import time
    from scipy.optimize import brentq

    root = brentq(f, lo, hi, xtol=tol)
    moved = _displaced(config, label, root * np.eye(3)[axis])
    report = stability_report(moved, label, l_max=l_max, n_nodes=n_nodes)
    return EquilibriumResult(found=True, position=float(base[axis] + root), report=report)
