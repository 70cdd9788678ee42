"""Forces, energy Laplacians and equilibrium analysis for sphere collections.

The central quantity is the Laplacian of the interaction energy under rigid
displacement of one object: a non-positive Laplacian at a force equilibrium
rules out stable levitation.  Two routes read one stencil of I - N matrices
per node of a frozen grid (the same nodes and multipole order for every
displaced geometry, so quadrature error cancels in the differences), with
the labeled object at 0, +-h e_i and +-(h/2) e_i:

* finite differences of the energies, the stencil's ln dets, and
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

When more than two objects are present, the remainder group R is merged by
block algebra (a Schur complement of the labeled object's rows/columns),
never by constructing a compound scatterer.

Every displaced geometry is a new Configuration from :func:`_displaced`, and
the engine builds its (kappa, n, n) stacks per chunk with ``casimir``'s pair loop.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .casimir import (
    Configuration,
    _blocks,
    _chunk,
    _gap,
    _layout,
    _log_dets,
    _matsubara_sum,
    _place_blocks,
    _positive_logdet,
    _quad_nodes,
    _t_logs,
    default_l_max,
)
from .errors import ToleranceError, ValidationError, _finite, _order
from .materials import _per_kappa, classify
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
    sum at tau > 0, taken in chunks of as many kappas as the dense I - N
    fits in ``_CHUNK_ENTRIES``.  The T-matrices (``casimir._t_logs``) are
    built for the whole grid at once, the blocks between unmoved objects
    once per chunk.  A displacement (:func:`_displaced`) rebuilds only the
    blocks touching the labeled object, chunk by chunk.
    """

    def __init__(self, config, label, l_max=None, n_nodes=32):
        self.config, self.label = config, label
        self.idx = _index(config, label)
        _order(n_nodes, "n_nodes")
        self.l_max = default_l_max(config) if l_max is None else _order(l_max, "l_max")
        self.layout = _layout(self.l_max, False)
        self.nb = self.layout.width
        self.moving = [p for p in config._pairs if self.idx in p]
        if config.tau == 0.0:
            self.kappas, weights = _quad_nodes(n_nodes, 1.0 / config.min_gap())
            self.weights = weights / (2.0 * math.pi)
            self.t_logs = _t_logs(config, self.kappas, self.l_max)
        else:
            self.kappas, self.weights, self.t_logs = _matsubara_grid(config, self.l_max)
        step = _chunk(config, self.l_max, False)
        self.chunks = [slice(i, i + step) for i in range(0, len(self.kappas), step)]
        static = [p for p in config._pairs if self.idx not in p]
        self.static = [self._chunk_blocks(config, c, static) for c in range(len(self.chunks))]

    def _chunk_blocks(self, config, c, pairs):
        """Balanced blocks of ``pairs`` of ``config`` at the kappas of chunk c."""
        rows = self.chunks[c]
        t_logs = [(s[rows], g[rows]) for s, g in self.t_logs]
        return _blocks(config, self.kappas[rows], self.l_max, t_logs, pairs)

    def matrix(self, c, moved):
        """I - N of ``moved`` (the labeled object displaced), a matrix per kappa of chunk c."""
        blocks = {**self.static[c], **self._chunk_blocks(moved, c, self.moving)}
        return _place_blocks(blocks, self.layout)[:, 0]

    def at(self, c, u):
        """The kappas of chunk c, and the error text after the kappa of its row i."""
        rows, shift = self.chunks[c], ", ".join(f"{x:.6g}" for x in u)
        where = f"{self.label!r} moved by ({shift})"
        return self.kappas[rows], lambda i: f" (node {rows.start + i}), {where}"

    def energy(self, u):
        """Interaction energy with the labeled object displaced by u."""
        moved = _displaced(self.config, self.label, u)
        logdets = [
            _positive_logdet(self.matrix(c, moved), "matrix", *self.at(c, u))
            for c in range(len(self.chunks))
        ]
        # node after node in grid order: the bits do not depend on the chunk size
        return float(np.cumsum(self.weights * np.concatenate(logdets))[-1])


def _matsubara_grid(config, l_max):
    """(kappas, weights, T-matrix rows) of the frozen finite-temperature grid.

    The grid is truncated where the tail of a low-order (l_max <= 4) sum is
    below 1e-12 of it.  When that order is the grid's, the sum's T-matrix
    rows, one run of kappas at a time, are the grid's; else the grid's are
    built once for all its kappas.
    """
    low = min(l_max, 4)
    runs = []

    def term(kappas):
        runs.append(_t_logs(config, kappas, low))
        return _log_dets(config, kappas, low, runs[-1])

    chunk = _chunk(config, low, config._axis_positions is not None)
    kappas, weights, _, _ = _matsubara_sum(term, config.tau, 1e-12, MAX_MATSUBARA_TERMS, chunk)
    kappas, weights = np.array(kappas), np.array(weights)
    if low != l_max:
        return kappas, weights, _t_logs(config, kappas, l_max)
    rows = [
        tuple(np.concatenate([run[i][part] for run in runs])[: len(kappas)] for part in (0, 1))
        for i in range(len(config.objects))
    ]
    return kappas, weights, rows


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


def _stencil(h):
    """The 13 displacements: 0, then per axis +h, -h, +h/2, -h/2."""
    out = [np.zeros(3)]
    for e in np.eye(3):
        for step in (h, 0.5 * h):
            out += [step * e, -(step * e)]
    return out


def _fd(energies, h):
    """(force, Laplacian, est_error) from the energies at ``_stencil(h)``.

    Second central differences summed over the axes at h and h/2, with one
    Richardson halving; est_error is the refined value's distance to h/2's.
    """
    e0, e = energies[0], np.reshape(energies[1:], (3, 2, 2))  # axis, step, sign
    f = -(e[:, 0, 0] - e[:, 0, 1]) / (2.0 * h)
    raw, half = (
        sum((e[i, s, 0] - 2.0 * e0 + e[i, s, 1]) / step**2 for i in range(3))
        for s, step in enumerate((h, 0.5 * h))
    )
    refined = (4.0 * half - raw) / 3.0
    return f, refined, abs(refined - half)


def _axial_force(eng, h, axis, s=0.0):
    """-dE/ds along ``axis`` at displacement s e_axis: one central difference."""
    e = np.eye(3)[axis]
    return -(eng.energy((s + h) * e) - eng.energy((s - h) * e)) / (2.0 * h)


def force(config, label, h=None, l_max=None, n_nodes=32):
    """Force on the labeled object, -grad E by common-grid differences."""
    h = _step(config, label, h)
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    return np.array([_axial_force(eng, h, axis) for axis in range(3)])


def laplacian_fd(config, label, h=None, l_max=None, n_nodes=32, engine=None):
    """Displacement Laplacian of the energy from the 13-point stencil (``_fd``)."""
    h = _step(config, label, h)
    eng = engine or _CommonGridEngine(config, label, l_max, n_nodes)
    return _fd([eng.energy(u) for u in _stencil(h)], h)[1]


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


def _node_terms(eng, c, moved, h):
    """One row per kappa of chunk c: 13 stencil ln dets, weightless -b1, -b2, -b3.

    I - N is built once for each configuration ``moved`` of ``_stencil(h)``,
    one displaced (kappa, n, n) stack at a time.  The remainder group R is
    merged through the Schur complement of the labeled object's rows and
    columns: M_RR, the U row (A -> J blocks) and the V column (J -> A blocks)
    are index slices of the undisplaced matrix, dU and dV the same slices of
    the Richardson-refined central difference d(I - N)/da_i = -dN/da_i.
    """
    kappas, nb, steps = eng.kappas[eng.chunks[c]], eng.nb, _stencil(h)
    mine = np.arange(eng.idx * nb, (eng.idx + 1) * nb)
    rest = np.setdiff1d(np.arange(len(eng.config.objects) * nb), mine)

    def split(x):
        # U = -x_AR and V = -x_RA: their signs cancel in every product below
        return x[:, rest[:, None], rest], x[:, mine[:, None], rest], x[:, rest[:, None], mine]

    m = eng.matrix(c, moved[0])
    logdets = [_positive_logdet(m, "matrix", *eng.at(c, steps[0]))]
    m_rr, u_row, v_col = split(m)
    m_inv_v = np.linalg.solve(m_rr, v_col)
    n_eff = u_row @ m_inv_v
    merged = np.eye(nb) - n_eff
    _positive_logdet(merged, "merged-remainder matrix", *eng.at(c, steps[0]))
    resolvent = np.linalg.inv(merged)
    n_m = _per_kappa(eng.config.medium.refractive_index, kappas)
    b1 = 2.0 * (n_m * kappas) ** 2 * np.trace(resolvent @ n_eff, axis1=1, axis2=2)
    b2 = b3 = 0.0
    for axis in range(3):
        # Richardson (4 D(h/2) - D(h)) / 3 of the central differences D
        dm = 0.0
        for s, w in zip(range(1 + 4 * axis, 5 + 4 * axis), (-0.5, 0.5, 4.0, -4.0)):
            x = eng.matrix(c, moved[s])
            logdets.append(_positive_logdet(x, "matrix", *eng.at(c, steps[s])))
            dm = dm + w * x
        _, du, dv = split(dm / (3.0 * h))
        mid = np.linalg.solve(m_rr, dv)
        b2 += 2.0 * np.trace(resolvent @ (du @ mid), axis1=1, axis2=2)
        dn = du @ m_inv_v + u_row @ mid
        rdn = resolvent @ dn
        b3 += np.trace(rdn @ rdn, axis1=1, axis2=2)
    return np.transpose(logdets + [-b1, -b2, -b3])


def stability_report(config, label, h=None, l_max=None, n_nodes=32):
    """Force, FD Laplacian, decomposition and sign prediction in one grid pass."""
    h = _step(config, label, h)
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    moved = [_displaced(config, label, u) for u in _stencil(h)]
    rows = np.concatenate([_node_terms(eng, c, moved, h) for c in range(len(eng.chunks))])
    sums = np.cumsum(eng.weights[:, None] * rows, axis=0)[-1]  # in grid order, as energy
    f, lap, err = _fd(sums[:13], h)
    return StabilityReport(label, f, lap, *sums[13:], _sign_product(config, label), h, err)


def find_axial_equilibrium(
    config, label, axis, bracket, tol=1e-6, l_max=None, n_nodes=32
):
    """Find a zero of the axial force component within ``bracket``.

    ``bracket`` is a pair of displacements of the labeled object along
    ``axis`` (0, 1 or 2) relative to its configured position.  The force is
    the central difference of one frozen grid (that of ``config``, with its
    step h), and Brent's method locates its zero to ``tol``.  Returns an
    EquilibriumResult whose report is :func:`stability_report` at the root;
    absence of a sign change is a result, not an error.
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
