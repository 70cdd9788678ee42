"""Forces, energy Laplacians and equilibrium analysis for sphere collections.

The central quantity is the Laplacian of the interaction energy under rigid
displacement of one object: a non-positive Laplacian at a force equilibrium
rules out stable levitation.  Two independent routes are provided:

* finite differences of the energy on a frozen quadrature grid (the same
  nodes and multipole order for every displaced geometry, so quadrature
  error cancels in the differences), and
* the three-term trace decomposition

      laplacian = term1 + term2 + term3,
      term_k = -(1/2pi) * integral dkappa  bracket_k(kappa),

  with bracket_1 = 2 n^2 kappa^2 tr[(1-N)^{-1} N], bracket_2 the
  mixed-gradient trace, and bracket_3 = sum_i tr[((1-N)^{-1} d_i N)^2].
  bracket_3 is a trace of the square of a symmetrizable matrix and is
  therefore nonnegative; with the negative prefactor the stored term3 is
  always <= 0.  For two same-sign-class groups bracket_1 and bracket_2 are
  also nonnegative, which forces laplacian <= 0 (no stable levitation).

When more than two objects are present, the remainder group R is merged by
block algebra (a Schur complement of the labeled object's rows/columns),
never by constructing a compound scatterer.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import casimir
from .casimir import (
    KAPPA_FLOOR,
    Configuration,
    _gap,
    _matsubara_sum,
    _pair_blocks,
    _place_blocks,
    _positive_logdet,
    _quad_nodes,
    default_l_max,
)
from .errors import (
    GeometryError,
    ToleranceError,
    ValidationError,
)
from .materials import classify
from .scattering import mie_tmatrix
from .translation import sector_size, translation_gradient, translation_matrix

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


class _CommonGridEngine:
    """Frozen-grid energy evaluator for displacements of one object.

    The grid is the quadrature of ``n_nodes`` nodes at tau = 0, or the
    Matsubara frequencies up to the truncation of a low-order (l_max <= 4)
    sum at tau > 0.  T-matrices and translation blocks between the unmoved
    objects are computed once per wavenumber; only blocks touching the
    labeled object are rebuilt for each displacement.
    """

    def __init__(self, config, label, l_max=None, n_nodes=32):
        self.config = config
        objs = config.objects
        labels = [o.label for o in objs]
        if label not in labels:
            raise ValidationError(f"unknown object label {label!r}")
        self.idx = labels.index(label)
        self.l_max = l_max if l_max is not None else default_l_max(config)
        self.nb = 2 * sector_size(self.l_max)
        self.centers = [np.asarray(o.center, float) for o in objs]
        pairs = [(i, j) for i in range(len(objs)) for j in range(i + 1, len(objs))]
        self.moving = [p for p in pairs if self.idx in p]
        if config.tau == 0.0:
            self.kappas, weights = _quad_nodes(n_nodes, 1.0 / config.min_gap())
            self.weights = weights / (2.0 * math.pi)
        else:
            # truncated where the tail of a low-order sum is below 1e-12 of it
            integrand = functools.partial(
                casimir.log_det_integrand, config, l_max=min(self.l_max, 4)
            )
            self.kappas, self.weights, _ = _matsubara_sum(
                integrand, config.tau, 1e-12, MAX_MATSUBARA_TERMS
            )
        # per kappa: raw (sign, log) T-matrices of every object, and the
        # balanced blocks {(i, j): block} between unmoved objects
        self.t_logs = [
            [mie_tmatrix(o, config.medium, k, self.l_max).raw_signed_log() for o in objs]
            for k in self.kappas
        ]
        static = [p for p in pairs if self.idx not in p]
        self.static = [
            self.blocks(k, self.centers, static) for k in range(len(self.kappas))
        ]

    def blocks(self, k, centers, pairs):
        """Balanced blocks at node k of ``pairs`` (i < j), objects at ``centers``."""
        sl = self.t_logs[k]
        blocks = {}
        for i, j in pairs:
            d = centers[j] - centers[i]
            x = translation_matrix(self.config.medium, self.kappas[k], d, self.l_max)
            blocks[(i, j)], blocks[(j, i)] = _pair_blocks(x, sl[i], sl[j])
        return blocks

    def displaced(self, u):
        """Object centres with the labeled one displaced by u; raises on overlap."""
        centers = list(self.centers)
        centers[self.idx] = centers[self.idx] + np.asarray(u)
        a = self.config.objects[self.idx]
        for j, o in enumerate(self.config.objects):
            gap = np.linalg.norm(centers[self.idx] - centers[j]) - a.radius - o.radius
            if j != self.idx and gap <= 0.0:
                raise GeometryError("displacement makes objects overlap")
        return centers

    def energy(self, u):
        """Interaction energy with the labeled object displaced by u."""
        centers = self.displaced(u)
        total = 0.0
        for k, weight in enumerate(self.weights):
            blocks = {**self.static[k], **self.blocks(k, centers, self.moving)}
            m = _place_blocks(blocks, range(len(centers)), self.nb)
            total += weight * _positive_logdet(m)
        return total


def _default_h(config, label):
    objs = {o.label: o for o in config.objects}
    if label not in objs:
        raise ValidationError(f"no object labeled {label!r}")
    gap = min(_gap(objs[label], o) for o in config.objects if o.label != label)
    return 1e-3 * gap, gap


def _step(config, label, h):
    """Finite-difference step: ``h``, or 1e-3 * gap by default; below 0.1 * gap."""
    default, gap = _default_h(config, label)
    h = default if h is None else h
    if h >= 0.1 * gap:
        raise ToleranceError("finite-difference step must be below 0.1*gap")
    return h


def force(config, label, h=None, l_max=None, n_nodes=32, engine=None):
    """Force on the labeled object, -grad E by common-grid differences."""
    h = _step(config, label, h)
    eng = engine or _CommonGridEngine(config, label, l_max, n_nodes)
    return np.array(
        [-(eng.energy(e) - eng.energy(-e)) / (2.0 * h) for e in h * np.eye(3)]
    )


def laplacian_fd(config, label, h=None, l_max=None, n_nodes=32, engine=None,
                 details=False):
    """Laplacian of the energy under rigid displacement of one object.

    Sum of second central differences over the three axes, with one
    Richardson halving; returns the refined value (or, with ``details``,
    the tuple (refined, raw, est_error, h)).
    """
    h = _step(config, label, h)
    eng = engine or _CommonGridEngine(config, label, l_max, n_nodes)
    e0 = eng.energy(np.zeros(3))

    def second_sum(step):
        total = 0.0
        for e in step * np.eye(3):
            total += (eng.energy(e) - 2.0 * e0 + eng.energy(-e)) / step**2
        return total

    raw = second_sum(h)
    half = second_sum(0.5 * h)
    refined = (4.0 * half - raw) / 3.0
    est_error = abs(refined - half)
    if details:
        return refined, raw, est_error, h
    return refined


def _sign_product(config, label):
    """s^A * s^R when both groups have a definite class, else None."""
    gap = config.min_gap()
    samples = [0.5 / gap, 1.0 / gap, 2.0 / gap, 8.0 / gap]
    signs = {}
    for o in config.objects:
        c = classify(o.eps, o.mu, config.medium, samples)
        signs[o.label] = c.sign
    s_a = signs[label]
    rest = {s for lbl, s in signs.items() if lbl != label}
    if s_a in (None, 0) or len(rest) != 1:
        return None
    s_r = rest.pop()
    if s_r in (None, 0):
        return None
    return s_a * s_r


def laplacian_decomposition(config, label, h=None, l_max=None, n_nodes=32):
    """kappa-integrated trace decomposition (term1, term2, term3).

    The remainder group is merged through the Schur complement of the
    labeled object's block rows/columns; translation gradients use central
    differences with one Richardson halving.  term1 + term2 + term3 equals
    the displacement Laplacian of the energy on the same frozen grid.
    """
    h = _step(config, label, h)
    return _decomposition(_CommonGridEngine(config, label, l_max, n_nodes), h)


def _decomposition(eng, h):
    """Trace decomposition on the grid, T-matrices and static blocks of ``eng``."""
    medium = eng.config.medium
    a_idx, nb = eng.idx, eng.nb
    rest = [i for i in range(len(eng.centers)) if i != a_idx]
    offsets = [eng.centers[j] - eng.centers[a_idx] for j in rest]
    terms = np.zeros(3)
    for k, (kappa, weight) in enumerate(zip(eng.kappas, eng.weights)):
        n_m = medium.refractive_index(kappa)
        sl = eng.t_logs[k]
        # I - N with the labeled object first: the remainder block M_RR, the
        # U row (A -> J blocks) and the V column (J -> A blocks)
        blocks = {**eng.static[k], **eng.blocks(k, eng.centers, eng.moving)}
        m = _place_blocks(blocks, [a_idx] + rest, nb)
        m_rr, u_row, v_col = m[nb:, nb:], -m[:nb, nb:], -m[nb:, :nb]
        grads = [
            translation_gradient(medium, kappa, d, eng.l_max, h, richardson=True)
            for d in offsets
        ]
        du, dv = [], []
        for axis in range(3):
            # moving A by +u shifts d by -u, so d/d(a_i) X_AJ = -dX/dd_i;
            # for the reversed block, X'(-d) = -D X'(d)^T D, so
            # d/d(a_i) X_JA = +dX/dd_i at -d = -D g^T D
            g = [_pair_blocks(gj[axis], sl[a_idx], sl[j]) for gj, j in zip(grads, rest)]
            du.append(-np.hstack([g_aj for g_aj, _ in g]))
            dv.append(-np.vstack([g_ja for _, g_ja in g]))
        m_inv_v = np.linalg.solve(m_rr, v_col)
        n_eff = u_row @ m_inv_v
        _positive_logdet(np.eye(nb) - n_eff, "merged-remainder matrix")
        resolvent = np.linalg.inv(np.eye(nb) - n_eff)
        b1 = 2.0 * (n_m * kappa) ** 2 * np.trace(resolvent @ n_eff)
        b2 = 0.0
        b3 = 0.0
        for axis in range(3):
            mid = np.linalg.solve(m_rr, dv[axis])
            b2 += 2.0 * np.trace(resolvent @ (du[axis] @ mid))
            dn = du[axis] @ m_inv_v + u_row @ mid
            rdn = resolvent @ dn
            b3 += np.trace(rdn @ rdn)
        terms += weight * np.array([-b1, -b2, -b3])
    return tuple(terms)


def stability_report(config, label, h=None, l_max=None, n_nodes=32):
    """Full report: force, FD Laplacian, decomposition and sign prediction.

    One frozen grid serves all three.
    """
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    h = _step(config, label, h)
    f = force(config, label, h=h, engine=eng)
    lap, raw, err, h_used = laplacian_fd(config, label, h=h, engine=eng, details=True)
    t1, t2, t3 = _decomposition(eng, h)
    return StabilityReport(
        object_label=label,
        force=f,
        laplacian=lap,
        term1=t1,
        term2=t2,
        term3=t3,
        predicted_sign_product=_sign_product(config, label),
        h_used=h_used,
        est_error=err,
    )


def find_axial_equilibrium(
    config, label, axis, bracket, tol=1e-6, max_iter=80, l_max=None, n_nodes=32
):
    """Bisect the axial force component to zero within ``bracket``.

    ``bracket`` is a pair of displacements of the labeled object along
    ``axis`` (0, 1 or 2) relative to its configured position.  Returns an
    EquilibriumResult; absence of a sign change is a result, not an error.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def axial_force(s):
        moved = _with_displacement(config, label, axis, s)
        return force(moved, label, l_max=l_max, n_nodes=n_nodes)[axis]

    f_lo = axial_force(lo)
    f_hi = axial_force(hi)
    if f_lo == 0.0:
        root = lo
    elif f_hi == 0.0:
        root = hi
    elif f_lo * f_hi > 0.0:
        return EquilibriumResult(found=False)
    else:
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            f_mid = axial_force(mid)
            if f_mid == 0.0 or (hi - lo) < tol:
                break
            if f_lo * f_mid < 0.0:
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
        root = 0.5 * (lo + hi)
    at_root = _with_displacement(config, label, axis, root)
    report = stability_report(at_root, label, l_max=l_max, n_nodes=n_nodes)
    base = np.asarray(
        next(o for o in config.objects if o.label == label).center, float
    )
    return EquilibriumResult(found=True, position=float(base[axis] + root), report=report)


def _with_displacement(config, label, axis, s):
    objs = []
    for o in config.objects:
        if o.label == label:
            center = list(o.center)
            center[axis] += s
            objs.append(replace(o, center=tuple(center)))
        else:
            objs.append(o)
    return Configuration(tuple(objs), config.medium, config.tau)
