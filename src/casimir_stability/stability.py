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

import math
from dataclasses import dataclass, replace

import numpy as np

from .casimir import (
    KAPPA_FLOOR,
    Configuration,
    _balanced,
    _positive_logdet,
    _quad_nodes,
    default_l_max,
)
from .errors import (
    ConvergenceBudgetError,
    GeometryError,
    ToleranceError,
    ValidationError,
)
from .materials import classify
from .scattering import mie_tmatrix
from .translation import (
    reverse_translation,
    sector_size,
    translation_gradient,
    translation_matrix,
)

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

# Matsubara terms the frozen finite-temperature grid may hold before its
# truncation test gives up
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

    T-matrices and translation blocks between the unmoved objects are
    computed once per wavenumber; only blocks touching the labeled object
    are rebuilt for each displacement.
    """

    def __init__(self, config, label, l_max=None, n_nodes=32):
        self.config = config
        labels = [o.label for o in config.objects]
        if label not in labels:
            raise ValidationError(f"unknown object label {label!r}")
        self.idx = labels.index(label)
        self.l_max = l_max if l_max is not None else default_l_max(config)
        self.nb = 2 * sector_size(self.l_max)
        if config.tau == 0.0:
            kappas, weights = _quad_nodes(n_nodes, 1.0 / config.min_gap())
            self.kappas = list(kappas)
            self.weights = list(weights / (2.0 * math.pi))
        else:
            self.kappas, self.weights = self._matsubara_grid(config, n_nodes)
        self._prepare()

    def _matsubara_grid(self, config, n_nodes):
        from .casimir import log_det_integrand

        tau = config.tau
        kappas = [KAPPA_FLOOR]
        weights = [0.5 * tau / (2.0 * math.pi)]
        n = 0
        ref = None
        while True:
            n += 1
            val = log_det_integrand(config, n * tau, min(self.l_max, 4))
            kappas.append(n * tau)
            weights.append(tau / (2.0 * math.pi))
            ref = abs(val) if ref is None else max(ref, abs(val))
            if abs(val) < 1e-12 * max(ref, 1e-300) and n > 4:
                return kappas, weights
            if n >= MAX_MATSUBARA_TERMS:
                raise ConvergenceBudgetError(
                    f"Matsubara grid not truncated within {MAX_MATSUBARA_TERMS} terms",
                    partial=(kappas, weights),
                )

    def _prepare(self):
        cfg = self.config
        objs = cfg.objects
        self.t_logs = []  # per kappa: list of (sign, log) per object
        self.static = []  # per kappa: dict (i, j) -> balanced block
        for kappa in self.kappas:
            sl = [
                mie_tmatrix(o, cfg.medium, kappa, self.l_max).raw_signed_log()
                for o in objs
            ]
            blocks = {}
            for i in range(len(objs)):
                for j in range(i + 1, len(objs)):
                    if self.idx in (i, j):
                        continue
                    d = np.asarray(objs[j].center) - np.asarray(objs[i].center)
                    x = translation_matrix(cfg.medium, kappa, d, self.l_max)
                    blocks[(i, j)] = _balanced(sl[i], sl[j], x)
                    blocks[(j, i)] = _balanced(sl[j], sl[i], reverse_translation(x))
            self.t_logs.append(sl)
            self.static.append(blocks)

    def moved_center(self, u):
        return np.asarray(self.config.objects[self.idx].center) + np.asarray(u)

    def check_displacement(self, u):
        """Raise if displacing the labeled object by u causes an overlap."""
        moved = self.moved_center(u)
        a = self.config.objects[self.idx]
        for j, o in enumerate(self.config.objects):
            if j == self.idx:
                continue
            gap = np.linalg.norm(moved - np.asarray(o.center)) - a.radius - o.radius
            if gap <= 0.0:
                raise GeometryError("displacement makes objects overlap")

    def energy(self, u):
        """Interaction energy with the labeled object displaced by u."""
        self.check_displacement(u)
        cfg = self.config
        objs = cfg.objects
        n = len(objs)
        moved = self.moved_center(u)
        total = 0.0
        for kappa, weight, sl, blocks in zip(
            self.kappas, self.weights, self.t_logs, self.static
        ):
            m = np.eye(n * self.nb)
            for i in range(n):
                for j in range(i + 1, n):
                    if self.idx in (i, j):
                        ci = moved if i == self.idx else np.asarray(objs[i].center)
                        cj = moved if j == self.idx else np.asarray(objs[j].center)
                        x = translation_matrix(
                            cfg.medium, kappa, cj - ci, self.l_max
                        )
                        bij = _balanced(sl[i], sl[j], x)
                        bji = _balanced(sl[j], sl[i], reverse_translation(x))
                    else:
                        bij = blocks[(i, j)]
                        bji = blocks[(j, i)]
                    m[i * self.nb : (i + 1) * self.nb, j * self.nb : (j + 1) * self.nb] = -bij
                    m[j * self.nb : (j + 1) * self.nb, i * self.nb : (i + 1) * self.nb] = -bji
            total += weight * _positive_logdet(m)
        return total


def _default_h(config, label):
    objs = {o.label: o for o in config.objects}
    if label not in objs:
        raise ValidationError(f"no object labeled {label!r}")
    a = objs[label]
    gap = min(
        np.linalg.norm(np.asarray(a.center) - np.asarray(o.center))
        - a.radius
        - o.radius
        for o in config.objects
        if o.label != label
    )
    return 1e-3 * gap, gap


def force(config, label, h=None, l_max=None, n_nodes=32, engine=None):
    """Force on the labeled object, -grad E by common-grid differences."""
    h, gap = (h, None) if h is not None else _default_h(config, label)
    if gap is None:
        _, gap = _default_h(config, label)
    if h >= 0.1 * gap:
        raise ToleranceError("finite-difference step must be below 0.1*gap")
    eng = engine or _CommonGridEngine(config, label, l_max, n_nodes)
    f = np.zeros(3)
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        f[axis] = -(eng.energy(e) - eng.energy(-e)) / (2.0 * h)
    return f


def laplacian_fd(config, label, h=None, l_max=None, n_nodes=32, engine=None,
                 details=False):
    """Laplacian of the energy under rigid displacement of one object.

    Sum of second central differences over the three axes, with one
    Richardson halving; returns the refined value (or, with ``details``,
    the tuple (refined, raw, est_error, h)).
    """
    h, gap = (h, None) if h is not None else _default_h(config, label)
    if gap is None:
        _, gap = _default_h(config, label)
    if h >= 0.1 * gap:
        raise ToleranceError("finite-difference step must be below 0.1*gap")
    eng = engine or _CommonGridEngine(config, label, l_max, n_nodes)
    e0 = eng.energy(np.zeros(3))

    def second_sum(step):
        total = 0.0
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = step
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
    the displacement Laplacian of the energy.
    """
    if h is None:
        h, _ = _default_h(config, label)
    labels = [o.label for o in config.objects]
    if label not in labels:
        raise ValidationError(f"unknown object label {label!r}")
    a_idx = labels.index(label)
    if l_max is None:
        l_max = default_l_max(config)
    nb = 2 * sector_size(l_max)
    objs = config.objects
    rest = [i for i in range(len(objs)) if i != a_idx]
    if config.tau == 0.0:
        kappas, weights = _quad_nodes(n_nodes, 1.0 / config.min_gap())
        weights = weights / (2.0 * math.pi)
    else:
        eng = _CommonGridEngine(config, label, l_max, n_nodes)
        kappas, weights = np.asarray(eng.kappas), np.asarray(eng.weights)

    terms = np.zeros(3)
    medium = config.medium
    for kappa, weight in zip(kappas, weights):
        n_m = medium.refractive_index(kappa)
        sl = [mie_tmatrix(o, medium, kappa, l_max).raw_signed_log() for o in objs]
        # remainder-block matrix (balanced) and its inverse action
        m_rr = np.eye(len(rest) * nb)
        for bi, i in enumerate(rest):
            for bj in range(bi + 1, len(rest)):
                j = rest[bj]
                d = np.asarray(objs[j].center) - np.asarray(objs[i].center)
                x = translation_matrix(medium, kappa, d, l_max)
                rows, cols = slice(bi * nb, (bi + 1) * nb), slice(bj * nb, (bj + 1) * nb)
                m_rr[rows, cols] = -_balanced(sl[i], sl[j], x)
                m_rr[cols, rows] = -_balanced(sl[j], sl[i], reverse_translation(x))
        # U row (A -> J blocks), V column (J -> A blocks) and their gradients
        u_row = np.zeros((nb, len(rest) * nb))
        v_col = np.zeros((len(rest) * nb, nb))
        du = [np.zeros_like(u_row) for _ in range(3)]
        dv = [np.zeros_like(v_col) for _ in range(3)]
        for bj, j in enumerate(rest):
            d = np.asarray(objs[j].center) - np.asarray(objs[a_idx].center)
            x = translation_matrix(medium, kappa, d, l_max)
            cols = slice(bj * nb, (bj + 1) * nb)
            u_row[:, cols] = _balanced(sl[a_idx], sl[j], x)
            v_col[cols, :] = _balanced(sl[j], sl[a_idx], reverse_translation(x))
            grads = translation_gradient(
                medium, kappa, d, l_max, h, richardson=True
            )
            for axis in range(3):
                g = grads[axis]
                # moving A by +u shifts d by -u, so d/d(a_i) X_AJ = -dX/dd_i;
                # for the reversed block, X'(-d) = -D X'(d)^T D, so
                # d/d(a_i) X_JA = +dX/dd_i at -d = -D g^T D
                du[axis][:, cols] = -_balanced(sl[a_idx], sl[j], g)
                dv[axis][cols, :] = -_balanced(sl[j], sl[a_idx], reverse_translation(g))
        m_inv_v = np.linalg.solve(m_rr, v_col)
        n_eff = u_row @ m_inv_v
        resolvent = np.linalg.inv(np.eye(nb) - n_eff)
        _positive_logdet(np.eye(nb) - n_eff, "merged-remainder matrix")
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
    """Full report: force, FD Laplacian, decomposition and sign prediction."""
    eng = _CommonGridEngine(config, label, l_max, n_nodes)
    if h is None:
        h, _ = _default_h(config, label)
    f = force(config, label, h=h, engine=eng)
    lap, raw, err, h_used = laplacian_fd(config, label, h=h, engine=eng, details=True)
    t1, t2, t3 = laplacian_decomposition(
        config, label, h=h, l_max=eng.l_max, n_nodes=len(eng.kappas)
        if config.tau == 0.0
        else n_nodes,
    )
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
