"""Interaction energies of sphere collections at imaginary frequency.

The energy of a collection of objects in a uniform medium is

    E = (1/2pi) * integral_0^inf dkappa  ln det(M(kappa))

where M has identity diagonal blocks and off-diagonal blocks -F_I X_IJ:
F_I is the scattering matrix of object I and X_IJ the translation matrix
carrying outgoing waves from object J to regular waves about object I.  At
finite temperature the integral becomes a Matsubara sum over
kappa_n = n*tau with the n = 0 term halved (tau = 2 pi k_B T L / (hbar c)).

Everything is evaluated in hbar = c = 1 units with one length unit L:
kappa in 1/L, energies in hbar c / L.

Balancing: F entries underflow while X entries overflow at small kappa, so
off-diagonal blocks are assembled from the similarity-balanced form
sign * exp(log|F_a|/2 + log|X_ab| + log|F_b|/2), which leaves the
determinant unchanged and every entry representable.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceBudgetError,
    GeometryError,
    UnphysicalTruncationError,
    ValidationError,
    ZeroFrequencyError,
)
from .materials import Medium
from .scattering import SphereObject, mie_tmatrix, fresnel_reflection
from .translation import reverse_translation, sector_size, translation_matrix

__all__ = [
    "Configuration",
    "EnergyResult",
    "assemble_block_matrix",
    "log_det_integrand",
    "energy_T0",
    "free_energy_T",
    "lifshitz_plates",
    "default_l_max",
    "KAPPA_FLOOR",
]

# stand-in wavenumber for the zero-frequency Matsubara term when a
# dispersion model diverges there
KAPPA_FLOOR = 1e-6


@dataclass(frozen=True)
class Configuration:
    """Two or more spheres in a uniform medium at temperature parameter tau."""

    objects: tuple
    medium: Medium = field(default_factory=Medium)
    tau: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if len(self.objects) < 2:
            raise ValidationError("a configuration needs at least two objects")
        labels = [o.label for o in self.objects]
        if len(set(labels)) != len(labels):
            raise ValidationError("object labels must be unique")
        if self.tau < 0.0:
            raise ValidationError("temperature parameter must be nonnegative")
        for i, a in enumerate(self.objects):
            for b in self.objects[i + 1 :]:
                gap = _gap(a, b)
                if gap <= 0.0:
                    raise GeometryError(
                        f"objects {a.label!r} and {b.label!r} overlap or touch"
                    )

    def min_gap(self):
        return min(
            _gap(a, b)
            for i, a in enumerate(self.objects)
            for b in self.objects[i + 1 :]
        )


def _gap(a, b):
    d = np.asarray(a.center) - np.asarray(b.center)
    return float(np.linalg.norm(d)) - a.radius - b.radius


def default_l_max(config):
    """Empirical starting multipole order: ceil(5 + 8 R_max / min gap)."""
    r_max = max(o.radius for o in config.objects)
    return math.ceil(5.0 + 8.0 * r_max / config.min_gap())


@dataclass
class EnergyResult:
    """Energy value with the numerical effort that produced it.

    ``samples`` rows are (kappa, integrand, cumulative) quadrature
    diagnostics (for a Matsubara sum, cumulative partial sums).
    """

    value: float
    l_max_used: int
    node_count: int
    est_rel_error: float
    samples: np.ndarray
    kappa_floor_used: bool = False


def _balanced(t_row, t_col, x):
    """s_row |F_row|^(1/2) X |F_col|^(1/2) from raw (sign, log) T-matrix pairs.

    Entries whose row or column amplitude is exactly zero (sign 0, log -inf)
    are set to zero, which is the limit of the 0 * inf their logs would
    otherwise form; a NaN from any other source is kept so that the
    determinant guard sees it.
    """
    s_i, g_i = t_row
    s_j, g_j = t_col
    sx, gx = x.signed_log()
    with np.errstate(invalid="ignore"):
        block = s_i[:, None] * sx * np.exp(0.5 * g_i[:, None] + gx + 0.5 * g_j[None, :])
    live = (s_i != 0.0)[:, None] & (s_j != 0.0)[None, :]
    return np.where(live, block, 0.0)


def _positive_logdet(m, what="matrix"):
    """ln det m, raising when the determinant is not positive and finite."""
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0.0 or not math.isfinite(logdet):
        raise UnphysicalTruncationError(
            f"{what} determinant lost positivity or is not finite; increase l_max"
        )
    return float(logdet)


def assemble_block_matrix(config, kappa, l_max):
    """Balanced block matrix whose log-determinant is the integrand.

    Identity diagonal blocks; off-diagonal block (I, J) represents
    -F_I X_IJ after the determinant-preserving balancing described in the
    module docstring.  For two objects its determinant equals
    det(I - F_A X_AB F_B X_BA).  Each pair is translated once; X_JI is its
    reciprocal image.
    """
    objs = config.objects
    nb = 2 * sector_size(l_max)
    n = len(objs)
    sl = [mie_tmatrix(o, config.medium, kappa, l_max).raw_signed_log() for o in objs]
    m = np.eye(n * nb)
    for i in range(n):
        for j in range(i + 1, n):
            d = np.asarray(objs[j].center, float) - np.asarray(objs[i].center, float)
            x = translation_matrix(config.medium, kappa, d, l_max)
            rows, cols = slice(i * nb, (i + 1) * nb), slice(j * nb, (j + 1) * nb)
            m[rows, cols] = -_balanced(sl[i], sl[j], x)
            m[cols, rows] = -_balanced(sl[j], sl[i], reverse_translation(x))
    return m


def log_det_integrand(config, kappa, l_max, method="det"):
    """ln det of the block matrix; <= 0 for same-class objects.

    ``method`` "det" uses a sign-tracked LU determinant; "tracelog" takes
    the trace of the dense matrix logarithm (cross-check implementation).
    The truncated matrix must stay positive definite in the determinant
    sense; a non-positive or non-finite determinant signals an unphysical
    truncation.
    """
    m = assemble_block_matrix(config, kappa, l_max)
    if method == "tracelog":
        return float(np.trace(scipy.linalg.logm(m)).real)
    return _positive_logdet(m)


def _quad_nodes(n_nodes, scale):
    """Gauss-Legendre nodes/weights for integral_0^inf via kappa=scale(1-t)/t."""
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    kappa = scale * (1.0 - t) / t
    jac = scale / t**2
    return kappa, w * jac


def _integrate_T0(config, l_max, n_nodes):
    scale = 1.0 / config.min_gap()
    kappas, weights = _quad_nodes(n_nodes, scale)
    vals = np.array([log_det_integrand(config, k, l_max) for k in kappas])
    contrib = weights * vals / (2.0 * math.pi)
    order = np.argsort(kappas)
    samples = np.column_stack(
        [kappas[order], vals[order], np.cumsum(contrib[order])]
    )
    return float(contrib.sum()), samples


def energy_T0(config, tol=1e-6, max_refinements=6, l_max=None, n_nodes=24):
    """Zero-temperature energy by node-doubling quadrature.

    With ``l_max=None`` the multipole order starts at the geometric default
    and doubles until the value is order-converged to ``tol``; an explicit
    ``l_max`` fixes the order (only the quadrature is refined), which lets
    two calculations share a common truncation.
    """
    if config.tau != 0.0:
        raise ValidationError("energy_T0 requires tau = 0")
    fixed_order = l_max is not None
    if l_max is None:
        l_max = default_l_max(config)
    value, samples = _integrate_T0(config, l_max, n_nodes)
    rel = math.inf
    for _ in range(max_refinements):
        nodes_ok = False
        while not nodes_ok:
            v2, s2 = _integrate_T0(config, l_max, 2 * n_nodes)
            rel_nodes = abs(v2 - value) / max(abs(v2), 1e-300)
            n_nodes *= 2
            value, samples = v2, s2
            nodes_ok = rel_nodes < tol
            if not nodes_ok and n_nodes > 1536:
                raise ConvergenceBudgetError(
                    "node budget exhausted",
                    partial=EnergyResult(
                        value, l_max, n_nodes, rel_nodes, samples
                    ),
                )
        if fixed_order:
            return EnergyResult(value, l_max, n_nodes, rel_nodes, samples)
        v3, s3 = _integrate_T0(config, 2 * l_max, n_nodes)
        rel = abs(v3 - value) / max(abs(v3), 1e-300)
        if rel < tol:
            return EnergyResult(value, l_max, n_nodes, max(rel, rel_nodes), samples)
        l_max *= 2
        value, samples = v3, s3
    raise ConvergenceBudgetError(
        "multipole budget exhausted",
        partial=EnergyResult(value, l_max, n_nodes, rel, samples),
    )


def _needs_floor(config):
    kinds = {o.eps.kind for o in config.objects} | {o.mu.kind for o in config.objects}
    kinds |= {config.medium.eps_model.kind, config.medium.mu_model.kind}
    return bool(kinds & {"plasma", "drude"})


def free_energy_T(config, tol=1e-6, l_max=None, max_terms=100000):
    """Finite-temperature free energy: (tau/2pi) * primed Matsubara sum.

    The n = 0 term is halved and, for every material, evaluated at
    kappa = KAPPA_FLOOR in place of the kappa -> 0 limit; no analytic limit
    is taken.  ``kappa_floor_used`` is set only when a plasma or Drude model
    enters, since those diverge at kappa = 0; for other materials the floor
    value stands in for the limit without a flag.  As with
    :func:`energy_T0`, an explicit ``l_max`` fixes the multipole order while
    ``l_max=None`` doubles it until the sum is order-converged.
    """
    if config.tau <= 0.0:
        raise ValidationError("free_energy_T requires tau > 0")
    fixed_order = l_max is not None
    if l_max is None:
        l_max = default_l_max(config)
    tau = config.tau

    floor_used = _needs_floor(config)
    prev = None
    for _ in range(4):
        try:
            zero_term = 0.5 * log_det_integrand(config, KAPPA_FLOOR, l_max)
        except ZeroFrequencyError:
            raise
        total = zero_term
        rows = [(0.0, zero_term, tau / (2.0 * math.pi) * total)]
        term_prev = None
        n = 0
        while True:
            n += 1
            if n > max_terms:
                raise ConvergenceBudgetError(
                    "Matsubara term budget exhausted",
                    partial=EnergyResult(
                        tau / (2.0 * math.pi) * total,
                        l_max,
                        n,
                        math.inf,
                        np.asarray(rows),
                        floor_used,
                    ),
                )
            term = log_det_integrand(config, n * tau, l_max)
            total += term
            rows.append((n * tau, term, tau / (2.0 * math.pi) * total))
            if term == 0.0:
                # underflowed below machine precision: the tail is zero
                break
            if term_prev is not None and abs(term) < abs(term_prev):
                ratio = abs(term) / abs(term_prev)
                tail = abs(term) * ratio / (1.0 - ratio)
                if tail < tol * max(abs(total), 1e-300):
                    break
            term_prev = term
        value = tau / (2.0 * math.pi) * total
        if fixed_order:
            tail_rel = abs(term) / max(abs(total), 1e-300)
            return EnergyResult(
                value, l_max, n + 1, tail_rel, np.asarray(rows), floor_used
            )
        if prev is not None:
            rel = abs(value - prev) / max(abs(value), 1e-300)
            if rel < tol:
                return EnergyResult(
                    value, l_max, n + 1, rel, np.asarray(rows), floor_used
                )
        prev = value
        l_max *= 2
    raise ConvergenceBudgetError(
        "multipole budget exhausted",
        partial=EnergyResult(prev, l_max, 0, math.inf, np.asarray(rows), floor_used),
    )


# ---------------------------------------------------------------------------
# Parallel plates (independent oracle for signs and magnitudes)


def _plate_kernel(mat1, mat2, medium, gap, kappa, n_q):
    """(1/2pi) * integral over the in-plane decay constant q at one kappa."""
    n_m = medium.refractive_index(kappa)
    t, w = np.polynomial.legendre.leggauss(n_q)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    # q from n_m kappa to infinity, compactified on the 1/(2 gap) scale
    q = n_m * kappa + (1.0 / (2.0 * gap)) * (1.0 - t) / t
    jac = (1.0 / (2.0 * gap)) / t**2
    total = 0.0
    for qq, ww, jj in zip(q, w, jac):
        k_t2 = qq * qq - (n_m * kappa) ** 2
        k_t = math.sqrt(max(k_t2, 0.0))
        r1_te, r1_tm = fresnel_reflection(mat1, medium, kappa, k_t)
        r2_te, r2_tm = fresnel_reflection(mat2, medium, kappa, k_t)
        e = math.exp(-2.0 * qq * gap)
        val = math.log1p(-r1_te * r2_te * e) + math.log1p(-r1_tm * r2_tm * e)
        total += ww * jj * qq * val
    return total / (2.0 * math.pi)


def lifshitz_plates(mat1, mat2, medium, gap, tau=0.0, tol=1e-8):
    """Interaction energy per unit area of two half-spaces across ``gap``.

    Materials are (eps_model, mu_model) pairs.  At tau = 0 this is the
    double imaginary-frequency integral over kappa and the in-plane decay
    constant; at tau > 0 the kappa integral becomes the primed Matsubara
    sum.  Attraction gives a negative value.
    """
    if gap <= 0.0:
        raise ValidationError("gap must be positive")

    def value(n_q, n_nodes):
        if tau == 0.0:
            kappas, weights = _quad_nodes(n_nodes, 1.0 / gap)
            vals = [
                _plate_kernel(mat1, mat2, medium, gap, k, n_q) for k in kappas
            ]
            return float(np.dot(weights, vals)) / (2.0 * math.pi)
        total = 0.5 * _plate_kernel(mat1, mat2, medium, gap, KAPPA_FLOOR, n_q)
        n = 0
        while True:
            n += 1
            term = _plate_kernel(mat1, mat2, medium, gap, n * tau, n_q)
            total += term
            if abs(term) < 1e-3 * tol * max(abs(total), 1e-300) or n > 100000:
                break
        return tau / (2.0 * math.pi) * total

    n_q, n_nodes = 32, 32
    prev = value(n_q, n_nodes)
    for _ in range(6):
        cur = value(2 * n_q, 2 * n_nodes)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        n_q *= 2
        n_nodes *= 2
        prev = cur
    raise ConvergenceBudgetError("plate quadrature budget exhausted", partial=prev)
