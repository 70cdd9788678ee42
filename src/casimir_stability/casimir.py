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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceBudgetError,
    GeometryError,
    UnphysicalTruncationError,
    ValidationError,
)
from .materials import Medium
from .scattering import mie_tmatrix, fresnel_reflection
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

# Matsubara terms a streaming sum (free_energy_T, lifshitz_plates) may take
MAX_SUM_TERMS = 100000

# doublings of l_max energy_T0 may make before it gives up
MAX_ORDER_DOUBLINGS = 6


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


def _pair_blocks(x, t_i, t_j):
    """Balanced blocks (I, J) and (J, I) of one pair from X_IJ alone.

    ``t_i`` and ``t_j`` are the raw (sign, log) T-matrix pairs of the two
    objects and X_JI is the reciprocal image of X_IJ.  Each block is
    s_row |F_row|^(1/2) X |F_col|^(1/2).  Entries whose row or column
    amplitude is exactly zero (sign 0, log -inf) are set to zero, the limit
    of the 0 * inf their logs would otherwise form; a NaN from any other
    source is kept so that the determinant guard sees it.
    """

    def balanced(t_row, t_col, y):
        (s_r, g_r), (s_c, g_c) = t_row, t_col
        sy, gy = y.signed_log()
        with np.errstate(invalid="ignore"):
            scale = np.exp(0.5 * g_r[:, None] + gy + 0.5 * g_c[None, :])
            block = s_r[:, None] * sy * scale
        live = (s_r != 0.0)[:, None] & (s_c != 0.0)[None, :]
        return np.where(live, block, 0.0)

    return balanced(t_i, t_j, x), balanced(t_j, t_i, reverse_translation(x))


def _place_blocks(blocks, order, nb):
    """I - N over the objects ``order`` from balanced blocks {(I, J): block}."""
    m = np.eye(len(order) * nb)
    for a, i in enumerate(order):
        for b, j in enumerate(order):
            if i != j:
                m[a * nb : (a + 1) * nb, b * nb : (b + 1) * nb] = -blocks[(i, j)]
    return m


def _positive_logdet(m, what="matrix"):
    """ln det m, raising when the determinant is not positive and finite."""
    if not np.isfinite(m).all():
        raise UnphysicalTruncationError(
            f"{what} has non-finite entries (NaN or inf in a T-matrix or translation)"
        )
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
    sl = [mie_tmatrix(o, config.medium, kappa, l_max).raw_signed_log() for o in objs]
    blocks = {}
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            d = np.asarray(objs[j].center, float) - np.asarray(objs[i].center, float)
            x = translation_matrix(config.medium, kappa, d, l_max)
            blocks[(i, j)], blocks[(j, i)] = _pair_blocks(x, sl[i], sl[j])
    return _place_blocks(blocks, range(len(objs)), 2 * sector_size(l_max))


def log_det_integrand(config, kappa, l_max):
    """ln det of the block matrix; <= 0 for same-class objects.

    The truncated matrix must stay positive definite in the determinant
    sense; a non-positive or non-finite determinant signals an unphysical
    truncation.
    """
    return _positive_logdet(assemble_block_matrix(config, kappa, l_max))


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


def energy_T0(config, tol=1e-6, l_max=None, n_nodes=24):
    """Zero-temperature energy by node-doubling quadrature.

    With ``l_max=None`` the multipole order starts at the geometric default
    and doubles, at most MAX_ORDER_DOUBLINGS times, until the value is
    order-converged to ``tol``; an explicit ``l_max`` fixes the order (only
    the quadrature is refined), so two calculations can share a truncation.
    """
    if config.tau != 0.0:
        raise ValidationError("energy_T0 requires tau = 0")
    fixed_order = l_max is not None
    if l_max is None:
        l_max = default_l_max(config)
    value, samples = _integrate_T0(config, l_max, n_nodes)
    rel = math.inf
    for _ in range(MAX_ORDER_DOUBLINGS):
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


def _matsubara_sum(term, tau, tol, max_terms):
    """Primed Matsubara sum of ``term(kappa)``, truncated by its tail.

    kappa_0 = KAPPA_FLOOR enters at half weight, then kappa_n = n * tau.
    The sum stops when a term underflows to zero or when, on decreasing
    terms, the geometric tail |t_n| r / (1 - r), r = |t_n / t_(n-1)|, is
    below ``tol`` of the running sum; after ``max_terms`` terms with n >= 1
    it raises ConvergenceBudgetError with partial = (kappas, weights).
    Returns (kappas, weights, terms): weights include tau / (2 pi), terms
    are the summands in order (the n = 0 value halved).
    """
    kappas = [KAPPA_FLOOR]
    weights = [0.5 * tau / (2.0 * math.pi)]
    terms = [0.5 * term(KAPPA_FLOOR)]
    total = terms[0]
    for n in range(1, max_terms + 1):
        value = term(n * tau)
        kappas.append(n * tau)
        weights.append(tau / (2.0 * math.pi))
        terms.append(value)
        total += value
        ratio = abs(value) / abs(terms[-2]) if n > 1 else math.inf
        tail = abs(value) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
        if value == 0.0 or tail < tol * max(abs(total), 1e-300):
            return kappas, weights, terms
    raise ConvergenceBudgetError(
        f"Matsubara sum not truncated within {max_terms} terms",
        partial=(kappas, weights),
    )


def _needs_floor(config):
    kinds = {o.eps.kind for o in config.objects} | {o.mu.kind for o in config.objects}
    kinds |= {config.medium.eps_model.kind, config.medium.mu_model.kind}
    return bool(kinds & {"plasma", "drude"})


def free_energy_T(config, tol=1e-6, l_max=None):
    """Finite-temperature free energy: (tau/2pi) * primed Matsubara sum.

    The n = 0 term is halved and, for every material, evaluated at
    kappa = KAPPA_FLOOR in place of the kappa -> 0 limit; no analytic limit
    is taken.  ``kappa_floor_used`` is set only when a plasma or Drude model
    enters, since those diverge at kappa = 0; for other materials the floor
    value stands in for the limit without a flag.  As with
    :func:`energy_T0`, an explicit ``l_max`` fixes the multipole order while
    ``l_max=None`` doubles it until the sum is order-converged.  The sum
    raises ConvergenceBudgetError past MAX_SUM_TERMS terms.
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
        integrand = functools.partial(log_det_integrand, config, l_max=l_max)
        kappas, _, terms = _matsubara_sum(integrand, tau, tol, MAX_SUM_TERMS)
        sums = np.cumsum(terms)
        cumulative = tau / (2.0 * math.pi) * sums
        rows = np.column_stack([[0.0] + kappas[1:], terms, cumulative])
        value = float(cumulative[-1])
        if fixed_order:
            tail_rel = abs(terms[-1]) / max(abs(float(sums[-1])), 1e-300)
            return EnergyResult(value, l_max, len(kappas), tail_rel, rows, floor_used)
        if prev is not None:
            rel = abs(value - prev) / max(abs(value), 1e-300)
            if rel < tol:
                return EnergyResult(value, l_max, len(kappas), rel, rows, floor_used)
        prev = value
        l_max *= 2
    raise ConvergenceBudgetError(
        "multipole budget exhausted",
        partial=EnergyResult(prev, l_max, 0, math.inf, rows, floor_used),
    )


# ---------------------------------------------------------------------------
# Parallel plates (independent oracle for signs and magnitudes)


def _plate_kernel(mat1, mat2, medium, gap, kappa, n_q):
    """(1/2pi) * integral over the in-plane decay constant q at one kappa."""
    n_m = medium.refractive_index(kappa)
    # q from n_m kappa to infinity, compactified on the 1/(2 gap) scale
    offsets, weights = _quad_nodes(n_q, 1.0 / (2.0 * gap))
    total = 0.0
    for qq, ww in zip(n_m * kappa + offsets, weights):
        k_t2 = qq * qq - (n_m * kappa) ** 2
        k_t = math.sqrt(max(k_t2, 0.0))
        r1_te, r1_tm = fresnel_reflection(mat1, medium, kappa, k_t)
        r2_te, r2_tm = fresnel_reflection(mat2, medium, kappa, k_t)
        e = math.exp(-2.0 * qq * gap)
        val = math.log1p(-r1_te * r2_te * e) + math.log1p(-r1_tm * r2_tm * e)
        total += ww * qq * val
    return total / (2.0 * math.pi)


def lifshitz_plates(mat1, mat2, medium, gap, tau=0.0, tol=1e-8):
    """Interaction energy per unit area of two half-spaces across ``gap``.

    Materials are (eps_model, mu_model) pairs.  At tau = 0 this is the
    double imaginary-frequency integral over kappa and the in-plane decay
    constant; at tau > 0 the kappa integral becomes the primed Matsubara
    sum, which raises ConvergenceBudgetError past MAX_SUM_TERMS terms.
    Attraction gives a negative value.
    """
    if gap <= 0.0:
        raise ValidationError("gap must be positive")

    def value(n):
        # n nodes in kappa (at tau = 0) and in q
        def kernel(kappa):
            return _plate_kernel(mat1, mat2, medium, gap, kappa, n)

        if tau == 0.0:
            kappas, weights = _quad_nodes(n, 1.0 / gap)
            vals = [kernel(k) for k in kappas]
            return float(np.dot(weights, vals)) / (2.0 * math.pi)
        _, _, terms = _matsubara_sum(kernel, tau, tol, MAX_SUM_TERMS)
        return tau / (2.0 * math.pi) * float(np.cumsum(terms)[-1])

    prev = value(32)
    for n in (64, 128, 256, 512, 1024, 2048):
        cur = value(n)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise ConvergenceBudgetError("plate quadrature budget exhausted", partial=prev)
