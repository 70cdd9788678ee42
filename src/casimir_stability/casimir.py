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
off-diagonal blocks are the similarity-balanced scaled_ab * s_a exp(exponent_ab
+ (log|F_a|/2 + log|F_b|/2)), with X_ab = scaled_ab * exp(exponent_ab) as the
translation stores it and s_a the sign of F_a: the determinant is unchanged,
every entry representable, and no log of an X entry is taken.  Everything
but scaled_ab depends on the (P, l) x (P', l') band alone: formed per band.
Each pair is translated and balanced once, as the block (I, J).
Reciprocity, X_JI = D X_IJ^T D (D the sector parity), makes the block
(J, I) W_J B_IJ^T W_I, W = s D per band: sign products, exact, so it is
the balancing of X_JI to the bit, and W (I - N) is symmetric; for one sign
class W is one sign and I - N itself is symmetric.

One placement: a layout (``_layout``) says which entries of a pair block
are balanced and where each lands in a stack of identity-padded matrices.
The dense layout's one matrix is ``assemble_block_matrix``, the oracle.
Collinear centres, turned so that their line is the z axis, are translated
along z, which conserves m, so M is block-diagonal in m and
ln det M = sum_m ln det M_m: ``log_det_integrand`` then takes the axial
layout (coaxial translations, only the m-diagonal entries built and
balanced) and one ``slogdet`` call on the stack of the 2 l_max + 1 blocks.
Every matrix of the stack has identity diagonal blocks, so what is factored
is its Schur complement of object 0's block, M_RR - M_R0 M_0R, of the same
determinant (``_complement``): for a pair, I - B_10 B_01, as Rahi et al.,
PRD 80, 085021 (2009), write the two-body ln det.

Frequency is a batch axis: T-matrices, translations, balanced blocks and
the stack of I - N carry a leading kappa axis, and one ``slogdet`` call
takes a whole chunk.  Geometry is kept apart from frequency: the
``log_det_integrand`` of any number of kappas builds their T-matrices, and
each pair's displacement, rotation and Bessel rows log k_lambda(n_M kappa
|d|) for every kappa (``_geometry``), once, then places and factors I - N
chunk by chunk, each translation built from its slice of the rows
(``_rows``).  The tau = 0 quadrature hands it its whole grid, a Matsubara
sum runs that double in length up to one chunk; the plates take chunks of
(kappa, q) arrays, and the stability engine chunks of its frozen grid, its
T-matrices, rotations and Bessel rows made once for the grid.  A chunk
holds as many kappas as fit one fixed budget of array entries,
``_CHUNK_ENTRIES``, counted over one kappa's whole I - N stack (dense for
the engine, its q-nodes for the plates), and a dense chunk holds at least
two kappas (``_chunk``); the budget is a constant, not an option.  A single
kappa is the one-row view of the same code, and each batched row equals
it bit for bit.
"""

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceBudgetError,
    GeometryError,
    UnphysicalTruncationError,
    ValidationError,
    _finite,
    _order,
)
from .materials import Medium, _per_kappa
from .scattering import _fresnel, mie_tmatrix
# not called here: the benchmark tracer (perfbench/spans.py) wraps this name
from .scattering import fresnel_reflection  # noqa: F401
from .translation import _band_of, _bessel_rows, _displacement, sector_size, translation_matrix

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

# Gauss-Legendre nodes a tau = 0 energy may reach, doubling from 24
MAX_NODES = 1536

# doublings of the default l_max an energy may make before it gives up
MAX_ORDER_DOUBLINGS = 3

# array entries one chunk of kappas may fill: the whole I - N stacks of an
# integrand chunk or a Matsubara run (their complements, one more array of
# ((n - 1)/n)^2 that size for n objects, are not counted), the (kappa, q)
# pairs of a plate chunk; a dense chunk holds at least two kappas (see _chunk)
_CHUNK_ENTRIES = 1 << 16

# centres this close to one line, relative to their largest distance from
# the first centre, take the m-block ln det
_AXIS_RTOL = 1e-10


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
        _finite(self.tau, "temperature parameter", "nonnegative")
        for i, j in self._pairs:
            a, b = self.objects[i], self.objects[j]
            if _gap(a, b) <= 0.0:
                raise GeometryError(
                    f"objects {a.label!r} and {b.label!r} overlap or touch"
                )

    @functools.cached_property
    def _pairs(self):
        """Index pairs (i, j), i < j, of the objects."""
        return tuple(itertools.combinations(range(len(self.objects)), 2))

    @functools.cached_property
    def _axis_positions(self):
        """Positions of the centres along their common line, or None.

        The line runs from the first centre to the one farthest from it, and
        every centre must lie within _AXIS_RTOL times that distance of the
        line; two centres always do.  The farthest centre sits at exactly
        that distance, so a pair keeps the length a general build uses.
        """
        c = np.array([o.center for o in self.objects])
        d = c - c[0]
        far = int(np.argmax((d * d).sum(axis=1)))
        reach = float(np.linalg.norm(d[far]))
        u = d[far] / reach
        t = d @ u
        if np.linalg.norm(d - np.outer(t, u), axis=1).max() > _AXIS_RTOL * reach:
            return None
        t[far] = reach
        return t

    def min_gap(self):
        return min(_gap(self.objects[i], self.objects[j]) for i, j in self._pairs)


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


def _pair_blocks(x, t_i, t_j, layout):
    """Balanced blocks (I, J) and (J, I) of one pair from X_IJ alone.

    ``t_i`` and ``t_j`` are the raw (sign, log) T-matrix pairs of the two
    objects, one per (P, l) band.  B_IJ = s_I |F_I|^(1/2) X_IJ |F_J|^(1/2),
    X_IJ = scaled * exp(exponent), is ``scaled`` times
    s_I * exp(exponent + (log|F_I|/2 + log|F_J|/2)), formed per band and
    gathered onto the entries of ``layout`` (a :func:`_layout`) by one flat
    take at its ``scale_at``.  B_JI is not balanced again: reciprocity,
    X_JI = D X_IJ^T D, makes it W_J B_IJ^T W_I with W = s D per band, the
    raw T-matrix sign times the sector parity: the band-pair signs
    W_J W_I, gathered as the scale is, times the transpose of B_IJ (on the
    axial layout its read at ``entries.swap``).  Every factor
    of W is +-1 or 0 and the exponent's sum is symmetric, so B_JI is, bit
    for bit, the balancing of X_JI entry by entry.  A zero amplitude
    (sign 0, log -inf) makes its entries 0; a NaN from any source is kept
    for the determinant guard.  On the axial layout ``x`` and the blocks
    hold only its entries, as flat arrays.  ``x`` and the T-matrices may
    carry a leading kappa axis.
    """
    (s_i, g_i), (s_j, g_j) = t_i, t_j
    scale = s_i[..., :, None] * np.exp(x.exponent + (0.5 * g_i[..., :, None] + 0.5 * g_j[..., None, :]))
    # gathered, then multiplied in place: one entry-sized array, not two
    forward = scale.reshape(*scale.shape[:-2], -1).take(layout.scale_at, axis=-1)
    forward *= x.scaled
    # W_J W_I per band pair, gathered as the scale is: one entry-sized array
    w_i, w_j = s_i * layout.parity, s_j * layout.parity
    signs = w_j[..., :, None] * w_i[..., None, :]
    reverse = signs.reshape(*signs.shape[:-2], -1).take(layout.scale_at, axis=-1)
    entries = layout.entries
    reverse *= np.swapaxes(forward, -1, -2) if entries is None else forward[..., entries.swap]
    return forward, reverse


def _geometry(config, pairs, l_max, axial, kappas=None):
    """(i, j, d, log_k) of each of ``pairs`` (i < j): what its translation
    takes from the geometry, made once for every chunk it is built at.

    d is a prepared :func:`~casimir_stability.translation._displacement`
    from object i to object j, its rotation made here.  log_k is its
    :func:`~casimir_stability.translation._bessel_rows` at the 1-D array
    ``kappas``, one row per kappa, which :func:`_rows` slices per chunk;
    without ``kappas`` it is None and each build makes its own.  On the
    axial layout the configuration is collinear: each pair is translated
    along +z, from whichever of its centres lies lower on the line, and
    takes no rotation.
    """
    objs = config.objects
    line = config._axis_positions if axial else None
    out = []
    for i, j in pairs:
        if line is None:
            d = np.asarray(objs[j].center, float) - np.asarray(objs[i].center, float)
        else:
            i, j = (i, j) if line[i] < line[j] else (j, i)
            d = (0.0, 0.0, line[j] - line[i])
        d = _displacement(d, l_max)
        out.append((i, j, d, None if kappas is None else _bessel_rows(config.medium, kappas, d)))
    return out


def _rows(t_logs, geometry, rows):
    """:func:`_t_logs` and :func:`_geometry` made for a grid, at its kappas ``rows`` (a slice)."""
    t_rows = [(s[rows], g[rows]) for s, g in t_logs]
    return t_rows, [(i, j, d, None if log_k is None else log_k[rows]) for i, j, d, log_k in geometry]


def _blocks(medium, kappa, l_max, t_logs, geometry, layout):
    """Balanced blocks {(I, J): block} of the pairs of ``geometry`` (:func:`_geometry`)
    and their reverses.

    On the axial ``layout`` (see :func:`_layout`) only the layout's entries
    are built and balanced.  ``kappa`` is one wavenumber or a 1-D array of
    them, the kappas of ``geometry``'s Bessel rows when it has them.
    """
    entries = layout.entries
    wanted = None if entries is None else (entries.rows, entries.cols)
    blocks = {}
    for i, j, d, log_k in geometry:
        x = translation_matrix(medium, kappa, d, l_max, wanted, log_k)
        blocks[(i, j)], blocks[(j, i)] = _pair_blocks(x, t_logs[i], t_logs[j], layout)
    return blocks


_Layout = collections.namedtuple("_Layout", "entries scale_at parity block row col width names")
_Entries = collections.namedtuple("_Entries", "rows cols swap")


def _widths(l_max, axial):
    """(matrices in the stack, rows per object) of ``_layout(l_max, axial)``."""
    return (2 * l_max + 1, 2 * l_max) if axial else (1, 2 * sector_size(l_max))


@functools.lru_cache(maxsize=16)
def _layout(l_max, axial):
    """Which entries of a pair block are balanced, and where each one lands.

    I - N is a stack of matrices, one per name, with ``width`` rows and
    columns per object; ``scale_at`` is the position of each balanced
    entry's (P, l) x (P', l') band pair in a raveled band-by-band matrix
    (a matrix of them, when dense).  ``parity`` is the sector parity D per
    band: +1 electric, -1 magnetic.  Dense: every entry, in the one matrix.
    Axial: the entries a displacement along z can fill, rows and columns of
    the basis (P, l, m), electric first, with m = m' (the magnetic label m
    refers to R_{l,-m}, which keeps the sectors in step); each lands in the
    block m + l_max, at row and column P * (l_max + 1 - l_min) + l - l_min
    with l_min = max(|m|, 1).  The axial entries come with the position of their
    transpose (``swap``), so that a reverse block is read from its forward
    one without a dense matrix.
    """
    band = _band_of(l_max)
    parity = np.repeat([1.0, -1.0], l_max)
    if not axial:
        every = slice(None)
        scale_at = 2 * l_max * band[:, None] + band
        return _Layout(None, scale_at, parity, 0, every, every, _widths(l_max, False)[1], ("matrix",))
    sector, l = np.divmod(band, l_max)
    l += 1
    m = np.arange(band.size) % sector_size(l_max) - l * l + 1 - l
    l_min = np.maximum(np.abs(m), 1)
    local = sector * (l_max + 1 - l_min) + l - l_min
    rows, cols = np.nonzero(m[:, None] == m[None, :])
    at = np.zeros((m.size, m.size), int)
    at[rows, cols] = np.arange(rows.size)
    entries = _Entries(rows, cols, at[cols, rows])
    names = tuple(f"m = {k} block of the matrix" for k in range(-l_max, l_max + 1))
    block = m[rows] + l_max
    scale_at = 2 * l_max * band[rows] + band[cols]
    return _Layout(entries, scale_at, parity, block, local[rows], local[cols], 2 * l_max, names)


def _place_blocks(blocks, layout):
    """I - N as the stack of ``layout``, from the balanced {(I, J): values}.

    Values with a leading kappa axis give a stack with that axis first.
    """
    n = 1 + max(i for i, _ in blocks)
    some = next(iter(blocks.values()))
    lead = some.shape[: some.ndim - (2 if layout.entries is None else 1)]
    depth, size = len(layout.names), layout.width * n
    stack = np.zeros(lead + (depth, size, size))
    stack.reshape(-1, size * size)[:, :: size + 1] = 1.0
    slots = stack.reshape(lead + (depth, n, layout.width, n, layout.width))
    for (i, j), values in blocks.items():
        slots[..., layout.block, i, layout.row, j, layout.col] = -values
    return stack


def _positive_logdet(m, what="matrix", kappas=None, where=None):
    """ln det m, raising when a determinant is not positive and finite.

    ``m`` may also be a stack of matrices, ``what`` naming each one (or all):
    the value is the sum of their ln dets, and each is checked on its own.
    With ``kappas``, ``m`` has a leading kappa axis before its stack: one
    ``slogdet`` call takes every matrix, the value is one sum per kappa, and
    an error names the kappa as well as the matrix, then ``where(row)``.
    """
    names = [what] if isinstance(what, str) else what
    flat = m.reshape(-1, *m.shape[-2:])

    def name(i):
        at = "" if kappas is None else f" at kappa = {kappas[i // len(names)]:.6g}"
        return names[i % len(names)] + at + (where(i // len(names)) if where else "")

    finite = np.isfinite(flat).all(axis=(-2, -1)).reshape(-1)
    if not finite.all():
        raise UnphysicalTruncationError(
            f"{name(np.argmin(finite))} has non-finite entries "
            "(NaN or inf in a T-matrix or translation)"
        )
    sign, logdet = np.linalg.slogdet(flat)
    good = (np.reshape(sign, -1) > 0.0) & np.isfinite(np.reshape(logdet, -1))
    if not good.all():
        raise UnphysicalTruncationError(
            f"{name(np.argmin(good))} determinant lost positivity or is not finite; "
            "increase l_max"
        )
    if kappas is None:
        return float(np.sum(logdet))
    return np.reshape(logdet, (len(kappas), -1)).sum(axis=-1)


def _t_logs(config, kappa, l_max):
    """Raw (sign, log) T-matrix pair of every object, built once per distinct sphere.

    A T-matrix depends on the radius and the two response models, not on
    the centre, so equal spheres share one pair.  For an array of kappa the
    pair holds one row per kappa.
    """
    built = {}
    for o in config.objects:
        key = (o.radius, o.eps, o.mu)
        if key not in built:
            built[key] = mie_tmatrix(o, config.medium, kappa, l_max).raw_signed_log()
    return [built[o.radius, o.eps, o.mu] for o in config.objects]


def _assemble(config, kappa, l_max, axial, t_logs, geometry):
    """I - N as the stack of ``_layout(l_max, axial)``, after any kappa axis.

    ``t_logs`` are the objects' T-matrices at ``kappa`` (:func:`_t_logs`):
    built first, an order beyond the special functions raises before its
    layout is made.  ``geometry`` is :func:`_geometry` of every pair.
    """
    layout = _layout(l_max, axial)
    return _place_blocks(_blocks(config.medium, kappa, l_max, t_logs, geometry, layout), layout)


def assemble_block_matrix(config, kappa, l_max):
    """Balanced block matrix whose log-determinant is the integrand.

    Identity diagonal blocks; off-diagonal block (I, J) represents
    -F_I X_IJ after the determinant-preserving balancing described in the
    module docstring.  For two objects its determinant equals
    det(I - F_A X_AB F_B X_BA).  Each pair is translated once; X_JI is its
    reciprocal image.  This is the dense layout's one matrix.
    """
    t_logs = _t_logs(config, kappa, l_max)
    geometry = _geometry(config, config._pairs, l_max, False)
    return _assemble(config, kappa, l_max, False, t_logs, geometry)[0]


def _complement(m, width):
    """M_RR - M_R0 M_0R of each matrix of the stack ``m``: the Schur complement
    of its first ``width`` rows and columns, an identity block, so that
    det m = det of the complement, matrix by matrix.

    Formed in one buffer: the product, then M_RR minus it in place.
    """
    out = np.matmul(m[..., width:, :width], m[..., :width, width:])
    return np.subtract(m[..., width:, width:], out, out=out)


def _log_dets(config, kappas, l_max, t_logs, geometry):
    """ln det(I - N) at each of ``kappas`` (a 1-D array), from one stack;
    ``t_logs`` are the T-matrix rows of these kappas, ``geometry`` is
    :func:`_geometry` of every pair on the configuration's layout.

    Object 0's diagonal block is the identity, so each matrix's ln det is
    that of its :func:`_complement`, which is what is factored and guarded:
    for a pair, I - B_10 B_01, at half the order of I - N.
    """
    axial = config._axis_positions is not None
    layout = _layout(l_max, axial)
    stack = _assemble(config, kappas, l_max, axial, t_logs, geometry)
    complement = _complement(stack, layout.width)
    # dropped before the factorization (see _chunk)
    del stack
    return _positive_logdet(complement, layout.names, kappas)


def log_det_integrand(config, kappa, l_max):
    """ln det of the block matrix; <= 0 for same-class objects.

    A non-positive or non-finite determinant signals an unphysical
    truncation.  What is factored and guarded is the complement of object
    0's identity block (:func:`_log_dets`), of the same determinant.
    Collinear centres take the axial layout: the value is the sum of the ln
    dets of the m-blocks, from one ``slogdet`` call on the stack of their
    complements, and each must be positive on its own.  ``kappa`` may be a
    1-D array, giving one value per kappa (none for an empty array); a
    single kappa is its one-row view.  The T-matrices of every kappa and
    the rotation of every pair are made once per call; I - N is placed and
    factored in chunks of kappas (:func:`_chunk`).
    """
    kappas = np.array(kappa, float, ndmin=1)
    if not kappas.size:
        return np.zeros(0)
    axial = config._axis_positions is not None
    t_logs = _t_logs(config, kappas, l_max)
    geometry = _geometry(config, config._pairs, l_max, axial, kappas)

    def part(rows):
        return _log_dets(config, kappas[rows], l_max, *_rows(t_logs, geometry, rows))

    values = _in_chunks(part, kappas.size, _chunk(config, l_max, axial))
    return float(values[0]) if np.ndim(kappa) == 0 else values


def _chunk(config, l_max, axial, run=False):
    """Kappas per chunk: the whole I - N stacks of ``_layout(l_max, axial)`` in _CHUNK_ENTRIES.

    That is 28 kappas for an axial pair at l_max 4, and on either layout
    it caps a Matsubara sum's run (``run``), whose last run computes terms
    past the stop.  A dense chunk holds at least 2 kappas: one stack at
    order 210 (three spheres at l_max 5) passes the budget alone, and a
    chunk of one kappa frees all it placed before the next, so glibc's
    malloc hands those pages back and faults them in again on every kappa:
    about 14,000 minor faults per three-sphere energy at l_max 5, about 500
    with 2 kappas.  The complement that :func:`_log_dets` factors adds one
    array of ((n - 1)/n)^2 the stack's size for n objects, uncounted: the
    chunks are those of the whole stack.  The stack is dropped before the
    complement is factored: kept through ``slogdet``, it tipped the same
    three-sphere energy, run after a stability report, back to about 7,300
    faults per energy.
    """
    depth, width = _widths(l_max, axial)
    size = width * len(config.objects)
    least = 1 if axial or run else 2
    return max(least, _CHUNK_ENTRIES // (depth * size * size))


def _in_chunks(f, n, chunk):
    """f on the consecutive slices of range(n) of at most ``chunk`` rows, joined."""
    return np.concatenate([f(slice(i, i + chunk)) for i in range(0, n, chunk)])


def _quad_nodes(n_nodes, scale):
    """Gauss-Legendre nodes/weights for integral_0^inf via kappa=scale(1-t)/t."""
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    kappa = scale * (1.0 - t) / t
    jac = scale / t**2
    return kappa, w * jac


def _matsubara_sum(term, tau, tol, max_terms, chunk):
    """Primed Matsubara sum of ``term(kappas)``, truncated by its tail.

    kappa_0 = KAPPA_FLOOR enters at half weight, then kappa_n = n * tau.
    ``term`` maps a 1-D array of kappas to their values; it is called on
    runs of consecutive kappas, the first holding kappa_0 alone and each
    next twice as long as the last, up to ``chunk``.  The sum stops when a
    term underflows to zero or when, on decreasing terms, the geometric tail
    |t_n| r / (1 - r), r = |t_n / t_(n-1)|, is below ``tol`` of the running
    sum; the test runs term by term, and the values of a run past the stop
    are dropped.  After ``max_terms`` terms with n >= 1 it raises
    ConvergenceBudgetError with partial = (kappas, weights).
    Returns (kappas, weights, terms, est): weights include tau / (2 pi),
    terms are the summands (the n = 0 value halved), est is the tail over
    the sum that stopped it (0 after an underflowed term).
    """
    kappas, weights, terms = [], [], []
    start, size = 0, 1
    while start <= max_terms:
        stop = min(start + size, max_terms + 1)
        run = np.arange(start, stop) * tau
        if start == 0:
            run[0] = KAPPA_FLOOR
        for n, kappa, value in zip(range(start, stop), run.tolist(), term(run).tolist()):
            kappas.append(kappa)
            if n == 0:
                weights.append(0.5 * tau / (2.0 * math.pi))
                terms.append(0.5 * value)
                total = terms[0]
                continue
            weights.append(tau / (2.0 * math.pi))
            terms.append(value)
            total += value
            if value == 0.0:
                return kappas, weights, terms, 0.0
            ratio = abs(value) / abs(terms[-2]) if n > 1 else math.inf
            tail = abs(value) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
            scale = max(abs(total), 1e-300)
            if tail < tol * scale:
                return kappas, weights, terms, tail / scale
        start, size = stop, min(2 * size, chunk)
    raise ConvergenceBudgetError(
        f"Matsubara sum not truncated within {max_terms} terms",
        partial=(kappas, weights),
    )


def _needs_floor(config):
    kinds = {o.eps.kind for o in config.objects} | {o.mu.kind for o in config.objects}
    kinds |= {config.medium.eps_model.kind, config.medium.mu_model.kind}
    return bool(kinds & {"plasma", "drude"})


def _rel_change(new, old):
    return abs(new - old) / max(abs(new), 1e-300)


def _evaluate(config, tol, l_max, n_nodes):
    """The energy at one order on one grid (est: Matsubara tail, inf at tau = 0).

    At tau = 0 the integrand takes the whole grid in one call; the
    Matsubara sum hands it runs of at most one chunk without the dense floor
    (:func:`_chunk`).
    """
    def integrand(kappas):
        return log_det_integrand(config, kappas, l_max)

    if config.tau == 0.0:
        kappas, weights = _quad_nodes(n_nodes, 1.0 / config.min_gap())
        vals = integrand(kappas)
        contrib = weights * vals / (2.0 * math.pi)
        order = np.argsort(kappas)
        samples = np.column_stack(
            [kappas[order], vals[order], np.cumsum(contrib[order])]
        )
        return EnergyResult(float(contrib.sum()), l_max, n_nodes, math.inf, samples)
    chunk = _chunk(config, l_max, config._axis_positions is not None, run=True)
    kappas, _, terms, est = _matsubara_sum(integrand, config.tau, tol, MAX_SUM_TERMS, chunk)
    cumulative = config.tau / (2.0 * math.pi) * np.cumsum(terms)
    samples = np.column_stack([[0.0] + kappas[1:], terms, cumulative])
    value = float(cumulative[-1])
    return EnergyResult(value, l_max, len(kappas), est, samples, _needs_floor(config))


def _grid_converged(config, tol, result):
    """``result``, with its nodes doubled until two values agree at tau = 0.

    No grid finer than MAX_NODES is evaluated: ConvergenceBudgetError's
    ``partial`` is then the MAX_NODES result with its last node change.
    """
    while config.tau == 0.0:
        if 2 * result.node_count > MAX_NODES:
            raise ConvergenceBudgetError("node budget exhausted", partial=result)
        finer = _evaluate(config, tol, result.l_max_used, 2 * result.node_count)
        finer.est_rel_error = _rel_change(finer.value, result.value)
        if finer.est_rel_error < tol:
            return finer
        result = finer
    return result


def _energy(config, tol, l_max):
    """Energy at the configuration's temperature, converged in grid and order.

    An explicit ``l_max`` returns that order on a converged grid.  With
    ``l_max=None`` the order starts at :func:`default_l_max` and the doubled
    order is evaluated on the current grid: if the two agree to ``tol``, the
    lower order is returned with ``est_rel_error`` = max(order change, grid
    estimate); else the doubled order becomes current and its grid is
    refined.  After MAX_ORDER_DOUBLINGS doublings, ConvergenceBudgetError's
    ``partial`` is the last evaluated order, estimated by its order change.
    """
    _finite(tol, "tol")
    fixed_order = l_max is not None
    l_max = _order(l_max, "l_max") if fixed_order else default_l_max(config)
    current = _evaluate(config, tol, l_max, 24)
    for _ in range(MAX_ORDER_DOUBLINGS):
        current = _grid_converged(config, tol, current)
        if fixed_order:
            return current
        doubled = _evaluate(config, tol, 2 * current.l_max_used, current.node_count)
        rel = _rel_change(doubled.value, current.value)
        if rel < tol:
            current.est_rel_error = max(rel, current.est_rel_error)
            return current
        current = doubled
    current.est_rel_error = rel
    raise ConvergenceBudgetError("multipole budget exhausted", partial=current)


def energy_T0(config, tol=1e-6, l_max=None):
    """Zero-temperature energy by Gauss-Legendre quadrature in kappa.

    The nodes double from 24, at least once, until two successive values
    agree to ``tol`` (ConvergenceBudgetError when 1536 nodes do not).  An explicit
    ``l_max`` is kept, so two calculations can share a truncation, and
    reports the last node change; ``l_max=None`` follows :func:`_energy`.
    """
    if config.tau != 0.0:
        raise ValidationError("energy_T0 requires tau = 0")
    return _energy(config, tol, l_max)


def free_energy_T(config, tol=1e-6, l_max=None):
    """Finite-temperature free energy: (tau/2pi) * primed Matsubara sum.

    The n = 0 term is halved and, for every material, evaluated at
    kappa = KAPPA_FLOOR in place of the kappa -> 0 limit; no analytic limit
    is taken.  ``kappa_floor_used`` is set only when a plasma or Drude model
    enters, since those diverge at kappa = 0; for other materials the floor
    value stands in for the limit without a flag.  The sum truncates itself
    (ConvergenceBudgetError past MAX_SUM_TERMS terms); an explicit ``l_max``
    reports its tail estimate, ``l_max=None`` follows :func:`_energy`.
    """
    if config.tau <= 0.0:
        raise ValidationError("free_energy_T requires tau > 0")
    return _energy(config, tol, l_max)


# ---------------------------------------------------------------------------
# Parallel plates (independent oracle for signs and magnitudes)


def _plate_kernel(mat1, mat2, medium, gap, kappas, q_nodes):
    """(1/2pi) * integral over the in-plane decay constant q, at each of ``kappas``.

    One (kappa, q-node) array carries the whole chunk: each material's
    Fresnel coefficients are one call on it.  The medium's eps and mu are
    evaluated once per kappa, for n_M and both materials' coefficients.
    """
    eps_m, mu_m = (_per_kappa(f, kappas)[:, None] for f in (medium.eps, medium.mu))
    nk = np.sqrt(eps_m * mu_m) * kappas[:, None]
    offsets, weights = q_nodes
    qq = nk + offsets
    k_t = np.sqrt(np.maximum(qq * qq - nk * nk, 0.0))
    r1_te, r1_tm = _fresnel(mat1, eps_m, mu_m, kappas[:, None], k_t)
    r2_te, r2_tm = _fresnel(mat2, eps_m, mu_m, kappas[:, None], k_t)
    e = np.exp(-2.0 * qq * gap)
    val = np.log1p(-r1_te * r2_te * e) + np.log1p(-r1_tm * r2_tm * e)
    return (weights * qq * val).sum(axis=-1) / (2.0 * math.pi)


def lifshitz_plates(mat1, mat2, medium, gap, tau=0.0, tol=1e-8):
    """Interaction energy per unit area of two half-spaces across ``gap``.

    Materials are (eps_model, mu_model) pairs; a perfect conductor is an
    eps model only (ValidationError for a pec mu).  At tau = 0 this is the
    double imaginary-frequency integral over kappa and the in-plane decay
    constant; at tau > 0 the kappa integral becomes the primed Matsubara
    sum, which raises ConvergenceBudgetError past MAX_SUM_TERMS terms.
    Attraction gives a negative value.
    """
    _finite(gap, "gap")
    _finite(tau, "temperature parameter", "nonnegative")
    _finite(tol, "tol")
    if mat1[1].is_pec or mat2[1].is_pec:
        raise ValidationError("a half-space permeability cannot be a perfect conductor")

    def value(n):
        # n nodes in kappa (at tau = 0) and in q - n_m kappa (scale 1/(2 gap)),
        # the kappas taken in chunks of _CHUNK_ENTRIES (kappa, q) pairs
        q_nodes = _quad_nodes(n, 1.0 / (2.0 * gap))
        chunk = max(1, _CHUNK_ENTRIES // n)

        def kernel(kappas):
            return _plate_kernel(mat1, mat2, medium, gap, kappas, q_nodes)

        if tau == 0.0:
            kappas, weights = _quad_nodes(n, 1.0 / gap)
            vals = _in_chunks(lambda rows: kernel(kappas[rows]), kappas.size, chunk)
            return float(np.dot(weights, vals)) / (2.0 * math.pi)
        _, _, terms, _ = _matsubara_sum(kernel, tau, tol, MAX_SUM_TERMS, chunk)
        return tau / (2.0 * math.pi) * float(np.cumsum(terms)[-1])

    prev = value(32)
    for n in (64, 128, 256, 512, 1024, 2048):
        cur = value(n)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise ConvergenceBudgetError("plate quadrature budget exhausted", partial=prev)
