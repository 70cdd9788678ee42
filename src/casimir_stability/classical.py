"""Classical fluctuating charges in disjoint containers.

Charges live in rigid containers (spheres or axis-aligned boxes).  Mobile
charges explore their container under hard walls and optional harmonic
tethers; fixed charges ride with the container.  The inter-container
interaction is the bare Coulomb potential q q' / (4 pi eps_M r).

For the free energy F(d) of the configuration with the labeled container
rigidly shifted by d, the displacement Laplacian obeys

    lap F = <lap H> - beta * Var(grad_d H) = -beta * Var(grad_d H),

because the cross-container Green's function is harmonic away from
coincident points, so <lap H> vanishes identically.  The variance is
nonnegative, hence lap F <= 0: thermal fluctuations can only destabilize.
Both sides are computed independently here (Metropolis estimator versus
finite differences of a deterministic quadrature) so the identity can be
verified numerically.

Every function reads one flat charge table per configuration, built on
first use: the fixed charges first, then the mobiles, each with its charge
and home container; the fixed charges' absolute positions; each mobile's
tether stiffness (0 when untethered) and absolute anchor.  Its boolean
``couples[a, b]`` mask is the one statement of which pairs enter H: charges
in different containers, or in the same container when that container sets
``include_intra`` (never a charge with itself).  The table also keeps, per
mobile and in plain floats, its anchor, stiffness, coupled partners with
their Coulomb coefficients, and its container's wall.

One site-energy kernel (``_site_energy``) gives a mobile's tether plus
Coulomb energy and one wall test (``_inside``) says whether it is inside its
container.  Both are written per coordinate, so the same code runs on
arrays (the quadrature nodes with the fixed partners, ``Container.contains``)
and on Python floats (the Metropolis step, one point with all partners),
doing the same float operations in the same order on both.  One gradient
kernel, vectorized over samples, gives grad_d H for a single configuration
and for a whole chain.

The chain is reproducible bit for bit from its seed.  Its contract is the
order of the ``numpy.random.default_rng(seed)`` draws per step:
``integers(n_mobile)`` picks the mobile, ``uniform(-1, 1, 3)`` its move, and
``random()``, drawn only when the move stays inside the wall and raises the
energy, decides it; together with the kernel's order of operations this
fixes every position.  The chain does not call the Generator per draw: it
decodes the same values from the Generator's raw PCG64 words, fetched in
blocks (``_Draws``), and an oracle test pins that decoding to numpy's.  The
chain starts each mobile at its tether anchor (its container's center when
untethered), which must lie inside its wall and on no charge it couples to.
It keeps each mobile's current site energy until that mobile or one it
couples to moves, so a step mostly runs the kernel once, at the proposal.
It logs only the accepted moves and rebuilds the kept positions from that
log after the last step.
"""

import itertools
import math
import struct
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng

from .errors import (
    CapabilityError,
    ConvergenceBudgetError,
    PrecisionError,
    ValidationError,
    _finite,
    _order,
    _vector,
)

__all__ = [
    "Container",
    "ClassicalConfig",
    "McEstimate",
    "SampleStream",
    "hamiltonian",
    "grad_d_hamiltonian",
    "free_energy_quadrature",
    "metropolis_run",
    "laplacian_F_estimator",
]

_COULOMB = 1.0 / (4.0 * math.pi)


@dataclass(frozen=True)
class Container:
    """Rigid container of charges.

    ``shape`` is "sphere" or "box"; ``size`` is the radius for a sphere and
    the (full) edge lengths for a box.  ``fixed_charges`` is a sequence of
    (charge, position) with positions relative to the center.
    ``mobile_charges`` is a sequence of (charge, tether) where tether is
    None or ("harmonic", k, anchor) with the anchor relative to the center.
    ``include_intra`` adds the intra-container Coulomb pairs to the
    container's internal energy U_J.  Every number must be finite, sizes
    positive and tether stiffnesses nonnegative (else ValidationError).
    """

    label: str
    shape: str
    center: tuple
    size: object
    fixed_charges: tuple = ()
    mobile_charges: tuple = ()
    include_intra: bool = False

    def __post_init__(self):
        if self.shape not in ("sphere", "box"):
            raise ValidationError("container shape must be 'sphere' or 'box'")
        object.__setattr__(self, "center", _vector(self.center, "container center"))
        if self.shape == "sphere":
            size = _finite(self.size, "sphere radius")
        else:
            size = tuple(_finite(s, "box edge") for s in self.size)
            if len(size) != 3:
                raise ValidationError("box size must be three edge lengths")
        object.__setattr__(self, "size", size)
        fixed = tuple(
            (_finite(q, "charge", sign=None), _vector(pos, "fixed charge position"))
            for q, pos in self.fixed_charges
        )
        object.__setattr__(self, "fixed_charges", fixed)
        mobiles = []
        for q, tether in self.mobile_charges:
            if tether is not None:
                kind, k, anchor = tether
                if kind != "harmonic":
                    raise ValidationError("tether must be None or harmonic")
                k = _finite(k, "tether stiffness", "nonnegative")
                tether = ("harmonic", k, _vector(anchor, "tether anchor"))
            mobiles.append((_finite(q, "charge", sign=None), tether))
        object.__setattr__(self, "mobile_charges", tuple(mobiles))

    def contains(self, points):
        """Boolean mask: which absolute points lie inside the container."""
        p = np.atleast_2d(np.asarray(points, float))
        return _inside(self._wall, p[:, 0], p[:, 1], p[:, 2])

    @cached_property
    def _wall(self):
        """(center, bound) for ``_inside``: radius squared, or the half edges."""
        if self.shape == "sphere":
            return self.center, self.size**2
        return self.center, tuple(0.5 * s for s in self.size)


@dataclass(frozen=True)
class ClassicalConfig:
    """Containers in a uniform dielectric at inverse temperature beta.

    eps_M and beta must be finite and positive (else ValidationError).
    """

    containers: tuple
    eps_M: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "containers", tuple(self.containers))
        _finite(self.eps_M, "eps_M")
        _finite(self.beta, "beta")
        labels = [c.label for c in self.containers]
        if len(set(labels)) != len(labels):
            raise ValidationError("container labels must be unique")
        for i, a in enumerate(self.containers):
            for b in self.containers[i + 1 :]:
                if not _disjoint(a, b):
                    raise ValidationError(
                        f"containers {a.label!r} and {b.label!r} touch or overlap"
                    )

    def container(self, label):
        for c in self.containers:
            if c.label == label:
                return c
        raise ValidationError(f"unknown container label {label!r}")

    @cached_property
    def _table(self):
        return _ChargeTable(self)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with blocking error bar."""

    mean: float
    stderr: float
    n_samples: int
    autocorrelation_time: float

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValidationError("stderr must be nonnegative")


@dataclass(frozen=True)
class SampleStream:
    """Mobile-position samples from one Metropolis chain."""

    # (n_kept, n_mobiles, 3), absolute coordinates, stored mobile by mobile
    positions: np.ndarray
    acceptance_rate: float
    seed: int
    step_size: float
    burn_in: int


def _inside(wall, x, y, z):
    """The hard-wall test of one container, written per coordinate.

    ``wall`` is a ``Container._wall``.  Float coordinates (one point of the
    Metropolis chain) give a bool, equal-shape arrays an elementwise mask.
    """
    (cx, cy, cz), bound = wall
    dx, dy, dz = x - cx, y - cy, z - cz
    if isinstance(bound, tuple):
        hx, hy, hz = bound
        return (abs(dx) <= hx) & (abs(dy) <= hy) & (abs(dz) <= hz)
    return (dx * dx + dy * dy) + dz * dz <= bound


def _point_box_distance(p, center, size):
    d = np.abs(np.asarray(p) - np.asarray(center)) - 0.5 * np.asarray(size)
    return float(np.linalg.norm(np.clip(d, 0.0, None)))


def _disjoint(a, b):
    ca, cb = np.asarray(a.center), np.asarray(b.center)
    if a.shape == "sphere" and b.shape == "sphere":
        return np.linalg.norm(ca - cb) > a.size + b.size
    if a.shape == "box" and b.shape == "box":
        gap = np.abs(ca - cb) - 0.5 * (np.asarray(a.size) + np.asarray(b.size))
        return bool(np.any(gap > 0.0))
    sph, box = (a, b) if a.shape == "sphere" else (b, a)
    return _point_box_distance(sph.center, box.center, box.size) > sph.size


class _ChargeTable:
    """Every charge of a configuration in one flat table, fixed charges first.

    ``q`` and ``owner`` (container index) cover all charges; ``fixed`` holds
    the fixed charges' absolute positions; ``stiffness`` and ``anchor`` hold
    each mobile's tether, stiffness 0 when untethered (the anchor is then the
    container center, where the chain starts).  ``couples[a, b]`` says
    whether the pair a-b enters H.  ``sites`` holds, per mobile and in plain
    floats, what its site energy and wall test read: (anchor, stiffness,
    partners, wall), with partners the (b, C q_a q_b) of every charge b it
    couples to in table order and wall its container's ``Container._wall``.
    """

    def __init__(self, config):
        fixed, mobile = [], []
        for ci, c in enumerate(config.containers):
            center = np.asarray(c.center)
            fixed += [(ci, q, center + np.asarray(pos)) for q, pos in c.fixed_charges]
            for q, tether in c.mobile_charges:
                k, anchor = (0.0, (0.0, 0.0, 0.0)) if tether is None else tether[1:]
                mobile.append((ci, q, k, center + np.asarray(anchor)))
        self.eps_M = config.eps_M
        self.n_fixed = len(fixed)
        self.q = np.array([q for _, q, *_ in fixed + mobile])
        self.owner = np.array([ci for ci, *_ in fixed + mobile], dtype=int)
        self.fixed = np.array([p for *_, p in fixed]).reshape(-1, 3)
        self.stiffness = np.array([k for *_, k, _ in mobile])
        self.anchor = np.array([p for *_, p in mobile]).reshape(-1, 3)
        intra = np.array([c.include_intra for c in config.containers])[self.owner]
        same = self.owner[:, None] == self.owner[None, :]
        self.couples = ~same | (intra[:, None] & ~np.eye(len(self.q), dtype=bool))
        q = self.q.tolist()
        self.sites = [
            (
                tuple(anchor),
                k,
                tuple(
                    (b, _COULOMB * q[a] * q[b])
                    for b in np.flatnonzero(self.couples[a]).tolist()
                ),
                config.containers[self.owner[a]]._wall,
            )
            for a, k, anchor in zip(
                range(self.n_fixed, len(q)),
                self.stiffness.tolist(),
                self.anchor.tolist(),
            )
        ]

    def all_positions(self, mobile_positions):
        """Absolute positions of all charges, given the mobiles' ones."""
        mobile_positions = np.asarray(mobile_positions, float).reshape(-1, 3)
        if len(mobile_positions) != len(self.anchor):
            raise ValidationError(
                f"expected {len(self.anchor)} mobile positions, "
                f"got {len(mobile_positions)}"
            )
        return np.concatenate([self.fixed, mobile_positions])


def _site_energy(table, a, x, y, z, pos):
    """Energy of mobile charge ``a`` at the point (x, y, z).

    Its tether plus its Coulomb energy with every charge b < len(pos) it
    couples to, charge b sitting at pos[b].  Fixed charges come first in the
    table, so ``pos = table.fixed`` gives the fixed partners only.  Float
    coordinates (one Metropolis move) give a float, equal-shape arrays (the
    quadrature nodes) an array, with the same operations in the same order:
    0.5 k ((dx dx + dy dy) + dz dz), then ((C q_a) q_b) / (eps_M dist) for
    each partner b in table order.
    """
    anchor, k, partners, _ = table.sites[a - table.n_fixed]
    sqrt = np.sqrt if isinstance(x, np.ndarray) else math.sqrt
    eps = table.eps_M
    ax, ay, az = anchor
    dx, dy, dz = x - ax, y - ay, z - az
    u = 0.5 * k * ((dx * dx + dy * dy) + dz * dz)
    n = len(pos)
    for b, coef in partners:
        if b >= n:
            break
        bx, by, bz = pos[b]
        dx, dy, dz = x - bx, y - by, z - bz
        u = u + coef / (eps * sqrt((dx * dx + dy * dy) + dz * dz))
    return u


def _coulomb_energy(table, pos):
    """Coulomb energy of the coupled pairs among the charges b < len(pos)."""
    a, b = np.nonzero(np.triu(table.couples[: len(pos), : len(pos)]))
    dist = np.linalg.norm(pos[a] - pos[b], axis=1)
    return float(np.sum(_COULOMB * table.q[a] * table.q[b] / (table.eps_M * dist)))


def _grad_d(table, mobiles, ci):
    """grad_d H for each sample of the mobiles' positions (samples, mobiles, 3).

    Only the Coulomb pairs with a in container ``ci`` and b outside it
    depend on the displacement:
    grad = -sum q_a q_b (x_a - x_b) / (4 pi eps_M |x_a - x_b|^3).
    Each charge is read as one (samples, 3) column, a fixed charge's
    position broadcast over the samples and a mobile's ``mobiles[:, k]``,
    so no (samples, charges, 3) array of every charge is built.
    """
    n = len(mobiles)
    columns = [np.broadcast_to(p, (n, 3)) for p in table.fixed]
    columns += [mobiles[:, k] for k in range(mobiles.shape[1])]
    inside = table.owner == ci
    grads = np.zeros((n, 3))
    for a in np.flatnonzero(inside):
        for b in np.flatnonzero(~inside):
            r = columns[a] - columns[b]
            dist = np.linalg.norm(r, axis=1)
            grads -= (
                _COULOMB * table.q[a] * table.q[b] / table.eps_M / dist**3
            )[:, None] * r
    return grads


def _square_norms(v):
    """|v|^2 of each row of an (n, 3) array, summed as (x x + y y) + z z.

    The order is the site kernel's, fixed in the code: ``np.einsum`` would
    leave it to the numpy build.
    """
    x, y, z = v.T
    return (x * x + y * y) + z * z


def hamiltonian(config, positions):
    """Total configurational energy; +inf if a mobile violates a hard wall.

    Coulomb over all coupled charge pairs (every cross-container pair and,
    when configured, the intra-container ones) plus the tethers.
    """
    table = config._table
    pos = table.all_positions(positions)
    mobiles = pos[table.n_fixed :]
    for ci, p in zip(table.owner[table.n_fixed :], mobiles):
        if not config.containers[ci].contains(p)[0]:
            return math.inf
    tethers = 0.5 * table.stiffness * _square_norms(mobiles - table.anchor)
    return _coulomb_energy(table, pos) + float(np.sum(tethers))


def grad_d_hamiltonian(config, positions, label):
    """Gradient of H under rigid displacement of the labeled container.

    Only cross-container Coulomb terms depend on the displacement:
    grad = -sum q_a q_b (x_a - x_b) / (4 pi eps_M |x_a - x_b|^3) over pairs
    with a in the labeled container and b outside it.
    """
    table = config._table
    ci = config.containers.index(config.container(label))
    mobiles = table.all_positions(positions)[table.n_fixed :]
    return _grad_d(table, mobiles[None], ci)[0]


def _shifted(config, label, d):
    containers = []
    for c in config.containers:
        if c.label == label:
            containers.append(
                replace(c, center=tuple(np.asarray(c.center) + np.asarray(d)))
            )
        else:
            containers.append(c)
    return ClassicalConfig(tuple(containers), config.eps_M, config.beta)


def _shape_nodes(container, n):
    """Quadrature nodes/weights of the container volume, n points per axis.

    Boxes use a tensor Gauss-Legendre rule; spheres use Gauss-Legendre in
    radius and polar cosine with a uniform periodic rule in azimuth (all
    factors smooth, so the rule converges spectrally).
    """
    t, w = leggauss(n)
    c = np.asarray(container.center)
    if container.shape == "box":
        half = 0.5 * np.asarray(container.size)
        axes = [(c[k] + half[k] * t, half[k] * w) for k in range(3)]
        pts = np.stack(np.meshgrid(*[a[0] for a in axes], indexing="ij"), -1)
        wts = (
            axes[0][1][:, None, None]
            * axes[1][1][None, :, None]
            * axes[2][1][None, None, :]
        )
        return pts.reshape(-1, 3), wts.reshape(-1)
    radius = container.size
    r = 0.5 * radius * (t + 1.0)
    wr = 0.5 * radius * w * r**2
    ct = t
    wt = w
    phi = 2.0 * math.pi * np.arange(n) / n
    wp = np.full(n, 2.0 * math.pi / n)
    st = np.sqrt(1.0 - ct**2)
    x = r[:, None, None] * st[None, :, None] * np.cos(phi)[None, None, :]
    y = r[:, None, None] * st[None, :, None] * np.sin(phi)[None, None, :]
    z = r[:, None, None] * ct[None, :, None] * np.ones_like(phi)[None, None, :]
    pts = np.stack([x, y, z], -1).reshape(-1, 3) + c
    wts = (wr[:, None, None] * wt[None, :, None] * wp[None, None, :]).reshape(-1)
    return pts, wts


def _reject_collapse(config):
    """Reject a mobile that can reach an opposite charge it couples to.

    exp(-beta q_a q_b / (4 pi eps_M r)) is not integrable at r -> 0 when
    q_a q_b < 0.  Only charges of the mobile's own container are reachable:
    the other mobiles there, and the fixed charges placed inside it.
    """
    table = config._table
    n = table.n_fixed
    reachable = np.ones(len(table.q), bool)
    for b, p in enumerate(table.fixed):
        reachable[b] = config.containers[table.owner[b]].contains(p)[0]
    same = table.owner[:, None] == table.owner[None, :]
    attract = table.couples & same & reachable & (np.outer(table.q, table.q) < 0.0)
    attract[:n] = False
    if attract.any():
        a, b = np.argwhere(attract)[0]
        kind = "fixed" if b < n else "mobile"
        raise ValidationError(
            f"mobile charge {table.q[a]:g} of container "
            f"{config.containers[table.owner[a]].label!r} can reach the opposite "
            f"{kind} charge {table.q[b]:g} of container "
            f"{config.containers[table.owner[b]].label!r}; exp(-beta H) is not "
            "integrable there"
        )


def free_energy_quadrature(config, d, tol=1e-8, max_n=64):
    """F(d): free energy with the first container rigidly shifted by d.

    Deterministic tensor-product quadrature of exp(-beta H) over the
    mobile-charge volumes; supports at most two mobile charges in total.
    The per-axis node count doubles from 8 until two successive results
    differ by at most ``tol * max(|F|, 1)`` (relative for |F| > 1, absolute
    below); no count above ``max_n`` is evaluated, and when ``max_n`` nodes
    do not agree ConvergenceBudgetError is raised.
    A mobile coupled to an opposite charge it can reach has no finite
    partition integral and raises ValidationError up front, as do a shift
    that is not finite, a ``tol`` that is NaN or negative (0 and inf force
    the node budget) and a ``max_n`` that is not an integer >= 8.
    """
    if not tol >= 0.0:
        raise ValidationError(f"tol must be >= 0, got {tol!r}")
    _order(max_n, "max_n", 8)
    cfg = _shifted(config, config.containers[0].label, _vector(d, "shift d"))
    table = cfg._table
    mobiles = range(table.n_fixed, len(table.q))
    if len(mobiles) > 2:
        raise CapabilityError("quadrature free energy supports at most 2 mobiles")
    _reject_collapse(cfg)
    # constant part: the coupled pairs of fixed charges
    e0 = _coulomb_energy(table, table.fixed)
    if not mobiles:
        return e0
    beta = cfg.beta

    def evaluate(n):
        grids = [_shape_nodes(cfg.containers[table.owner[a]], n) for a in mobiles]
        f = [
            w * np.exp(-beta * _site_energy(table, a, *pts.T, table.fixed))
            for a, (pts, w) in zip(mobiles, grids)
        ]
        if len(mobiles) == 1:
            z = float(np.sum(f[0]))
        elif not table.couples[mobiles[0], mobiles[1]]:
            z = float(np.sum(f[0])) * float(np.sum(f[1]))
        else:
            a, b = mobiles
            (pa, _), (pb, _) = grids
            z = 0.0
            chunk = max(1, 1_000_000 // len(pb))
            for start in range(0, len(pa), chunk):
                # per coordinate, in _site_energy's order: no (chunk, n, 3) temporary
                dx, dy, dz = (pa[start : start + chunk, None, c] - pb[:, c] for c in range(3))
                dist = np.sqrt((dx * dx + dy * dy) + dz * dz)
                pair = _COULOMB * table.q[a] * table.q[b] / (cfg.eps_M * dist)
                z += float(f[0][start : start + chunk] @ np.exp(-beta * pair) @ f[1])
        if z <= 0.0:
            raise ConvergenceBudgetError("partition integral not resolvable")
        return e0 - math.log(z) / beta

    n = 8
    prev = evaluate(n)
    while 2 * n <= max_n:
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) <= tol * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise ConvergenceBudgetError(
        "free-energy quadrature did not stabilize within the node budget"
    )


def _chain_start(config):
    """Every charge's starting position, as lists of floats, fixed first.

    Each mobile starts at its tether anchor (the container center when
    untethered).  That point must have a nonzero Boltzmann weight: inside
    the mobile's wall and on no charge it couples to, else ValidationError.
    """
    table = config._table
    pos = np.concatenate([table.fixed, table.anchor]).tolist()
    for a, (anchor, _, partners, wall) in enumerate(table.sites, table.n_fixed):
        if not _inside(wall, *anchor):
            where = "outside the container"
        else:
            on = [b for b, _ in partners if pos[b] == pos[a]]
            if not on:
                continue
            kind = "fixed" if on[0] < table.n_fixed else "mobile"
            where = (
                f"on the {kind} charge {table.q[on[0]]:g} of container "
                f"{config.containers[table.owner[on[0]]].label!r}"
            )
        raise ValidationError(
            f"mobile charge {table.q[a]:g} of container "
            f"{config.containers[table.owner[a]].label!r} would start the chain "
            f"at its tether anchor {anchor}, {where}"
        )
    return pos


# raw words per bit-generator call; the draws do not depend on it
_BLOCK = 1024


class _Draws:
    """``default_rng(seed)``'s draws, decoded from its raw PCG64 words.

    The words come from ``bit_generator.random_raw`` in blocks of ``_BLOCK``
    and are decoded as numpy's Generator decodes them.  A double is the top
    53 bits of one word times 2**-53.  A 32-bit draw is the low half of a
    new word, whose high half is kept for the next 32-bit draw; doubles
    leave the kept half alone.  ``integers(n)`` is Lemire's bounded rule on
    32-bit draws.  The methods return the Generator methods' values bit for
    bit, as Python numbers.
    """

    def __init__(self, seed):
        blocks = map(default_rng(seed).bit_generator.random_raw, itertools.repeat(_BLOCK))
        self._word = itertools.chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__
        self._half = None

    def random(self):
        """``Generator.random()``."""
        return (self._word() >> 11) * 2.0**-53

    def uniform3(self):
        """``Generator.uniform(-1, 1, 3)``, as a tuple."""
        word = self._word
        return (
            -1.0 + 2.0 * ((word() >> 11) * 2.0**-53),
            -1.0 + 2.0 * ((word() >> 11) * 2.0**-53),
            -1.0 + 2.0 * ((word() >> 11) * 2.0**-53),
        )

    def _uint32(self):
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, n):
        """``Generator.integers(n)`` for 1 <= n <= 2**32; n = 1 draws nothing."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            # reject the low products that would bias the result
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32


def metropolis_run(config, steps, step_size, seed, burn_in=None):
    """Single-particle-move Metropolis chain over the mobile charges.

    Deterministic for a given seed, with the draw order of the module
    docstring.  Proposals are uniform cube moves of half-width
    ``step_size``; moves outside the hard walls are rejected.  An
    acceptance rate outside [0.1, 0.9] triggers a warning (tune step_size),
    not a failure; ``step_size`` must be finite and positive.  ``steps``
    and ``burn_in`` (default steps // 10, at least 1) are integers >= 1, and
    ``steps`` must exceed ``burn_in``.  A mobile whose start (its tether
    anchor) lies outside its wall or on a charge it couples to raises
    ValidationError.

    Each mobile's current site energy is kept between its picks.  It is
    computed only when the mobile is picked and the value is unknown; an
    accepted move of mobile k sets it to the new energy just computed (the
    same float: a mobile never couples to itself) and forgets it for every
    mobile coupled to k.  The loop stores no sample: it logs each mobile's
    accepted moves (their steps and new positions), and the kept positions
    are rebuilt from that log afterwards, each mobile at its last accepted
    position, or its start, at every kept step.  ``positions`` is stored
    mobile by mobile, so ``positions[:, k]`` is contiguous.
    """
    step_size = _finite(step_size, "step_size")
    table = config._table
    first, n_mobile = table.n_fixed, len(table.anchor)
    if not n_mobile:
        raise ValidationError("no mobile charges to sample")
    _order(steps, "steps")
    burn_in = max(1, steps // 10) if burn_in is None else _order(burn_in, "burn_in")
    if steps <= burn_in:
        raise ValidationError("steps must exceed the burn-in")
    pos = _chain_start(config)
    walls = [wall for *_, wall in table.sites]
    # the mobiles whose site energy reads mobile k's position
    coupled = [
        [b - first for b, _ in partners if b >= first] for _, _, partners, _ in table.sites
    ]
    # allocated before the chain runs: a steps too large for memory fails here
    kept = np.empty((n_mobile, steps - burn_in, 3))
    # per mobile, one (step, x, y, z) record of doubles per accepted move,
    # after its start at step -1 (a step below 2**53 is exact in a double)
    record = struct.Struct("4d").pack
    log = [bytearray(record(-1, *pos[a])) for a in range(first, first + n_mobile)]
    current = [None] * n_mobile
    draws = _Draws(seed)
    integers, uniform3, random = draws.integers, draws.uniform3, draws.random
    beta = config.beta
    for step in range(steps):
        k = integers(n_mobile)
        a = first + k
        x, y, z = pos[a]
        ux, uy, uz = uniform3()
        nx, ny, nz = x + step_size * ux, y + step_size * uy, z + step_size * uz
        if _inside(walls[k], nx, ny, nz):
            e_old = current[k]
            if e_old is None:
                e_old = current[k] = _site_energy(table, a, x, y, z, pos)
            e_new = _site_energy(table, a, nx, ny, nz, pos)
            delta = e_new - e_old
            if delta <= 0.0 or random() < math.exp(-beta * delta):
                pos[a] = (nx, ny, nz)
                for b in coupled[k]:
                    current[b] = None
                current[k] = e_new
                log[k] += record(step, nx, ny, nz)
    records = [np.frombuffer(r).reshape(-1, 4) for r in log]
    kept_steps = np.arange(burn_in, steps, dtype=float)
    for plane, rec in zip(kept, records):
        # each kept step reads the last record at or before it
        rows = np.searchsorted(rec[:, 0], kept_steps, side="right")
        rows -= 1
        # rows are in range; mode "raise" would buffer the output
        np.take(rec[:, 1:], rows, axis=0, out=plane, mode="clip")
    rate = (sum(map(len, records)) - n_mobile) / steps
    if not 0.1 <= rate <= 0.9:
        warnings.warn(
            f"Metropolis acceptance rate {rate:.3f} outside [0.1, 0.9]; "
            "adjust step_size",
            stacklevel=2,
        )
    return SampleStream(
        positions=kept.transpose(1, 0, 2),
        acceptance_rate=rate,
        seed=seed,
        step_size=step_size,
        burn_in=burn_in,
    )


def _blocking_stderr(series):
    """(stderr, autocorrelation_time) of the mean by block doubling.

    Blocks are doubled until the error estimate plateaus; failure to
    plateau with at least 16 blocks raises PrecisionError.
    """
    x = np.asarray(series, float)
    n = len(x)
    if n < 64:
        raise PrecisionError("too few samples for a blocking analysis")
    naive = float(np.std(x, ddof=1) / math.sqrt(n))
    prev = naive
    best = naive
    plateaued = False
    block = 1
    while n // (2 * block) >= 16:
        block *= 2
        m = n // block
        means = x[: m * block].reshape(m, block).mean(axis=1)
        err = float(np.std(means, ddof=1) / math.sqrt(m))
        best = max(best, err)
        # the blocking curve rises until the blocks decorrelate; stop once
        # it no longer grows beyond its own statistical scatter
        if prev > 0.0 and err <= prev * (1.0 + 1.0 / math.sqrt(2.0 * (m - 1))):
            plateaued = True
            break
        prev = err
    if not plateaued:
        raise PrecisionError(
            "blocking analysis did not plateau; samples too correlated"
        )
    tau = 0.5 * (best / naive) ** 2 if naive > 0.0 else 0.5
    return best, max(tau, 0.5)


def laplacian_F_estimator(config, label, samples):
    """Estimate lap F = -beta * Var(grad_d H) from a sample stream.

    The missing <lap H> term vanishes identically because all interacting
    charge pairs sit in disjoint containers, where the Coulomb kernel is
    harmonic.  The estimate is <= 0 by construction; the error bar comes
    from a blocking analysis of the per-sample variance contributions.
    """
    ci = config.containers.index(config.container(label))
    grads = _grad_d(config._table, samples.positions, ci)
    contrib = _square_norms(grads - grads.mean(axis=0))
    if float(contrib.max(initial=0.0)) == 0.0:
        return McEstimate(0.0, 0.0, len(grads), 0.5)
    stderr, tau = _blocking_stderr(contrib)
    beta = config.beta
    return McEstimate(
        mean=-beta * float(contrib.mean()),
        stderr=beta * stderr,
        n_samples=len(grads),
        autocorrelation_time=tau,
    )
