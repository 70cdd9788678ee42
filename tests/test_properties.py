"""Property tests of invariants the physics guarantees."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from casimir_stability import (
    ClassicalConfig,
    Configuration,
    Container,
    DispersionModel,
    Medium,
    SphereObject,
    classical,
    force,
    free_energy_quadrature,
    log_det_integrand,
    stability_report,
)
from casimir_stability.casimir import _layout, _pair_blocks, _t_logs, assemble_block_matrix
from casimir_stability.translation import _band_of, translation_matrix
from conftest import ONE, PEC, dielectric_sphere, pec_sphere


@settings(max_examples=25, deadline=None)
@given(
    gap=st.floats(0.5, 3.0),
    r_a=st.floats(0.4, 1.5),
    r_b=st.floats(0.4, 1.5),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(-np.pi, np.pi),
)
def test_newtons_third_law_for_a_pair(gap, r_a, r_b, theta, phi):
    axis = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    a = pec_sphere((0.0, 0.0, 0.0), r_a, "a")
    b = pec_sphere((r_a + r_b + gap) * axis, r_b, "b")
    kw = dict(l_max=2, n_nodes=6)
    f_a = force(Configuration((a, b), Medium(), 0.0), "a", **kw)
    f_b = force(Configuration((a, b), Medium(), 0.0), "b", **kw)
    scale = np.linalg.norm(f_a)
    assert scale > 0.0
    assert np.abs(f_a + f_b).max() <= 1e-6 * scale
    # listing b first builds the pair the other way round, so the reversed
    # blocks of the two orderings are different matrices
    f_a_swapped = force(Configuration((b, a), Medium(), 0.0), "a", **kw)
    assert np.abs(f_a_swapped - f_a).max() <= 1e-6 * scale
    # attraction: the force on a points towards b
    assert f_a @ axis > 0.0


@settings(max_examples=25, deadline=None)
@given(
    shift=st.lists(st.floats(-0.3, 0.3), min_size=6, max_size=6),
    order=st.permutations(range(3)),
    kappa=st.floats(0.05, 5.0),
    rotvec=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
    offset=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
)
def test_integrand_invariant_under_reordering(shift, order, kappa, rotvec, offset):
    # each pair is translated once, in the direction the ordering gives, and
    # its other block is the reciprocal image; with three bodies a wrong
    # image changes ln det(I - N) when the ordering changes.  A rigid motion
    # of the reordered bodies must not change it either, and with mu = 2 on
    # the dielectric sphere both polarizations mix in every translation
    centers = [
        np.zeros(3),
        np.array([0.3, 2.6, 0.8]) + shift[:3],
        np.array([2.7, -0.4, 0.5]) + shift[3:],
    ]
    objs = [
        pec_sphere(centers[0], 1.0, "a"),
        pec_sphere(centers[1], 0.6, "b"),
        dielectric_sphere(centers[2], 0.8, 4.0, "c", mu_value=2.0),
    ]
    ref = log_det_integrand(Configuration(tuple(objs), Medium(), 0.0), kappa, 3)
    rotation = Rotation.from_rotvec(rotvec).as_matrix()
    moved = tuple(
        replace(objs[i], center=rotation @ centers[i] + offset) for i in order
    )
    got = log_det_integrand(Configuration(moved, Medium(), 0.0), kappa, 3)
    assert got == pytest.approx(ref, rel=1e-9)


def _unit(theta, phi):
    return np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


angles = st.tuples(st.floats(0.0, np.pi), st.floats(-np.pi, np.pi))


@st.composite
def same_class_configs(draw):
    """2-3 spheres of one sign class, each placed beyond the last, gaps >= 0.2.

    The class is PEC or eps > 1 in vacuum (class I), or eps below an eps = 6
    medium (class II); with ``collinear`` every step is along one axis.
    """
    kind = draw(st.sampled_from(["pec", "dielectric", "below medium"]))
    collinear = draw(st.booleans())
    axis = _unit(*draw(angles))
    centers, radii, objs = [np.zeros(3)], [draw(st.floats(0.3, 1.5))], []
    for _ in range(draw(st.integers(1, 2))):
        if collinear:
            step = axis * draw(st.sampled_from([1.0, -1.0]))
        else:
            step = _unit(*draw(angles))
        radii.append(draw(st.floats(0.3, 1.5)))
        reach = radii[-2] + radii[-1] + draw(st.floats(0.2, 2.0))
        centers.append(centers[-1] + reach * step)
    for i, (c, r) in enumerate(zip(centers, radii)):
        if kind == "pec":
            eps = PEC
        else:
            low, high = (1.1, 20.0) if kind == "dielectric" else (1.0, 5.5)
            eps = DispersionModel.constant(draw(st.floats(low, high)))
        objs.append(SphereObject(tuple(c), r, eps, ONE, f"s{i}"))
    below = kind == "below medium"
    medium = Medium(DispersionModel.constant(6.0)) if below else Medium()
    gaps = [
        np.linalg.norm(centers[i] - centers[j]) - radii[i] - radii[j]
        for i in range(len(objs))
        for j in range(i)
    ]
    assume(min(gaps) >= 0.2)
    return Configuration(tuple(objs), medium, 0.0), collinear


@settings(max_examples=200, deadline=None)
@given(
    drawn=same_class_configs(),
    log_kappa=st.floats(-3.0, 1.0),
    l_max=st.integers(1, 4),
)
def test_log_det_is_nonpositive_for_same_class_spheres(drawn, log_kappa, l_max):
    # the paper's first sign statement: ln det(I - N) <= 0, so same-class
    # bodies attract at every frequency; collinear draws take the m-block
    # route, and their dense matrix is checked too
    config, collinear = drawn
    kappa = 10.0**log_kappa
    assert log_det_integrand(config, kappa, l_max) <= 0.0
    if collinear:
        sign, logdet = np.linalg.slogdet(assemble_block_matrix(config, kappa, l_max))
        assert sign > 0.0
        assert logdet <= 0.0


@settings(max_examples=20, deadline=None)
@given(
    eps=st.tuples(*[st.one_of(st.none(), st.floats(1.5, 20.0))] * 2),
    radii=st.tuples(st.floats(0.4, 1.5), st.floats(0.4, 1.5)),
    gap=st.floats(0.3, 3.0),
    direction=angles,
)
def test_laplacian_and_its_terms_are_nonpositive_for_same_class_pairs(
    eps, radii, gap, direction
):
    # the paper's theorem, laplacian E <= 0 for same-class bodies, and each
    # term of its trace decomposition on its own; a None eps is a PEC sphere
    a, b = (
        SphereObject(tuple(c), r, PEC if e is None else DispersionModel.constant(e), ONE, label)
        for c, r, e, label in zip(
            (np.zeros(3), (sum(radii) + gap) * _unit(*direction)), radii, eps, "ab"
        )
    )
    rep = stability_report(Configuration((a, b), Medium(), 0.0), "a", l_max=3, n_nodes=8)
    assert rep.term1 <= 0.0
    assert rep.term2 <= 0.0
    assert rep.term3 <= 0.0
    assert rep.laplacian <= 0.0


@settings(max_examples=15, deadline=None)
@given(
    charges=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0), st.booleans()),
    k=st.floats(0.0, 10.0),
    beta=st.floats(0.5, 3.0),
    direction=angles,
    gap=st.floats(0.2, 1.0),
    anchor=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
    spot=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
)
@example(
    charges=(0.5, 0.21875, False), k=0.0, beta=0.5, direction=(0.0, 0.0),
    gap=1.0, anchor=(0.0, 0.0, 0.0), spot=(0.0, 0.0, 0.0),
)
def test_free_energy_laplacian_is_minus_beta_times_gradient_variance(
    charges, k, beta, direction, gap, anchor, spot
):
    # the classical sign statement, lap F = -beta Var(grad_d H): the left side
    # from central differences of the free energy (Richardson, h = 0.005), the
    # right side from Boltzmann weights, both on the quadrature's 32-node rule
    q, q_fixed, opposite = charges
    tether = ("harmonic", k, anchor)
    mobile = Container("a", "sphere", (0, 0, 0), 0.4, mobile_charges=[(q, tether)])
    center = tuple((0.7 + gap) * _unit(*direction))
    charge = -q_fixed if opposite else q_fixed
    fixed = Container("b", "sphere", center, 0.3, fixed_charges=[(charge, spot)])
    config = ClassicalConfig((mobile, fixed), 1.0, beta)

    table = config._table
    points, weights = classical._shape_nodes(mobile, 32)
    energy = classical._site_energy(table, table.n_fixed, *points.T, table.fixed)
    # the rule's free energy is the quadrature's, within its default tol
    assert -np.log(weights @ np.exp(-beta * energy)) / beta == pytest.approx(
        free_energy_quadrature(config, (0, 0, 0)), rel=1e-8, abs=1e-8
    )
    p = weights * np.exp(-beta * (energy - energy.min()))
    p /= p.sum()
    grads = classical._grad_d(table, points[:, None], 0)
    centred = grads - p @ grads
    variance = float(p @ np.einsum("ij,ij->i", centred, centred))

    def change(d):
        # F(d) - F(0) on the same nodes: shifting the mobile's container by d
        # moves the fixed charge by -d relative to it, so the tether term
        # cancels exactly, and expm1/log1p keep the rounding at the size of
        # the energy change.  Differencing separately computed F(d) adds
        # |F|'s rounding, ~1e-15 / h^2, which on the weakest couplings
        # exceeds 1e-4 at every h where this stencil's truncation does not.
        moved = classical._site_energy(table, table.n_fixed, *points.T, table.fixed - d)
        return -np.log1p(p @ np.expm1(-beta * (moved - energy))) / beta

    def laplacian(h):
        return sum(change(h * e) + change(-h * e) for e in np.eye(3)) / h**2

    lap = (4.0 * laplacian(0.005) - laplacian(0.01)) / 3.0
    assert lap == pytest.approx(-beta * variance, rel=1e-4)


# (eps, mu) of the spheres and the medium's eps, per material kind; "mu" and
# "mixed" are the mixed-class kinds, the others one class each
_EPS2 = DispersionModel.constant(2.0)
RECIPROCITY_KINDS = {
    "pec": ([(PEC, ONE)] * 3, ONE),
    "constant": ([(DispersionModel.constant(4.0), ONE)] * 3, ONE),
    "drude": ([(DispersionModel.drude(4.0, 0.2), ONE)] * 3, ONE),
    "lorentz": ([(DispersionModel.lorentz([(2.0, 1.5, 0.3)]), ONE)] * 3, ONE),
    "mu": ([(DispersionModel.constant(3.0), DispersionModel.constant(2.0))] * 3, ONE),
    "bubble": ([(ONE, ONE)] * 3, _EPS2),
    "mixed": ([(PEC, ONE), (ONE, ONE), (DispersionModel.constant(4.0), ONE)], _EPS2),
}
RECIPROCITY_KAPPAS = np.array([1e-3, 0.7, 3.0])


def _reciprocity_config(kind, centers):
    models, eps_medium = RECIPROCITY_KINDS[kind]
    objs = tuple(
        SphereObject(c, r, eps, mu, label)
        for c, r, (eps, mu), label in zip(centers, (0.8, 0.6, 0.5), models, "abc")
    )
    return Configuration(objs, Medium(eps_medium), 0.0)


def _w(t_log, l_max):
    """W = raw T-matrix sign times the sector parity D, on every basis label."""
    return (t_log[0] * np.repeat([1.0, -1.0], l_max))[..., _band_of(l_max)]


@pytest.mark.parametrize("axial", [False, True], ids=["dense", "axial"])
@pytest.mark.parametrize("kind", sorted(RECIPROCITY_KINDS))
def test_reverse_block_is_the_balanced_translation_at_minus_d(kind, axial):
    # B_JI, read from B_IJ by W, against the balancing of X(-d) built on its
    # own, entry by entry, at each kappa
    d = np.array([0.0, 0.0, 2.6]) if axial else np.array([0.4, 0.3, 2.6])
    config = _reciprocity_config(kind, [(0.0, 0.0, 0.0), tuple(d), (2.9, 0.0, 1.8)])
    l_max = 4
    layout = _layout(l_max, axial)
    t_i, t_j = _t_logs(config, RECIPROCITY_KAPPAS, l_max)[:2]
    wanted = None if layout.entries is None else (layout.entries.rows, layout.entries.cols)
    x = translation_matrix(config.medium, RECIPROCITY_KAPPAS, d, l_max, wanted)
    reverse = _pair_blocks(x, t_i, t_j, layout)[1]
    back = translation_matrix(config.medium, RECIPROCITY_KAPPAS, -d, l_max)
    band = _band_of(l_max)
    (s_j, g_j), (_, g_i) = ((s[:, band], g[:, band]) for s, g in (t_j, t_i))
    want = s_j[:, :, None] * back.scaled * np.exp(
        back.exponent[:, band[:, None], band] + 0.5 * g_j[:, :, None] + 0.5 * g_i[:, None, :]
    )
    if axial:
        want = want[:, layout.entries.rows, layout.entries.cols]
    for got_row, want_row in zip(reverse, want):
        assert np.linalg.norm(got_row - want_row) <= 1e-13 * np.linalg.norm(want_row)


@pytest.mark.parametrize("kind", sorted(RECIPROCITY_KINDS))
def test_balanced_matrix_is_symmetric_after_w(kind):
    # W (I - N) is symmetric to the bit; for a same-class configuration W is
    # one sign and I - N itself is symmetric
    config = _reciprocity_config(kind, [(0.0, 0.0, 0.0), (0.4, 0.3, 2.6), (2.9, 0.0, 1.8)])
    l_max = 3
    for kappa in RECIPROCITY_KAPPAS.tolist():
        m = assemble_block_matrix(config, kappa, l_max)
        w = np.concatenate([_w(t, l_max) for t in _t_logs(config, kappa, l_max)])
        same_class = np.unique(w).size == 1
        assert same_class == (kind not in ("mu", "mixed"))
        if same_class:
            assert np.array_equal(m, m.T)
        wm = w[:, None] * m
        assert np.array_equal(wm, wm.T)
