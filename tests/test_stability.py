"""Forces, Laplacians, the trace decomposition, and equilibrium search."""

import math
import re

import numpy as np
import pytest

from casimir_stability import (
    Configuration,
    Medium,
    ToleranceError,
    ValidationError,
    find_axial_equilibrium,
    force,
    laplacian_decomposition,
    laplacian_fd,
    stability_report,
)
from conftest import dielectric_sphere, pec_pair, pec_sphere

L_MAX = 6
NODES = 24


def test_force_points_toward_partner():
    cfg = pec_pair(4.0)
    f = force(cfg, "a", l_max=L_MAX, n_nodes=NODES)
    assert f[2] > 0.0
    assert abs(f[0]) < 1e-10 * f[2]
    assert abs(f[1]) < 1e-10 * f[2]
    f_b = force(cfg, "b", l_max=L_MAX, n_nodes=NODES)
    assert f_b[2] == pytest.approx(-f[2], rel=1e-6)


def test_force_matches_energy_slope():
    from casimir_stability import energy_T0
    from casimir_stability.stability import _displaced

    cfg = pec_pair(5.0)
    f = force(cfg, "a", l_max=5, n_nodes=32)
    h = 0.02
    ep = energy_T0(_displaced(cfg, "a", [0.0, 0.0, +h]), tol=1e-9, l_max=5).value
    em = energy_T0(_displaced(cfg, "a", [0.0, 0.0, -h]), tol=1e-9, l_max=5).value
    assert f[2] == pytest.approx(-(ep - em) / (2 * h), rel=1e-3)


def test_unknown_label_rejected():
    cfg = pec_pair(4.0)
    with pytest.raises(ValidationError):
        force(cfg, "missing", l_max=3, n_nodes=8)


def test_unknown_label_rejected_by_equilibrium_search():
    cfg = pec_pair(4.0)
    with pytest.raises(ValidationError, match="'missing'"):
        find_axial_equilibrium(cfg, "missing", 2, (-0.5, 0.5), l_max=2, n_nodes=4)


def test_overlapping_engine_displacement_uses_the_configuration_rule():
    from casimir_stability import GeometryError
    from casimir_stability.stability import _CommonGridEngine

    eng = _CommonGridEngine(pec_pair(4.0), "a", l_max=2, n_nodes=4)
    # a 2.5 step along +z leaves the centres 1.5 apart, less than 2 radii
    with pytest.raises(GeometryError, match="'a' and 'b' overlap or touch"):
        eng.energy(np.array([0.0, 0.0, 2.5]))


def test_step_validation():
    cfg = pec_pair(4.0)
    with pytest.raises(ToleranceError):
        laplacian_fd(cfg, "a", h=1.5, l_max=3, n_nodes=8)
    # 0.1 * gap <= h < 0.1 * |d|: only the step check rejects it
    with pytest.raises(ToleranceError):
        laplacian_decomposition(cfg, "a", h=0.3, l_max=3, n_nodes=8)


@pytest.mark.parametrize("route", [force, laplacian_fd, laplacian_decomposition])
def test_underflowing_step_rejected(route):
    # h <= 1e-8 * gap: the differences of ln det would be rounding noise
    with pytest.raises(ToleranceError):
        route(pec_pair(4.0), "a", h=1e-12, l_max=3, n_nodes=8)


def test_laplacian_negative_for_same_class_pair():
    lap = laplacian_fd(pec_pair(3.0), "a", l_max=L_MAX, n_nodes=NODES)
    assert lap < 0.0


def test_decomposition_matches_fd_two_body():
    cfg = pec_pair(3.0)
    lap = laplacian_fd(cfg, "a", l_max=L_MAX, n_nodes=NODES)
    t1, t2, t3 = laplacian_decomposition(cfg, "a", l_max=L_MAX, n_nodes=NODES)
    assert t1 + t2 + t3 == pytest.approx(lap, rel=1e-4)
    # stored terms carry the physical (negative) prefactor; the square-of-
    # symmetric-matrix positivity statement applies to -term3
    assert -t3 >= -1e-12 * abs(lap)
    assert np.sign(t1) == np.sign(t2)


def test_decomposition_matches_fd_three_body_schur():
    a = pec_sphere((0, 0, 0), 1.0, "a")
    b = pec_sphere((0, 0, 3.0), 1.0, "b")
    c = pec_sphere((4.0, 0, 0), 0.5, "c")
    cfg = Configuration((a, b, c), Medium(), 0.0)
    lap = laplacian_fd(cfg, "a", l_max=5, n_nodes=20)
    t1, t2, t3 = laplacian_decomposition(cfg, "a", l_max=5, n_nodes=20)
    assert t1 + t2 + t3 == pytest.approx(lap, rel=1e-4)


def test_laplacian_rotation_invariance():
    from scipy.spatial.transform import Rotation

    rot = Rotation.from_rotvec([0.4, 0.9, -0.2]).as_matrix()
    centers = [np.zeros(3), np.array([0, 0, 3.0]), np.array([4.0, 0, 0])]
    radii = [1.0, 1.0, 0.5]
    objs = tuple(
        pec_sphere(c, r, lbl) for c, r, lbl in zip(centers, radii, "abc")
    )
    objs_rot = tuple(
        pec_sphere(rot @ c, r, lbl) for c, r, lbl in zip(centers, radii, "abc")
    )
    lap = laplacian_fd(Configuration(objs, Medium(), 0.0), "a", l_max=5, n_nodes=24)
    lap_rot = laplacian_fd(
        Configuration(objs_rot, Medium(), 0.0), "a", l_max=5, n_nodes=24
    )
    assert lap_rot == pytest.approx(lap, rel=1e-6)


def test_report_fields_and_sign_prediction():
    rep = stability_report(pec_pair(3.0), "a", l_max=5, n_nodes=20)
    assert rep.object_label == "a"
    assert rep.laplacian < 0
    assert rep.predicted_sign_product == +1
    assert rep.h_used > 0
    assert rep.est_error >= 0
    assert rep.est_error < 1e-3 * abs(rep.laplacian)
    # opposite classes: eps < medium inside a dense medium partner
    from casimir_stability import DispersionModel

    med = Medium(eps_model=DispersionModel.constant(2.0))
    hi = dielectric_sphere((0, 0, 0), 1.0, 5.0, "a")
    lo = dielectric_sphere((0, 0, 4.0), 1.0, 1.2, "b")
    rep2 = stability_report(Configuration((hi, lo), med, 0.0), "a", l_max=4, n_nodes=16)
    assert rep2.predicted_sign_product == -1


def test_equilibrium_between_identical_spheres():
    # middle sphere between two identical partners: force vanishes midway
    a = pec_sphere((0, 0, -4.0), 1.0, "left")
    b = pec_sphere((0, 0, 0.6), 0.5, "mid")
    c = pec_sphere((0, 0, 4.0), 1.0, "right")
    cfg = Configuration((a, b, c), Medium(), 0.0)
    res = find_axial_equilibrium(
        cfg, "mid", 2, (-1.2, 0.4), tol=1e-4, l_max=4, n_nodes=16
    )
    assert res.found
    assert res.position == pytest.approx(0.0, abs=1e-3)
    # saddle or maximum along the line but unstable overall: laplacian <= 0
    assert res.report.laplacian < 0


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_equilibrium_search_rejects_a_tolerance_it_cannot_reach(tol):
    with pytest.raises(ValidationError, match="tol"):
        find_axial_equilibrium(pec_pair(4.0), "a", 2, (-0.5, 0.5), tol=tol)


@pytest.mark.parametrize("axis", [-1, 3])
def test_equilibrium_search_rejects_an_axis_outside_xyz(axis):
    with pytest.raises(ValidationError, match="axis"):
        find_axial_equilibrium(pec_pair(4.0), "a", axis, (-0.5, 0.5))


def test_no_equilibrium_reported_for_plain_pair():
    cfg = pec_pair(5.0)
    res = find_axial_equilibrium(
        cfg, "a", 2, (-0.5, 0.5), tol=1e-3, l_max=3, n_nodes=12
    )
    assert not res.found
    assert res.position is None
    assert res.report is None


def test_nan_translation_entry_raises_in_engine_and_decomposition(monkeypatch):
    from casimir_stability import UnphysicalTruncationError, casimir
    from casimir_stability.stability import _CommonGridEngine
    from test_casimir import _nan_translation

    cfg = pec_pair(4.0)
    _nan_translation(monkeypatch, casimir)
    with pytest.raises(UnphysicalTruncationError):
        _CommonGridEngine(cfg, "a", l_max=3, n_nodes=4).energy(np.zeros(3))
    with pytest.raises(UnphysicalTruncationError):
        laplacian_decomposition(cfg, "a", l_max=3, n_nodes=4)


def test_engine_positivity_errors_name_the_node_and_displacement(monkeypatch):
    from casimir_stability import UnphysicalTruncationError, casimir
    from casimir_stability.stability import _CommonGridEngine
    from test_casimir import _nan_translation

    cfg = pec_pair(4.0)
    _nan_translation(monkeypatch, casimir)
    eng = _CommonGridEngine(cfg, "a", l_max=3, n_nodes=4)
    at = re.escape(f"kappa = {eng.kappas[0]:.6g} (node 0), 'a' moved by (0, 0, 0.5)")
    with pytest.raises(UnphysicalTruncationError, match=f"matrix at {at} has non-fin"):
        eng.energy(np.array([0.0, 0.0, 0.5]))
    for call in (force, laplacian_fd, stability_report):
        with pytest.raises(UnphysicalTruncationError, match=r"kappa = \S+ \(node 0\)"):
            call(cfg, "a", l_max=3, n_nodes=4)


def test_axial_force_errors_name_the_node_and_the_minus_end(monkeypatch):
    # the sweep's force is one ratio from a reference at its -h end, which
    # is guarded first
    from casimir_stability import UnphysicalTruncationError, casimir
    from casimir_stability.stability import _axial_force, _CommonGridEngine
    from test_casimir import _nan_translation

    _nan_translation(monkeypatch, casimir)
    eng = _CommonGridEngine(pec_pair(4.0), "a", l_max=3, n_nodes=4)
    at = re.escape(f"kappa = {eng.kappas[0]:.6g} (node 0), 'a' moved by (0, 0, 0.25)")
    with pytest.raises(UnphysicalTruncationError, match=f"matrix at {at} has non-fin"):
        _axial_force(eng, 0.25, 2, s=0.5)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda cfg: stability_report(cfg, "a", l_max=2, n_nodes=0),
         ValidationError, "n_nodes must be an integer >= 1"),
        (lambda cfg: stability_report(cfg, "a", l_max=2, n_nodes=2.5),
         ValidationError, "n_nodes must be an integer >= 1"),
        (lambda cfg: force(cfg, "a", l_max=2.5, n_nodes=4),
         ValidationError, "l_max must be an integer >= 1"),
        (lambda cfg: force(cfg, "a", h=math.nan, l_max=2, n_nodes=4),
         ToleranceError, "step h must be finite"),
        (lambda cfg: find_axial_equilibrium(cfg, "a", 2, (math.nan, 0.5), n_nodes=4),
         ValidationError, "bracket end must be finite"),
    ],
    ids=["n_nodes_0", "n_nodes_2.5", "l_max_2.5", "h_nan", "bracket_nan"],
)
def test_orders_steps_and_brackets_are_checked_where_they_enter(call, error, match):
    # each used to fail deeper: numpy's "deg must be a positive integer", a
    # TypeError, a broadcast error, or a sphere centre that is not finite
    with pytest.raises(error, match=match):
        call(pec_pair(4.0))


def test_matsubara_grid_cap_raises_with_partial_grid(monkeypatch):
    from casimir_stability import ConvergenceBudgetError, casimir, stability
    from casimir_stability.stability import _CommonGridEngine

    monkeypatch.setattr(stability, "MAX_MATSUBARA_TERMS", 3)
    with pytest.raises(ConvergenceBudgetError) as info:
        _CommonGridEngine(pec_pair(4.0, tau=0.5), "a", l_max=2, n_nodes=4)
    kappas, weights = info.value.partial
    assert kappas == pytest.approx([casimir.KAPPA_FLOOR, 0.5, 1.0, 1.5])
    assert len(weights) == 4


def _count_calls(monkeypatch, module, name):
    """Count calls made through ``module.name``; returns the running list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("three_body", [False, True])
def test_report_builds_one_engine(monkeypatch, three_body):
    # one frozen grid serves force, FD Laplacian and decomposition: every
    # T-matrix row is built once per (node, distinct sphere).  At tau > 0
    # the grid's truncation sum builds them at l_max 3, the grid's own
    # order, and the grid keeps them: no row is built twice, so the 15
    # nodes take 15 rows, not 30.  The sum evaluates runs of kappas, and
    # only its last run may reach past the stop
    from casimir_stability import casimir, stability

    if three_body:
        objs = (
            dielectric_sphere((0, 0, 0), 1.0, 4.0, "a"),
            dielectric_sphere((3.0, 0, 0.5), 0.8, 3.0, "b"),
            dielectric_sphere((0.6, 3.1, 1.0), 0.6, 5.0, "c"),
        )
        cfg, l_max, n_nodes = Configuration(objs, Medium(), 0.0), 5, 12
    else:
        cfg, l_max, n_nodes = pec_pair(4.0, tau=0.5), 3, 32
    engines = []

    class Recorded(stability._CommonGridEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(stability, "_CommonGridEngine", Recorded)
    calls = _count_calls(monkeypatch, casimir, "mie_tmatrix")
    stability_report(cfg, "a", l_max=l_max, n_nodes=n_nodes)
    assert len(engines) == 1
    grid = engines[0].kappas
    assert len(grid) == (12 if three_body else 15)
    runs = {}
    for sphere, _, kappas, order in calls:
        assert order == l_max
        runs.setdefault((sphere.radius, sphere.eps, sphere.mu), []).append(np.atleast_1d(kappas))
    assert len(runs) == (3 if three_body else 1)
    for sphere_runs in runs.values():
        built = np.concatenate(sphere_runs)
        assert np.unique(built).size == built.size
        assert np.array_equal(built[: len(grid)], grid)
        assert built.size - sphere_runs[-1].size < len(grid)


def test_equilibrium_search_builds_one_engine_for_its_search(monkeypatch):
    # one frozen grid for every force of the search, one for the report at
    # the root: each builds a T-matrix row per (node, distinct sphere), and
    # the equal outer spheres share one
    from casimir_stability import casimir, stability

    engines = []

    class Recorded(stability._CommonGridEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(stability, "_CommonGridEngine", Recorded)
    calls = _count_calls(monkeypatch, casimir, "mie_tmatrix")
    cfg = Configuration(
        (
            pec_sphere((0, 0, -4.0), 1.0, "left"),
            pec_sphere((0, 0, 0.6), 0.5, "mid"),
            pec_sphere((0, 0, 4.0), 1.0, "right"),
        ),
        Medium(),
        0.0,
    )
    res = find_axial_equilibrium(
        cfg, "mid", 2, (-1.2, 0.4), tol=1e-4, l_max=4, n_nodes=16
    )
    assert res.found
    assert len(engines) == 2
    assert sum(np.size(kappas) for _, _, kappas, _ in calls) == 2 * 16 * 2
