"""Interaction energies: integrand, quadrature, Matsubara sums, plates."""

import math

import numpy as np
import pytest
import scipy.linalg

from casimir_stability import (
    Configuration,
    DispersionModel,
    GeometryError,
    Medium,
    ValidationError,
    energy_T0,
    free_energy_T,
    lifshitz_plates,
    log_det_integrand,
)
from casimir_stability.casimir import assemble_block_matrix, default_l_max
from conftest import dielectric_sphere, pec_pair, pec_sphere

PEC_PAIR = (DispersionModel.perfect_conductor(), DispersionModel.constant(1.0))


def test_configuration_validation():
    a = pec_sphere((0, 0, 0), 1.0, "a")
    b = pec_sphere((0, 0, 1.5), 1.0, "b")
    with pytest.raises(GeometryError):
        Configuration((a, b), Medium(), 0.0)
    with pytest.raises(ValidationError):
        Configuration((a,), Medium(), 0.0)
    dup = pec_sphere((0, 0, 5.0), 1.0, "a")
    with pytest.raises(ValidationError):
        Configuration((a, dup), Medium(), 0.0)


def test_integrand_negative_for_same_class():
    cfg = pec_pair(3.0)
    for kappa in (0.05, 0.3, 1.0, 4.0):
        assert log_det_integrand(cfg, kappa, 6) < 0.0


def test_det_and_tracelog_agree():
    cfg = pec_pair(3.5)
    for kappa in (0.2, 1.1):
        det = log_det_integrand(cfg, kappa, 5)
        tr = float(np.trace(scipy.linalg.logm(assemble_block_matrix(cfg, kappa, 5))).real)
        assert det == pytest.approx(tr, rel=1e-10)


def test_block_matrix_shape_and_identity_diagonal():
    cfg = pec_pair(3.0)
    m = assemble_block_matrix(cfg, 0.7, 4)
    nb = 2 * ((4 + 1) ** 2 - 1)
    assert m.shape == (2 * nb, 2 * nb)
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m[:nb, :nb], np.eye(nb))


def test_energy_negative_and_monotone_in_separation():
    values = [energy_T0(pec_pair(s), tol=1e-6, l_max=6).value for s in (3.0, 4.0, 6.0)]
    assert all(v < 0 for v in values)
    assert values[0] < values[1] < values[2]


def test_energy_deepens_with_permittivity():
    def cfg(eps):
        a = dielectric_sphere((0, 0, 0), 1.0, eps, "a")
        b = dielectric_sphere((0, 0, 4.0), 1.0, eps, "b")
        return Configuration((a, b), Medium(), 0.0)

    e_weak = energy_T0(cfg(2.0), l_max=4).value
    e_strong = energy_T0(cfg(20.0), l_max=4).value
    assert e_strong < e_weak < 0


def test_energy_rotation_invariance():
    from scipy.spatial.transform import Rotation

    rot = Rotation.from_rotvec([0.3, -1.1, 0.7]).as_matrix()
    a = pec_sphere((0, 0, 0), 1.0, "a")
    b = pec_sphere((1.0, 2.0, 2.5), 1.0, "b")
    cfg = Configuration((a, b), Medium(), 0.0)
    a2 = pec_sphere(rot @ np.zeros(3), 1.0, "a")
    b2 = pec_sphere(rot @ np.array([1.0, 2.0, 2.5]), 1.0, "b")
    cfg2 = Configuration((a2, b2), Medium(), 0.0)
    e1 = energy_T0(cfg, l_max=6, tol=1e-8).value
    e2 = energy_T0(cfg2, l_max=6, tol=1e-8).value
    assert e2 == pytest.approx(e1, rel=1e-9)


def test_three_body_not_pairwise_additive():
    a = pec_sphere((0, 0, 0), 0.8, "a")
    b = pec_sphere((0, 0, 3.0), 0.8, "b")
    c = pec_sphere((0, 3.0, 0.0), 0.8, "c")
    e_abc = energy_T0(Configuration((a, b, c), Medium(), 0.0), l_max=4).value
    pair_sum = sum(
        energy_T0(Configuration(p, Medium(), 0.0), l_max=4).value
        for p in [(a, b), (b, c), (a, c)]
    )
    assert e_abc < 0
    assert e_abc != pytest.approx(pair_sum, rel=1e-6)
    # many-body correction is a small fraction at these separations
    assert abs(e_abc - pair_sum) < 0.1 * abs(pair_sum)


def test_finite_temperature_requires_positive_tau():
    with pytest.raises(ValidationError):
        free_energy_T(pec_pair(3.0, tau=0.0))
    with pytest.raises(ValidationError):
        energy_T0(pec_pair(3.0, tau=0.5))


def test_high_temperature_limit_dominated_by_zero_mode():
    # for tau large the primed sum reduces to the halved n = 0 term
    cfg = pec_pair(4.0, tau=40.0)
    res = free_energy_T(cfg, tol=1e-9, l_max=4)
    from casimir_stability.casimir import KAPPA_FLOOR

    zero = 0.5 * cfg.tau / (2 * math.pi) * log_det_integrand(cfg, KAPPA_FLOOR, 4)
    assert res.value == pytest.approx(zero, rel=1e-3)


def test_kappa_floor_flag_for_drude():
    drude = DispersionModel.drude(5.0, 0.5)
    one = DispersionModel.constant(1.0)
    from casimir_stability import SphereObject

    a = SphereObject((0, 0, 0), 1.0, drude, one, "a")
    b = SphereObject((0, 0, 4.0), 1.0, drude, one, "b")
    cfg = Configuration((a, b), Medium(), 1.0)
    res = free_energy_T(cfg, tol=1e-6, l_max=3)
    assert res.kappa_floor_used
    res0 = free_energy_T(pec_pair(4.0, tau=1.0), tol=1e-6, l_max=3)
    assert not res0.kappa_floor_used


def test_default_l_max_scales_with_geometry():
    near = pec_pair(2.2)
    far = pec_pair(12.0)
    assert default_l_max(near) > default_l_max(far)


# --- parallel plates -------------------------------------------------------


def test_plates_pec_closed_form():
    gap = 1.0
    value = lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), gap)
    assert value == pytest.approx(-math.pi**2 / 720.0 / gap**3, rel=1e-8)
    # gap scaling law
    v2 = lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), 2.0)
    assert v2 == pytest.approx(value / 8.0, rel=1e-8)


def test_plates_dielectric_weaker_than_pec():
    glass = (DispersionModel.constant(2.5), DispersionModel.constant(1.0))
    v_glass = lifshitz_plates(glass, glass, Medium(), 1.0)
    v_pec = lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), 1.0)
    assert v_pec < v_glass < 0


def test_plates_finite_temperature_approaches_zero_t():
    v0 = lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), 1.0)
    vt = lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), 1.0, tau=1e-2)
    assert vt == pytest.approx(v0, rel=1e-3)


def test_plates_matsubara_cap_raises(monkeypatch):
    from casimir_stability import ConvergenceBudgetError, casimir

    monkeypatch.setattr(casimir, "MAX_SUM_TERMS", 3)
    with pytest.raises(ConvergenceBudgetError) as info:
        lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), 1.0, tau=1e-2)
    kappas, weights = info.value.partial
    assert kappas == pytest.approx([casimir.KAPPA_FLOOR, 1e-2, 2e-2, 3e-2])
    assert len(weights) == 4


def test_plates_dense_medium_scaling():
    # PEC plates across an eps = 4 medium: energy scales by 1/n
    medium = Medium(eps_model=DispersionModel.constant(4.0))
    v = lifshitz_plates(PEC_PAIR, PEC_PAIR, medium, 1.0)
    assert v == pytest.approx(-math.pi**2 / 720.0 / 2.0, rel=1e-6)


def _nan_translation(monkeypatch, module):
    """Make every translation built in ``module`` carry one NaN entry."""
    original = module.translation_matrix

    def poisoned(*args, **kwargs):
        x = original(*args, **kwargs)
        x.scaled[0, 0] = np.nan
        return x

    monkeypatch.setattr(module, "translation_matrix", poisoned)


def test_nan_translation_entry_raises(monkeypatch):
    from casimir_stability import UnphysicalTruncationError, casimir

    _nan_translation(monkeypatch, casimir)
    with pytest.raises(UnphysicalTruncationError):
        log_det_integrand(pec_pair(3.0), 0.7, 3)


def test_transparent_sphere_gives_finite_integrand():
    # eps = eps_medium: every amplitude is exactly zero, so the balanced
    # blocks of that sphere vanish instead of forming 0 * inf
    cfg = Configuration(
        (pec_sphere((0, 0, 0), 1.0, "a"), dielectric_sphere((0, 0, 3.0), 1.0, 1.0, "b")),
        Medium(),
        0.0,
    )
    for kappa in (1e-6, 0.7, 20.0):
        assert log_det_integrand(cfg, kappa, 4) == 0.0
