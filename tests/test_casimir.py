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
    SphereObject,
    ValidationError,
    energy_T0,
    free_energy_T,
    lifshitz_plates,
    log_det_integrand,
)
from casimir_stability.casimir import assemble_block_matrix, default_l_max
from casimir_stability.scattering import fresnel_reflection, mie_tmatrix
from casimir_stability.specfun import log_bessel_i_array, log_bessel_k_array
from casimir_stability.translation import translation_matrix
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


def test_free_energy_reports_the_tail_that_stopped_the_sum():
    # est_rel_error is the geometric tail the sum compared with tol, not the
    # last term alone (which is 1.55e-6 here, above the tol the sum met)
    res = free_energy_T(pec_pair(2.2, radius=0.1, tau=0.5), tol=1e-6, l_max=6)
    terms = res.samples[:, 1]
    r = abs(terms[-1] / terms[-2])
    tail = abs(terms[-1]) * r / (1.0 - r)
    assert res.est_rel_error == pytest.approx(tail / abs(terms.sum()), rel=1e-9)
    assert res.est_rel_error <= 1e-6


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


def test_free_energy_order_budget_reports_last_evaluated_order(monkeypatch):
    # an integrand that grows with l_max never order-converges: orders 2, 4,
    # 8 and 16 are evaluated, and the partial must describe order 16; the
    # integrand takes runs of kappas, and only the last run of order 16 may
    # reach past the stop of its sum
    from casimir_stability import ConvergenceBudgetError, casimir

    runs = []

    def integrand(config, kappa, l_max):
        runs.append((l_max, np.size(kappa)))
        return -(1.0 + l_max) * np.exp(-kappa)

    monkeypatch.setattr(casimir, "log_det_integrand", integrand)
    monkeypatch.setattr(casimir, "default_l_max", lambda config: 2)
    with pytest.raises(ConvergenceBudgetError) as info:
        free_energy_T(pec_pair(4.0, tau=1.0), tol=1e-6)
    partial = info.value.partial
    assert sorted({order for order, _ in runs}) == [2, 4, 8, 16]
    last = [size for order, size in runs if order == 16]
    assert runs[-1][0] == 16
    assert partial.l_max_used == 16
    assert partial.node_count == len(partial.samples)
    assert sum(last[:-1]) < partial.node_count <= sum(last)
    n = np.arange(1, partial.node_count)
    assert partial.samples[1:, 1] == pytest.approx(-17.0 * np.exp(-n))
    # orders 8 and 16 scale the same sum by 9 and 17
    assert partial.est_rel_error == pytest.approx(8.0 / 17.0)
    assert partial.value == pytest.approx(partial.samples[-1, 2])


def test_energy_T0_order_budget_reports_last_evaluated_order(monkeypatch):
    # the T = 0 energy has the same budget as the Matsubara sum: three
    # doublings of the default order, orders 2, 4, 8 and 16 evaluated
    from casimir_stability import ConvergenceBudgetError, casimir

    orders = []

    def integrand(config, kappa, l_max):
        orders.append(l_max)
        return -(1.0 + l_max) * np.exp(-kappa)

    monkeypatch.setattr(casimir, "log_det_integrand", integrand)
    monkeypatch.setattr(casimir, "default_l_max", lambda config: 2)
    with pytest.raises(ConvergenceBudgetError) as info:
        energy_T0(pec_pair(4.0), tol=1e-6)
    assert "multipole" in str(info.value)
    partial = info.value.partial
    assert sorted(set(orders)) == [2, 4, 8, 16]
    assert partial.l_max_used == 16
    assert partial.node_count == len(partial.samples)
    assert partial.est_rel_error == pytest.approx(8.0 / 17.0)
    assert partial.value == pytest.approx(-17.0 / (2.0 * math.pi))


def test_energy_T0_node_budget_stops_at_1536(monkeypatch):
    # an oscillating integrand never node-converges: every grid from 24 to
    # 1536 nodes is evaluated, none finer, and the partial is the 1536-node
    # result with the change from 768 nodes as its estimate; ``calls`` holds
    # every kappa the integrand was handed
    from casimir_stability import ConvergenceBudgetError, casimir

    calls = []

    def integrand(config, kappa, l_max):
        calls.extend(kappa)
        return -np.abs(np.sin(1000.0 * kappa)) * np.exp(-kappa)

    monkeypatch.setattr(casimir, "log_det_integrand", integrand)
    cfg = pec_pair(4.0)
    with pytest.raises(ConvergenceBudgetError, match="node budget") as info:
        energy_T0(cfg, tol=1e-12, l_max=2)
    assert len(calls) == sum(24 * 2**k for k in range(7))
    partial = info.value.partial

    def quad(n):
        kappas, weights = casimir._quad_nodes(n, 1.0 / cfg.min_gap())
        vals = -np.abs(np.sin(1000.0 * kappas)) * np.exp(-kappas)
        return float(np.dot(weights, vals)) / (2.0 * math.pi)

    assert partial.node_count == len(partial.samples) == 1536
    assert partial.value == pytest.approx(quad(1536), rel=1e-12)
    change = abs(quad(1536) - quad(768)) / abs(quad(1536))
    assert partial.est_rel_error == pytest.approx(change, rel=1e-9)


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_order_convergence_reports_the_lower_order(monkeypatch, tau):
    # value ~ 1 + 2^-L: orders 8 and 16 agree to 1e-2, so order 8 is
    # reported with est = max(order change, grid estimate) at either tau
    from casimir_stability import casimir

    orders = []

    def integrand(config, kappa, l_max):
        orders.append(l_max)
        return -(1.0 + 2.0**-l_max) * np.exp(-kappa)

    monkeypatch.setattr(casimir, "log_det_integrand", integrand)
    monkeypatch.setattr(casimir, "default_l_max", lambda config: 2)
    cfg = pec_pair(4.0, tau=tau)
    res = (energy_T0 if tau == 0.0 else free_energy_T)(cfg, tol=1e-2)
    assert sorted(set(orders)) == [2, 4, 8, 16]
    assert res.l_max_used == 8
    assert res.node_count == len(res.samples)
    assert res.value == pytest.approx(res.samples[-1, 2])
    order_change = (2.0**-8 - 2.0**-16) / (1.0 + 2.0**-16)
    if tau == 0.0:
        # every order has the same node profile, so the last node doubling
        # changed the value as it does for the plain exponential
        def quad(n):
            kappas, weights = casimir._quad_nodes(n, 1.0 / cfg.min_gap())
            return float(np.dot(weights, np.exp(-kappas)))

        n = res.node_count
        grid = abs(quad(n) - quad(n // 2)) / abs(quad(n))
    else:
        terms = res.samples[:, 1]
        r = abs(terms[-1] / terms[-2])
        grid = abs(terms[-1]) * r / (1.0 - r) / abs(terms.sum())
    assert res.est_rel_error == pytest.approx(max(order_change, grid), rel=1e-6)


PLATES = (PEC_PAIR, PEC_PAIR, Medium(), 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pec_pair(4.0, tau=math.nan),
        lambda: pec_pair(4.0, tau=math.inf),
        lambda: lifshitz_plates(*PLATES, tau=-0.1),
        lambda: lifshitz_plates(*PLATES, tau=math.nan),
        lambda: lifshitz_plates(*PLATES, tau=math.inf),
        lambda: lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), 0.0),
        lambda: lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), math.nan),
        lambda: lifshitz_plates(PEC_PAIR, PEC_PAIR, Medium(), math.inf),
        lambda: lifshitz_plates(*PLATES, tol=-1.0),
        lambda: lifshitz_plates(*PLATES, tol=0.0),
        lambda: lifshitz_plates(*PLATES, tol=math.nan),
        lambda: energy_T0(pec_pair(4.0), tol=-1.0, l_max=2),
        lambda: energy_T0(pec_pair(4.0), tol=math.inf, l_max=2),
        lambda: free_energy_T(pec_pair(4.0, tau=0.5), tol=-1.0, l_max=2),
        lambda: free_energy_T(pec_pair(4.0, tau=0.5), tol=math.nan, l_max=2),
    ],
    ids=[
        "config_tau_nan", "config_tau_inf", "plates_tau_neg", "plates_tau_nan",
        "plates_tau_inf", "plates_gap_0", "plates_gap_nan", "plates_gap_inf",
        "plates_tol_neg", "plates_tol_0", "plates_tol_nan", "T0_tol_neg",
        "T0_tol_inf", "T_tol_neg", "T_tol_nan",
    ],
)
def test_out_of_range_tau_gap_and_tol_are_rejected_up_front(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("l_max", [2.5, 0, -1, True, "3"])
@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_energy_order_must_be_an_integer_of_at_least_one(tau, l_max):
    # a fractional order used to fail inside numpy with "operands could not
    # be broadcast together"
    energy = energy_T0 if tau == 0.0 else free_energy_T
    with pytest.raises(ValidationError, match="l_max must be an integer >= 1"):
        energy(pec_pair(4.0, tau=tau), l_max=l_max)


KERNELS = {
    "mie_tmatrix": lambda k, l_max: mie_tmatrix(pec_sphere((0, 0, 0), 1.0, "a"), Medium(), k, l_max),
    "translation_matrix": lambda k, l_max: translation_matrix(Medium(), k, (0.3, 0.0, 3.0), l_max),
    "fresnel_reflection": lambda k, _: fresnel_reflection(PEC_PAIR, Medium(), k, 1.0),
    "log_bessel_k_array": lambda k, l_max: log_bessel_k_array(l_max, k),
    "log_bessel_i_array": lambda k, l_max: log_bessel_i_array(l_max, k),
}


@pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan, 0.0, -1.0, [0.5, math.nan]])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_take_only_finite_positive_wavenumbers(kernel, kappa):
    # inf used to raise a bare OverflowError from the T-matrix and give NaN
    # entries from the translation and Fresnel kernels, and NaN passed the
    # special functions' "<= 0" test; each kernel names the bad value now
    bad = kappa[1] if isinstance(kappa, list) else kappa
    with pytest.raises(ValidationError, match=f"must be finite and positive, got {bad!r}"):
        KERNELS[kernel](kappa, 3)


@pytest.mark.parametrize("k_t", [math.inf, math.nan, -0.5])
def test_fresnel_takes_only_finite_nonnegative_transverse_wavenumbers(k_t):
    with pytest.raises(ValidationError, match=f"k_transverse must be finite and nonnegative, got {k_t!r}"):
        fresnel_reflection(PEC_PAIR, Medium(), 0.7, [0.0, k_t])


@pytest.mark.parametrize("l_max", [2.5, 0, True, "3"])
@pytest.mark.parametrize("kernel", ["mie_tmatrix", "translation_matrix", "log_det_integrand"])
def test_kernel_orders_must_be_integers_of_at_least_one(kernel, l_max):
    # True used to pass as order 1 and 2.5 raised a bare TypeError
    call = KERNELS.get(kernel, lambda k, order: log_det_integrand(pec_pair(4.0), k, order))
    with pytest.raises(ValidationError, match="l_max must be an integer >= 1"):
        call(0.7, l_max)


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


@pytest.mark.parametrize("plate", [0, 1])
def test_plates_reject_pec_mu(plate):
    # a pec mu on a dielectric plate used to run for minutes
    glass = (DispersionModel.constant(2.5), DispersionModel.perfect_conductor())
    mats = [PEC_PAIR, PEC_PAIR]
    mats[plate] = glass
    with pytest.raises(ValidationError, match="perfect conductor"):
        lifshitz_plates(*mats, Medium(), 1.0)


@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_plates_take_their_coefficients_from_fresnel_reflection(monkeypatch, tau):
    # the plate kernel's one Fresnel call site is the module attribute that
    # the benchmark tracer wraps (scattering.fresnel_calls): both materials
    # pass through it at every temperature
    from casimir_stability import casimir

    calls = []
    original = casimir.fresnel_reflection

    def spy(mat, *args):
        calls.append(mat)
        return original(mat, *args)

    monkeypatch.setattr(casimir, "fresnel_reflection", spy)
    drude = (DispersionModel.drude(4.0, 0.2), DispersionModel.constant(1.0))
    lifshitz_plates(drude, PEC_PAIR, Medium(), 1.0, tau)
    assert calls and calls.count(drude) == calls.count(PEC_PAIR) == len(calls) // 2


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


def _sphere(center, radius=1.0, eps=None, mu=None, label="a"):
    eps = DispersionModel.constant(4.0) if eps is None else eps
    mu = DispersionModel.constant(1.0) if mu is None else mu
    return SphereObject(center, radius, eps, mu, label)


def test_equal_spheres_share_one_tmatrix():
    # equal by value, not by identity: every model is built afresh
    from casimir_stability.casimir import _t_logs

    objs = (
        _sphere((0, 0, 0), label="a"),
        pec_sphere((0.4, 0.3, 2.6), 0.5, "b"),
        _sphere((2.9, 0, 1.8), label="c"),
    )
    t = _t_logs(Configuration(objs, Medium(), 0.0), 0.7, 3)
    assert t[0] is t[2]
    assert t[1] is not t[0]


DRUDE, LORENTZ = DispersionModel.drude, DispersionModel.lorentz


@pytest.mark.parametrize(
    "first, second",
    [
        ({"radius": 1.0}, {"radius": 0.8}),
        ({"eps": DispersionModel.constant(4.0)}, {"eps": DispersionModel.constant(3.0)}),
        ({"mu": DispersionModel.constant(1.0)}, {"mu": DispersionModel.constant(1.5)}),
        ({"eps": DRUDE(4.0, 0.2)}, {"eps": DRUDE(4.0, 0.3)}),
        ({"eps": LORENTZ([(1.0, 2.0, 0.1)])}, {"eps": LORENTZ([(1.0, 2.0, 0.2)])}),
    ],
    ids=["radius", "eps", "mu", "drude_gamma", "lorentz"],
)
def test_spheres_that_differ_get_their_own_tmatrix(first, second):
    from casimir_stability.casimir import _t_logs

    a, b = _sphere((0, 0, 0), label="a", **first), _sphere((0, 0, 3.0), label="b", **second)
    t = _t_logs(Configuration((a, b), Medium(), 0.0), 0.7, 3)
    assert t[0] is not t[1]
    assert not all(np.array_equal(x, y) for x, y in zip(t[0], t[1]))


def test_energy_builds_each_tmatrix_once_per_grid(monkeypatch):
    # the integrand takes a whole quadrature grid: one T-matrix call per
    # distinct sphere and grid, on the grid's nodes, though the grid of 24
    # nodes takes more than one dense three-sphere chunk
    from casimir_stability import casimir
    from test_stability import _count_calls

    cfg = Configuration(
        (
            dielectric_sphere((0, 0, 0), 1.0, 4.0, "a"),
            dielectric_sphere((3.0, 0, 0.5), 0.8, 3.0, "b"),
            dielectric_sphere((0.6, 3.1, 1.0), 0.6, 5.0, "c"),
        ),
        Medium(),
        0.0,
    )
    assert casimir._chunk(cfg, 3, False) < 24
    calls = _count_calls(monkeypatch, casimir, "mie_tmatrix")
    res = energy_T0(cfg, tol=1e-4, l_max=3)
    grids = [24 * 2**k for k in range(round(math.log2(res.node_count // 24)) + 1)]
    assert len(calls) == 3 * len(grids)
    for n, grid_calls in zip(grids, (calls[i : i + 3] for i in range(0, len(calls), 3))):
        nodes = casimir._quad_nodes(n, 1.0 / cfg.min_gap())[0]
        assert [sphere.label for sphere, *_ in grid_calls] == ["a", "b", "c"]
        for _, _, kappas, order in grid_calls:
            assert order == 3
            assert np.array_equal(kappas, nodes)


def test_energy_makes_each_pairs_bessel_rows_once_per_grid(monkeypatch):
    # the integrand makes the Bessel rows of each of the three pairs once
    # for its whole grid, on the grid's nodes, and slices them per chunk
    from casimir_stability import casimir, translation
    from test_stability import _count_calls

    cfg = Configuration(
        (
            dielectric_sphere((0, 0, 0), 1.0, 4.0, "a"),
            dielectric_sphere((3.0, 0, 0.5), 0.8, 3.0, "b"),
            dielectric_sphere((0.6, 3.1, 1.0), 0.6, 5.0, "c"),
        ),
        Medium(),
        0.0,
    )
    assert casimir._chunk(cfg, 3, False) < 24
    rows = _count_calls(monkeypatch, translation, "log_bessel_k_array")
    res = energy_T0(cfg, tol=1e-4, l_max=3)
    grids = [24 * 2**k for k in range(round(math.log2(res.node_count // 24)) + 1)]
    assert len(grids) >= 2
    assert len(rows) == 3 * len(grids)
    for n, grid_rows in zip(grids, (rows[i : i + 3] for i in range(0, len(rows), 3))):
        nodes = casimir._quad_nodes(n, 1.0 / cfg.min_gap())[0]
        for order, x in grid_rows:
            assert order == 7
            assert x.shape == nodes.shape


def _per_object_stack(cfg, kappa, l_max, axial):
    """I - N with one T-matrix built for every object."""
    from casimir_stability import casimir
    from casimir_stability.scattering import mie_tmatrix

    t = [mie_tmatrix(o, cfg.medium, kappa, l_max).raw_signed_log() for o in cfg.objects]
    layout = casimir._layout(l_max, axial)
    geometry = casimir._geometry(cfg, cfg._pairs, l_max, axial)
    blocks = casimir._blocks(cfg.medium, kappa, l_max, t, geometry, layout)
    return casimir._place_blocks(blocks, layout)


@pytest.mark.parametrize("collinear", [False, True])
def test_shared_tmatrix_leaves_the_matrix_unchanged(monkeypatch, collinear):
    from casimir_stability.casimir import _layout

    centers = (
        [(0, 0, 0), (0, 0, 2.8), (0, 0, 5.6)] if collinear
        else [(0, 0, 0), (0.4, 0.3, 2.6), (2.9, 0, 1.8)]
    )
    cfg = Configuration(
        (
            _sphere(centers[0], label="a"),
            pec_sphere(centers[1], 0.5, "b"),
            _sphere(centers[2], label="c"),
        ),
        Medium(DispersionModel.constant(1.3)),
        0.0,
    )
    kappa, l_max = 0.7, 3
    dense = _per_object_stack(cfg, kappa, l_max, False)[0]
    assert np.array_equal(assemble_block_matrix(cfg, kappa, l_max), dense)
    seen = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: seen.append(m) or slogdet(m))
    log_det_integrand(cfg, kappa, l_max)
    assert len(seen) == 1
    # what is factored: the complement of the first object's identity block
    stack = _per_object_stack(cfg, kappa, l_max, collinear)
    w = _layout(l_max, collinear).width
    assert np.array_equal(seen[0], stack[..., w:, w:] - stack[..., w:, :w] @ stack[..., :w, w:])
