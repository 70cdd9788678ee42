"""Frequency as a batch axis: every chunk of kappas equals the per-kappa values.

The integrand, the Matsubara sum and the plate kernel evaluate arrays of
kappa.  A single kappa is the one-row view of the same code, so each batched
row must equal it bit for bit; the Matsubara sum must keep the kappas,
terms and estimate of a sum that streams one term at a time, and the
stability engine every field for any chunk size.  The plate kernel sums its
q-nodes as an array and is held to 1e-14 of a per-(kappa, q) loop.
"""

import math

import numpy as np
import pytest

from casimir_stability import (
    ConvergenceBudgetError,
    Configuration,
    DispersionModel,
    Medium,
    SphereObject,
    UnphysicalTruncationError,
    casimir,
    energy_T0,
    force,
    free_energy_T,
    laplacian_fd,
    log_det_integrand,
    stability,
    stability_report,
)
from casimir_stability.casimir import KAPPA_FLOOR, _matsubara_sum, _plate_kernel, _quad_nodes
from casimir_stability.scattering import fresnel_reflection, mie_tmatrix
from casimir_stability.specfun import log_bessel_i_array, log_bessel_k_array
from casimir_stability.stability import _CommonGridEngine
from casimir_stability.translation import reverse_translation, translation_matrix
from conftest import ONE, PEC, dielectric_sphere, pec_pair, pec_sphere

DRUDE = DispersionModel.drude(4.0, 0.2)
KAPPAS = np.array([KAPPA_FLOOR, 1e-3, 0.05, 0.4, 0.7, 1.3, 4.0, 25.0])


def _one_kappa_per_chunk(monkeypatch):
    # every chunk and Matsubara run of the integrand and the engine
    for module in (casimir, stability):
        monkeypatch.setattr(module, "_chunk", lambda *args, **kwargs: 1)


def _three_body(medium=Medium()):
    return Configuration(
        (
            dielectric_sphere((0, 0, 0), 1.0, 6.0, "a", mu_value=1.5),
            pec_sphere((0.4, 0.3, 3.6), 0.8, "b"),
            SphereObject((2.9, 0.0, 1.8), 0.5, DRUDE, ONE, "c"),
        ),
        medium,
    )


def _drude_pair(tau):
    return Configuration(
        (SphereObject((0, 0, 0), 1.0, DRUDE, ONE, "a"), SphereObject((0, 0, 3.0), 0.7, DRUDE, ONE, "b")),
        Medium(),
        tau,
    )


CONFIGS = {
    "dense 3-body": (_three_body(), 3),
    "axial pair": (pec_pair(3.0), 4),
    "drude pair": (_drude_pair(0.0), 3),
    "dielectric medium, object mu": (_three_body(Medium(DispersionModel.constant(2.0))), 2),
    "dielectric medium, collinear mu": (
        Configuration(
            (
                dielectric_sphere((0, 0, 0), 1.0, 6.0, "a", mu_value=1.5),
                dielectric_sphere((0, 0, 2.9), 0.6, 4.0, "b"),
            ),
            Medium(DispersionModel.constant(2.0)),
        ),
        4,
    ),
}


@pytest.mark.parametrize("case", CONFIGS)
def test_batched_integrand_equals_each_kappa_bitwise(case):
    cfg, l_max = CONFIGS[case]
    batched = log_det_integrand(cfg, KAPPAS, l_max)
    one_by_one = np.array([log_det_integrand(cfg, k, l_max) for k in KAPPAS])
    assert batched.shape == KAPPAS.shape
    assert np.array_equal(batched, one_by_one)
    # and any split of the array into chunks gives the same rows
    parts = np.concatenate([log_det_integrand(cfg, KAPPAS[i : i + 3], l_max) for i in (0, 3, 6)])
    assert np.array_equal(parts, batched)


@pytest.mark.parametrize("case", ["dense 3-body", "axial pair"])
def test_quadrature_samples_are_the_per_kappa_integrand(case, monkeypatch):
    cfg, l_max = CONFIGS[case]
    _one_kappa_per_chunk(monkeypatch)
    single = energy_T0(cfg, l_max=l_max, tol=1e-3)
    monkeypatch.undo()
    batched = energy_T0(cfg, l_max=l_max, tol=1e-3)
    assert np.array_equal(batched.samples, single.samples)
    assert batched.value == single.value
    kappas, values = batched.samples[:3, 0], batched.samples[:3, 1]
    assert np.array_equal(values, [log_det_integrand(cfg, k, l_max) for k in kappas])


def test_empty_kappa_array_gives_no_values():
    for cfg, l_max in (CONFIGS["dense 3-body"], CONFIGS["axial pair"]):
        for empty in (np.array([]), []):
            got = log_det_integrand(cfg, empty, l_max)
            assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_log_bessel_arrays_of_no_arguments_give_no_rows():
    # one row per argument, as for any other array
    for l_max in (0, 3):
        for f in (log_bessel_i_array, log_bessel_k_array):
            assert f(l_max, np.array([])).shape == (0, l_max + 1)


def test_dense_integrand_factors_several_kappas_per_call_at_order_210(monkeypatch):
    # three spheres at l_max 5: I - N has order 210, and one kappa's stack
    # alone passes the entry budget; a chunk still holds several kappas
    # (the engine's chunks at this order: "3-body, l_max 5" below).  What
    # is factored is the complement of the first object's block: order 140
    cfg = _three_body()
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: calls.append(m.shape) or slogdet(m))
    log_det_integrand(cfg, _quad_nodes(48, 1.0 / cfg.min_gap())[0], 5)
    assert all(shape[-1] == 140 for shape in calls)
    assert len(calls) < 48


# (config, l_max, n_nodes) of the stability engine, labeled object "a"
STABILITY_CASES = {
    "pec pair": (pec_pair(4.0), 3, 24),
    "pec pair, tau 0.5": (pec_pair(4.0, tau=0.5), 3, 24),
    "3-body": (_three_body(), 2, 24),
    # order 210, where a one-kappa stack passes the entry budget
    "3-body, l_max 5": (_three_body(), 5, 8),
}


@pytest.mark.parametrize("case", STABILITY_CASES)
def test_stability_routes_do_not_depend_on_the_chunk(case, monkeypatch):
    # the engine sums its nodes one after another in grid order, so a chunk
    # of many kappas and chunks of one kappa give the same bits in every field
    cfg, l_max, n_nodes = STABILITY_CASES[case]
    grid = dict(l_max=l_max, n_nodes=n_nodes)

    def routes():
        eng = _CommonGridEngine(cfg, "a", **grid)
        rep = stability_report(cfg, "a", **grid)
        values = [*vars(rep).values(), *force(cfg, "a", **grid), laplacian_fd(cfg, "a", **grid)]
        return len(eng.chunks), len(eng.kappas), values

    chunks, nodes, batched = routes()
    assert chunks < nodes
    rows = log_det_integrand(cfg, KAPPAS, l_max)
    _one_kappa_per_chunk(monkeypatch)
    chunks, nodes, single = routes()
    assert chunks == nodes
    assert len(single) == len(batched)
    for got, want in zip(single, batched):
        assert np.array_equal(got, want), (got, want)
    assert np.array_equal(log_det_integrand(cfg, KAPPAS, l_max), rows)


def test_matsubara_terms_with_the_drude_floor_are_the_per_kappa_integrand():
    cfg = _drude_pair(0.5)
    res = free_energy_T(cfg, tol=1e-8, l_max=3)
    assert res.kappa_floor_used
    kappas = [KAPPA_FLOOR] + [n * cfg.tau for n in range(1, res.node_count)]
    want = [log_det_integrand(cfg, k, 3) for k in kappas]
    want[0] *= 0.5
    assert np.array_equal(res.samples[:, 1], want)
    assert np.array_equal(res.samples[:, 0], [0.0] + kappas[1:])


# --- the Matsubara sum on synthetic terms ------------------------------------


def _streaming_sum(term, tau, tol, max_terms):
    """The Matsubara sum one term at a time: the reference for the runs."""
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
        if value == 0.0:
            return kappas, weights, terms, 0.0
        ratio = abs(value) / abs(terms[-2]) if n > 1 else math.inf
        tail = abs(value) * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
        scale = max(abs(total), 1e-300)
        if tail < tol * scale:
            return kappas, weights, terms, tail / scale
    raise ConvergenceBudgetError("budget", partial=(kappas, weights))


def _geometric(rate, zero_from=None):
    """-exp(-rate kappa / tau) per kappa, exactly 0 from n = zero_from on."""

    def term(kappa):
        n = round(kappa / TAU)
        if zero_from is not None and n >= zero_from:
            return 0.0
        return -math.exp(-rate * kappa / TAU)

    return term


TAU = 0.25
# (scalar term, tol, chunk cap, last n kept): the runs hold n = 0 | 1-2 |
# 3-6 | 7-14 | ... up to the cap
SYNTHETIC = {
    # zero at n = 1: the stop falls inside the first run after kappa_0
    "inside the first run": (_geometric(1.0, zero_from=1), 1e-6, 64, 1),
    # tail of exp(-3 n) below 1e-8 at n = 6, the last term of a run
    "on a run boundary": (_geometric(3.0), 1e-8, 64, 6),
    # exp(-1.5 n) stops at n = 9, inside the run 7-14
    "inside a later run": (_geometric(1.5), 1e-6, 64, 9),
    "underflowed zero term": (_geometric(0.5, zero_from=5), 1e-12, 64, 5),
    # runs capped at 3 terms: 0 | 1-2 | 3-5 | ... | 27-29, the stop at 28
    "capped runs": (_geometric(0.5), 1e-6, 3, 28),
}


@pytest.mark.parametrize("case", SYNTHETIC)
def test_matsubara_runs_match_a_streaming_sum(case):
    scalar, tol, chunk, last = SYNTHETIC[case]
    runs = []

    def term(kappas):
        runs.append(len(kappas))
        return np.array([scalar(k) for k in kappas])

    got = _matsubara_sum(term, TAU, tol, 1000, chunk)
    want = _streaming_sum(scalar, TAU, tol, 1000)
    assert got == want
    assert len(got[0]) == last + 1
    # the runs double up to the cap, and no run starts past the stop
    sizes = [1]
    while sum(sizes) <= last:
        sizes.append(min(2 * sizes[-1], chunk))
    assert runs == sizes


def test_matsubara_budget_partial_matches_a_streaming_sum():
    def scalar(kappa):
        return -1.0  # never decreases: only the budget stops it

    def term(kappas):
        return np.full(len(kappas), -1.0)

    with pytest.raises(ConvergenceBudgetError) as got:
        _matsubara_sum(term, TAU, 1e-6, 40, 8)
    with pytest.raises(ConvergenceBudgetError) as want:
        _streaming_sum(scalar, TAU, 1e-6, 40)
    assert got.value.partial == want.value.partial
    assert len(got.value.partial[0]) == 41


def test_non_positive_block_inside_a_chunk_names_its_kappa(monkeypatch):
    # translations of the middle kappa inflated 1000-fold turn its m = -1
    # and m = 1 blocks negative (see test_axial); the others stay physical
    original = casimir.translation_matrix

    def inflated(*args, **kwargs):
        x = original(*args, **kwargs)
        x.scaled[1] *= 1e3
        return x

    monkeypatch.setattr(casimir, "translation_matrix", inflated)
    with pytest.raises(
        UnphysicalTruncationError, match=r"m = -1 block of the matrix at kappa = 1 determinant"
    ):
        log_det_integrand(pec_pair(3.0), np.array([0.3, 1.0, 2.0]), 3)


def test_non_finite_entry_inside_a_chunk_names_its_kappa(monkeypatch):
    original = casimir.translation_matrix

    def poisoned(*args, **kwargs):
        x = original(*args, **kwargs)
        x.scaled[2, 0, 0] = np.nan
        return x

    monkeypatch.setattr(casimir, "translation_matrix", poisoned)
    with pytest.raises(UnphysicalTruncationError, match=r"matrix at kappa = 2 has non-finite"):
        log_det_integrand(CONFIGS["dense 3-body"][0], np.array([0.3, 1.0, 2.0]), 2)


def test_batched_and_entries_only_matrices_refuse_single_matrix_reads():
    # a T-matrix built for an array of kappa has no single entry, and a
    # translation built for chosen entries has no dense form or reverse
    sphere = CONFIGS["dense 3-body"][0].objects[0]
    batched = mie_tmatrix(sphere, Medium(), KAPPAS[1:4], 3)
    for read in (lambda t: t.entry("E", 1), lambda t: t.diagonal()):
        with pytest.raises(ValueError, match="one kappa"):
            read(batched)
    one = mie_tmatrix(sphere, Medium(), float(KAPPAS[2]), 3)
    assert one.entry("E", 2) == one.diagonal()[3]
    x = translation_matrix(Medium(), 0.7, (0.0, 0.0, 2.0), 3, (np.arange(4), np.arange(4)))
    assert x.scaled.shape == (4,)
    for read in (lambda x: x.dense(), lambda x: x.dim, reverse_translation):
        with pytest.raises(ValueError, match="chosen entries"):
            read(x)


# --- Fresnel coefficients and the plate kernel on (kappa, q) arrays ----------

CONST_MU = (DispersionModel.constant(3.0), DispersionModel.constant(2.0))
MATERIALS = {
    "pec": (PEC, ONE),
    "constant with mu": CONST_MU,
    "drude": (DRUDE, ONE),
    "plasma": (DispersionModel.plasma(9.0), ONE),
    "lorentz": (DispersionModel.lorentz([(1.5, 2.0, 0.1), (0.4, 7.0, 0.5)]), ONE),
}
MEDIA = [Medium(), Medium(DispersionModel.constant(2.0), DispersionModel.constant(1.2))]
PLATE_KAPPAS = np.array([KAPPA_FLOOR, 0.03, 0.4, 1.0, 7.5])


@pytest.mark.parametrize("medium", MEDIA, ids=["vacuum", "dielectric medium"])
@pytest.mark.parametrize("material", MATERIALS)
def test_array_fresnel_matches_the_scalar_loop(material, medium):
    mat = MATERIALS[material]
    k_t = np.array([0.0, 1e-4, 0.3, 2.0, 40.0])
    got_te, got_tm = fresnel_reflection(mat, medium, PLATE_KAPPAS[:, None], k_t[None, :])
    assert got_te.shape == got_tm.shape == (PLATE_KAPPAS.size, k_t.size)
    for i, kappa in enumerate(PLATE_KAPPAS):
        for j, kt in enumerate(k_t):
            r_te, r_tm = fresnel_reflection(mat, medium, float(kappa), float(kt))
            assert isinstance(r_te, float) and isinstance(r_tm, float)
            assert got_te[i, j] == pytest.approx(r_te, rel=1e-14, abs=1e-300)
            assert got_tm[i, j] == pytest.approx(r_tm, rel=1e-14, abs=1e-300)


def _scalar_plate_kernel(mat1, mat2, medium, gap, kappa, q_nodes):
    """The plate kernel one (kappa, q) pair at a time."""
    n_m = medium.refractive_index(kappa)
    offsets, weights = q_nodes
    total = 0.0
    for qq, ww in zip(n_m * kappa + offsets, weights):
        k_t = math.sqrt(max(qq * qq - (n_m * kappa) ** 2, 0.0))
        r1_te, r1_tm = fresnel_reflection(mat1, medium, kappa, k_t)
        r2_te, r2_tm = fresnel_reflection(mat2, medium, kappa, k_t)
        e = math.exp(-2.0 * qq * gap)
        total += ww * qq * (math.log1p(-r1_te * r2_te * e) + math.log1p(-r1_tm * r2_tm * e))
    return total / (2.0 * math.pi)


@pytest.mark.parametrize("medium", MEDIA, ids=["vacuum", "dielectric medium"])
@pytest.mark.parametrize("material", MATERIALS)
def test_plate_kernel_matches_the_scalar_loop(material, medium):
    gap = 0.8
    q_nodes = _quad_nodes(32, 1.0 / (2.0 * gap))
    # the smallest q-offset at the floor kappa leaves k_t at about 0
    mats = (MATERIALS[material], CONST_MU)
    got = _plate_kernel(*mats, medium, gap, PLATE_KAPPAS, q_nodes)
    for kappa, value in zip(PLATE_KAPPAS, got):
        want = _scalar_plate_kernel(*mats, medium, gap, float(kappa), q_nodes)
        assert value == pytest.approx(want, rel=1e-14, abs=1e-300)
