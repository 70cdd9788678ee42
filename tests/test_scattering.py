"""Sphere T-matrices, Fresnel coefficients and definiteness checks."""

import math

import numpy as np
import pytest

from casimir_stability import (
    CapabilityError,
    DispersionModel,
    GeometryError,
    Medium,
    SphereObject,
    ValidationError,
    definiteness,
    fresnel_reflection,
    mie_tmatrix,
)
from conftest import dielectric_sphere, pec_sphere


def test_sphere_validation():
    pec = DispersionModel.perfect_conductor()
    with pytest.raises(GeometryError):
        SphereObject((0, 0), 1.0, pec, pec, "a")
    with pytest.raises(GeometryError):
        SphereObject((0, 0, 0), -1.0, pec, pec, "a")


@pytest.mark.parametrize(
    "center, radius",
    [
        ((math.nan, 0, 0), 1.0),
        ((0, math.inf, 0), 1.0),
        ((0, 0, -math.inf), 1.0),
        ((0, 0, 0), math.nan),
        ((0, 0, 0), math.inf),
    ],
)
def test_sphere_rejects_nonfinite_geometry(center, radius):
    # a NaN radius or centre used to fail deep inside an energy calculation
    pec = DispersionModel.perfect_conductor()
    one = DispersionModel.constant(1.0)
    with pytest.raises(GeometryError, match="finite"):
        SphereObject(center, radius, pec, one, "a")


@pytest.mark.parametrize("eps", [4.0, "pec"])
def test_sphere_rejects_pec_mu(eps):
    # a pec mu made a dielectric sphere overflow and was ignored on a pec one
    pec = DispersionModel.perfect_conductor()
    eps_model = pec if eps == "pec" else DispersionModel.constant(eps)
    with pytest.raises(ValidationError, match="'a'"):
        SphereObject((0, 0, 0), 1.0, eps_model, pec, "a")


def test_pec_small_argument_laws(vacuum):
    # raw electric dipole: +2x^3/3; raw magnetic dipole: -x^3/3.  The stored
    # magnetic entry is sign-flipped so that class I means all entries >= 0.
    sphere = pec_sphere((0, 0, 0), 1.0, "a")
    kappa = 1e-3
    t = mie_tmatrix(sphere, vacuum, kappa, 2)
    x = kappa
    assert t.entry("E", 1) == pytest.approx(2.0 * x**3 / 3.0, rel=1e-5)
    assert t.entry("M", 1) == pytest.approx(x**3 / 3.0, rel=1e-5)
    signs, logs = t.raw_signed_log()
    # raw signs: electric sector positive, magnetic sector negative
    n = len(signs) // 2
    assert np.all(signs[:n] > 0)
    assert np.all(signs[n:] < 0)


def test_dielectric_dipole_polarizability(vacuum):
    # alpha_E = (eps-1)/(eps+2) R^3, entry ~ 2 kappa^3 alpha_E / 3
    eps = 4.0
    sphere = dielectric_sphere((0, 0, 0), 1.0, eps, "a")
    kappa = 1e-3
    t = mie_tmatrix(sphere, vacuum, kappa, 1)
    alpha = (eps - 1.0) / (eps + 2.0)
    assert t.entry("E", 1) == pytest.approx(
        2.0 * kappa**3 * alpha / 3.0, rel=1e-5
    )
    # magnetic response of a nonmagnetic sphere vanishes to leading order
    assert abs(t.entry("M", 1)) < 1e-3 * t.entry("E", 1)


def test_matched_sphere_is_transparent(vacuum):
    sphere = dielectric_sphere((0, 0, 0), 1.0, 1.0, "a")
    t = mie_tmatrix(sphere, vacuum, 0.7, 3)
    assert np.all(t.diagonal() == 0.0)


def test_extreme_arguments_finite(vacuum):
    sphere = pec_sphere((0, 0, 0), 1.0, "a")
    for kappa in (1e-8, 1.0, 4000.0):
        t = mie_tmatrix(sphere, vacuum, kappa, 30)
        signs, logs = t.raw_signed_log()
        assert np.all(np.isfinite(signs))
        assert not np.any(np.isnan(logs))


def test_order_capability_limit(vacuum):
    sphere = pec_sphere((0, 0, 0), 1.0, "a")
    with pytest.raises(CapabilityError):
        mie_tmatrix(sphere, vacuum, 1.0, 500)


def test_definiteness_conventions(vacuum):
    pec = pec_sphere((0, 0, 0), 1.0, "a")
    assert definiteness(mie_tmatrix(pec, vacuum, 0.8, 4)) == +1
    low = dielectric_sphere((0, 0, 0), 1.0, 0.3, "a")
    assert definiteness(mie_tmatrix(low, vacuum, 0.8, 4)) == -1
    matched = dielectric_sphere((0, 0, 0), 1.0, 1.0, "a")
    assert definiteness(mie_tmatrix(matched, vacuum, 0.8, 4)) == 0
    # eps and mu both above the medium: sectors disagree -> mixed
    odd = SphereObject(
        (0, 0, 0),
        1.0,
        DispersionModel.constant(4.0),
        DispersionModel.constant(2.0),
        "a",
    )
    assert definiteness(mie_tmatrix(odd, vacuum, 0.8, 4), tol=1e-14) == "mixed"


def test_fresnel_pec_and_limits(vacuum):
    r_te, r_tm = fresnel_reflection(
        (DispersionModel.perfect_conductor(), DispersionModel.constant(1.0)),
        vacuum,
        1.0,
        0.5,
    )
    assert (r_te, r_tm) == (-1.0, 1.0)
    # very dense dielectric approaches the perfectly conducting limit
    r_te, r_tm = fresnel_reflection(
        (DispersionModel.constant(1e8), DispersionModel.constant(1.0)),
        vacuum,
        1.0,
        0.5,
    )
    assert r_tm == pytest.approx(1.0, abs=1e-3)
    assert r_te == pytest.approx(-1.0, abs=1e-3)
    # matched half-space does not reflect
    r_te, r_tm = fresnel_reflection(
        (DispersionModel.constant(1.0), DispersionModel.constant(1.0)),
        vacuum,
        1.0,
        0.5,
    )
    assert r_te == 0.0 and r_tm == 0.0


@pytest.mark.parametrize(
    "eps", [DispersionModel.constant(2.5), DispersionModel.perfect_conductor()], ids=["dielectric", "pec"]
)
def test_fresnel_rejects_a_pec_mu(vacuum, eps):
    # a pec mu is rejected, as a sphere's and a medium's is: with a
    # dielectric eps its coefficients are nan, and a pec eps ignores it
    with pytest.raises(ValidationError, match="perfect conductor"):
        fresnel_reflection((eps, DispersionModel.perfect_conductor()), vacuum, 0.7, 0.3)


def test_fresnel_sign_pattern(vacuum):
    # eps > medium: r_TM > 0 > r_TE; eps < medium: reversed
    dense = (DispersionModel.constant(3.0), DispersionModel.constant(1.0))
    dilute = (DispersionModel.constant(0.5), DispersionModel.constant(1.0))
    r_te, r_tm = fresnel_reflection(dense, vacuum, 1.0, 0.7)
    assert r_tm > 0 > r_te
    r_te, r_tm = fresnel_reflection(dilute, vacuum, 1.0, 0.7)
    assert r_tm < 0 < r_te


def test_entries_m_independent_diagonal(vacuum):
    t = mie_tmatrix(pec_sphere((0, 0, 0), 1.0, "a"), vacuum, 0.9, 3)
    diag = t.diagonal()
    # electric sector: l=1 entries repeated 3x, l=2 5x, l=3 7x
    assert len(diag) == 2 * (3 + 5 + 7)
    assert np.all(diag[:3] == diag[0])
    assert np.all(diag[3:8] == diag[3])


def test_magnitudes_decay_with_l(vacuum):
    t = mie_tmatrix(pec_sphere((0, 0, 0), 1.0, "a"), vacuum, 0.5, 8)
    ratios = np.diff(t.log_e)
    assert np.all(ratios < 0)
