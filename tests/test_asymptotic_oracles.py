"""The certificate's columns against their closed-form large-distance limits.

For two spheres of radius R whose centres are d >> R apart, the energy at
tau = 0 is the Casimir-Polder E = -C / d^7, so |F| = 7 C / d^8 and the
displacement Laplacian is E'' + 2 E'/d = -42 C / d^9, with

* C = 143 R^6 / (16 pi) for perfect conductors, and
* C = 23 alpha^2 / (4 pi), alpha = R^3 (eps - 1) / (eps + 2), for
  dielectric spheres with mu = 1.

At lowest order ln det(I - N) = -tr N, and the translations solve
(nabla^2 - kappa^2) X = 0, so term1, the 2 n^2 kappa^2 part of the
Laplacian, is the kappa^2-weighted share of the Casimir-Polder integrand
g(x), x = kappa d:

    term1 / laplacian = integral x^2 g(x) dx / (21 integral g(x) dx),

which is 323/2002 for perfect conductors and 43/322 for dielectrics
(Feinberg & Sucher's electric and magnetic parts of g).  At high
temperature only the zero Matsubara frequency survives, where the free
energy of two conducting dipoles is (T/2) ln det(I - N(0)) = -3 T
(alpha_E^2 + alpha_M^2) / d^6 with alpha_E = R^3, alpha_M = -R^3/2, and
T = tau / (2 pi): its Laplacian is -(225/2) T R^6 / d^8, and term1, which
carries kappa^2, vanishes.

Each limit is held at d = 20 R and 40 R (``l_max`` 3, 32 nodes) by a bound
c (R/d)^2, as the distance to each Casimir-Polder limit falls about as
(R/d)^2.  Every c below is the measured |ratio - limit| (d/R)^2 at the two
distances, rounded up; the measured values are stated next to it.  The
force on "a" points toward "b", along +z.
"""

import math

import numpy as np
import pytest

from casimir_stability import Configuration, Medium, stability_report
from conftest import dielectric_sphere, pec_pair

R = 1.0
DISTANCES = (20.0, 40.0)
PEC_C = 143.0 * R**6 / (16.0 * math.pi)
EPS = 4.0
ALPHA = R**3 * (EPS - 1.0) / (EPS + 2.0)
DIELECTRIC_C = 23.0 * ALPHA**2 / (4.0 * math.pi)


def _report(config):
    return stability_report(config, "a", l_max=3, n_nodes=32)


def _dielectric_pair(d):
    objs = (dielectric_sphere((0, 0, 0), R, EPS, "a"), dielectric_sphere((0, 0, d), R, EPS, "b"))
    return Configuration(objs, Medium(), 0.0)


def _within(value, limit, c, d):
    return abs(value - limit) <= c * (R / d) ** 2


@pytest.mark.parametrize("d", DISTANCES)
def test_pec_pair_meets_casimir_polder(d):
    rep = _report(pec_pair(d, R))
    # measured (ratio - limit) (d/R)^2 at d = 20, 40: 7.8, 7.4 for the force,
    # 10.5, 10.0 for the Laplacian and -0.29, -0.35 for term1/laplacian
    assert np.array_equal(rep.force[:2], [0.0, 0.0])
    assert _within(rep.force[2] / (7.0 * PEC_C / d**8), 1.0, 8.0, d), rep.force
    assert _within(rep.laplacian / (-42.0 * PEC_C / d**9), 1.0, 11.0, d), rep.laplacian
    assert _within(rep.term1 / rep.laplacian, 323.0 / 2002.0, 0.4, d), rep.term1


@pytest.mark.parametrize("d", DISTANCES)
def test_dielectric_pair_meets_casimir_polder(d):
    rep = _report(_dielectric_pair(d))
    # measured (ratio - limit) (d/R)^2 at d = 20, 40: 8.1, 7.8 for the force,
    # 10.8, 10.4 for the Laplacian and -0.29, -0.33 for term1/laplacian
    assert _within(rep.force[2] / (7.0 * DIELECTRIC_C / d**8), 1.0, 9.0, d), rep.force
    assert _within(rep.laplacian / (-42.0 * DIELECTRIC_C / d**9), 1.0, 11.0, d), rep.laplacian
    assert _within(rep.term1 / rep.laplacian, 43.0 / 322.0, 0.4, d), rep.term1


@pytest.mark.parametrize("d", DISTANCES)
def test_hot_pec_pair_meets_the_zero_frequency_dipole_limit(d):
    tau = 1.0
    rep = _report(pec_pair(d, R, tau=tau))
    limit = -(225.0 / 2.0) * (tau / (2.0 * math.pi)) * R**6 / d**8
    # measured (ratio - limit) (d/R)^2 at d = 20, 40: 10.1, 10.0 for the
    # Laplacian and 2.8e-8, 1.7e-7 for term1/laplacian (7e-11 and 1e-10)
    assert _within(rep.laplacian / limit, 1.0, 11.0, d), rep.laplacian
    assert _within(rep.term1 / rep.laplacian, 0.0, 1e-6, d), rep.term1
