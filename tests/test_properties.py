"""Property tests of invariants the physics guarantees."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from casimir_stability import Configuration, Medium, force, log_det_integrand
from conftest import dielectric_sphere, pec_sphere


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
