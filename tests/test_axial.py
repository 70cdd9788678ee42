"""Collinear configurations: the m-block ln det and the coaxial table.

On a line, I - N is block-diagonal in m, and ``log_det_integrand`` sums the
ln dets of the blocks.  The oracle is the general route it bypasses, one
``slogdet`` of ``assemble_block_matrix``.  The coefficient table holds the
m = m' terms of a displacement along +z alone, and a collinear energy takes
no rotation out of that frame.
"""

import numpy as np
import pytest

from casimir_stability import (
    Configuration,
    DispersionModel,
    Medium,
    SphereObject,
    UnphysicalTruncationError,
    casimir,
    energy_T0,
    log_det_integrand,
    translation,
)
from casimir_stability.casimir import assemble_block_matrix
from casimir_stability.specfun import log_bessel_k_array
from conftest import ONE, PEC, dielectric_sphere, pec_pair, pec_sphere

KAPPAS = (1e-6, 1e-2, 0.5, 2.0, 50.0)
DRUDE = DispersionModel.drude(4.0, 0.2)


def _axes():
    rng = np.random.default_rng(11)
    axes = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), rng.standard_normal(3)]
    return [np.asarray(a, float) / np.linalg.norm(a) for a in axes]


def _chain(spheres, axis, medium=None):
    """``spheres`` as (position along ``axis``, radius, eps, mu) from 0.3 * axis."""
    objs = [
        SphereObject(tuple((0.3 + t) * axis), r, eps, mu, f"s{i}")
        for i, (t, r, eps, mu) in enumerate(spheres)
    ]
    return Configuration(tuple(objs), medium or Medium(), 0.0)


# each listed out of axial order
CHAINS = {
    "pec pair": ([(2.6, 1.0, PEC, ONE), (0.0, 1.0, PEC, ONE)], None),
    "eps 4 and drude in eps 2": (
        [(0.0, 0.8, DispersionModel.constant(4.0), ONE), (-2.5, 1.0, DRUDE, ONE)],
        Medium(DispersionModel.constant(2.0)),
    ),
    "pec, mu 2, eps 4": (
        [
            (0.0, 1.0, PEC, ONE),
            (-3.0, 0.7, DispersionModel.constant(1.5), DispersionModel.constant(2.0)),
            (2.9, 0.9, DispersionModel.constant(4.0), ONE),
        ],
        None,
    ),
    "drude middle in eps 2": (
        [
            (2.4, 0.6, DispersionModel.constant(4.0), ONE),
            (0.0, 0.8, DRUDE, ONE),
            (-2.2, 0.5, PEC, ONE),
        ],
        Medium(DispersionModel.constant(2.0)),
    ),
}


def _general(config, kappa, l_max):
    sign, logdet = np.linalg.slogdet(assemble_block_matrix(config, kappa, l_max))
    assert sign > 0.0
    return logdet


@pytest.mark.parametrize("l_max", range(1, 9))
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_m_block_logdet_matches_full_slogdet(name, l_max):
    spheres, medium = CHAINS[name]
    for axis in _axes():
        config = _chain(spheres, axis, medium)
        assert config._axis_positions is not None
        for kappa in KAPPAS:
            got = log_det_integrand(config, kappa, l_max)
            want = _general(config, kappa, l_max)
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-14, (axis, kappa)


def test_nearly_collinear_third_centre_takes_the_m_blocks():
    def config(offset):
        return Configuration(
            (
                pec_sphere((0.0, 0.0, 0.0), 1.0, "a"),
                pec_sphere((offset, 0.0, 3.0), 1.0, "b"),
                dielectric_sphere((0.0, 0.0, -2.8), 0.7, 4.0, "c"),
            ),
            Medium(),
            0.0,
        )

    on_line = config(1e-13)
    assert on_line._axis_positions is not None
    got = log_det_integrand(on_line, 0.5, 4)
    assert abs(got - _general(on_line, 0.5, 4)) <= 1e-10 * abs(got) + 1e-14
    assert config(1e-3)._axis_positions is None


def test_m_block_route_makes_one_slogdet_call_on_a_stack(monkeypatch):
    calls = []
    original = np.linalg.slogdet

    def spy(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "slogdet", spy)
    log_det_integrand(pec_pair(3.0), 0.7, 3)
    # one block per m, identity-padded to 2 l_max rows per object, and
    # factored as the complement of the first object's block: 2 l_max rows
    assert calls == [(7, 6, 6)]


def test_guard_checks_every_block_and_names_it():
    # two negative blocks (an m, -m pair) keep the product of the
    # determinants positive: each block must be checked on its own
    stack = np.stack([np.eye(2), np.diag([-1.0, 1.0]), np.diag([1.0, -1.0])])
    names = ["m = -1 block", "m = 0 block", "m = 1 block"]
    with pytest.raises(UnphysicalTruncationError, match="m = 0 block"):
        casimir._positive_logdet(stack, names)
    stack[0, 0, 1] = np.nan
    with pytest.raises(UnphysicalTruncationError, match="m = -1 block has non-finite"):
        casimir._positive_logdet(stack, names)


def test_lost_positivity_names_the_m_block(monkeypatch):
    # translations inflated 1000-fold turn the m = -1 and m = 1 blocks
    # negative together: the full determinant stays positive, so only the
    # check of every block on its own sees it
    original = casimir.translation_matrix

    def inflated(*args, **kwargs):
        x = original(*args, **kwargs)
        x.scaled[...] *= 1e3
        return x

    monkeypatch.setattr(casimir, "translation_matrix", inflated)
    assert np.linalg.slogdet(assemble_block_matrix(pec_pair(3.0), 1.0, 3))[0] > 0.0
    with pytest.raises(UnphysicalTruncationError, match="m = -1 block"):
        log_det_integrand(pec_pair(3.0), 1.0, 3)


# --- the coaxial coefficient table -------------------------------------------


def test_coaxial_table_holds_only_the_m_diagonal_terms():
    tab = translation._coeff_tables(8, "vector")
    assert tab.term_coeff.size == 4148
    # every (l, l') block keeps its largest lambda, l + l', which sets the
    # exponent of its bands: log k_(l+l') in every sector pair
    sector_l = np.repeat(np.arange(1, 9), 2 * np.arange(1, 9) + 1)
    sector_m = np.arange(sector_l.size) - sector_l * sector_l + 1 - sector_l
    p, q = np.nonzero(sector_m[:, None] == sector_m[None, :])
    entry = tab.term_entry % tab.n_entries
    l, lp = sector_l[p[entry]], sector_l[q[entry]]
    assert np.array_equal(tab.slot_top[tab.term_slot], l + lp)
    top = np.zeros((8, 8), int)
    np.maximum.at(top, (l - 1, lp - 1), tab.slot_lam[tab.term_slot])
    assert np.array_equal(top, np.add.outer(np.arange(8), np.arange(8)) + 2)
    x = translation.translation_matrix(Medium(), 0.7, (0.0, 0.0, 2.5), 8)
    band_l = np.tile(np.arange(1, 9), 2)
    assert np.array_equal(x.exponent, log_bessel_k_array(17, 0.7 * 2.5)[np.add.outer(band_l, band_l)])


def test_tables_do_not_depend_on_the_pair_chunk(monkeypatch):
    fields, default = {}, translation._PAIR_CHUNK
    for chunk in (default, 7):
        monkeypatch.setattr(translation, "_PAIR_CHUNK", chunk)
        translation._coeff_tables.cache_clear()
        fields[chunk] = [
            vars(translation._coeff_tables(l_max, spin))
            for l_max in range(1, 7)
            for spin in ("scalar", "vector")
        ]
    translation._coeff_tables.cache_clear()
    for got, want in zip(fields[7], fields[default]):
        for key, value in want.items():
            pairs = zip(got[key], value) if isinstance(value, tuple) else [(got[key], value)]
            assert all(np.array_equal(a, b) for a, b in pairs), key


@pytest.mark.parametrize(
    "config",
    [pec_pair(3.5), _chain(CHAINS["pec, mu 2, eps 4"][0], np.array([-1.0, 0.0, 0.0]))],
    ids=["pair", "chain out of order"],
)
def test_collinear_energy_applies_no_rotation(config, monkeypatch):
    # every pair is translated from its lower centre on the line, along +z
    turned = []
    rotations = translation._rotations

    def spy(*args):
        turned.append(args)
        return rotations(*args)

    monkeypatch.setattr(translation, "_rotations", spy)
    energy_T0(config, l_max=3)
    assert turned == []
    # while the same spheres off a line do rotate
    off_line = Configuration(
        config.objects + (pec_sphere((0.0, 3.0, 0.0), 0.5, "off"),), config.medium, 0.0
    )
    log_det_integrand(off_line, 0.5, 3)
    assert turned
