"""The frame rule and the parity blocks of coplanar configurations.

Centres in one plane (every three are) are turned into it, z = 0 exactly
(``Configuration._frame``).  The mirror z -> -z is then the sign
Pi = s_P (-1)^(l + m), s_E = -s_M, on every basis label of every object, and
commutes with I - N: the energy and the stability engine take its two
blocks (``casimir._layout(l_max, "parity")``), and the stencil's points
below the plane take the ratios of their mirror images above it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from casimir_stability import Configuration, Medium, casimir, energy_T0, log_det_integrand, stability
from casimir_stability.casimir import assemble_block_matrix
from casimir_stability.cli import _build_configuration
from casimir_stability.stability import _CommonGridEngine, _stencil, _step, stability_report
from conftest import dielectric_sphere, pec_sphere
from test_golden_csv import MIXED
from test_stability import _count_calls
from test_stability_oracles import _triple

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402


def _four():
    """_triple's spheres and a fourth in their plane, at a + 0.8 (b - a) + 0.8 (c - a)."""
    a, b, c = (np.asarray(o.center, float) for o in _triple().objects)
    d = a + 0.8 * (b - a) + 0.8 * (c - a)
    return Configuration((*_triple().objects, pec_sphere(tuple(d), 0.5, "d")), Medium())


CONFIGS = {
    **{f"triple-general seed {seed}": _build_configuration(workloads.triple_general(seed)[0].config)
       for seed in (1, 2, 3)},
    "golden mixed triple": _build_configuration(MIXED),
    "coplanar four": _four(),
}
KAPPAS = np.array([0.01, 0.3, 2.0, 5.0])


def _parity(l_max, n):
    """Pi of every basis label of n objects: (P, l, m) in storage order, electric first."""
    lm = [(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    return np.tile([s * (-1) ** (l + m) for s in (1, -1) for l, m in lm], n)


@pytest.mark.parametrize("l_max", [5, 10])
@pytest.mark.parametrize("case", CONFIGS)
def test_parity_blocks_give_the_dense_log_det(case, l_max):
    # the dense I - N in the centres' plane has no entry between the two
    # parities, and the sum of the ln dets of its two blocks, which the
    # integrand takes, is its ln det (measured: at most 8e-16 apart)
    cfg = CONFIGS[case]
    kind, framed, plane = cfg._frame
    assert kind == "parity"
    assert all(o.center[2] == 0.0 for o in framed.objects)
    assert np.allclose(plane @ plane.T, np.eye(3), rtol=0.0, atol=1e-15)
    pi = _parity(l_max, len(cfg.objects))
    for kappa, value in zip(KAPPAS, log_det_integrand(cfg, KAPPAS, l_max)):
        m = assemble_block_matrix(framed, kappa, l_max)
        assert not m[pi[:, None] != pi].any()
        sign, want = np.linalg.slogdet(m)
        assert sign > 0.0
        assert abs(value - want) <= 1e-14, (kappa, value, want)


def test_no_cross_parity_entry_is_placed(monkeypatch):
    # the energy's stacks, the engine's M_RR and its points in the plane
    # are placed on the parity blocks alone; its points off the plane are
    # whole and placed nowhere
    cfg, l_max, n_nodes = CONFIGS["triple-general seed 1"], 3, 6
    chunks = len(_CommonGridEngine(cfg, "a", l_max, n_nodes).chunks)
    energy = _count_calls(monkeypatch, casimir, "_place_blocks")
    engine = _count_calls(monkeypatch, stability, "_place_blocks")
    energy_T0(cfg, tol=1e-4, l_max=l_max)
    stability_report(cfg, "a", l_max=l_max, n_nodes=n_nodes)
    # M_RR, the reference and the 8 points in the plane, per chunk
    assert len(engine) == 10 * chunks
    assert energy
    pi = _parity(l_max, 1)
    for _, layout in energy + engine:
        assert layout.kind == "parity"
        assert np.array_equal(pi[layout.entries.rows], pi[layout.entries.cols])


def _signed_permutations(rng, count):
    out = [np.eye(3)]
    for _ in range(count):
        out.append(np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], (3, 1)))
    return out


def _integer_triple(turn):
    """Three spheres at integer centres, whose dot products are exact, turned by ``turn``."""
    centres = [(0.0, 0.0, 0.0), (2.0, 3.0, 6.0), (6.0, -2.0, 3.0)]
    spheres = [(1.5, 4.0, "a"), (1.2, 3.0, "b"), (1.0, 5.0, "c")]
    return Configuration(
        [dielectric_sphere(tuple(turn @ c), r, eps, label) for c, (r, eps, label) in zip(centres, spheres)],
        Medium(),
    )


def test_coplanar_triple_is_the_same_bits_in_every_orientation():
    # the frame rule turns the centres into their plane the same way from
    # any signed permutation of the axes, so the energy and the report are
    # the same bits, and the force turns with the axes, bit for bit
    rng = np.random.default_rng(34)
    results = []
    for turn in _signed_permutations(rng, 3):
        cfg = _integer_triple(turn)
        energy = energy_T0(cfg, tol=1e-6, l_max=3).value
        rep = stability_report(cfg, "a", l_max=3, n_nodes=8)
        results.append((energy, rep.laplacian, rep.term1, rep.term2, rep.term3, rep.est_error))
        if len(results) == 1:
            force = rep.force
        assert np.array_equal(rep.force, turn @ force + 0.0), (rep.force, turn @ force)
    assert all(r == results[0] for r in results), results


def test_normal_force_is_exactly_zero_in_the_plane():
    # +-h n are mirror images: the stencil builds +h n alone, and the
    # per-node difference of the normal axis is exactly 0
    cfg = _integer_triple(np.eye(3))
    eng = _CommonGridEngine(cfg, "a", 3, 8)
    h = _step(cfg, "a", None)
    steps = _stencil(h)[:7]
    assert stability._images(eng, steps) == [0, 1, 2, 3, 4, 5, 5]
    rows = stability._stencil_chunks(eng, steps, terms=False)
    assert all(np.array_equal(row[:, 4], row[:, 5]) for row in rows)
    assert eng._sum([row[:, 4] - row[:, 5] for row in rows]) == 0.0


@pytest.mark.parametrize("case", ["coplanar triple", "dense four"])
def test_stencil_on_negated_axes_gives_the_same_terms(case):
    # h is the length of the first step, whatever its sign: on the axes -e_i
    # the ratio columns of each axis swap signs, term1 is the same bits, and
    # the Richardson differences change sign together, so term2 and term3
    # agree to rounding
    if case == "coplanar triple":
        cfg = _triple()
    else:
        *objs, d = _four().objects
        cfg = Configuration((*objs, pec_sphere((d.center[0], d.center[1], -1.5), 0.5, "d")), Medium())
        assert cfg._frame.layout == "dense"
    eng = _CommonGridEngine(cfg, "a", 2, 4)
    h = _step(cfg, "a", None)
    reads = []
    for axes in (np.eye(3), -np.eye(3)):
        steps = _stencil(h, axes)
        reads.append(np.concatenate(stability._stencil_chunks(eng, steps)))
    plus, minus = reads
    swap = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10]
    assert np.array_equal(minus[:, :12], plus[:, swap])
    assert np.array_equal(minus[:, 12], plus[:, 12])
    assert np.allclose(minus[:, 13:], plus[:, 13:], rtol=1e-12, atol=0.0)
