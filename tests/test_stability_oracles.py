"""The one-pass stability report against the earlier per-route computations.

``stability_report`` builds I - N once per stencil displacement at every
node and reads from those matrices the energies of force and FD Laplacian
and the derivatives of the trace decomposition.  The reference below keeps
the earlier decomposition, which differentiated the translation matrices
themselves (``translation_gradient``, Richardson-refined, with the sign
rules of the reversed blocks) and balanced each gradient block with the
T-matrices, on a matrix placed with the labeled object first.
"""

import numpy as np
import pytest

from casimir_stability import (
    Configuration,
    Medium,
    casimir,
    force,
    laplacian_fd,
    stability,
    stability_report,
    translation,
)
from casimir_stability.casimir import _blocks, _pair_blocks, _positive_logdet, _t_logs
from casimir_stability.stability import _CommonGridEngine, _fd, _stencil, _step
from conftest import dielectric_sphere, pec_pair
from test_stability import _count_calls


def ref_decomposition(eng, h):
    """(term1, term2, term3) from translation gradients, labeled object first.

    Only the grid (nodes, weights, order) is read from ``eng``: the blocks
    are built here, one kappa at a time.
    """
    medium = eng.config.medium
    a_idx, nb = eng.idx, eng.nb
    centers = [np.asarray(o.center, float) for o in eng.config.objects]
    rest = [i for i in range(len(centers)) if i != a_idx]
    order = [a_idx] + rest
    offsets = [centers[j] - centers[a_idx] for j in rest]
    terms = np.zeros(3)
    for kappa, weight in zip(eng.kappas, eng.weights):
        n_m = medium.refractive_index(kappa)
        sl = _t_logs(eng.config, kappa, eng.l_max)
        blocks = _blocks(eng.config, kappa, eng.l_max, sl, eng.config._pairs)
        m = np.eye(len(order) * nb)
        for a, i in enumerate(order):
            for b, j in enumerate(order):
                if i != j:
                    m[a * nb : (a + 1) * nb, b * nb : (b + 1) * nb] = -blocks[(i, j)]
        m_rr, u_row, v_col = m[nb:, nb:], -m[:nb, nb:], -m[nb:, :nb]
        grads = [
            translation.translation_gradient(
                medium, kappa, d, eng.l_max, h, richardson=True
            )
            for d in offsets
        ]
        du, dv = [], []
        for axis in range(3):
            # moving A by +u shifts d by -u, so d/d(a_i) X_AJ = -dX/dd_i;
            # for the reversed block, X'(-d) = -D X'(d)^T D, so
            # d/d(a_i) X_JA = +dX/dd_i at -d = -D g^T D
            g = [
                _pair_blocks(gj[axis], sl[a_idx], sl[j]) for gj, j in zip(grads, rest)
            ]
            du.append(-np.hstack([g_aj for g_aj, _ in g]))
            dv.append(-np.vstack([g_ja for _, g_ja in g]))
        m_inv_v = np.linalg.solve(m_rr, v_col)
        n_eff = u_row @ m_inv_v
        _positive_logdet(np.eye(nb) - n_eff, "merged-remainder matrix")
        resolvent = np.linalg.inv(np.eye(nb) - n_eff)
        b1 = 2.0 * (n_m * kappa) ** 2 * np.trace(resolvent @ n_eff)
        b2 = 0.0
        b3 = 0.0
        for axis in range(3):
            mid = np.linalg.solve(m_rr, dv[axis])
            b2 += 2.0 * np.trace(resolvent @ (du[axis] @ mid))
            dn = du[axis] @ m_inv_v + u_row @ mid
            rdn = resolvent @ dn
            b3 += np.trace(rdn @ rdn)
        terms += weight * np.array([-b1, -b2, -b3])
    return tuple(terms)


def _triple():
    objs = (
        dielectric_sphere((0, 0, 0), 1.0, 4.0, "a"),
        dielectric_sphere((3.0, 0, 0.5), 0.8, 3.0, "b"),
        dielectric_sphere((0.6, 3.1, 1.0), 0.6, 5.0, "c"),
    )
    return Configuration(objs, Medium(), 0.0)


# (config, label, l_max, n_nodes); at tau > 0 the grid is the Matsubara one
CASES = {
    "pec_pair": (pec_pair(4.0), "a", 6, 12),
    "triple_a": (_triple(), "a", 5, 12),
    "triple_b": (_triple(), "b", 5, 12),
    "pair_tau": (pec_pair(4.0, tau=0.5), "a", 3, 32),
}


@pytest.mark.parametrize("case", CASES)
def test_report_matches_reference_and_fd_routes(case):
    cfg, label, l_max, n_nodes = CASES[case]
    rep = stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    h = _step(cfg, label, None)
    ref = ref_decomposition(_CommonGridEngine(cfg, label, l_max, n_nodes), h)
    terms = (rep.term1, rep.term2, rep.term3)
    assert np.allclose(terms, ref, rtol=1e-10, atol=0.0)
    # force, FD Laplacian and est_error are the separate routes' numbers
    f = force(cfg, label, l_max=l_max, n_nodes=n_nodes)
    assert np.array_equal(rep.force, f)
    assert rep.laplacian == laplacian_fd(cfg, label, l_max=l_max, n_nodes=n_nodes)
    eng = _CommonGridEngine(cfg, label, l_max, n_nodes)
    _, _, err = _fd([eng.energy(u) for u in _stencil(h)], h)
    assert rep.est_error == err
    assert rep.h_used == h


@pytest.mark.parametrize("case", ["pec_pair", "triple_b"])
def test_report_builds_each_stencil_matrix_once(monkeypatch, case):
    cfg, label, l_max, n_nodes = CASES[case]
    n = len(cfg.objects)
    moving, static = n - 1, (n - 1) * (n - 2) // 2
    translations = _count_calls(monkeypatch, casimir, "translation_matrix")
    matrices = _count_calls(monkeypatch, stability, "_place_blocks")
    gradients = [
        _count_calls(monkeypatch, module, "translation_gradient")
        for module in (translation, stability)
    ]
    stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    assert len(matrices) == n_nodes * 13
    assert len(translations) == n_nodes * (13 * moving + static)
    assert gradients == [[], []]
    if case == "pec_pair":
        assert len(translations) == 156
