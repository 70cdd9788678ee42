"""The one-pass stability report against the earlier per-route computations.

``stability_report`` builds the labeled object's blocks once per stencil
displacement at every node and reads from their differences the ln det
ratios of force and FD Laplacian and the derivatives of the trace
decomposition; the ratios are checked against 40-digit ln dets of the
whole I - N matrices they stand for.  The reference below keeps
the earlier decomposition, which differentiated the translation matrices
themselves (``translation_gradient``, Richardson-refined, with the sign
rules of the reversed blocks) and balanced each gradient block with the
T-matrices, on a matrix placed with the labeled object first.
"""

import mpmath
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
from casimir_stability.casimir import (
    _blocks,
    _geometry,
    _pair_blocks,
    _place_blocks,
    _positive_logdet,
    _t_logs,
)
from casimir_stability.stability import _CommonGridEngine, _fd, _stencil, _step
from conftest import dielectric_sphere, exact_log_det, pec_pair
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
        geometry = _geometry(eng.config, eng.config._pairs, eng.l_max, False)
        blocks = _blocks(medium, kappa, eng.l_max, sl, geometry, eng.layout)
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
                _pair_blocks(gj[axis], sl[a_idx], sl[j], eng.layout) for gj, j in zip(grads, rest)
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
    # est_error from the engine's ratios ln det[M(u)/M(0)], chunk by chunk:
    # a pair's are its radial engine's, at r +- h and r +- h/2
    eng = _CommonGridEngine(cfg, label, l_max, n_nodes)
    pair = eng.radial()
    eng, r, _ = (eng, None, None) if pair is None else pair
    rows = _stencil_ratio_rows(eng, _stencil(h, np.eye(3) if r is None else np.eye(3)[2:]))
    _, err = _fd(eng._sum(rows), h, r)
    assert rep.est_error == err
    assert rep.h_used == h


def _stencil_ratio_rows(eng, steps):
    """Per chunk, the ratios ln det[M(u)/M(0)] of ``eng`` at ``steps[1:]``."""
    moved = [eng.moved(u) for u in steps]
    rows = []
    for c in range(len(eng.chunks)):
        ref = eng._reference(c, eng._row_col(c, moved[0]), steps[0])
        points = [eng._row_col(c, m) for m in moved[1:]]
        rows.append(np.column_stack(
            [eng._ratio(c, ref, p, u, steps[0])[0] for p, u in zip(points, steps[1:])]
        ))
    return rows


@pytest.mark.parametrize("case", ["pec_pair", "triple_b"])
def test_report_builds_each_stencil_matrix_once(monkeypatch, case):
    cfg, label, l_max, n_nodes = CASES[case]
    n = len(cfg.objects)
    moving, static = n - 1, (n - 1) * (n - 2) // 2
    eng = _CommonGridEngine(cfg, label, l_max, n_nodes)
    chunks = len(eng.chunks)
    assert chunks < n_nodes
    translations = _count_calls(monkeypatch, casimir, "translation_matrix")
    matrices = _count_calls(monkeypatch, stability, "_place_blocks")
    gradients = [
        _count_calls(monkeypatch, module, "translation_gradient")
        for module in (translation, stability)
    ]
    stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    # I - N is never placed whole on the dense layout: only the remainder's
    # M_RR, once per chunk, and nothing for a pair, whose M_RR = I.  Each
    # dense stencil point's pairs are translated once per chunk, one kappa
    # row per node.  A pair's ratios take its 5 radial points on m-blocks,
    # each translated and placed once per chunk of its radial engine
    dense = [x for x in translations if x[4] is None]
    axial = [x for x in translations if x[4] is not None]
    dense_rows = sum(np.size(kappa) for _, kappa, *_ in dense)
    axial_rows = sum(np.size(kappa) for _, kappa, *_ in axial)
    assert len(dense) == chunks * (13 * moving + static)
    assert dense_rows == n_nodes * (13 * moving + static)
    assert gradients == [[], []]
    if case == "pec_pair":
        m_chunks = len(eng.radial()[0].chunks)
        assert m_chunks < chunks
        assert len(matrices) == len(axial) == 5 * m_chunks
        assert all(layout.entries is not None for _, layout in matrices)
        assert (dense_rows, axial_rows) == (156, 60)
    else:
        assert len(matrices) == chunks
        assert axial == []


@pytest.mark.parametrize("case", ["pec_pair", "triple_b"])
def test_forces_take_one_reference_and_no_solve_per_chunk(monkeypatch, case):
    # every force is a difference of the stencil's ratios from u = 0: the
    # report builds one reference and 12 ratios per chunk and solves nothing
    # for its force, and force() reads the same columns from the 7 points
    # 0 and +-h e_i, one kappa row per node per moving pair at each.  A
    # pair's ratios are those of its radial engine, 4 per chunk of it from
    # one reference at r, and its force the 2 at r +- h; its report adds
    # one dense reference per chunk for the decomposition, which forms no
    # ratio
    cfg, label, l_max, n_nodes = CASES[case]
    n = len(cfg.objects)
    moving, static = n - 1, (n - 1) * (n - 2) // 2
    eng = _CommonGridEngine(cfg, label, l_max, n_nodes)
    chunks = len(eng.chunks)
    references = _count_calls(monkeypatch, _CommonGridEngine, "_reference")
    ratios = _count_calls(monkeypatch, _CommonGridEngine, "_ratio")
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    if case == "pec_pair":
        m_chunks = len(eng.radial()[0].chunks)
        assert (len(references), len(ratios), len(solves)) == (chunks + m_chunks, 4 * m_chunks, 0)
    else:
        assert (len(references), len(ratios), len(solves)) == (chunks, 12 * chunks, 0)
    del references[:], ratios[:]
    translations = _count_calls(monkeypatch, casimir, "translation_matrix")
    force(cfg, label, l_max=l_max, n_nodes=n_nodes)
    kappa_rows = sum(np.size(kappa) for _, kappa, *_ in translations)
    if case == "pec_pair":
        assert (len(references), len(ratios), len(solves)) == (m_chunks, 2 * m_chunks, 0)
        assert kappa_rows == n_nodes * 3
        assert all(wanted is not None for *_, wanted, _ in translations)
    else:
        assert (len(references), len(ratios), len(solves)) == (chunks, 6 * chunks, 0)
        assert kappa_rows == n_nodes * (7 * moving + static)


@pytest.mark.parametrize("case", CASES)
def test_axial_force_agrees_with_force(case):
    # the sweep and the equilibrium search take one ratio of the +h end from
    # the -h end, force() two ratios from 0: the same difference, rounded
    # apart (the transverse forces of a pair on the z axis included)
    cfg, label, l_max, n_nodes = CASES[case]
    h = _step(cfg, label, None)
    eng = _CommonGridEngine(cfg, label, l_max, n_nodes)
    f = force(cfg, label, l_max=l_max, n_nodes=n_nodes)
    for axis in range(3):
        got = stability._axial_force(eng, h, axis)
        assert abs(got - f[axis]) <= 1e-12 * np.linalg.norm(f), (axis, got, f[axis])


def test_report_rotates_once_per_direction(monkeypatch):
    # the rotation D^l depends on d/|d| alone: the engine prepares it once
    # for each stencil displacement of each moving pair and once for the
    # static pair, whatever the number of chunks (12 here, one kappa each)
    cfg, label, l_max, n_nodes = CASES["triple_a"]
    frames = _count_calls(monkeypatch, translation, "_rotations")
    stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    assert len(frames) == 13 * 2 + 1
    assert len({frame.tobytes() for frame, _ in frames}) == len(frames)


def test_report_makes_each_pairs_bessel_rows_once_for_its_grid(monkeypatch):
    # a reverse block is read from its forward one, never translated again,
    # and the Bessel rows of a pair are made once for the 12 nodes of the
    # grid, not per chunk: once for each stencil displacement of each moving
    # pair and once for the static pair
    cfg, label, l_max, n_nodes = CASES["triple_a"]
    assert not hasattr(casimir, "reverse_translation")
    reverses = _count_calls(monkeypatch, translation, "reverse_translation")
    rows = _count_calls(monkeypatch, translation, "log_bessel_k_array")
    stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    assert reverses == []
    assert len(rows) == 13 * 2 + 1
    assert all(order == 2 * l_max + 1 and x.shape == (n_nodes,) for order, x in rows)


@pytest.mark.parametrize("case", ["pec_pair", "triple_a"])
def test_fd_laplacian_matches_its_decomposition(case):
    # the finite differences are ln det(I + K) series of exact block
    # differences, so their rounding no longer hides the Richardson error
    # the two routes share: at the parent, whose stencil energies were whole
    # slogdets, these read 1.7e-6 and 1.4e-5
    cfg, label, l_max, n_nodes = CASES[case]
    rep = stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    terms = rep.term1 + rep.term2 + rep.term3
    assert abs(rep.laplacian - terms) <= 1e-8 * abs(rep.laplacian)


@pytest.mark.parametrize("case", ["pec_pair", "triple"])
def test_stencil_differences_are_the_exact_ln_det_differences(case):
    # every stencil ratio ln det[M(u)/M(0)] and axial ln det[M(+h)/M(-h)] of
    # the engine against the 40-digit ln det difference of the very float
    # matrices I - N it stands for, placed whole from the same blocks.  The
    # axial one is taken both ways a force takes it: the report's
    # ratio(+h) - ratio(-h), and the sweep's one ratio of the +h end from
    # the -h end (_axial_force).  An axial difference whose first order
    # nearly vanishes at a node is held to the size of its two ends'
    # ratios, which it cannot resolve below
    cfg, label = (pec_pair(4.0), "a") if case == "pec_pair" else (_triple(), "b")
    eng = _CommonGridEngine(cfg, label, l_max=2, n_nodes=3)
    h = _step(cfg, label, None)
    steps = _stencil(h)
    moved = [eng.moved(u) for u in steps]
    static = [p for p in cfg._pairs if eng.idx not in p]
    (c,) = range(len(eng.chunks))
    fixed = eng._chunk_blocks(c, _geometry(cfg, static, eng.l_max, False))
    exact = []
    for geometry in moved:
        blocks = {**fixed, **eng._chunk_blocks(c, geometry)}
        exact.append([exact_log_det(m) for m in _place_blocks(blocks, eng.layout)[:, 0]])
    points = [eng._row_col(c, geometry) for geometry in moved]
    ref = eng._reference(c, points[0], steps[0])
    ratios = [[x - x0 for x, x0 in zip(exact[s], exact[0])] for s in range(13)]
    for s in range(1, 13):
        got = eng._ratio(c, ref, points[s], steps[s], steps[0])[0]
        for g, w in zip(got, ratios[s]):
            assert abs(g - w) <= 1e-14 * abs(w), (s, g, w)
    report = stability._stencil_rows(eng, c, steps, moved)
    for axis, plus in enumerate((1, 3, 5)):  # +h e_i, then -h e_i (see _stencil)
        minus = plus + 1
        ref_minus = eng._reference(c, points[minus], steps[minus])
        axial = eng._ratio(c, ref_minus, points[plus], steps[plus], steps[minus])[0]
        for route, got in (("report", report[:, 12 + axis]), ("axial", axial)):
            for g, r_plus, r_minus in zip(got, ratios[plus], ratios[minus]):
                w = r_plus - r_minus
                scale = max(abs(w), abs(r_plus), abs(r_minus))
                assert abs(g - w) <= 1e-14 * scale, (route, axis, g, w)


def _dielectric_pair():
    objs = (
        dielectric_sphere((0.2, -0.1, 0.3), 1.0, 4.0, "a"),
        dielectric_sphere((2.3, 1.7, 2.4), 0.8, 3.0, "b"),
    )
    return Configuration(objs, Medium(), 0.0)


# pairs whose ratios the radial engine takes: (config, label, l_max, n_nodes)
PAIRS = {
    "pec_pair": CASES["pec_pair"],
    "dielectric_pair": (_dielectric_pair(), "a", 5, 12),
    "pair_tau": CASES["pair_tau"],
}


@pytest.mark.parametrize("case", PAIRS)
def test_radial_laplacian_agrees_with_the_dense_stencil(case):
    # E'' + 2E'/r from r +- h and r +- h/2 on m-blocks, and the 13-point
    # stencil's second differences, read here from the dense engine's own
    # ratios: two Richardson estimates of one Laplacian, each with its error
    cfg, label, l_max, n_nodes = PAIRS[case]
    h = _step(cfg, label, None)
    rep = stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    eng = _CommonGridEngine(cfg, label, l_max, n_nodes)
    dense, dense_err = _fd(eng._sum(_stencil_ratio_rows(eng, _stencil(h))), h)
    assert abs(rep.laplacian - dense) <= max(rep.est_error, dense_err), (rep, dense, dense_err)
    assert abs(rep.term1 + rep.term2 + rep.term3 - rep.laplacian) <= 0.01 * abs(rep.laplacian)
    # the force lies on the line of centres, and its size is the dense
    # central differences' to their O(h^2) truncation, which differs
    # between the two stencils (4e-6 relative for the dielectric pair)
    f = force(cfg, label, l_max=l_max, n_nodes=n_nodes)
    d = np.subtract(cfg.objects[0].center, cfg.objects[1].center)
    scale = np.linalg.norm(f)
    assert np.allclose(np.cross(f, d / np.linalg.norm(d)), 0.0, rtol=0.0, atol=1e-15 * scale)
    ratios = eng._sum(_stencil_ratio_rows(eng, _stencil(h)[:7]))
    dense_force = -(ratios[0::2] - ratios[1::2]) / (2.0 * h)
    assert np.allclose(f, dense_force, rtol=0.0, atol=1e-4 * scale), (f, dense_force)


@pytest.mark.parametrize("case", ["pec_pair", "dielectric_pair"])
def test_radial_ratios_are_the_exact_ln_det_differences(case):
    # every ratio of the radial engine, and its force column, against the
    # 40-digit ln det difference of the very float m-blocks of I - N it
    # stands for, placed whole from the same blocks at r +- h and r +- h/2
    cfg, label = PAIRS[case][:2]
    eng, r, _ = _CommonGridEngine(cfg, label, l_max=2, n_nodes=3).radial()
    h = _step(cfg, label, None)
    steps = _stencil(h, np.eye(3)[2:])
    moved = [eng.moved(u) for u in steps]
    (c,) = range(len(eng.chunks))
    exact = []
    for geometry in moved:
        stack = _place_blocks(eng._chunk_blocks(c, geometry), eng.layout)
        assert stack.shape[1:] == (5, 8, 8)  # m = -2..2, 2 l_max rows per object
        with mpmath.workdps(40):
            exact.append([sum(exact_log_det(m) for m in row) for row in stack])
    with mpmath.workdps(40):
        ratios = [[x - x0 for x, x0 in zip(exact[s], exact[0])] for s in range(5)]
    points = [eng._row_col(c, geometry) for geometry in moved]
    ref = eng._reference(c, points[0], steps[0])
    for s in range(1, 5):
        got = eng._ratio(c, ref, points[s], steps[s], steps[0])[0]
        for g, w in zip(got, ratios[s]):
            assert abs(g - w) <= 1e-14 * abs(w), (s, g, w)
    rows = stability._stencil_rows(eng, c, steps, moved, terms=False)
    for g, r_plus, r_minus in zip(rows[:, 4], ratios[1], ratios[2]):
        w = r_plus - r_minus
        assert abs(g - w) <= 1e-14 * max(abs(w), abs(r_plus), abs(r_minus)), (g, w)
    # the pair's frame: the labeled object at (0, 0, r) from the other
    assert np.array_equal(eng.config.objects[eng.idx].center, (0.0, 0.0, r))


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_pair_report_is_the_same_bits_in_every_orientation(tau):
    # the radial engine works in the pair's own frame, so the Laplacian,
    # its est_error and the force's size -E'(r) depend on r alone: the
    # same bits along z and along two random axes.  The axes are signed
    # permutations of (2, 3, 6) / 7, so that every |d| is 7 exactly
    rng = np.random.default_rng(30)
    axes = [np.array([0.0, 0.0, 7.0])]
    for _ in range(2):
        axes.append(rng.permutation([2.0, 3.0, 6.0]) * rng.choice([-1.0, 1.0], 3))
    reports, size = [], None
    for d in axes:
        assert np.linalg.norm(d) == 7.0
        objs = (
            dielectric_sphere((0.0, 0.0, 0.0), 2.5, 4.0, "a"),
            dielectric_sphere(tuple(d), 2.0, 3.0, "b"),
        )
        rep = stability_report(Configuration(objs, Medium(), tau), "a", l_max=3, n_nodes=8)
        unit = -d / 7.0  # r^, from b to a
        # -E'(r), read off the z axis, where r^ = -e_z
        size = -rep.force[2] if size is None else size
        assert np.array_equal(rep.force, size * unit + 0.0), (rep.force, size, unit)
        reports.append((rep.laplacian, rep.est_error))
    assert reports[1] == reports[0] and reports[2] == reports[0], reports


def test_pair_force_and_laplacian_fd_place_no_dense_block(monkeypatch):
    # a pair's force and FD Laplacian are its radial engine's ratios alone,
    # and its report runs every ln det(I + K) series on m-block stacks
    cfg, label, l_max, n_nodes = CASES["pec_pair"]
    blocks = _count_calls(monkeypatch, stability, "_blocks")
    for route in (force, laplacian_fd):
        route(cfg, label, l_max=l_max, n_nodes=n_nodes)
        assert blocks and all(layout.entries is not None for *_, layout in blocks)
        del blocks[:]
    series = _count_calls(monkeypatch, stability, "_log_det_1p")
    stability_report(cfg, label, l_max=l_max, n_nodes=n_nodes)
    assert any(layout.entries is None for *_, layout in blocks)  # the decomposition
    depth, width = 2 * l_max + 1, 2 * l_max
    assert series and all(k.shape[1:] == (depth, width, width) for k, *_ in series)
