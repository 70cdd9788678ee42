"""Classical charge kernels against loop-by-loop reference implementations.

The classical layer evaluates H, grad_d H, the one-mobile site energies and
the Metropolis step from one flat charge table.  The references below keep
the earlier per-container loops, which spell the pair rule out at every
use, so a change to the table, its ``couples`` mask or the site-energy
kernel shows up as a disagreement on a configuration that mixes every kind
of charge: fixed and mobile, tethered and untethered, with and without
intra-container pairs, in spheres and a box.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from casimir_stability import (
    CapabilityError,
    ClassicalConfig,
    ConvergenceBudgetError,
    Container,
    free_energy_quadrature,
    grad_d_hamiltonian,
    hamiltonian,
    laplacian_F_estimator,
    metropolis_run,
)
from casimir_stability import classical
from casimir_stability.classical import (
    _Draws,
    _blocking_stderr,
    _shape_nodes,
    _shifted,
    _site_energy,
)
from test_classical import tethered_toy

_COULOMB = 1.0 / (4.0 * math.pi)


def mixed_config():
    a = Container(
        "a",
        "sphere",
        (0.0, 0.0, 0.0),
        0.5,
        fixed_charges=[(1.0, (0.2, 0.0, 0.0)), (-0.5, (-0.1, 0.15, 0.05))],
        mobile_charges=[(0.8, ("harmonic", 4.0, (0.0, 0.0, 0.1))), (-0.6, None)],
        include_intra=True,
    )
    b = Container(
        "b",
        "box",
        (1.6, 0.0, 0.2),
        (0.8, 0.6, 0.7),
        fixed_charges=[(0.7, (0.1, -0.1, 0.0))],
        mobile_charges=[(-1.0, None)],
    )
    c = Container(
        "c", "sphere", (0.0, 1.5, -0.3), 0.4, fixed_charges=[(-0.9, (0.0, 0.0, 0.1))]
    )
    return ClassicalConfig((a, b, c), 1.3, 1.5)


def inside_positions(config, n, seed):
    """``n`` draws of one position per mobile, each inside its container."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        pos = []
        for c in config.containers:
            for _ in c.mobile_charges:
                span = np.full(3, 2.0 * c.size) if c.shape == "sphere" else c.size
                while True:
                    p = np.asarray(c.center) + span * rng.uniform(-0.5, 0.5, 3)
                    if c.contains(p)[0]:
                        break
                pos.append(p)
        out.append(np.array(pos))
    return out


# --- references: per-container loops over (q, position) lists ---


def _ref_index(config):
    return [
        (ci, mi)
        for ci, c in enumerate(config.containers)
        for mi in range(len(c.mobile_charges))
    ]


def _ref_fixed(c):
    return [(q, np.asarray(c.center) + np.asarray(pos)) for q, pos in c.fixed_charges]


def _ref_charges(config, positions):
    per = [_ref_fixed(c) for c in config.containers]
    for flat, (ci, mi) in enumerate(_ref_index(config)):
        per[ci].append((config.containers[ci].mobile_charges[mi][0], positions[flat]))
    return per


def _ref_coulomb(q1, p1, q2, p2, eps_m):
    r = np.linalg.norm(np.asarray(p1) - np.asarray(p2))
    return _COULOMB * q1 * q2 / (eps_m * r)


def _ref_tether(c, mi, point):
    _, tether = c.mobile_charges[mi]
    if tether is None:
        return 0.0
    _, k, anchor = tether
    r = np.asarray(point) - (np.asarray(c.center) + np.asarray(anchor))
    return 0.5 * k * float(r @ r)


def ref_hamiltonian(config, positions):
    index = _ref_index(config)
    per = _ref_charges(config, positions)
    for flat, (ci, _) in enumerate(index):
        if not config.containers[ci].contains(positions[flat])[0]:
            return math.inf
    total = 0.0
    n = len(config.containers)
    for i in range(n):
        for j in range(i + 1, n):
            for qa, pa in per[i]:
                for qb, pb in per[j]:
                    total += _ref_coulomb(qa, pa, qb, pb, config.eps_M)
    for ci, c in enumerate(config.containers):
        for flat, (cj, mi) in enumerate(index):
            if cj == ci:
                total += _ref_tether(c, mi, positions[flat])
        if c.include_intra:
            charges = per[ci]
            for i in range(len(charges)):
                for j in range(i + 1, len(charges)):
                    total += _ref_coulomb(*charges[i], *charges[j], config.eps_M)
    return total


def ref_grad(config, positions, label):
    """grad_d H and the sum of its terms' magnitudes (its rounding scale)."""
    per = _ref_charges(config, positions)
    idx = [c.label for c in config.containers].index(label)
    grad = np.zeros(3)
    scale = 0.0
    for qa, pa in per[idx]:
        for j, charges in enumerate(per):
            if j == idx:
                continue
            for qb, pb in charges:
                r = np.asarray(pa) - np.asarray(pb)
                dist = np.linalg.norm(r)
                grad -= _COULOMB * qa * qb / config.eps_M * r / dist**3
                scale += abs(_COULOMB * qa * qb / config.eps_M) / dist**2
    return grad, scale


def ref_one_body(config, ci, mi, points):
    c = config.containers[ci]
    q, tether = c.mobile_charges[mi]
    pts = np.asarray(points, float)
    u = np.zeros(len(pts))
    if tether is not None:
        _, k, anchor = tether
        r = pts - (np.asarray(c.center) + np.asarray(anchor))
        u += 0.5 * k * np.einsum("ij,ij->i", r, r)
    for cj, other in enumerate(config.containers):
        if cj == ci and not c.include_intra:
            continue
        for qb, pb in _ref_fixed(other):
            dist = np.linalg.norm(pts - pb, axis=1)
            u += _COULOMB * q * qb / (config.eps_M * dist)
    return u


def ref_mobile_delta_energy(config, positions, flat, point):
    index = _ref_index(config)
    ci, mi = index[flat]
    c = config.containers[ci]
    q, _ = c.mobile_charges[mi]
    e = float(ref_one_body(config, ci, mi, np.asarray(point)[None, :])[0])
    for other, (cj, mj) in enumerate(index):
        if other == flat:
            continue
        if cj == ci and not c.include_intra:
            continue
        qb, _ = config.containers[cj].mobile_charges[mj]
        dist = np.linalg.norm(np.asarray(point) - positions[other])
        e += _COULOMB * q * qb / (config.eps_M * dist)
    return e


def ref_free_energy(config, d, tol, max_n):
    cfg = _shifted(config, config.containers[0].label, d)
    index = _ref_index(cfg)
    if len(index) > 2:
        raise CapabilityError("quadrature free energy supports at most 2 mobiles")
    bare = [replace(c, mobile_charges=()) for c in cfg.containers]
    e0 = ref_hamiltonian(replace(cfg, containers=bare), np.zeros((0, 3)))
    if not index:
        return e0
    beta = cfg.beta

    def evaluate(n):
        grids = [_shape_nodes(cfg.containers[ci], n) for ci, _ in index]
        f = [
            w * np.exp(-beta * ref_one_body(cfg, ci, mi, pts))
            for (ci, mi), (pts, w) in zip(index, grids)
        ]
        if len(index) == 1:
            return e0 - math.log(float(np.sum(f[0]))) / beta
        (ci, mi), (cj, mj) = index
        if ci == cj and not cfg.containers[ci].include_intra:
            return e0 - math.log(float(np.sum(f[0])) * float(np.sum(f[1]))) / beta
        qa = cfg.containers[ci].mobile_charges[mi][0]
        qb = cfg.containers[cj].mobile_charges[mj][0]
        z = 0.0
        for start in range(0, len(f[0]), 256):
            pa = grids[0][0][start : start + 256]
            dist = np.linalg.norm(pa[:, None, :] - grids[1][0][None], axis=2)
            kern = np.exp(-beta * (_COULOMB * qa * qb / (cfg.eps_M * dist)))
            z += float(f[0][start : start + 256] @ kern @ f[1])
        return e0 - math.log(z) / beta

    n = 8
    prev = evaluate(n)
    while n <= max_n:
        n *= 2
        cur = evaluate(n)
        if abs(cur - prev) <= tol * max(abs(cur), 1.0):
            return cur
        prev = cur
    raise ConvergenceBudgetError("no convergence")


def ref_metropolis(config, steps, step_size, seed, burn_in):
    """The chain with a per-mobile energy list refreshed after every move."""
    index = _ref_index(config)
    rng = np.random.default_rng(seed)
    positions = np.zeros((len(index), 3))
    for flat, (ci, mi) in enumerate(index):
        c = config.containers[ci]
        _, tether = c.mobile_charges[mi]
        positions[flat] = np.asarray(c.center) + (
            np.asarray(tether[2]) if tether is not None else 0.0
        )
    energies = [
        ref_mobile_delta_energy(config, positions, k, positions[k])
        for k in range(len(index))
    ]
    kept = np.empty((steps - burn_in, len(index), 3))
    accepted = 0
    for step in range(steps):
        flat = int(rng.integers(len(index)))
        ci, _ = index[flat]
        proposal = positions[flat] + step_size * rng.uniform(-1.0, 1.0, 3)
        if config.containers[ci].contains(proposal)[0]:
            e_new = ref_mobile_delta_energy(config, positions, flat, proposal)
            delta = e_new - energies[flat]
            if delta <= 0.0 or rng.random() < math.exp(-config.beta * delta):
                positions[flat] = proposal
                accepted += 1
                energies = [
                    ref_mobile_delta_energy(config, positions, k, positions[k])
                    for k in range(len(index))
                ]
        if step >= burn_in:
            kept[step - burn_in] = positions
    return kept, accepted / steps


def ref_estimator(config, label, positions):
    """-beta Var(grad_d H), gradients summed over one charge inventory."""
    idx = [c.label for c in config.containers].index(label)
    t = len(positions)
    inventory = [(ci, False, q, p) for ci, c in enumerate(config.containers)
                 for q, p in _ref_fixed(c)]
    for flat, (ci, mi) in enumerate(_ref_index(config)):
        inventory.append((ci, True, config.containers[ci].mobile_charges[mi][0], flat))
    grads = np.zeros((t, 3))
    for ca, mob_a, qa, ra in inventory:
        if ca != idx:
            continue
        pa = positions[:, ra, :] if mob_a else np.broadcast_to(ra, (t, 3))
        for cb, mob_b, qb, rb in inventory:
            if cb == idx:
                continue
            pb = positions[:, rb, :] if mob_b else np.broadcast_to(rb, (t, 3))
            r = pa - pb
            dist = np.linalg.norm(r, axis=1)
            grads -= (_COULOMB * qa * qb / config.eps_M / dist**3)[:, None] * r
    dx, dy, dz = (grads - grads.mean(axis=0)).T
    # |d|^2 summed as (x x + y y) + z z, the order the estimator pins
    contrib = (dx * dx + dy * dy) + dz * dz
    stderr, tau = _blocking_stderr(contrib)
    return -config.beta * float(contrib.mean()), config.beta * stderr, tau


# --- comparisons ---


def test_hamiltonian_and_gradient_match_reference():
    cfg = mixed_config()
    for pos in inside_positions(cfg, 40, seed=3):
        h, ref = hamiltonian(cfg, pos), ref_hamiltonian(cfg, pos)
        assert h == pytest.approx(ref, rel=1e-14, abs=0.0)
        for label in "abc":
            g_ref, scale = ref_grad(cfg, pos, label)
            g = grad_d_hamiltonian(cfg, pos, label)
            assert np.allclose(g, g_ref, rtol=0.0, atol=1e-14 * scale)
    outside = inside_positions(cfg, 1, seed=4)[0]
    outside[2] = (1.6, 0.0, 0.2 + 0.36)  # box half-height is 0.35
    assert hamiltonian(cfg, outside) == ref_hamiltonian(cfg, outside) == math.inf


def _subsets():
    """The mixed configuration cut to at most two mobiles, every pair kind.

    A mobile that couples to an opposite charge inside its own container has
    no finite partition integral (the quadrature rejects it), so a cut with
    a mobile in container a (``include_intra``) keeps only a's fixed charge
    of that mobile's sign.
    """
    cfg = mixed_config()
    a, b, c = cfg.containers
    tethered, free = a.mobile_charges
    plus, minus = a.fixed_charges

    def with_mobiles(ma, mb, intra=True, fixed=a.fixed_charges):
        return replace(
            cfg,
            containers=(
                replace(
                    a, fixed_charges=fixed, mobile_charges=ma, include_intra=intra
                ),
                replace(b, mobile_charges=mb),
                c,
            ),
        )

    return [
        with_mobiles((), ()),
        with_mobiles((tethered,), (), fixed=(plus,)),
        with_mobiles((free,), (), fixed=(minus,)),
        with_mobiles((), b.mobile_charges),
        with_mobiles((tethered,), b.mobile_charges, fixed=(plus,)),
        with_mobiles((tethered, free), (), intra=False),
    ]


@pytest.mark.parametrize("index", range(6))
def test_free_energy_quadrature_matches_reference(index):
    cfg = _subsets()[index]
    # tol = inf stops the node doubling at 16 points per axis
    for d in ((0.0, 0.0, 0.0), (-0.05, 0.02, 0.03)):
        f = free_energy_quadrature(cfg, d, tol=math.inf, max_n=16)
        ref = ref_free_energy(cfg, d, tol=math.inf, max_n=8)
        assert f == pytest.approx(ref, rel=1e-14, abs=1e-14)


def test_site_energies_match_reference_deltas():
    # a Metropolis step evaluates one mobile at its proposal and at its
    # current position, on Python floats; both match the reference's
    # per-mobile energies, and the same kernel on arrays (as the quadrature
    # runs it) gives the same bits
    cfg = mixed_config()
    table = cfg._table
    draws = inside_positions(cfg, 20, seed=5)
    for pos, trial in zip(draws, reversed(draws)):
        everything = np.concatenate([table.fixed, pos])
        for k in range(len(pos)):
            a = table.n_fixed + k
            points = np.array([trial[k], pos[k]])
            e_new, e_old = _site_energy(table, a, *points.T, everything)
            on_floats = [
                _site_energy(table, a, *p, everything.tolist())
                for p in points.tolist()
            ]
            assert all(type(e) is float for e in on_floats)
            assert on_floats == [e_new, e_old]
            ref_new = ref_mobile_delta_energy(cfg, pos, k, trial[k])
            ref_old = ref_mobile_delta_energy(cfg, pos, k, pos[k])
            for e in (e_new, on_floats[0]):
                assert e == pytest.approx(ref_new, rel=1e-14)
            for e in (e_old, on_floats[1]):
                assert e == pytest.approx(ref_old, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 1000003, 2**31 + 11, 2**32])
def test_draws_decode_the_generators_values(n):
    # the chain decodes default_rng(seed)'s draws from its raw PCG64 words;
    # the three draw kinds come in a random order, so a 32-bit half kept
    # across doubles is exercised; 2**31 + 11 rejects about half of its
    # 32-bit draws, and numpy takes 2**32 unbounded.  A numpy release that
    # changes a Generator algorithm fails here.
    for seed in range(30):
        rng, draws = np.random.default_rng(seed), _Draws(seed)
        for kind in np.random.default_rng(1000 + seed).integers(3, size=3000).tolist():
            if kind == 0:
                value, expected = draws.integers(n), int(rng.integers(n))
            elif kind == 1:
                value, expected = draws.uniform3(), tuple(rng.uniform(-1.0, 1.0, 3).tolist())
            else:
                value, expected = draws.random(), rng.random()
            assert value == expected, (seed, kind)


@pytest.mark.parametrize("seed", [1, 7])
def test_metropolis_chain_and_estimator_match_reference(seed):
    cfg = mixed_config()
    stream = metropolis_run(cfg, 20000, 0.15, seed, burn_in=2000)
    positions, rate = ref_metropolis(cfg, 20000, 0.15, seed, 2000)
    assert np.array_equal(stream.positions, positions)
    assert stream.acceptance_rate == rate
    est = laplacian_F_estimator(cfg, "a", stream)
    assert (est.mean, est.stderr, est.autocorrelation_time) == ref_estimator(
        cfg, "a", positions
    )


def _one_mobile():
    cfg = mixed_config()
    a, b, c = cfg.containers
    return replace(
        cfg,
        containers=(
            replace(a, mobile_charges=a.mobile_charges[:1]),
            replace(b, mobile_charges=()),
            c,
        ),
    )


def _first_accepted_step(cfg, steps, step_size, seed):
    """The first step >= 2 whose move the reference chain accepts."""
    kept, _ = ref_metropolis(cfg, steps, step_size, seed, 1)  # row i is step i + 1
    moved = np.flatnonzero(np.any(kept[1:] != kept[:-1], axis=(1, 2)))
    return int(moved[0]) + 2


def _assert_chain_is_the_reference(cfg, steps, step_size, seed, burn_in):
    stream = metropolis_run(cfg, steps, step_size, seed, burn_in=burn_in)
    positions, rate = ref_metropolis(cfg, steps, step_size, seed, burn_in)
    assert stream.positions.shape == (steps - burn_in, len(cfg._table.anchor), 3)
    assert np.array_equal(stream.positions, positions)
    assert stream.acceptance_rate == rate
    return stream


@pytest.mark.parametrize("edge", ["at burn_in - 1", "at burn_in"])
def test_chain_rebuilt_around_a_move_accepted_at_the_burn_in(edge):
    # the kept rows are rebuilt from the log of accepted moves: a move just
    # before the first kept step, or on it, must land in the first kept row
    cfg = mixed_config()
    step = _first_accepted_step(cfg, 600, 0.15, 4)
    burn_in = step + 1 if edge == "at burn_in - 1" else step
    _assert_chain_is_the_reference(cfg, 600, 0.15, 4, burn_in)


def test_chain_rebuilt_with_one_kept_step():
    _assert_chain_is_the_reference(mixed_config(), 301, 0.15, 2, 300)


def test_chain_rebuilt_for_a_single_mobile():
    # integers(1) draws nothing, so each step draws only the move and the test
    _assert_chain_is_the_reference(_one_mobile(), 3000, 0.15, 5, 300)


def test_chain_rebuilt_when_no_move_is_accepted():
    # k = 1e9: every move inside the wall raises the energy by about 1e6
    cfg = tethered_toy(k=1e9)
    with pytest.warns(UserWarning, match="acceptance rate 0.000"):
        stream = _assert_chain_is_the_reference(cfg, 500, 0.05, 1, 50)
    assert np.array_equal(stream.positions, np.broadcast_to(cfg._table.anchor, (450, 2, 3)))


def test_toy_chain_keeps_each_mobiles_energy(monkeypatch):
    # the classical-mc toy: two tethered mobiles coupled to each other, so an
    # accepted move of one forgets the other's energy.  A stale kept energy
    # changes an acceptance and the chain leaves the reference.  A mobile's
    # current energy is computed again only on its first pick and after a
    # mobile it couples to moved, so the kernel runs once per in-wall
    # proposal plus at most once per accepted move and per mobile
    counts = {"site": 0, "in_wall": 0}
    wall_test = classical._inside

    def site_energy(*args):
        counts["site"] += 1
        return _site_energy(*args)

    def inside(*args):
        ok = wall_test(*args)
        counts["in_wall"] += ok is True
        return ok

    monkeypatch.setattr(classical, "_site_energy", site_energy)
    monkeypatch.setattr(classical, "_inside", inside)
    toy, steps = tethered_toy(), 4000
    stream = metropolis_run(toy, steps, 0.25, 3, burn_in=400)
    monkeypatch.undo()
    positions, rate = ref_metropolis(toy, steps, 0.25, 3, 400)
    assert np.array_equal(stream.positions, positions)
    assert stream.acceptance_rate == rate
    accepted = round(rate * steps)
    # the chain's start tests each mobile's anchor once
    proposals = counts["in_wall"] - 2
    assert proposals < counts["site"] < 2 * proposals
    assert counts["site"] <= proposals + accepted + 2
