"""Classical containers: Hamiltonian, quadrature free energy, Metropolis."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from casimir_stability import (
    CapabilityError,
    ClassicalConfig,
    Container,
    McEstimate,
    ValidationError,
    classical,
    free_energy_quadrature,
    grad_d_hamiltonian,
    hamiltonian,
    laplacian_F_estimator,
    metropolis_run,
)
from casimir_stability.classical import _shifted


def two_fixed_units(distance=1.0):
    a = Container("a", "sphere", (0, 0, 0), 0.3, fixed_charges=[(1.0, (0, 0, 0))])
    b = Container(
        "b", "sphere", (0, 0, distance), 0.3, fixed_charges=[(1.0, (0, 0, 0))]
    )
    return ClassicalConfig((a, b), 1.0, 1.0)


def tethered_toy(beta=2.0, k=5.0, q=1.0):
    a = Container(
        "a", "sphere", (0, 0, 0), 0.3, mobile_charges=[(q, ("harmonic", k, (0, 0, 0)))]
    )
    b = Container(
        "b",
        "sphere",
        (0, 0, 1.2),
        0.3,
        mobile_charges=[(-q, ("harmonic", k, (0, 0, 0)))],
    )
    return ClassicalConfig((a, b), 1.0, beta)


def test_validation():
    with pytest.raises(ValidationError):
        Container("a", "cylinder", (0, 0, 0), 1.0)
    with pytest.raises(ValidationError):
        Container("a", "sphere", (0, 0, 0), -1.0)
    a = Container("a", "sphere", (0, 0, 0), 1.0)
    b = Container("b", "sphere", (0, 0, 1.5), 1.0)
    with pytest.raises(ValidationError):
        ClassicalConfig((a, b), 1.0, 1.0)
    with pytest.raises(ValidationError):
        ClassicalConfig((a,), -1.0, 1.0)


NAN, INF = math.nan, math.inf
TETHER = ("harmonic", 5.0, (0, 0, 0))


@pytest.mark.parametrize(
    "eps_m, beta",
    [(1.0, NAN), (1.0, INF), (1.0, 0.0), (NAN, 1.0), (INF, 1.0)],
    ids=["beta_nan", "beta_inf", "beta_zero", "eps_nan", "eps_inf"],
)
def test_config_rejects_nonfinite_or_nonpositive_parameters(eps_m, beta):
    # a NaN or infinite beta used to be accepted: the chain then accepted no
    # move, and the quadrature free energy never converged
    a, b = tethered_toy().containers
    with pytest.raises(ValidationError, match="finite and positive"):
        ClassicalConfig((a, b), eps_m, beta)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(size=NAN),
        dict(size=INF),
        dict(shape="box", size=(0.3, NAN, 0.3)),
        dict(center=(0, NAN, 0)),
        dict(fixed_charges=[(NAN, (0, 0, 0))]),
        dict(fixed_charges=[(1.0, (0, 0, INF))]),
        dict(mobile_charges=[(NAN, TETHER)]),
        dict(mobile_charges=[(1.0, ("harmonic", NAN, (0, 0, 0)))]),
        dict(mobile_charges=[(1.0, ("harmonic", -1.0, (0, 0, 0)))]),
        dict(mobile_charges=[(1.0, ("harmonic", 5.0, (NAN, 0, 0)))]),
    ],
    ids=["radius_nan", "radius_inf", "edge_nan", "center_nan", "fixed_q_nan",
         "fixed_pos_inf", "mobile_q_nan", "tether_k_nan", "tether_k_neg",
         "anchor_nan"],
)
def test_container_rejects_nonfinite_input(kwargs):
    args = dict(label="a", shape="sphere", center=(0, 0, 0), size=0.3)
    with pytest.raises(ValidationError, match="must be (a )?finite"):
        Container(**{**args, **kwargs})


@pytest.mark.parametrize("step_size", [NAN, INF, 0.0, -0.25])
def test_metropolis_rejects_nonfinite_or_nonpositive_step(step_size):
    with pytest.raises(ValidationError, match="step_size must be finite and positive"):
        metropolis_run(tethered_toy(), 200, step_size, seed=1)


@pytest.mark.parametrize(
    "steps, burn_in, match",
    [
        (1000, -50, "burn_in must be an integer >= 1"),
        (1000, 0, "burn_in must be an integer >= 1"),
        (1000, 50.0, "burn_in must be an integer >= 1"),
        (1000.5, None, "steps must be an integer >= 1"),
    ],
    ids=["burn_in_negative", "burn_in_zero", "burn_in_float", "steps_float"],
)
def test_metropolis_rejects_a_bad_step_count_or_burn_in(steps, burn_in, match):
    with pytest.raises(ValidationError, match=match):
        metropolis_run(tethered_toy(), steps, 0.25, seed=1, burn_in=burn_in)


def test_metropolis_rejects_a_start_of_zero_weight():
    # the chain starts each mobile at its tether anchor (the center when
    # untethered): an anchor outside the wall would leave every sample of
    # that mobile outside it, with no warning, and a start on a coupled
    # charge has infinite energy
    far = replace(
        tethered_toy().containers[0],
        mobile_charges=[(1.0, ("harmonic", 5.0, (2.0, 0.0, 0.0)))],
    )
    outside = ClassicalConfig((far, tethered_toy().containers[1]), 1.0, 2.0)
    with pytest.raises(
        ValidationError,
        match=r"container 'a' would start the chain at its tether anchor "
        r"\(2\.0, 0\.0, 0\.0\), outside the container",
    ):
        metropolis_run(outside, 5000, 0.25, seed=1)
    ion = Container(
        "a", "sphere", (0, 0, 0), 0.3, fixed_charges=[(1.0, (0, 0, 0))],
        mobile_charges=[(1.0, None)], include_intra=True,
    )
    on_charge = ClassicalConfig((ion, tethered_toy().containers[1]), 1.0, 2.0)
    with pytest.raises(
        ValidationError, match="on the fixed charge 1 of container 'a'"
    ):
        metropolis_run(on_charge, 5000, 0.25, seed=1)


@pytest.mark.parametrize(
    "d, tol, match",
    [
        ((NAN, 0, 0), 1e-8, "shift d must be a finite 3-vector"),
        ((0, 0, INF), 1e-8, "shift d must be a finite 3-vector"),
        ((0, 0, 0), NAN, "tol must be >= 0"),
        ((0, 0, 0), -1.0, "tol must be >= 0"),
    ],
)
def test_free_energy_rejects_nonfinite_shift_and_negative_tol(d, tol, match):
    # a NaN shift used to be reported as two containers that overlap, and a
    # NaN or negative tol ran the quadrature to its node budget
    a = Container("a", "sphere", (0, 0, 0), 0.3, mobile_charges=[(1.0, TETHER)])
    b = Container("b", "sphere", (0, 0, 1.2), 0.3, fixed_charges=[(-1.0, (0, 0, 0))])
    with pytest.raises(ValidationError, match=match):
        free_energy_quadrature(ClassicalConfig((a, b), 1.0, 2.0), d, tol=tol)


def test_coulomb_between_unit_charges():
    cfg = two_fixed_units(1.0)
    assert hamiltonian(cfg, np.zeros((0, 3))) == pytest.approx(1.0 / (4 * math.pi))
    assert hamiltonian(two_fixed_units(2.0), np.zeros((0, 3))) == pytest.approx(
        1.0 / (8 * math.pi)
    )


def test_zero_charges_leave_only_tethers():
    a = Container(
        "a",
        "sphere",
        (0, 0, 0),
        0.5,
        mobile_charges=[(0.0, ("harmonic", 4.0, (0, 0, 0)))],
    )
    b = Container("b", "sphere", (0, 0, 2.0), 0.5, fixed_charges=[(0.0, (0, 0, 0))])
    cfg = ClassicalConfig((a, b), 1.0, 1.0)
    pos = np.array([[0.1, 0.0, 0.2]])
    assert hamiltonian(cfg, pos) == pytest.approx(0.5 * 4.0 * (0.1**2 + 0.2**2))


def test_hard_wall_is_infinite():
    cfg = tethered_toy()
    pos = np.array([[0.0, 0.0, 0.4], [0.0, 0.0, 1.2]])  # first outside
    assert hamiltonian(cfg, pos) == math.inf


def test_rigid_shift_leaves_internal_energy_unchanged():
    # moving a container with its contents changes only cross terms
    a = Container(
        "a",
        "sphere",
        (0, 0, 0),
        0.5,
        fixed_charges=[(1.0, (0.1, 0, 0))],
        mobile_charges=[(1.0, ("harmonic", 3.0, (0, 0, 0.1)))],
        include_intra=True,
    )
    b = Container("b", "sphere", (0, 0, 3.0), 0.5, fixed_charges=[(2.0, (0, 0, 0))])
    cfg = ClassicalConfig((a, b), 1.0, 1.0)
    pos = np.array([[0.05, -0.03, 0.2]])
    d = np.array([0.2, -0.1, 0.3])
    shifted = _shifted(cfg, "a", d)
    # cross term only: 1*2/(4 pi r_fb) + 1*2/(4 pi r_mb)
    def cross(config, p):
        c_a, c_b = config.containers
        out = 0.0
        for q, rel in [(1.0, np.array([0.1, 0, 0])), (1.0, None)]:
            pa = p[0] if rel is None else np.asarray(c_a.center) + rel
            r = np.linalg.norm(pa - np.asarray(c_b.center))
            out += q * 2.0 / (4 * math.pi * r)
        return out

    internal = hamiltonian(cfg, pos) - cross(cfg, pos)
    internal_shifted = hamiltonian(shifted, pos + d) - cross(shifted, pos + d)
    assert internal_shifted == pytest.approx(internal, abs=1e-14)


def test_gradient_analytic_values_and_fd():
    # opposite unit charges at separation r: |grad| = 1/(4 pi r^2), attractive
    a = Container("a", "sphere", (0, 0, 0), 0.3, fixed_charges=[(1.0, (0, 0, 0))])
    b = Container("b", "sphere", (0, 0, 2.0), 0.3, fixed_charges=[(-1.0, (0, 0, 0))])
    cfg = ClassicalConfig((a, b), 1.0, 1.0)
    g = grad_d_hamiltonian(cfg, np.zeros((0, 3)), "a")
    assert g[0] == pytest.approx(0.0, abs=1e-15)
    assert g[1] == pytest.approx(0.0, abs=1e-15)
    # attractive: energy decreases as a moves toward b, so grad_z < 0
    assert g[2] == pytest.approx(-1.0 / (4 * math.pi * 4.0))

    cfg2 = tethered_toy()
    pos = np.array([[0.05, 0.02, -0.03], [0.1, -0.04, 1.15]])
    g2 = grad_d_hamiltonian(cfg2, pos, "a")
    h = 1e-6
    for axis in range(3):
        d = np.zeros(3)
        d[axis] = h
        hp = hamiltonian(_shifted(cfg2, "a", d), pos + np.array([d, [0, 0, 0]]))
        hm = hamiltonian(_shifted(cfg2, "a", -d), pos + np.array([-d, [0, 0, 0]]))
        assert g2[axis] == pytest.approx((hp - hm) / (2 * h), abs=1e-8)


def test_free_energy_no_mobiles_is_plain_energy():
    cfg = two_fixed_units(1.0)
    assert free_energy_quadrature(cfg, (0, 0, 0)) == pytest.approx(
        1.0 / (4 * math.pi)
    )
    # displacement enters through the cross term (shift away to keep the
    # containers disjoint)
    assert free_energy_quadrature(cfg, (0, 0, -0.5)) == pytest.approx(
        1.0 / (4 * math.pi * 1.5)
    )


def test_free_energy_high_temperature_limit():
    # one free mobile, no interactions: F -> -ln(V) / beta
    a = Container("a", "sphere", (0, 0, 0), 0.5, mobile_charges=[(0.0, None)])
    b = Container("b", "sphere", (0, 0, 2.0), 0.5, fixed_charges=[(0.0, (0, 0, 0))])
    for beta in (1e-3, 1e-2):
        cfg = ClassicalConfig((a, b), 1.0, beta)
        volume = 4.0 / 3.0 * math.pi * 0.5**3
        assert free_energy_quadrature(cfg, (0, 0, 0)) == pytest.approx(
            -math.log(volume) / beta, rel=1e-9
        )


def test_free_energy_mobile_cap():
    a = Container(
        "a",
        "sphere",
        (0, 0, 0),
        0.3,
        mobile_charges=[(1.0, None), (1.0, None)],
    )
    b = Container("b", "sphere", (0, 0, 2.0), 0.3, mobile_charges=[(1.0, None)])
    cfg = ClassicalConfig((a, b), 1.0, 1.0)
    with pytest.raises(CapabilityError):
        free_energy_quadrature(cfg, (0, 0, 0))


def test_free_energy_pair_kernel_memory_is_bounded():
    # two coupled mobiles at 16 nodes per axis (tol = inf stops there):
    # 4096 x 4096 point pairs, taken in bounded chunks
    cfg = tethered_toy()
    tracemalloc.start()
    try:
        free_energy_quadrature(cfg, (0, 0, 0), tol=math.inf, max_n=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_free_energy_quadrature_evaluates_no_more_than_max_n(monkeypatch):
    # tol = 0 never stabilizes: 8 and 16 nodes per axis are evaluated, and
    # the budget of 16 raises without a 32-node evaluation
    from casimir_stability import ConvergenceBudgetError, classical

    counts = []
    shape_nodes = classical._shape_nodes

    def recording(container, n):
        counts.append(n)
        return shape_nodes(container, n)

    monkeypatch.setattr(classical, "_shape_nodes", recording)
    tethered = [(1.0, ("harmonic", 5.0, (0, 0, 0)))]
    a = Container("a", "sphere", (0, 0, 0), 0.3, mobile_charges=tethered)
    b = Container("b", "sphere", (0, 0, 1.2), 0.3, fixed_charges=[(-1.0, (0, 0, 0))])
    cfg = ClassicalConfig((a, b), 1.0, 2.0)
    with pytest.raises(ConvergenceBudgetError):
        free_energy_quadrature(cfg, (0, 0, 0), tol=0.0, max_n=16)
    assert counts == [8, 16]


@pytest.mark.parametrize("max_n", [4, 0, 16.0, True])
def test_free_energy_quadrature_rejects_a_budget_below_eight_nodes(max_n):
    # the first evaluation takes 8 nodes per axis, so a smaller budget would
    # be exceeded before it is checked
    with pytest.raises(ValidationError, match="max_n must be an integer >= 8"):
        free_energy_quadrature(tethered_toy(), (0, 0, 0), max_n=max_n)


def test_free_energy_rejects_reachable_opposite_intra_charge():
    # exp(-beta H) is not integrable where a mobile meets an opposite
    # charge: another mobile of its include_intra container, or a fixed
    # charge inside it
    a = Container(
        "a",
        "sphere",
        (0, 0, 0),
        0.5,
        fixed_charges=[(-0.5, (0.1, 0, 0))],
        mobile_charges=[(0.8, ("harmonic", 4.0, (0, 0, 0.1)))],
        include_intra=True,
    )
    b = Container("b", "sphere", (0, 0, 2.0), 0.5, fixed_charges=[(1.0, (0, 0, 0))])
    two_mobiles = replace(
        a, fixed_charges=(), mobile_charges=((0.8, None), (-0.6, None))
    )
    for box, partner in ((a, "fixed charge -0.5"), (two_mobiles, "mobile charge -0.6")):
        cfg = ClassicalConfig((box, b), 1.3, 1.5)
        match = f"container 'a'.*{partner} of container 'a'"
        with pytest.raises(ValidationError, match=match):
            free_energy_quadrature(cfg, (0, 0, 0))
    # the same pairs are integrable without intra coupling, or with the
    # fixed charge outside the container the mobile explores
    outside = replace(a, fixed_charges=[(-0.5, (0, 0, 0.6))])
    for box in (replace(a, include_intra=False), outside):
        cfg = ClassicalConfig((box, b), 1.3, 1.5)
        f = free_energy_quadrature(cfg, (0, 0, 0), tol=math.inf, max_n=16)
        assert math.isfinite(f)


def test_metropolis_deterministic_and_seed_dependent():
    cfg = tethered_toy()
    s1 = metropolis_run(cfg, 5000, 0.25, seed=42)
    s2 = metropolis_run(cfg, 5000, 0.25, seed=42)
    s3 = metropolis_run(cfg, 5000, 0.25, seed=43)
    assert np.array_equal(s1.positions, s2.positions)
    assert not np.array_equal(s1.positions, s3.positions)


def test_metropolis_fetches_its_draws_in_blocks(monkeypatch):
    # the chain reads raw words from the bit generator, a block per call, and
    # calls no Generator method per step
    fetches, generator_calls = [], []

    class SpyBits:
        def __init__(self, bits):
            self._bits = bits

        def random_raw(self, size):
            fetches.append(size)
            return self._bits.random_raw(size)

    class SpyGenerator:
        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)
            self.bit_generator = SpyBits(self._rng.bit_generator)

        def __getattr__(self, name):
            generator_calls.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(classical, "default_rng", SpyGenerator)
    steps = 50000
    metropolis_run(tethered_toy(), steps, 0.25, seed=3)
    assert generator_calls == []
    assert set(fetches) == {classical._BLOCK}
    # per step, integers(2) takes half a word (2 divides 2**32, so Lemire's
    # rule never rejects), uniform(-1, 1, 3) three words and random() at most one
    fewest, most = (math.ceil(w * steps / classical._BLOCK) for w in (3.5, 4.5))
    assert fewest <= len(fetches) <= most + 1


def test_metropolis_uniform_law_in_box():
    # free particle in a box: coordinates uniform; chi-square on z-bins
    a = Container("a", "box", (0, 0, 0), (1.0, 1.0, 1.0), mobile_charges=[(0.0, None)])
    b = Container("b", "sphere", (0, 0, 3.0), 0.5, fixed_charges=[(0.0, (0, 0, 0))])
    cfg = ClassicalConfig((a, b), 1.0, 1.0)
    stream = metropolis_run(cfg, 400000, 0.3, seed=5)
    z = stream.positions[::40, 0, 2]  # thin to reduce autocorrelation
    counts, _ = np.histogram(z, bins=8, range=(-0.5, 0.5))
    assert stats.chisquare(counts).pvalue > 1e-3
    assert np.all(np.abs(stream.positions[:, 0, :]) <= 0.5)


def test_metropolis_concentrates_at_low_temperature():
    cfg = tethered_toy(beta=5e4, k=5.0)
    with pytest.warns(UserWarning, match="acceptance rate"):
        stream = metropolis_run(cfg, 40000, 0.01, seed=9)
    # tethered minimum near the anchor (slightly polarized by attraction)
    tail = stream.positions[-1000:, 0, :]
    assert np.linalg.norm(tail.mean(axis=0)) < 0.05
    assert tail.std() < 0.02


def test_metropolis_acceptance_warning():
    cfg = tethered_toy()
    with pytest.warns(UserWarning):
        metropolis_run(cfg, 2000, 50.0, seed=1)  # huge steps: mostly rejected


def test_estimator_frozen_charges_vanish():
    cfg = tethered_toy(beta=2.0, k=1e9)  # effectively frozen at the anchors
    stream = metropolis_run(cfg, 20000, 1e-5, seed=2)
    est = laplacian_F_estimator(cfg, "a", stream)
    assert est.mean == pytest.approx(0.0, abs=1e-8)
    assert est.mean <= 0.0


def test_estimator_nonpositive_and_seed_consistent():
    cfg = tethered_toy()
    e1 = laplacian_F_estimator(cfg, "a", metropolis_run(cfg, 150000, 0.25, seed=3))
    e2 = laplacian_F_estimator(cfg, "a", metropolis_run(cfg, 150000, 0.25, seed=4))
    assert e1.mean <= 0.0 and e2.mean <= 0.0
    assert abs(e1.mean - e2.mean) <= 3.0 * math.hypot(e1.stderr, e2.stderr)
    assert e1.n_samples == 135000
    assert e1.autocorrelation_time >= 0.5


def test_mcestimate_validation():
    with pytest.raises(ValidationError):
        McEstimate(0.0, -1.0, 10, 1.0)


def _pinned_square(v):
    x, y, z = (float(c) for c in v)
    return (x * x + y * y) + z * z


def test_squared_norms_are_summed_in_one_fixed_order():
    # the tether energy of hamiltonian and the estimator's squared gradient
    # deviations sum |v|^2 as (x x + y y) + z z, on every numpy build; the
    # points are chosen so that the order (x x + z z) + y y rounds otherwise
    rng = np.random.default_rng(0)
    points = [
        p for p in rng.uniform(-0.28, 0.28, (400, 3))
        if (p[0] * p[0] + p[2] * p[2]) + p[1] * p[1] != _pinned_square(p)
    ]
    assert len(points) >= 20
    a = Container(
        "a", "sphere", (0, 0, 0), 0.5, mobile_charges=[(0.0, ("harmonic", 4.0, (0, 0, 0)))]
    )
    b = Container("b", "sphere", (0, 0, 2.0), 0.5, fixed_charges=[(0.0, (0, 0, 0))])
    cfg = ClassicalConfig((a, b), 1.0, 1.0)
    for p in points:
        assert hamiltonian(cfg, p[None]) == 2.0 * _pinned_square(p)

    toy = tethered_toy()
    stream = metropolis_run(toy, 2000, 0.25, seed=5)
    grads = np.array([grad_d_hamiltonian(toy, pos, "a") for pos in stream.positions])
    center = grads.mean(axis=0)
    contrib = np.array([_pinned_square(g - center) for g in grads])
    assert laplacian_F_estimator(toy, "a", stream).mean == -toy.beta * float(contrib.mean())
