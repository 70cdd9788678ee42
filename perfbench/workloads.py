"""The benchmark's workloads: CLI ops, their configs and their output checks.

Each workload is a closed loop with one client: its ops run in order, each
a ``casimir_stability.cli.run`` call that writes one CSV file.  The seed
only changes inputs where the work done stays the same: the number of
quadrature nodes, Matsubara terms, translation builds and Metropolis steps
is fixed by l_max, the node counts and the step count, and rigid rotations
or small shifts leave the adaptive refinements far from their thresholds.
"""

import functools
import math
import random
from dataclasses import dataclass, field

import checks

TOL = 1e-6

# Laplacian of the classical free energy of the two-container toy (acceptance
# criterion 7), by Richardson-extrapolated central differences (h = 0.1 and
# 0.05) of classical.free_energy_quadrature.
MC_REFERENCE = -1.0519373513299495e-03


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``<command> <config> [args] --output <csv>``."""

    command: str
    config: dict
    check: object
    args: tuple = field(default=())


def _sphere(label, center, radius, eps):
    return {"label": label, "center": [float(c) for c in center],
            "radius": radius, "eps": eps}


def _rotation(rng):
    """Uniformly random rotation matrix (Shoemake's quaternion method)."""
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    w, x = a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2)
    y, z = b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def _rotate(rot, v):
    return [sum(r * c for r, c in zip(row, v)) for row in rot]


def _toward_nearest(objects, label):
    """Unit vector from the labelled sphere to the nearest other centre."""
    me = next(o for o in objects if o["label"] == label)
    gaps = [
        (math.dist(me["center"], o["center"]) - me["radius"] - o["radius"], o)
        for o in objects if o is not me
    ]
    other = min(gaps, key=lambda g: g[0])[1]
    d = [b - a for a, b in zip(me["center"], other["center"])]
    n = math.hypot(*d)
    return tuple(c / n for c in d)


def pair_axial(seed):
    """Two PEC spheres on the z axis: cold energy, warm sweep, stability."""
    rng = random.Random(seed)
    d = 4.0 + rng.uniform(-0.05, 0.05)
    pec = {"type": "pec"}
    objects = [_sphere("a", (0, 0, 0), 1.0, pec), _sphere("b", (0, 0, d), 1.0, pec)]
    base = {"objects": objects, "tau": 0.0, "l_max": 6, "n_nodes": 12,
            "tolerance": TOL, "stability": {"object": "a"}}
    # b moves away from a along +z, one point per half unit
    values = [0.5 * k + rng.uniform(-0.1, 0.1) for k in (1, 2, 3)]
    sweep = dict(base, sweep={"object": "b", "axis": 2, "values": values,
                              "quantity": "energy"})
    return [
        Op("energy", base, functools.partial(checks.check_energy, tol=TOL)),
        Op("sweep", sweep, functools.partial(checks.check_sweep, n_points=3)),
        Op("stability", base, functools.partial(
            checks.check_stability, toward=_toward_nearest(objects, "a"))),
    ]


def triple_general(seed):
    """Three dielectric spheres in a randomly rotated, non-collinear frame."""
    rng = random.Random(seed)
    rot = _rotation(rng)
    layout = [
        ("a", (0.0, 0.0, 0.0), 1.0, 4.0),
        ("b", (3.0, 0.0, 0.5), 0.8, 3.0),
        ("c", (0.6, 3.1, 1.0), 0.6, 5.0),
    ]
    objects = []
    for label, center, radius, eps in layout:
        shift = [0.0] * 3 if label == "a" else [rng.uniform(-0.03, 0.03) for _ in range(3)]
        moved = _rotate(rot, [c + s for c, s in zip(center, shift)])
        objects.append(_sphere(label, moved, radius, {"type": "constant", "value": eps}))
    config = {"objects": objects, "tau": 0.0, "l_max": 5, "n_nodes": 12,
              "tolerance": TOL, "stability": {"object": "a"}}
    return [
        Op("stability", config, functools.partial(
            checks.check_stability, toward=_toward_nearest(objects, "a"))),
        Op("energy", config, functools.partial(checks.check_energy, tol=TOL)),
    ]


def thermal_matsubara(seed):
    """Small PEC pair at low tau (423 Matsubara terms), Drude plates.

    The seed turns the pair axis; the Matsubara sum depends only on the
    separation, so the term count is the same for every seed.
    """
    rng = random.Random(seed)
    axis = _rotate(_rotation(rng), (0.0, 0.0, 1.0))
    radius, gap = 0.25, 1.0
    pec = {"type": "pec"}
    objects = [
        _sphere("a", (0, 0, 0), radius, pec),
        _sphere("b", [(2 * radius + gap) * c for c in axis], radius, pec),
    ]
    pair = {"objects": objects, "tau": 0.02, "l_max": 4, "tolerance": TOL}
    drude = {"eps": {"type": "drude", "omega_p": 9.0, "gamma": 0.035}}
    plates = {"plates": {"material1": drude, "material2": drude, "gap": 1.0,
                         "tau": 0.1}}
    return [
        Op("energy", pair, functools.partial(checks.check_energy, tol=TOL)),
        Op("plates", plates, checks.check_plates),
    ]


def classical_mc(seed):
    """Metropolis chain on the criterion-7 two-container toy."""
    def container(label, z, charge):
        return {"label": label, "shape": "sphere", "center": [0.0, 0.0, z],
                "size": 0.3,
                "mobile_charges": [{"charge": charge, "tether": {"k": 5.0}}]}

    config = {"classical": {
        "label": "a", "beta": 2.0, "steps": 50000, "step_size": 0.25,
        "containers": [container("a", 0.0, 1.0), container("b", 1.2, -1.0)],
    }}
    check = functools.partial(checks.check_mc, reference=MC_REFERENCE)
    return [Op("mc", config, check, ("--seed", str(seed % 2**32)))]


WORKLOADS = {
    "pair-axial": pair_axial,
    "triple-general": triple_general,
    "thermal-matsubara": thermal_matsubara,
    "classical-mc": classical_mc,
}
