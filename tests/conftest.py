import os
from pathlib import Path

import mpmath
import numpy as np
import pytest

# tests that start a subprocess import the package from this checkout too,
# also under a bare ``pytest`` that only puts src/ on its own sys.path
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

from casimir_stability import Configuration, DispersionModel, Medium, SphereObject

PEC = DispersionModel.perfect_conductor()
ONE = DispersionModel.constant(1.0)


@pytest.fixture
def vacuum():
    return Medium()


def pec_sphere(center, radius, label):
    return SphereObject(tuple(center), radius, PEC, ONE, label)


def dielectric_sphere(center, radius, eps_value, label, mu_value=1.0):
    return SphereObject(
        tuple(center),
        radius,
        DispersionModel.constant(eps_value),
        DispersionModel.constant(mu_value),
        label,
    )


def exact_log_det(m):
    """ln |det| of a float matrix: LU with partial pivoting in 40-digit arithmetic.

    The rows are numpy arrays of mpmath numbers, so that each elimination
    step is one array update.
    """
    with mpmath.workdps(40):
        a = np.array([[mpmath.mpf(x) for x in row] for row in m.tolist()], dtype=object)
        total = mpmath.mpf(0)
        for k in range(len(a)):
            p = k + int(np.argmax([abs(x) for x in a[k:, k]]))
            a[[k, p]] = a[[p, k]]
            total += mpmath.log(abs(a[k, k]))
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k + 1 :])
        return total


def pec_pair(separation, radius=1.0, tau=0.0):
    a = pec_sphere((0.0, 0.0, 0.0), radius, "a")
    b = pec_sphere((0.0, 0.0, separation), radius, "b")
    return Configuration((a, b), Medium(), tau)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
