import os
from pathlib import Path

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


def pec_pair(separation, radius=1.0, tau=0.0):
    a = pec_sphere((0.0, 0.0, 0.0), radius, "a")
    b = pec_sphere((0.0, 0.0, separation), radius, "b")
    return Configuration((a, b), Medium(), tau)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
