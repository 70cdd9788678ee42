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
from casimir_stability.translation import TranslationMatrix

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


def reverse_translation(x):
    """Translation matrix for -d from the one for +d (exact reciprocity), an oracle.

    X(-d) = D X(d)^T D, with D = +1 on the electric sector and -1 on the
    magnetic sector for vector waves, and D = 1 for scalar waves.  Applied
    to a displacement gradient dX/dd_i at d it gives minus that gradient
    at -d.  A leading kappa axis is kept, and the symmetric band exponent
    is shared with ``x``.  The package applies reciprocity to its balanced
    blocks as signs (``casimir._pair_blocks``) and has no whole-matrix form.
    """
    d_sign = np.ones(x.dim)
    if x.spin == "vector":
        d_sign[x.dim // 2 :] = -1.0
    return TranslationMatrix(
        kappa=x.kappa,
        displacement=-x.displacement,
        l_max=x.l_max,
        scaled=d_sign[:, None] * np.swapaxes(x.scaled, -1, -2) * d_sign[None, :],
        exponent=x.exponent,
        spin=x.spin,
    )


def pec_pair(separation, radius=1.0, tau=0.0):
    a = pec_sphere((0.0, 0.0, 0.0), radius, "a")
    b = pec_sphere((0.0, 0.0, separation), radius, "b")
    return Configuration((a, b), Medium(), tau)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
