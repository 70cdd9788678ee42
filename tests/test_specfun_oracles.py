"""Special functions against arbitrary-precision oracles.

The 3j recursion is checked against sympy's exact symbols and against its
own normalization on every row an l_max = 20 coefficient table needs; the
log Bessel arrays against mpmath at 50 digits, at orders and arguments
where the plain values over- or underflow.
"""

import math

import mpmath
import numpy as np
import pytest
from sympy.physics.wigner import wigner_3j

from casimir_stability.specfun import log_bessel_i_array, log_bessel_k_array, wigner3j_rows

L_TOP = 20


def _spot_rows():
    rng = np.random.default_rng(11)
    rows = [
        (20, 20, 20, -20),  # stretched: the symbol falls to 3.4e-13 at j = 40
        (20, 20, 5, -5),  # jmin = 0, taken from the backward sweep
        (20, 19, 0, 0),  # odd j1 + j2 + j vanish exactly
        (20, 20, 0, 0),
        (17, 3, -3, 3),
        (1, 20, 1, -1),
    ]
    while len(rows) < 24:
        j1, j2 = (int(v) for v in rng.integers(0, L_TOP + 1, 2))
        rows.append((j1, j2, int(rng.integers(-j1, j1 + 1)), int(rng.integers(-j2, j2 + 1))))
    return rows


def test_wigner3j_rows_match_sympy_at_every_j():
    rows = _spot_rows()
    jmin, f = wigner3j_rows(*np.array(rows).T)
    for (j1, j2, m1, m2), j0, got in zip(rows, jmin.tolist(), f):
        for j in range(j0, j1 + j2 + 1):
            want = float(wigner_3j(j1, j2, j, m1, m2, -m1 - m2))
            assert abs(got[j - j0] - want) <= 1e-14, (j1, j2, j, m1, m2)
        assert np.all(got[j1 + j2 - j0 + 1 :] == 0.0)


def test_wigner3j_rows_normalized_on_the_l20_table():
    # sum_j (2j+1) (j1 j2 j; m1 m2 m3)^2 = 1 for every (l, l', m, -m')
    ls = range(L_TOP + 1)
    rows = np.array(
        [(l, lp, m, -mp) for l in ls for lp in ls
         for m in range(-l, l + 1) for mp in range(-lp, lp + 1)]
    )
    jmin, f = wigner3j_rows(*rows.T)
    j = jmin[:, None] + np.arange(f.shape[1])
    assert np.all(np.abs(((2 * j + 1) * f * f).sum(axis=1) - 1.0) <= 1e-13)


def _mp_log_bessel(l, x):
    """(log i_l(x), log k_l(x)) at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        nu = mpmath.mpf(l) + mpmath.mpf(1) / 2
        i = mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besseli(nu, x)
        k = mpmath.sqrt(2 / (mpmath.pi * x)) * mpmath.besselk(nu, x)
        return float(mpmath.log(i)), float(mpmath.log(k))


@pytest.mark.parametrize("x", [1e-8, 1e-3, 0.7, 40.0, 700.0])
def test_log_bessel_arrays_match_mpmath(x):
    orders = (0, 1, 13, 27, 60)
    log_i = log_bessel_i_array(max(orders), x)
    log_k = log_bessel_k_array(max(orders), x)
    for l in orders:
        want_i, want_k = _mp_log_bessel(l, x)
        assert abs(log_i[l] - want_i) <= 1e-13 * max(1.0, abs(want_i)), (l, x)
        assert abs(log_k[l] - want_k) <= 1e-13 * max(1.0, abs(want_k)), (l, x)
        assert math.isfinite(log_i[l]) and math.isfinite(log_k[l])
