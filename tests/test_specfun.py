"""Special-function layer: modified spherical Bessels and Wigner 3j."""

import math

import numpy as np
import pytest

from casimir_stability.specfun import (
    log_bessel_i_array,
    log_bessel_k_array,
    mod_sph_bessel_i,
    mod_sph_bessel_k,
    wigner3j,
)


def test_low_order_closed_forms():
    x = 0.9
    i0, i0p = mod_sph_bessel_i(0, x)
    assert i0 == pytest.approx(math.sinh(x) / x, rel=1e-14)
    assert i0p == pytest.approx(
        (x * math.cosh(x) - math.sinh(x)) / x**2, rel=1e-13
    )
    k0, k0p = mod_sph_bessel_k(0, x)
    assert k0 == pytest.approx(math.exp(-x) / x, rel=1e-14)
    assert k0p == pytest.approx(-math.exp(-x) * (1 + x) / x**2, rel=1e-13)
    i1, _ = mod_sph_bessel_i(1, x)
    assert i1 == pytest.approx(
        (x * math.cosh(x) - math.sinh(x)) / x**2, rel=1e-13
    )


def _scaled(out):
    if len(out) == 3:
        return out
    return out[0], out[1], 0.0


@pytest.mark.parametrize("x", [1e-4, 0.3, 2.7, 40.0, 700.0])
@pytest.mark.parametrize("l", [0, 1, 5, 20])
def test_wronskian(l, x):
    # i_l'(x) k_l(x) - i_l(x) k_l'(x) = 1 / x^2, in scaled form for large x
    iv, ip_, ie = _scaled(mod_sph_bessel_i(l, x))
    kv, kp, ke = _scaled(mod_sph_bessel_k(l, x))
    w = (ip_ * kv - iv * kp) * math.exp(ie + ke)
    assert w == pytest.approx(1.0 / x**2, rel=1e-10)


def test_log_arrays_monotone_and_consistent():
    x = 3.1
    li = log_bessel_i_array(12, x)
    lk = log_bessel_k_array(12, x)
    # i decreases and k increases with order at fixed moderate argument
    assert np.all(np.diff(li) < 0)
    assert np.all(np.diff(lk) > 0)
    v, _ = mod_sph_bessel_i(7, x)
    assert math.log(v) == pytest.approx(li[7], rel=1e-12)


def test_k_array_reads_one_table_grown_to_the_largest_order(monkeypatch):
    # a lower order after a higher one reads the leading block of the grown
    # table and returns the bits of a first call; rows of an array of x are
    # the scalar calls, and the table cannot be written through
    from casimir_stability import specfun

    x = np.array([1e-3, 0.7, 30.0])
    monkeypatch.setattr(specfun, "_log_binom", np.zeros((0, 0)))
    first = log_bessel_k_array(5, x)
    log_bessel_k_array(30, 2.0)
    assert specfun._log_binom.shape == (31, 31)
    assert not specfun._log_binom.flags.writeable
    assert np.array_equal(log_bessel_k_array(5, x), first)
    for row, v in zip(first, x):
        assert np.array_equal(row, log_bessel_k_array(5, float(v)))


def test_extreme_arguments_no_overflow():
    li = log_bessel_i_array(5, 1e-8)
    lk = log_bessel_k_array(5, 1e-8)
    assert np.all(np.isfinite(li))
    assert np.all(np.isfinite(lk))
    # small-argument laws: i_l ~ x^l / (2l+1)!!, k_l ~ (2l-1)!! / x^(l+1)
    assert li[3] == pytest.approx(3 * math.log(1e-8) - math.log(105.0), rel=1e-9)
    assert lk[3] == pytest.approx(-4 * math.log(1e-8) + math.log(15.0), rel=1e-9)
    big = log_bessel_i_array(3, 5000.0)
    assert np.all(np.isfinite(big))
    assert big[0] == pytest.approx(5000.0 - math.log(2 * 5000.0), rel=1e-12)


def test_wigner3j_selection_rules():
    assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0  # triangle violated
    assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0  # odd sum at zero m
    assert wigner3j(2, 2, 1, 1, -1, 1) == 0.0  # m's don't sum to zero
    with pytest.raises(ValueError):
        wigner3j(1, 1, 2, 2, -2, 0)


def test_wigner3j_known_values():
    assert wigner3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 15.0))
    assert wigner3j(1, 1, 0, 1, -1, 0) == pytest.approx(1.0 / math.sqrt(3.0))
    assert wigner3j(2, 2, 4, 0, 0, 0) == pytest.approx(math.sqrt(2.0 / 35.0))
    # generic values against an independent implementation
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    for args in [(5, 4, 3, 2, -1, -1), (6, 6, 8, 3, -5, 2), (3, 2, 1, 0, 0, 0)]:
        assert wigner3j(*args) == pytest.approx(
            float(sympy_wigner.wigner_3j(*args)), abs=1e-14
        )


def test_wigner3j_orthogonality():
    # sum_{m1,m2} (2j+1) [3j]^2 = 1 for each admissible j
    j1, j2 = 3, 2
    # sum_{m1} (2j+1) [3j(j1 j2 j; m1, m2, m3)]^2 = 1 at fixed (j, m3)
    for j in range(abs(j1 - j2), j1 + j2 + 1):
        for m3 in range(-j, j + 1):
            acc = 0.0
            for m1 in range(-j1, j1 + 1):
                m2 = -(m1 + m3)
                if abs(m2) > j2:
                    continue
                acc += (2 * j + 1) * wigner3j(j1, j2, j, m1, m2, m3) ** 2
            assert acc == pytest.approx(1.0, rel=1e-12)
