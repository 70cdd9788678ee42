"""The log-factorial table of the special-function layer.

log n! = lgamma(n + 1) is read from one read-only table that grows to the
largest n yet asked for; the Bessel series and the binomial table of log k_l
read it.  It is checked against mpmath, for its growth, and for the rows of
an array call being the scalar calls bit for bit.
"""

import mpmath
import numpy as np
import pytest

from casimir_stability import specfun
from casimir_stability.specfun import log_bessel_i_array, log_bessel_k_array


@pytest.fixture
def fresh_tables(monkeypatch):
    """Both tables emptied for the test and restored after it."""
    monkeypatch.setattr(specfun, "_log_fact", np.zeros(0))
    monkeypatch.setattr(specfun, "_log_binom", np.zeros((0, 0)))


def _loggamma(n):
    with mpmath.workdps(40):
        return float(mpmath.loggamma(n + 1))


def test_table_matches_mpmath_loggamma(fresh_tables):
    table = specfun._log_factorials(3001)
    assert table[:2].tolist() == [0.0, 0.0]
    want = np.array([_loggamma(n) for n in range(2, 3001)])
    assert np.all(np.abs(table[2:] - want) <= 6e-16 * want)
    table = specfun._log_factorials(10**6 + 1)
    for n in (10**4, 10**5, 10**6):
        assert abs(table[n] - _loggamma(n)) <= 6e-16 * _loggamma(n), n


def test_table_is_read_only_and_grows_without_changing_its_leading_entries(fresh_tables):
    first = specfun._log_factorials(40).copy()
    log_bessel_i_array(6, 50.0)  # asks for 2 (l_max + 1.5 x + 40) entries
    assert len(specfun._log_fact) == 2 * (6 + 115)
    assert not specfun._log_fact.flags.writeable
    with pytest.raises(ValueError):
        specfun._log_fact[3] = 0.0
    assert np.array_equal(specfun._log_factorials(40), first)
    # a lower n is a view of the leading entries, not a rebuild
    assert specfun._log_factorials(40).base is specfun._log_fact


def test_binomial_table_is_read_from_the_factorials(fresh_tables):
    log_bessel_k_array(12, 0.5)
    lf = specfun._log_fact
    ell, j = np.arange(13)[:, None], np.arange(13)[None, :]
    jj = np.minimum(j, ell)
    want = np.where(j <= ell, lf[ell + jj] - lf[jj] - lf[ell - jj], -np.inf)
    assert np.array_equal(specfun._log_binom, want)


@pytest.mark.parametrize("scalar_first", [False, True])
def test_array_rows_are_the_scalar_calls_bit_for_bit(fresh_tables, scalar_first):
    # whichever call grows the table, the rows of an array of x equal the
    # scalar calls: every row reads the same leading entries
    x = np.array([1e-3, 0.7, 2.5, 30.0, 400.0])
    scalars = [log_bessel_i_array(12, v) for v in x.tolist()] if scalar_first else None
    rows = log_bessel_i_array(12, x)
    if scalars is None:
        scalars = [log_bessel_i_array(12, v) for v in x.tolist()]
    for row, want in zip(rows, scalars):
        assert np.array_equal(row, want)
