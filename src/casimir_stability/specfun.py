"""Modified spherical Bessel functions and Wigner 3j coefficients.

Normalization (used everywhere in this package)
-----------------------------------------------
    i_l(x) = sqrt(pi / (2 x)) * I_{l+1/2}(x)
    k_l(x) = sqrt(2 / (pi x)) * K_{l+1/2}(x)

With this choice ``i_0(x) = sinh(x)/x`` and ``k_0(x) = exp(-x)/x``, and the
Wronskian is

    i_l(x) * k_l'(x) - i_l'(x) * k_l(x) = -1 / x**2 .

Both families satisfy the recurrences

    f_{l-1}(x) - f_{l+1}(x) = (2l+1)/x * f_l(x)
    i_l'(x) =  i_{l+1}(x) + (l/x) i_l(x)
    k_l'(x) = -k_{l+1}(x) + (l/x) k_l(x)

All values are computed from all-positive-term series, so they are stable for
large order and argument; log-space variants are provided for use where the
plain values would over- or underflow.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = [
    "mod_sph_bessel_i",
    "mod_sph_bessel_k",
    "log_bessel_i_array",
    "log_bessel_k_array",
    "wigner3j",
]

# exp() overflows just above this; used to decide when to hand back the
# scaled representation
_LOG_MAX = math.log(np.finfo(float).max) - 2.0


def _logsumexp_rows(a):
    """log(sum(exp(a), axis=1)) for rows with a finite maximum.

    scipy.special.logsumexp's formula, without its array-API dispatch, which
    costs more than the sum: the m entries equal to the row maximum are
    counted, not exponentiated, and the rest enter as log1p(sum / m).
    """
    top = a.max(axis=1)
    at_top = a == top[:, None]
    m = at_top.sum(axis=1, dtype=float)
    s = np.exp(np.where(at_top, -np.inf, a) - top[:, None]).sum(axis=1) / m
    return np.log1p(s) + np.log(m) + top


def log_bessel_i_array(l_max, x):
    """log(i_l(x)) for l = 0..l_max, via the ascending series.

    i_l(x) = x^l * sum_k (x^2/2)^k / (k! (2l+2k+1)!!); every term is
    positive, so the log-sum-exp is exact up to rounding.

    Parameters
    ----------
    l_max : int
    x : float, > 0

    Returns
    -------
    ndarray, shape (l_max+1,) of log i_l(x)
    """
    if x <= 0.0:
        raise ValueError("argument must be positive")
    return _log_i_cached(int(l_max), float(x)).copy()


@lru_cache(maxsize=8192)
def _log_i_cached(l_max, x):
    # enough terms that the last one is negligible: series behaves like exp(x)
    n_terms = max(30, int(1.5 * x) + 40)
    k = np.arange(n_terms)
    ell = np.arange(l_max + 1)
    log_half_x2 = 2.0 * math.log(x) - math.log(2.0)
    # log (2l+2k+1)!! = lgamma(2n+2) - n log 2 - lgamma(n+1) with n = l+k
    n = ell[:, None] + k[None, :]
    log_ddfact = gammaln(2 * n + 2) - n * math.log(2.0) - gammaln(n + 1)
    log_terms = (
        ell[:, None] * math.log(x)
        + k[None, :] * log_half_x2
        - gammaln(k + 1)[None, :]
        - log_ddfact
    )
    out = _logsumexp_rows(log_terms)
    out.flags.writeable = False
    return out


def log_bessel_k_array(l_max, x):
    """log(k_l(x)) for l = 0..l_max, via the finite closed form.

    k_l(x) = (e^-x / x) * sum_{j=0}^{l} (l+j)! / (j! (l-j)! (2x)^j); all
    terms positive.
    """
    if x <= 0.0:
        raise ValueError("argument must be positive")
    return _log_k_cached(int(l_max), float(x)).copy()


@lru_cache(maxsize=8192)
def _log_k_cached(l_max, x):
    ell = np.arange(l_max + 1)[:, None]
    j = np.arange(l_max + 1)[None, :]
    valid = j <= ell
    jj = np.where(valid, j, 0)
    log_terms = np.where(
        valid,
        gammaln(ell + jj + 1)
        - gammaln(jj + 1)
        - gammaln(ell - jj + 1)
        - jj * math.log(2.0 * x),
        -np.inf,
    )
    out = -x - math.log(x) + _logsumexp_rows(log_terms)
    out.flags.writeable = False
    return out


def _pair_from_logs(log_f, log_f_next, l, x, deriv_sign):
    """(value, derivative) from log f_l, log f_{l+1}; deriv_sign = +1 for i, -1 for k."""
    # f' = deriv_sign * f_{l+1} + (l/x) f_l
    log_scale = max(log_f, log_f_next)
    if log_scale <= _LOG_MAX and log_scale >= -_LOG_MAX:
        v = math.exp(log_f)
        d = deriv_sign * math.exp(log_f_next) + (l / x) * v
        return v, d
    # scaled representation: (value, derivative, exponent), f = value*e^exponent
    v = math.exp(log_f - log_scale)
    d = deriv_sign * math.exp(log_f_next - log_scale) + (l / x) * v
    return v, d, log_scale


def mod_sph_bessel_i(l, x):
    """Modified spherical Bessel function i_l and its derivative.

    Returns ``(value, derivative)``.  If the result is not representable in
    float64 the scaled form ``(value, derivative, exponent)`` is returned
    instead, with the true function equal to ``value * exp(exponent)``.
    """
    logs = log_bessel_i_array(l + 1, x)
    return _pair_from_logs(logs[l], logs[l + 1], l, x, +1.0)


def mod_sph_bessel_k(l, x):
    """Modified spherical Bessel function k_l (k_0 = e^-x/x) and derivative.

    Same return convention as :func:`mod_sph_bessel_i`.
    """
    logs = log_bessel_k_array(l + 1, x)
    return _pair_from_logs(logs[l], logs[l + 1], l, x, -1.0)


# ---------------------------------------------------------------------------
# Wigner 3j


@lru_cache(maxsize=200000)
def _wigner3j_exact(l1, l2, l3, m1, m2, m3):
    """(sign, log of |3j|) computed in exact rational arithmetic.

    The alternating Racah sum is evaluated with Fractions, which removes the
    catastrophic cancellation of floating-point evaluation; only the final
    square root and exp are inexact.
    """
    f = math.factorial
    # triangle prefactor, exact rational
    pre = Fraction(
        f(l1 + l2 - l3) * f(l1 - l2 + l3) * f(-l1 + l2 + l3), f(l1 + l2 + l3 + 1)
    )
    pre *= (
        f(l1 - m1) * f(l1 + m1) * f(l2 - m2) * f(l2 + m2) * f(l3 - m3) * f(l3 + m3)
    )
    t_min = max(0, l2 - l3 - m1, l1 - l3 + m2)
    t_max = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = Fraction(0)
    for t in range(t_min, t_max + 1):
        denom = (
            f(t)
            * f(l3 - l2 + m1 + t)
            * f(l3 - l1 - m2 + t)
            * f(l1 + l2 - l3 - t)
            * f(l1 - m1 - t)
            * f(l2 + m2 - t)
        )
        s += Fraction((-1) ** t, denom)
    if s == 0:
        return 0, -math.inf
    phase = (-1) ** (l1 - l2 - m3)
    sign = phase * (1 if s > 0 else -1)
    log_abs = (
        0.5 * (math.log(pre.numerator) - math.log(pre.denominator))
        + math.log(abs(s.numerator))
        - math.log(s.denominator)
    )
    return sign, log_abs


def wigner3j(l1, l2, l3, m1, m2, m3):
    """Wigner 3j symbol (l1 l2 l3; m1 m2 m3) for integer arguments.

    Selection rules (m1+m2+m3 = 0, triangle inequality, |m_i| <= l_i with
    the last enforced as a precondition) return exactly 0.
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if abs(m) > l:
            raise ValueError("requires |m| <= l")
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    sign, log_abs = _wigner3j_exact(l1, l2, l3, m1, m2, m3)
    if sign == 0:
        return 0.0
    return sign * math.exp(log_abs)
