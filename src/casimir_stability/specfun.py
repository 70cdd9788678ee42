"""Modified spherical Bessel functions and Wigner 3j symbols.

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
plain values would over- or underflow.  They take one argument or a 1-D
array of them, one row each, every row equal to the single-argument call.
No values are cached.  The factorials come from one read-only table,
log n! = lgamma(n + 1) at [n], kept for the largest n yet asked for: it
grows by appending, so its leading entries never change.  log i_l reads
log (2m+1)!! and log k! from it, and log k_l reads the logs of its binomial
factors from a second table, built from the first for the largest order
yet asked for.

Wigner 3j symbols
-----------------
:func:`wigner3j_rows` returns (j1 j2 j; m1 m2 -m1-m2) for every allowed j of
whole arrays of (j1, j2, m1, m2) rows, from the three-term recursion in j of
Schulten & Gordon (J. Math. Phys. 16, 1961, 1975), run forward and backward
and joined inside the classically allowed range, then normalized by
sum_j (2j+1) f^2 = 1 in extended precision (see Luscombe & Luban, Phys. Rev.
E 57, 7274, 1998).  It agrees with exact rational values to a few 1e-16 up
to j1, j2 = 20.  Exact zeros are returned as exactly 0 at every order: a
symbol far below its neighbours is tested with the same recursion in
integers.  :func:`wigner3j` is its scalar view with the usual selection
rules.
"""

import math

import numpy as np

from .errors import _finite_array

__all__ = [
    "mod_sph_bessel_i",
    "mod_sph_bessel_k",
    "log_bessel_i_array",
    "log_bessel_k_array",
    "wigner3j",
    "wigner3j_rows",
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
    rest = np.where(at_top, -np.inf, a)
    rest -= top[:, None]
    s = np.exp(rest, out=rest).sum(axis=1) / m
    return np.log1p(s) + np.log(m) + top


def _arguments(x):
    """``x`` as a 1-D array of finite positive floats, else ValidationError."""
    return np.array(_finite_array(x, "argument"), ndmin=1)


# log n! at [n] for n below its length: one read-only table for the largest
# n yet asked for, grown by appending, so a lower n reads the bits of a
# first call (8 bytes an entry: 2.4 MB for an i-series at x = 1e5)
_log_fact = np.zeros(0)


def _log_factorials(n):
    """log 0!, ..., log (n-1)! from the log-factorial table, grown if needed."""
    global _log_fact
    have = len(_log_fact)
    if have < n:
        new = np.fromiter(map(math.lgamma, range(have + 1, n + 1)), float, n - have)
        table = np.concatenate([_log_fact, new])
        table.setflags(write=False)
        _log_fact = table
    return _log_fact[:n]


def log_bessel_i_array(l_max, x):
    """log(i_l(x)) for l = 0..l_max, via the ascending series.

    i_l(x) = x^l * sum_k (x^2/2)^k / (k! (2l+2k+1)!!); every term is
    positive, so the log-sum-exp is exact up to rounding.

    Parameters
    ----------
    l_max : int
    x : float > 0, or a 1-D array of them

    Returns
    -------
    ndarray of log i_l(x), shape (l_max+1,), or one such row per x

    The number of series terms grows with x, and a row is summed over
    exactly its own terms: the arguments are evaluated in groups of equal
    length, so every row equals the one a scalar call returns.
    """
    xs = _arguments(x)
    # enough terms that the last one is negligible: series behaves like exp(x)
    groups = {}
    for r, v in enumerate(xs.tolist()):
        groups.setdefault(max(30, int(1.5 * v) + 40), []).append(r)
    top = max(groups, default=0)
    # log (2m+1)!! = log (2m+1)! - m log 2 - log m!, taken at m = l+k
    m = np.arange(l_max + top)
    log_fact = _log_factorials(2 * len(m))
    log_ddfact = log_fact[2 * m + 1] - m * math.log(2.0) - log_fact[m]
    log_k_fact = log_fact[:top]
    ell = np.arange(l_max + 1)[:, None]
    out = np.empty((xs.size, l_max + 1))
    for n_terms, rows in groups.items():
        k = m[None, :n_terms]
        log_x = np.array([math.log(v) for v in xs[rows].tolist()])[:, None, None]
        # summed in place, left to right
        log_terms = ell * log_x + k * (2.0 * log_x - math.log(2.0))
        log_terms -= log_k_fact[:n_terms]
        log_terms -= log_ddfact[ell + k]
        out[rows] = _logsumexp_rows(log_terms.reshape(-1, n_terms)).reshape(len(rows), -1)
    return out if np.ndim(x) else out[0]


# log (l+j)! / (j! (l-j)!) at [l, j], -inf for j > l: one read-only table for
# the largest order yet asked for, whose leading block serves every lower
# order, so it holds 8 (l_max+1)^2 bytes (1.3 MB at l_max 401, the largest
# a translation at MAX_MULTIPOLE_ORDER asks for)
_log_binom = np.zeros((0, 0))


def _binomial_logs(n):
    """The leading n x n block of the log-binomial table, grown if needed."""
    global _log_binom
    if len(_log_binom) < n:
        ell = np.arange(n)[:, None]
        j = np.arange(n)[None, :]
        jj = np.where(j <= ell, j, 0)
        log_fact = _log_factorials(2 * n)
        table = log_fact[ell + jj] - log_fact[jj] - log_fact[ell - jj]
        table = np.where(j <= ell, table, -np.inf)
        table.setflags(write=False)
        _log_binom = table
    return _log_binom[:n, :n]


def log_bessel_k_array(l_max, x):
    """log(k_l(x)) for l = 0..l_max, via the finite closed form.

    k_l(x) = (e^-x / x) * sum_{j=0}^{l} (l+j)! / (j! (l-j)! (2x)^j); all
    terms positive.  ``x`` may be a 1-D array: one row per argument, each
    equal to the scalar call's.
    """
    xs = _arguments(x)
    n = l_max + 1
    log_2x = np.array([math.log(2.0 * v) for v in xs.tolist()])[:, None, None]
    log_terms = _binomial_logs(n) - np.arange(n) * log_2x
    sums = _logsumexp_rows(log_terms.reshape(-1, n)).reshape(xs.size, n)
    log_x = np.array([math.log(v) for v in xs.tolist()])
    out = (-xs - log_x)[:, None] + sums
    return out if np.ndim(x) else out[0]


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

# a symbol below this fraction of a neighbour in j is tested for an exact
# zero: on every row with j1, j2 <= 26 the residue of an exact zero stays
# under 1e-14 of its larger neighbour and a nonzero symbol above 5e-6 of it
_ZERO_SCREEN = 1e-10


def _exact_zeros(j1, j2, m1, m2):
    """Offsets k (j = jmin + k) at which (j1 j2 j; m1 m2 -m1-m2) is exactly 0.

    The backward recursion of :func:`wigner3j_rows` in integers:
    H(j1 + j2) = 1 and H(j - 1) = -B(j) H(j) - j (j + 2) A(j + 1)^2 H(j + 1)
    give the symbol at j as H(j) times a factor that does not vanish.
    """
    m3 = -(m1 + m2)
    jmin, jmax = max(abs(j1 - j2), abs(m3)), j1 + j2
    c = (j1 * (j1 + 1) - j2 * (j2 + 1)) * m3
    h, h_up, zeros = 1, 0, []
    for j in range(jmax, jmin, -1):
        jj = (j + 1) ** 2
        a2 = (jj - (j1 - j2) ** 2) * ((jmax + 1) ** 2 - jj) * (jj - m3 * m3)
        b = (2 * j + 1) * (j * (j + 1) * (m2 - m1) - c)
        h, h_up = -b * h - j * (j + 2) * a2 * h_up, h
        if h == 0:
            zeros.append(j - 1 - jmin)
    return zeros


def wigner3j_rows(j1, j2, m1, m2):
    """(j1 j2 j; m1 m2 -m1-m2) for every j = jmin..j1+j2, one row per input.

    Parameters
    ----------
    j1, j2, m1, m2 : integers or integer arrays, broadcast together and
        flattened into rows, with |m1| <= j1 and |m2| <= j2

    Returns
    -------
    jmin : int array, max(|j1 - j2|, |m1 + m2|) of each row
    f : ndarray, shape (rows, width); ``f[r, k]`` is the symbol at
        j = jmin[r] + k, and 0 past j1 + j2

    The three-term recursion of Schulten & Gordon (J. Math. Phys. 16, 1961,
    1975) in j,

        j A(j+1) f(j+1) + B(j) f(j) + (j+1) A(j) f(j-1) = 0,
        A(j) = sqrt((j^2 - (j1-j2)^2) ((j1+j2+1)^2 - j^2) (j^2 - m3^2)),
        B(j) = (2j+1) [j(j+1)(m2 - m1) - (j1(j1+1) - j2(j2+1)) m3],

    is run forward from jmin and backward from j1 + j2, each starting from 1.
    Each sweep is stable from its own end through the classically allowed
    range, so the two are joined where the forward |f| first stops growing:
    forward values up to that point, the rescaled backward ones above it.
    Rows with jmin = 0 (j1 = j2, m3 = 0), where the forward step divides by
    zero, take the backward sweep throughout.  The row is normalized to
    sum_j (2j+1) f^2 = 1, in long double precision, with the sign of
    (-1)^(j1-j2-m3) at j = j1 + j2.

    Exact zeros come out as exactly 0.  Rows with B = 0 (m1 = m2 = 0, or
    j1 = j2 and m1 = m2) alternate between zeros, which both sweeps leave at
    0, and nonzero symbols.  Any other zero lies between nonzero neighbours
    and leaves a rounding residue far below them; a symbol under 1e-10 of a
    neighbour is tested with the recursion in integers (:func:`_exact_zeros`)
    and set to 0 only if it vanishes exactly.
    """
    j1, j2, m1, m2 = (
        np.ravel(v)
        for v in np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (j1, j2, m1, m2)))
    )
    m3 = -(m1 + m2)
    jmin = np.maximum(np.abs(j1 - j2), np.abs(m3))
    n = j1 + j2 - jmin + 1
    # rows by decreasing length, so that the rows a sweep still runs at step
    # k are a prefix: alive[k] rows have n > k
    order = np.argsort(-n, kind="stable")
    j1, j2, m1, m2, m3, n, j_lo = (v[order] for v in (j1, j2, m1, m2, m3, n, jmin))
    width = int(n[0])
    alive = np.searchsorted(-n, -np.arange(width + 1), side="left")
    d2, s2, q2 = (v.astype(float) for v in ((j1 - j2) ** 2, (j1 + j2 + 1) ** 2, m3 * m3))
    c = ((j1 * (j1 + 1) - j2 * (j2 + 1)) * m3).astype(float)
    dm = (m2 - m1).astype(float)

    def a_of(j):
        # the integer factors and their product are exact in floats
        jj, r = j * j, j.size
        return np.sqrt(np.maximum((jj - d2[:r]) * (s2[:r] - jj) * (jj - q2[:r]), 0.0))

    def b_of(j):
        return (2.0 * j + 1.0) * (j * (j + 1.0) * dm[: j.size] - c[: j.size])

    rows = np.arange(j1.size)
    k = np.arange(width)[:, None]
    # f[k] holds j = j_lo + k; row `width` takes backward values not kept
    f = np.zeros((width + 1, j1.size))
    f[0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # forward from jmin; the rows with jmin = 0 divide by zero here and
        # take the backward sweep throughout
        j = j_lo.astype(float)
        prev, a_j, a_up = np.zeros(j1.size), a_of(j), a_of(j + 1.0)
        for step in range(width - 1):
            r = alive[step + 1]
            j, prev, a_j, a_up = j[:r], prev[:r], a_j[:r], a_up[:r]
            f[step + 1, :r] = -(b_of(j) * f[step, :r] + (j + 1.0) * a_j * prev) / (j * a_up)
            prev = f[step, :r]
            j = j + 1.0
            a_j, a_up = a_up, a_of(j + 1.0)
        mag = np.abs(f[:width])
        stop = k == n - 1
        stop[:-1] |= mag[1:] < mag[:-1]
        join = np.where(j_lo == 0, 0, stop.argmax(axis=0))

        # backward from j1 + j2, kept above the join and matched at it
        j = (j1 + j2).astype(float)
        cur, prev, a_j, a_up = np.ones(j1.size), np.zeros(j1.size), a_of(j), np.zeros(j1.size)
        f[np.where(n - 1 > join, n - 1, width), rows] = 1.0
        at_join = np.where(join == n - 1, 1.0, 0.0)
        for step in range(width - 1):
            r = alive[step + 1]
            j, cur, prev, a_j, a_up = j[:r], cur[:r], prev[:r], a_j[:r], a_up[:r]
            cur, prev = -(b_of(j) * cur + j * a_up * prev) / ((j + 1.0) * a_j), cur
            col = n[:r] - 2 - step
            f[np.where(col > join[:r], col, width), rows[:r]] = cur
            at_join[:r] = np.where(col == join[:r], cur, at_join[:r])
            j = j - 1.0
            a_j, a_up = a_of(j), a_j
        f = f[:width]
        f *= np.where(k > join, f[join, rows] / at_join, 1.0)
    # sum_j (2j+1) f^2 with j = j_lo + k, and the scaling, in long doubles:
    # with the norm summed in doubles, even (1 1 2; 0 0 0) = sqrt(2/15) came
    # out 1.5 ulps off
    norm = np.zeros(j1.size, np.longdouble)
    for kk, r in enumerate(alive[:width]):
        norm[:r] += (2.0 * (j_lo[:r] + kk) + 1.0) * np.square(f[kk, :r], dtype=np.longdouble)
    scale = np.where((j1 - j2 - m3) % 2 == 0, 1.0, -1.0) * np.sign(f[n - 1, rows]) / np.sqrt(norm)
    for kk, r in enumerate(alive[:width]):
        f[kk, :r] = f[kk, :r] * scale[:r]
    # the small symbols of a row, then those small against a neighbour
    mag = np.abs(f)
    kc, rc = np.nonzero((mag < _ZERO_SCREEN * mag.max(axis=0)) & (mag > 0.0))
    near = np.maximum(mag[np.maximum(kc - 1, 0), rc], mag[np.minimum(kc + 1, width - 1), rc])
    # a set of the few flagged rows: np.unique would load numpy.ma on first use
    for r in sorted(set(rc[mag[kc, rc] < _ZERO_SCREEN * near].tolist())):
        f[_exact_zeros(*(int(v[r]) for v in (j1, j2, m1, m2))), r] = 0.0
    out = np.empty((j1.size, width))
    out[order] = f.T
    return jmin, out


def wigner3j(l1, l2, l3, m1, m2, m3):
    """Wigner 3j symbol (l1 l2 l3; m1 m2 m3) for integer arguments.

    Selection rules (m1+m2+m3 = 0, triangle inequality, |m_i| <= l_i with
    the last enforced as a precondition) return exactly 0.  A scalar view of
    :func:`wigner3j_rows`.
    """
    for l, m in ((l1, m1), (l2, m2), (l3, m3)):
        if abs(m) > l:
            raise ValueError("requires |m| <= l")
    if m1 + m2 + m3 != 0:
        return 0.0
    if l3 < abs(l1 - l2) or l3 > l1 + l2:
        return 0.0
    jmin, f = wigner3j_rows(l1, l2, m1, m2)
    return float(f[0, l3 - jmin[0]])
