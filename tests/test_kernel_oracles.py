"""Per-kappa kernels against loop-by-loop reference implementations.

The translation build and the Mie T-matrix evaluate every (l, l') block and
every order l in whole-array numpy.  The references below keep the earlier
per-block and per-order loops, so a change to the flat tables, the index
permutations or the vectorized amplitudes shows up as a disagreement.  The
reference coefficients come from Racah's sum for the 3j symbols in exact
rational arithmetic, independent of the recursion the package uses.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import sph_harm_y

from casimir_stability import DispersionModel, Medium, SphereObject, mie_tmatrix
from casimir_stability.casimir import _layout, _pair_blocks
from casimir_stability.materials import eval_epsilon, eval_mu
from casimir_stability.specfun import log_bessel_i_array, log_bessel_k_array, wigner3j_rows
from casimir_stability.translation import (
    TranslationMatrix,
    _build,
    _coeff_tables,
    _direction,
    _displacement,
    _real_basis,
    _rotations,
    real_sph_harm,
    reverse_translation,
    sector_size,
)

MED = Medium()
KAPPAS = (1e-6, 1e-2, 1.0, 50.0)
L_MAXES = range(1, 9)


def _directions():
    rng = np.random.default_rng(7)
    dirs = [np.array([0.0, 0.0, 2.5]), np.array([0.0, 0.0, -2.5])]
    dirs += [rng.standard_normal(3) * 2.0 for _ in range(2)]
    return dirs


# --- exact 3j symbols and the per-entry coefficient lists ------------------


@lru_cache(maxsize=None)
def _wigner3j_exact(l1, l2, l3, m1, m2, m3):
    """(l1 l2 l3; m1 m2 m3) from Racah's sum in exact rational arithmetic.

    The alternating sum and the squared value are exact Fractions; only the
    final square root rounds, so the result is within an ulp or two.
    """
    if m1 + m2 + m3 != 0 or not abs(l1 - l2) <= l3 <= l1 + l2:
        return 0.0
    f = math.factorial
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
        return 0.0
    phase = (-1) ** (l1 - l2 - m3)
    return phase * math.copysign(math.sqrt(pre * s * s), s)


def _lambda_terms(l, lp, m, mp, kind):
    """List of (lam, coeff) for one matrix entry; coeff excludes k and Y."""
    root = math.sqrt((2 * l + 1) * (2 * lp + 1) / (4.0 * math.pi))
    phase = 4.0 * math.pi * (-1) ** (l + m)
    mu = m - mp
    out = []
    parity = (l + lp) % 2 if kind != "cross" else (l + lp + 1) % 2
    for lam in range(abs(l - lp), l + lp + 2):
        if lam % 2 != parity or lam > l + lp + (1 if kind == "cross" else 0):
            continue
        if abs(mu) > lam:
            continue
        if kind == "cross":
            if lam < 1 or not (abs(l - lp) <= lam - 1 <= l + lp):
                continue
            w0 = _wigner3j_exact(l, lp, lam - 1, 0, 0, 0)
        else:
            w0 = _wigner3j_exact(l, lp, lam, 0, 0, 0)
        if w0 == 0.0:
            continue
        wm = _wigner3j_exact(l, lp, lam, m, -mp, -mu)
        if wm == 0.0:
            continue
        coeff = phase * root * math.sqrt(2 * lam + 1) * w0 * wm
        if kind == "same":
            coeff *= (l * (l + 1) + lp * (lp + 1) - lam * (lam + 1)) / (
                2.0 * math.sqrt(l * (l + 1) * lp * (lp + 1))
            )
        elif kind == "cross":
            under = (lam**2 - (l - lp) ** 2) * ((l + lp + 1) ** 2 - lam**2)
            coeff *= -math.sqrt(under) / (
                2.0 * math.sqrt(l * (l + 1) * lp * (lp + 1))
            )
        out.append((lam, coeff))
    return out


def test_wigner3j_rows_match_exact_racah_sums():
    # every (l l' lam; m -m' mu) of an l_max = 6 table, exact zeros included
    ls = range(7)
    rows = np.array(
        [(l, lp, m, -mp) for l in ls for lp in ls
         for m in range(-l, l + 1) for mp in range(-lp, lp + 1)]
    )
    jmin, f = wigner3j_rows(*rows.T)
    for (l1, l2, m1, m2), j0, got in zip(rows.tolist(), jmin.tolist(), f):
        want = np.zeros_like(got)
        for j in range(j0, l1 + l2 + 1):
            want[j - j0] = _wigner3j_exact(l1, l2, j, m1, m2, -m1 - m2)
        assert np.array_equal(got == 0.0, want == 0.0), (l1, l2, m1, m2)
        assert np.max(np.abs(got - want)) <= 1e-15, (l1, l2, m1, m2)


def test_wigner3j_rows_keep_small_symbols_and_exact_zeros_at_order_26():
    # l = 26 is the largest order a default-order energy_T0 checks.  The
    # stretched rows hold genuine symbols far below their row's largest
    # ((26 26 52; 26 -26 0) is 6e-16 of it); each other row holds a zero
    # that no parity rule explains.  A symbol must be 0 exactly when the
    # exact sum vanishes, and every other one must keep its relative accuracy.
    rows = [
        (23, 23, 23, -23), (26, 26, 26, -26), (26, 25, 26, -25),
        (26, 26, -11, 9), (26, 26, 4, 9), (26, 25, -17, -20), (26, 25, -8, 5),
        (26, 25, 25, 5), (25, 26, 2, -1), (25, 25, -10, 20), (25, 25, 5, 0),
        (24, 26, 15, 9), (24, 25, 3, 0),
    ]
    jmin, f = wigner3j_rows(*np.array(rows).T)
    for (l1, l2, m1, m2), j0, got in zip(rows, jmin.tolist(), f):
        want = np.zeros_like(got)
        for j in range(j0, l1 + l2 + 1):
            want[j - j0] = _wigner3j_exact(l1, l2, j, m1, m2, -m1 - m2)
        assert np.array_equal(got == 0.0, want == 0.0), (l1, l2, m1, m2)
        err = np.abs(got - want)
        assert np.all(err <= 1e-14 * np.abs(want).max()), (l1, l2, m1, m2)
        assert np.all(err <= 1e-12 * np.abs(want)), (l1, l2, m1, m2)


@pytest.mark.parametrize("spin", ["scalar", "vector"])
def test_coefficient_table_matches_exact_racah_terms(spin):
    # the same (entry, lambda) terms as the exact per-entry lists of the
    # m = m' entries, each coefficient, with its harmonic on the axis
    # Y_lam0(0) = sqrt((2 lam + 1) / 4 pi), within 1e-14 of its entry's
    # largest, each term in the scale slot (l + l', lam), and l + l' the
    # largest lambda of every block: a rounding residue must neither create
    # nor remove a term
    l_min = 0 if spin == "scalar" else 1
    kinds = ("scalar",) if spin == "scalar" else ("same", "cross")
    for l_max in L_MAXES:
        tab = _coeff_tables(l_max, spin)
        sector_m = np.concatenate([np.arange(-l, l + 1) for l in range(l_min, l_max + 1)])
        rows, cols = np.nonzero(sector_m[:, None] == sector_m[None, :])
        entry_of = {(r, c): e for e, (r, c) in enumerate(zip(rows.tolist(), cols.tolist()))}
        lam, top = tab.slot_lam[tab.term_slot], tab.slot_top[tab.term_slot]
        for (l, lp), (lams, _, _) in _ref_tables(l_max, spin).items():
            assert lams[-1] == l + lp
        got = {}
        for e, la, tp, c in zip(*(a.tolist() for a in (tab.term_entry, lam, top, tab.term_coeff))):
            got.setdefault(e, []).append((la, c, tp))
        n_want = 0
        for l in range(l_min, l_max + 1):
            for lp in range(l_min, l_max + 1):
                r0 = l * l - l_min * l_min + l
                c0 = lp * lp - l_min * l_min + lp
                for m in range(-min(l, lp), min(l, lp) + 1):
                    for ik, kind in enumerate(kinds):
                        want = [
                            (la, c * math.sqrt((2 * la + 1) / (4.0 * math.pi)))
                            for la, c in _lambda_terms(l, lp, m, m, kind)
                        ]
                        if not want:
                            continue
                        n_want += 1
                        have = got.get(ik * tab.n_entries + entry_of[(r0 + m, c0 + m)], [])
                        assert [t[0] for t in have] == [t[0] for t in want]
                        assert all(t[2] == l + lp for t in have)
                        scale = max(abs(c) for _, c in want)
                        err = max(abs(a[1] - b[1]) for a, b in zip(have, want))
                        assert err <= 1e-14 * scale, (l_max, l, lp, m, kind)
        assert len(got) == n_want


# --- reference translation build: one einsum and basis change per block ---


_REF_TABLES = {}


def _ref_tables(l_max, spin):
    key = (l_max, spin)
    if key in _REF_TABLES:
        return _REF_TABLES[key]
    l_min = 0 if spin == "scalar" else 1
    kinds = ("scalar",) if spin == "scalar" else ("same", "cross")
    tables = {}
    for l in range(l_min, l_max + 1):
        for lp in range(l_min, l_max + 1):
            lams = sorted(
                {
                    lam
                    for kind in kinds
                    for m in range(-l, l + 1)
                    for mp in range(-lp, lp + 1)
                    for lam, _ in _lambda_terms(l, lp, m, mp, kind)
                }
            )
            pos = {lam: j for j, lam in enumerate(lams)}
            n_pairs = (2 * l + 1) * (2 * lp + 1)
            c = np.zeros((len(kinds), n_pairs, len(lams)))
            mus = np.zeros(n_pairs, int)
            p = 0
            for m in range(-l, l + 1):
                for mp in range(-lp, lp + 1):
                    mus[p] = m - mp
                    for ik, kind in enumerate(kinds):
                        for lam, coeff in _lambda_terms(l, lp, m, mp, kind):
                            c[ik, p, pos[lam]] = coeff
                    p += 1
            tables[(l, lp)] = (np.asarray(lams, int), mus, c)
    _REF_TABLES[key] = tables
    return tables


def _ref_build(medium, kappa, d, l_max, spin):
    # the angles of d, as the build took them before it rotated the +z matrix
    d = np.asarray(d, float)
    c = float(np.linalg.norm(d))
    theta = math.acos(max(-1.0, min(1.0, d[2] / c)))
    phi = math.atan2(d[1], d[0])
    x = medium.refractive_index(kappa) * kappa * c
    l_top = 2 * l_max + (1 if spin == "vector" else 0)
    logk = log_bessel_k_array(l_top, x)
    yc = np.zeros((l_top + 1, 2 * l_top + 1), complex)
    for lam in range(l_top + 1):
        mus = np.arange(-lam, lam + 1)
        yc[lam, l_top + mus] = sph_harm_y(lam, mus, theta, phi)
    l_min = 0 if spin == "scalar" else 1
    nb = sector_size(l_max, l_min)
    dim = nb if spin == "scalar" else 2 * nb
    n_l = l_max + 1 - l_min
    scaled = np.zeros((dim, dim))
    exponent = np.zeros((n_l if spin == "scalar" else 2 * n_l,) * 2)  # one value per band

    def offset(l):
        return l * l - l_min * l_min

    for (l, lp), (lams, mus, c_tab) in _ref_tables(l_max, spin).items():
        s = float(logk[lams].max())
        kv = np.exp(logk[lams] - s)
        ysel = yc[lams[None, :], l_top + mus[:, None]]
        blocks = np.einsum("kpj,j,pj->kp", c_tab, kv, ysel).reshape(
            c_tab.shape[0], 2 * l + 1, 2 * lp + 1
        )
        u_l = _real_basis(l)
        u_lp = _real_basis(lp)
        a_r = u_l @ blocks[0] @ u_lp.conj().T
        r0, c0 = offset(l), offset(lp)
        rows = slice(r0, r0 + 2 * l + 1)
        cols = slice(c0, c0 + 2 * lp + 1)
        bands = (l - l_min, lp - l_min)
        if spin == "scalar":
            scaled[rows, cols] = a_r.real
            exponent[bands] = s
            continue
        b_r = u_l @ blocks[1] @ u_lp.conj().T
        rows_m = slice(nb + r0, nb + r0 + 2 * l + 1)
        cols_m = slice(nb + c0, nb + c0 + 2 * lp + 1)
        scaled[rows, cols] = a_r.real
        scaled[rows_m, cols_m] = a_r[::-1, ::-1].real
        scaled[rows_m, cols] = (1j * b_r[::-1, :]).real
        scaled[rows, cols_m] = (-1j * b_r[:, ::-1]).real
        for sec, sec_p in ((0, 0), (1, 1), (1, 0), (0, 1)):
            exponent[bands[0] + sec * n_l, bands[1] + sec_p * n_l] = s
    return TranslationMatrix(float(kappa), d, l_max, scaled, exponent, spin)


def _block_offsets(l_max, spin):
    l_min = 0 if spin == "scalar" else 1
    offs = [l * l - l_min * l_min for l in range(l_min, l_max + 1)]
    if spin == "vector":
        nb = sector_size(l_max)
        offs = offs + [nb + o for o in offs]
    return np.asarray(offs)


def _assert_blockwise_close(got, want, offsets, rtol):
    """|got - want| <= rtol * max|want| within every (l, l') block."""

    def block_max(a):
        return np.maximum.reduceat(np.maximum.reduceat(a, offsets, axis=0), offsets, axis=1)

    err = block_max(np.abs(got - want))
    size = block_max(np.abs(want))
    assert np.all(err <= rtol * size), float(np.max(err / np.maximum(size, 1e-300)))


@pytest.mark.parametrize("spin", ["scalar", "vector"])
def test_flat_build_matches_per_block_reference(spin):
    for l_max in L_MAXES:
        offsets = _block_offsets(l_max, spin)
        for kappa in KAPPAS:
            for d in _directions():
                got = _build(MED, kappa, d, l_max, spin)
                want = _ref_build(MED, kappa, d, l_max, spin)
                assert np.array_equal(got.exponent, want.exponent)
                _assert_blockwise_close(got.scaled, want.scaled, offsets, 1e-13)


@pytest.mark.parametrize("spin", ["scalar", "vector"])
def test_reverse_matches_direct_build_at_minus_d(spin):
    # compared in scaled form: at kappa = 1e-6 the dense entries overflow
    for l_max in L_MAXES:
        offsets = _block_offsets(l_max, spin)
        for kappa in KAPPAS:
            for d in _directions():
                rev = reverse_translation(_build(MED, kappa, d, l_max, spin))
                direct = _build(MED, kappa, -d, l_max, spin)
                assert np.array_equal(rev.displacement, direct.displacement)
                assert np.array_equal(rev.exponent, direct.exponent)
                _assert_blockwise_close(rev.scaled, direct.scaled, offsets, 1e-12)


# --- one balancing scale per band ---------------------------------------------

BAND_KAPPAS = np.array([1e-6, 0.9, 40.0])


def _band_labels(l_max, spin):
    """The band of every basis label: each (sector, l) repeated 2l + 1 times."""
    ls = np.arange(0 if spin == "scalar" else 1, l_max + 1)
    n_sec = 1 if spin == "scalar" else 2
    return np.repeat(np.arange(n_sec * ls.size), np.tile(2 * ls + 1, n_sec))


@pytest.mark.parametrize("spin", ["scalar", "vector"])
def test_band_exponent_is_log_k_at_l_plus_lp(spin):
    # one exponent per (sector, l) x (sector', l') band, log k_(l+l') of
    # n kappa |d| as a single-kappa call returns it, in a medium with n != 1
    medium = Medium(DispersionModel.constant(2.0))
    l_min, n_sec = (0, 1) if spin == "scalar" else (1, 2)
    for l_max in range(1, 21):
        band_l = np.tile(np.arange(l_min, l_max + 1), n_sec)
        l_top = 2 * l_max + (1 if spin == "vector" else 0)
        for d in _directions():
            got = _build(medium, BAND_KAPPAS, d, l_max, spin).exponent
            assert got.shape == (BAND_KAPPAS.size, band_l.size, band_l.size)
            for row, kappa in zip(got, BAND_KAPPAS.tolist()):
                x = medium.refractive_index(kappa) * kappa * float(np.linalg.norm(d))
                want = log_bessel_k_array(l_top, x)[np.add.outer(band_l, band_l)]
                assert np.array_equal(row, want), (l_max, kappa, d)
    _coeff_tables.cache_clear()


def test_dense_keeps_structural_zeros_where_the_band_scale_overflows():
    # at kappa = 1e-6 and L = 20 exp(log k_(l+l')) overflows in the top
    # bands: the entries there are inf, the structural zeros of a +z build
    # (m != m') stay 0 rather than 0 * inf = NaN, which would warn and, under
    # the suite's error::RuntimeWarning filter, raise
    x = _build(MED, np.array([1e-6, 0.9, 40.0]), (0.0, 0.0, 0.4), 20, "vector")
    dense = x.dense()
    assert not np.isnan(dense).any()
    assert np.array_equal(dense == 0.0, x.scaled == 0.0)
    assert np.isinf(dense[0]).any() and np.isfinite(dense[1:]).all()
    band = _band_labels(20, "vector")
    with np.errstate(over="ignore"):
        scale = np.exp(x.exponent)[:, band[:, None], band]
    finite = np.isfinite(scale)
    assert np.array_equal(np.isinf(dense), ~finite & (x.scaled != 0.0))
    assert np.array_equal(dense[finite], x.scaled[finite] * scale[finite])


def _balanced_per_entry(t_row, t_col, scaled, exponent, band):
    """s_row * scaled * exp(e + (g_row / 2 + g_col / 2)), entry by entry."""
    (s_r, g_r), (_, g_c) = ((s[:, band], g[:, band]) for s, g in (t_row, t_col))
    e = exponent[:, band[:, None], band]
    return s_r[:, :, None] * scaled * np.exp(e + (0.5 * g_r[:, :, None] + 0.5 * g_c[:, None, :]))


@pytest.mark.parametrize("axial", [False, True], ids=["dense", "axial"])
def test_pair_blocks_balance_each_band_as_each_entry(axial):
    # the band scale gathered onto the layout's entries is the balancing
    # taken entry by entry from the expanded exponent and T-matrix logs, bit
    # for bit, on both layouts; at kappa = 1e-6 the plain X overflows
    l_max = 20
    one = DispersionModel.constant(1.0)
    spheres = (
        SphereObject((0, 0, 0), 0.2, DispersionModel.perfect_conductor(), one, "a"),
        SphereObject((0, 0, 0), 0.15, DispersionModel.constant(4.0), one, "b"),
    )
    t_i, t_j = (mie_tmatrix(s, MED, BAND_KAPPAS, l_max).raw_signed_log() for s in spheres)
    d = np.array([0.0, 0.0, 0.4]) if axial else np.array([0.1, -0.2, 0.3])
    full = _build(MED, BAND_KAPPAS, d, l_max, "vector")
    assert full.exponent[0].max() > math.log(np.finfo(float).max)
    layout = _layout(l_max, axial)
    x = full
    if axial:
        x = _build(MED, BAND_KAPPAS, d, l_max, "vector", (layout.entries.rows, layout.entries.cols))
    band = _band_labels(l_max, "vector")
    reverse = reverse_translation(full).scaled
    want = (
        _balanced_per_entry(t_i, t_j, full.scaled, full.exponent, band),
        _balanced_per_entry(t_j, t_i, reverse, full.exponent, band),
    )
    for got, w in zip(_pair_blocks(x, t_i, t_j, layout), want):
        if axial:
            w = w[:, layout.entries.rows, layout.entries.cols]
        assert np.isfinite(got).all()
        assert np.array_equal(got, w)


# --- the rotation of the +z build into place ---------------------------------


def _rotation_directions():
    rng = np.random.default_rng(5)
    axes = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    return [np.asarray(a, float) for a in axes] + [rng.standard_normal(3) for _ in range(4)]


def _angles(x):
    return np.arctan2(np.hypot(x[:, 0], x[:, 1]), x[:, 2]), np.arctan2(x[:, 1], x[:, 0])


def test_rotation_recursion_carries_real_harmonics_to_the_rotated_points():
    # R_l(frame x) = D^l R_l(x) at sampled points x of the unit sphere, with
    # D^l orthogonal, for every l <= 20: the oracle is scipy's harmonics at
    # the rotated points, independent of the recursion
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((40, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    tab = _coeff_tables(20, "scalar")
    for d in _rotation_directions():
        frame = _direction(3.0 * d)[2]
        if frame is None:  # +z: the builds take no rotation, D^l is the identity
            frame = np.eye(3)
        assert np.allclose(frame @ frame.T, np.eye(3), rtol=0.0, atol=1e-15)
        assert np.allclose(frame[:, 2], d / np.linalg.norm(d), rtol=0.0, atol=1e-15)
        rotations = _rotations(frame, tab)
        theta, phi = _angles(pts)
        theta_r, phi_r = _angles(pts @ frame.T)
        for l, r in enumerate(rotations):
            assert np.max(np.abs(r @ r.T - np.eye(2 * l + 1))) <= 1e-14, (d, l)
            here = np.array([real_sph_harm(l, m, theta, phi) for m in range(-l, l + 1)])
            there = np.array([real_sph_harm(l, m, theta_r, phi_r) for m in range(-l, l + 1)])
            assert np.max(np.abs(r @ here - there)) <= 1e-13, (d, l)


@pytest.mark.parametrize("spin", ["vector", "scalar"])
def test_prepared_displacement_builds_the_same_bits(spin):
    # one prepared rotation serves every kappa and every entry selection;
    # a displacement prepared at another order or spin is refused
    rows, cols = np.arange(6), np.arange(6)[::-1]
    for d in [np.array([0.6, -1.2, 0.4]), np.array([0.0, 0.0, 2.5])]:
        prepared = _displacement(d, 4, spin)
        for kappa in (0.7, np.array([1e-3, 0.7, 9.0])):
            for entries in (None, (rows, cols)):
                got = _build(MED, kappa, prepared, 4, spin, entries)
                want = _build(MED, kappa, d, 4, spin, entries)
                assert np.array_equal(got.scaled, want.scaled)
                assert np.array_equal(got.exponent, want.exponent)
                assert np.array_equal(got.displacement, d)
        with pytest.raises(ValueError, match="prepared at"):
            _build(MED, 0.7, prepared, 3, spin)
    with pytest.raises(ValueError, match="prepared at"):
        _build(MED, 0.7, _displacement((1.0, 2.0, 0.5), 4, "scalar"), 4, "vector")


def test_scalar_monopole_takes_the_identity_rotation():
    # l_max = 0 holds D^0 = 1 alone: any direction gives the +z build at |d|
    d = np.array([0.6, -1.2, 0.4])
    got = _build(MED, 0.7, d, 0, "scalar")
    want = _build(MED, 0.7, (0.0, 0.0, float(np.linalg.norm(d))), 0, "scalar")
    assert got.scaled.shape == (1, 1)
    assert np.array_equal(got.scaled, want.scaled)
    assert np.array_equal(got.exponent, want.exponent)


# --- reference Mie amplitudes: one log-series pair per order l -------------


def _ref_riccati(kind, l, x):
    if kind == "i":
        logs = log_bessel_i_array(l + 1, x)
        drv_sign = 1.0
    else:
        logs = log_bessel_k_array(l + 1, x)
        drv_sign = -1.0
    e = logs[l]
    fp = drv_sign * math.exp(logs[l + 1] - e) + l / x
    return 1.0 + x * fp, 1.0, e


def _ref_mie(sphere, medium, kappa, l_max):
    x = medium.refractive_index(kappa) * kappa * sphere.radius
    eps_m = medium.eps(kappa)
    mu_m = medium.mu(kappa)
    pec = sphere.eps.is_pec
    out = {"E": (np.zeros(l_max), np.full(l_max, -math.inf)),
           "M": (np.zeros(l_max), np.full(l_max, -math.inf))}
    if not pec:
        eps_j = eval_epsilon(sphere.eps, kappa)
        mu_j = eval_mu(sphere.mu, kappa)
        y = math.sqrt(eps_j * mu_j) * kappa * sphere.radius
    for l in range(1, l_max + 1):
        dix, ix, ex = _ref_riccati("i", l, x)
        dkx, kx, fx = _ref_riccati("k", l, x)
        if pec:
            raw_tm = -dix / dkx
            raw_te = -ix / kx
        else:
            diy, iy, _ = _ref_riccati("i", l, y)

            def amp(a_j, a_m):
                num = a_j * dix * iy - a_m * diy * ix
                den = a_j * dkx * iy - a_m * diy * kx
                return -num / den

            raw_te = amp(mu_j, mu_m)
            raw_tm = amp(eps_j, eps_m)
        for raw, pol, flip in ((raw_tm, "E", 1.0), (raw_te, "M", -1.0)):
            if raw == 0.0:
                continue
            out[pol][0][l - 1] = flip * math.copysign(1.0, raw)
            out[pol][1][l - 1] = math.log(abs(raw)) + ex - fx
    return out


def _spheres():
    one = DispersionModel.constant(1.0)
    pec = DispersionModel.perfect_conductor()
    return [
        SphereObject((0, 0, 0), 1.0, pec, one, "pec"),
        SphereObject((0, 0, 0), 1.0, DispersionModel.constant(4.0), one, "eps4"),
        SphereObject((0, 0, 0), 1.0, DispersionModel.drude(5.0, 0.5), one, "drude"),
        SphereObject((0, 0, 0), 1.0, one, one, "matched"),
    ]


@pytest.mark.parametrize("sphere", _spheres(), ids=lambda s: s.label)
def test_mie_tmatrix_matches_per_order_reference(sphere):
    for kappa in np.geomspace(1e-6, 50.0, 15):
        for l_max in (1, 2, 7, 20):
            t = mie_tmatrix(sphere, MED, float(kappa), l_max)
            ref = _ref_mie(sphere, MED, float(kappa), l_max)
            for pol, sign, log in (("E", t.sign_e, t.log_e), ("M", t.sign_m, t.log_m)):
                ref_sign, ref_log = ref[pol]
                assert np.array_equal(sign, ref_sign)
                live = np.isfinite(ref_log)
                assert np.array_equal(np.isfinite(log), live)
                assert np.all(
                    np.abs(log[live] - ref_log[live])
                    <= 1e-13 * np.maximum(1.0, np.abs(ref_log[live]))
                )
            signs, logs = t.raw_signed_log()
            ref_signs = [
                flip * t_sign[l - 1]
                for t_sign, flip in ((t.sign_e, 1.0), (t.sign_m, -1.0))
                for l in range(1, l_max + 1)
            ]
            ref_logs = [t_log[l - 1] for t_log in (t.log_e, t.log_m) for l in range(1, l_max + 1)]
            assert np.array_equal(signs, ref_signs)
            assert np.array_equal(logs, ref_logs)
