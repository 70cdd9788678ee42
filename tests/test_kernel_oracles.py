"""Per-kappa kernels against loop-by-loop reference implementations.

The translation build and the Mie T-matrix evaluate every (l, l') block and
every order l in whole-array numpy.  The references below keep the earlier
per-block and per-order loops, so a change to the flat tables, the index
permutations or the vectorized amplitudes shows up as a disagreement.
"""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from casimir_stability import DispersionModel, Medium, SphereObject, mie_tmatrix
from casimir_stability.materials import eval_epsilon, eval_mu
from casimir_stability.specfun import log_bessel_i_array, log_bessel_k_array
from casimir_stability.translation import (
    TranslationMatrix,
    _build,
    _direction,
    _lambda_terms,
    _real_basis,
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
    d, c, theta, phi = _direction(d)
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
    scaled = np.zeros((dim, dim))
    exponent = np.zeros((dim, dim))

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
        if spin == "scalar":
            scaled[rows, cols] = a_r.real
            exponent[rows, cols] = s
            continue
        b_r = u_l @ blocks[1] @ u_lp.conj().T
        rows_m = slice(nb + r0, nb + r0 + 2 * l + 1)
        cols_m = slice(nb + c0, nb + c0 + 2 * lp + 1)
        scaled[rows, cols] = a_r.real
        scaled[rows_m, cols_m] = a_r[::-1, ::-1].real
        scaled[rows_m, cols] = (1j * b_r[::-1, :]).real
        scaled[rows, cols_m] = (-1j * b_r[:, ::-1]).real
        for blk in ((rows, cols), (rows_m, cols_m), (rows_m, cols), (rows, cols_m)):
            exponent[blk] = s
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
        SphereObject((0, 0, 0), 1.0, pec, pec, "pec"),
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
                for _ in range(2 * l + 1)
            ]
            ref_logs = [
                t_log[l - 1]
                for t_log in (t.log_e, t.log_m)
                for l in range(1, l_max + 1)
                for _ in range(2 * l + 1)
            ]
            assert np.array_equal(signs, ref_signs)
            assert np.array_equal(logs, ref_logs)
