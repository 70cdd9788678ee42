"""ln det(I - N) from the Schur complement of an identity block.

Every I - N has identity diagonal blocks, so ln det(I - N) is the ln det of
the complement M_RR - M_R0 M_0R of object 0's block: for a pair,
I - B_10 B_01 at half the order.  ``log_det_integrand`` factors that
complement, and the stability engine takes ln det M_RR and M_RR^-1 by the
same elimination of M_RR's first block.  The integrand is held to the
40-digit ln det of the whole ``assemble_block_matrix``, the engine's
remainder to numpy's ``slogdet`` and ``inv`` of M_RR placed whole, and a
four-sphere report to the fields it had when it factored M_RR whole.

Each ln det is compared absolutely, within C * order * 2^-53, the order
being that of the matrix factored whole by the reference (I - N or M_RR):
the value can be as small as 1e-9, where two factorizations of one matrix
differ relatively by far more than an ulp.  Measured with numpy's OpenBLAS
on x86-64, the integrand's largest error is 0.25 order * 2^-53 (the
near-contact mixed pair at kappa = 1; ``slogdet`` of the whole matrix
reads at most 0.15), and the remainder's ln det 0.21 and its inverse 0.08
order * 2^-53 of its largest entry: C = 1 leaves about 4x for another BLAS.
"""

import numpy as np
import pytest

from casimir_stability import (
    Configuration,
    DispersionModel,
    Medium,
    log_det_integrand,
    stability_report,
)
from casimir_stability.casimir import _layout, assemble_block_matrix
from casimir_stability.stability import _CommonGridEngine
from conftest import dielectric_sphere, exact_log_det, pec_pair, pec_sphere
from test_batched import _three_body
from test_stability_oracles import _triple

C = 1.0
KAPPAS = (0.01, 0.3, 1.0, 3.0)
FLUID = Medium(DispersionModel.constant(2.0))


# four spheres of one sign class (PEC and eps > 1 in vacuum) and of mixed
# classes (a bubble, eps 1, and eps 1.2 among eps 6 and PEC, in a fluid of eps 2)
FOUR = {
    True: Configuration(
        (
            pec_sphere((0, 0, 0), 1.0, "a"),
            dielectric_sphere((3.0, 0, 0.5), 0.8, 3.0, "b"),
            dielectric_sphere((0.6, 3.1, 1.0), 0.6, 5.0, "c"),
            pec_sphere((2.2, 2.4, -1.9), 0.7, "d"),
        ),
        Medium(),
    ),
    False: Configuration(
        (
            dielectric_sphere((0, 0, 0), 1.0, 6.0, "a"),
            dielectric_sphere((3.0, 0, 0.5), 0.8, 1.0, "b"),
            pec_sphere((0.6, 3.1, 1.0), 0.6, "c"),
            dielectric_sphere((2.2, 2.4, -1.9), 0.7, 1.2, "d"),
        ),
        FLUID,
    ),
}


# the golden MIXED triple: eps 6 and mu 1.5, PEC and Drude in a fluid of
# eps 2, two of them of no definite sign class
MIXED = _three_body(FLUID)

# (config, l_max); a gap of 0.05 R for each sign class near contact
INTEGRAND_CASES = {
    "pec pair": (pec_pair(3.0), 3),
    "collinear triple": (
        Configuration(
            (
                pec_sphere((0, 0, 0), 1.0, "a"),
                dielectric_sphere((0, 0, 2.8), 0.5, 4.0, "b"),
                pec_sphere((0, 0, 5.6), 1.0, "c"),
            ),
            Medium(),
        ),
        2,
    ),
    "dielectric triple": (_triple(), 2),
    "golden mixed triple": (MIXED, 2),
    "four spheres": (FOUR[True], 2),
    "near contact, same class": (pec_pair(2.05), 3),
    "near contact, mixed class": (
        Configuration(
            (
                dielectric_sphere((0, 0, 0), 1.0, 1.0, "a"),
                dielectric_sphere((0.3, 0.4, np.sqrt(2.05**2 - 0.25)), 1.0, 6.0, "b"),
            ),
            FLUID,
        ),
        3,
    ),
}


@pytest.mark.parametrize("case", INTEGRAND_CASES)
def test_complement_log_det_is_the_exact_log_det_of_the_whole_matrix(case):
    cfg, l_max = INTEGRAND_CASES[case]
    got = log_det_integrand(cfg, np.array(KAPPAS), l_max)
    for kappa, value in zip(KAPPAS, got):
        m = assemble_block_matrix(cfg, kappa, l_max)
        exact = float(exact_log_det(m))
        assert abs(value - exact) <= C * len(m) * 2.0**-53, (kappa, value, exact)


REMAINDER_CASES = {
    "same-class triple": _triple(),
    "golden mixed triple": MIXED,
    "same-class four": FOUR[True],
    "mixed-class four": FOUR[False],
}


@pytest.mark.parametrize("label", ["a", "b"])
@pytest.mark.parametrize("case", REMAINDER_CASES)
def test_remainder_is_the_inverse_and_log_det_of_m_rr(case, label):
    # M_RR read off the whole matrix at each node, the labeled object's
    # rows and columns dropped
    cfg, l_max = REMAINDER_CASES[case], 2
    eng = _CommonGridEngine(cfg, label, l_max, 6)
    width = _layout(l_max, False).width
    keep = np.concatenate([np.arange(j * width, (j + 1) * width) for j in eng.rest])
    for c, rows in enumerate(eng.chunks):
        log_det, inverse = eng.remainder[c]
        for r, kappa in enumerate(eng.kappas[rows]):
            m_rr = assemble_block_matrix(cfg, kappa, l_max)[np.ix_(keep, keep)]
            want = np.linalg.inv(m_rr)
            bound = C * len(m_rr) * 2.0**-53
            assert np.abs(inverse[r] - want).max() <= bound * np.abs(want).max()
            assert abs(log_det[r] - np.linalg.slogdet(m_rr)[1]) <= bound


# stability_report(cfg, "a", l_max=3, n_nodes=8) when M_RR was factored and
# inverted whole: force (3), laplacian, term1, term2, term3, est_error
WHOLE_M_RR_REPORTS = {
    True: (
        0.0012618203852513552, 0.00039378227244013454, 0.00010335187915832715,
        -0.003978118450996412, -0.000630515768778554, -0.0033454953553204493,
        -2.107331341716002e-06, 2.1296075987733976e-09,
    ),
    False: (
        -0.00013094373779169418, 0.00010371315260595268, 1.4882948361522512e-05,
        0.00016985168059163413, 2.083357520743658e-05, 0.00014910738619800282,
        -8.928042397676998e-08, 1.9059864615950974e-10,
    ),
}


@pytest.mark.parametrize("same_class", [True, False])
def test_four_sphere_report_keeps_its_fields_within_est_error(same_class):
    rep = stability_report(FOUR[same_class], "a", l_max=3, n_nodes=8)
    before = WHOLE_M_RR_REPORTS[same_class]
    now = [*rep.force, rep.laplacian, rep.term1, rep.term2, rep.term3, rep.est_error]
    assert np.abs(np.subtract(now, before)).max() <= before[-1]
