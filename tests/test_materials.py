"""Dispersion models, medium evaluation, and material classification."""

import math

import pytest

from casimir_stability import (
    DispersionModel,
    MaterialClass,
    Medium,
    ValidationError,
    ZeroFrequencyError,
    classify,
    eval_epsilon,
    eval_mu,
)


def test_constant_and_pec():
    m = DispersionModel.constant(4.5)
    assert eval_epsilon(m, 0.0) == 4.5
    assert eval_epsilon(m, 10.0) == 4.5
    pec = DispersionModel.perfect_conductor()
    assert pec.is_pec
    assert eval_epsilon(pec, 1.0) == math.inf


def test_plasma_drude_lorentz_values():
    plasma = DispersionModel.plasma(2.0)
    assert eval_epsilon(plasma, 1.0) == pytest.approx(5.0)
    drude = DispersionModel.drude(2.0, 0.5)
    assert eval_epsilon(drude, 1.0) == pytest.approx(1.0 + 4.0 / 1.5)
    lorentz = DispersionModel.lorentz([(1.0, 3.0, 0.1)])
    assert eval_epsilon(lorentz, 0.0) == pytest.approx(1.0 + 1.0)
    # all models tend to 1 from above at large kappa
    for model in (plasma, drude, lorentz):
        v = eval_epsilon(model, 1e6)
        assert 1.0 < v < 1.0 + 1e-5


@pytest.mark.parametrize("triple", [(-0.5, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, -0.1)])
def test_lorentz_rejects_oscillators_that_can_make_eps_nonpositive(triple):
    with pytest.raises(ValueError):
        DispersionModel.lorentz([(1.0, 2.0, 0.1), triple])


@pytest.mark.parametrize(
    "build, args",
    [
        (DispersionModel.constant, (math.nan,)),
        (DispersionModel.constant, (math.inf,)),
        (DispersionModel.plasma, (math.nan,)),
        (DispersionModel.plasma, (math.inf,)),
        (DispersionModel.plasma, (-3.0,)),
        (DispersionModel.plasma, (0.0,)),
        (DispersionModel.drude, (math.nan, 1.0)),
        (DispersionModel.drude, (1.0, math.inf)),
        (DispersionModel.drude, (-2.0, 1.0)),
        (DispersionModel.drude, (0.0, 1.0)),
        (DispersionModel.lorentz, ([(math.inf, 1.0, 0.1)],)),
        (DispersionModel.lorentz, ([(1.0, math.inf, 0.1)],)),
        (DispersionModel.lorentz, ([(1.0, 1.0, math.inf)],)),
    ],
)
def test_models_reject_nonfinite_and_nonpositive_parameters(build, args):
    # the CLI schema's bounds, held by the library: a plasma frequency is > 0
    with pytest.raises(ValidationError, match="finite"):
        build(*args)


@pytest.mark.parametrize("build", [DispersionModel.constant, DispersionModel.plasma])
def test_models_reject_a_one_element_list_as_a_number(build):
    # a scalar parameter is a number, as float() reads it: [2.0] is not one
    with pytest.raises(TypeError):
        build([2.0])


def test_zero_frequency_divergence():
    for model in (DispersionModel.plasma(1.0), DispersionModel.drude(1.0, 0.2)):
        with pytest.raises(ZeroFrequencyError):
            eval_epsilon(model, 0.0)


def test_monotone_decreasing_in_kappa():
    model = DispersionModel.drude(3.0, 0.4)
    values = [eval_epsilon(model, k) for k in (0.1, 0.5, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_eval_mu_same_functional_forms():
    model = DispersionModel.constant(2.0)
    assert eval_mu(model, 1.3) == eval_epsilon(model, 1.3)


def test_classify_class_i_and_ii():
    vacuum = Medium()
    samples = [0.3, 1.0, 4.0]
    one = DispersionModel.constant(1.0)
    hi = DispersionModel.constant(3.0)
    lo = DispersionModel.constant(0.4)
    assert classify(hi, one, vacuum, samples).variant == MaterialClass.CLASS_I
    assert classify(hi, one, vacuum, samples).sign == +1
    assert classify(lo, one, vacuum, samples).variant == MaterialClass.CLASS_II
    assert classify(lo, one, vacuum, samples).sign == -1
    assert classify(one, one, vacuum, samples).variant == MaterialClass.NEUTRAL
    assert classify(one, one, vacuum, samples).sign == 0
    # eps and mu both above the medium: no definite class
    both = classify(hi, hi, vacuum, samples)
    assert both.variant == MaterialClass.INDETERMINATE
    assert both.sign is None


def test_classify_pec_is_class_i():
    pec = DispersionModel.perfect_conductor()
    c = classify(pec, pec, Medium(), [1.0])
    assert c.variant == MaterialClass.CLASS_I
    assert c.sign == +1


def test_classify_relative_to_dense_medium():
    # eps = 2 object in an eps = 4 medium is class II
    medium = Medium(eps_model=DispersionModel.constant(4.0))
    c = classify(
        DispersionModel.constant(2.0), DispersionModel.constant(1.0), medium, [1.0]
    )
    assert c.variant == MaterialClass.CLASS_II


def test_classify_requires_every_sample():
    # plasma eps crosses a constant-eps medium nowhere, but a Lorentz model
    # with a strong low-frequency response can cross it
    medium = Medium(eps_model=DispersionModel.constant(2.0))
    crossing = DispersionModel.lorentz([(5.0, 1.0, 0.0)])  # 6 at k=0 -> 1 at inf
    one = DispersionModel.constant(1.0)
    c = classify(crossing, one, medium, [0.1, 10.0])
    assert c.variant == MaterialClass.INDETERMINATE


def test_classify_input_validation():
    one = DispersionModel.constant(1.0)
    with pytest.raises(ValueError):
        classify(one, one, Medium(), [])
    with pytest.raises(ValueError):
        classify(one, one, Medium(), [-1.0])


def test_medium_refractive_index():
    medium = Medium(
        eps_model=DispersionModel.constant(4.0),
        mu_model=DispersionModel.constant(2.25),
    )
    assert medium.refractive_index(1.0) == pytest.approx(3.0)


@pytest.mark.parametrize("which", ["eps_model", "mu_model"])
def test_medium_rejects_pec_up_front(which):
    with pytest.raises(ValidationError, match="perfect conductor"):
        Medium(**{which: DispersionModel.perfect_conductor()})
