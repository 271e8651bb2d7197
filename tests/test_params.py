import numpy as np
import pytest

from harnacklab.params import (PRESETS, HarnackParams, ParamError, constant_alpha_beta,
                               preset_alpha_beta, preset_ode_residuals)


def test_b_values_and_monotonicity():
    assert HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0)).b == pytest.approx(2.0 / 3.0)
    prev = 0.0
    for m in (2.0, 3.0, 5.0, 10.0, 100.0, 1e6):
        b = HarnackParams(p=2.0, m=m, coeffs=constant_alpha_beta(2.0)).b
        assert 0 < b < 1
        assert b > prev
        prev = b
    assert prev == pytest.approx(1.0, abs=1e-5)


def test_param_validation():
    with pytest.raises(ParamError):
        HarnackParams(p=1.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    with pytest.raises(ParamError):
        constant_alpha_beta(0.5)


def test_eps_ceiling_and_admissibility():
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    t = np.linspace(0.1, 1.0, 5)
    cap1 = params.eps_ceiling(t, "first")
    assert cap1 == pytest.approx(2 * 1.0 / ((2.0 / 3.0) * 4.0))
    cap2 = params.eps_ceiling(t, "second")
    assert cap2 == pytest.approx(cap1 / 2.0)
    params.require_eps(0.5 * cap1, t, "first")
    with pytest.raises(ParamError) as err:
        params.require_eps(1.1 * cap1, t, "first")
    assert "2(alpha-1)^2/(b alpha^2)" in str(err.value)


@pytest.mark.parametrize("which,gamma", [("exp", 1.0), ("exp", 0.35),
                                         ("coth", 1.0), ("coth", 0.4),
                                         ("linear", 1.0), ("linear", 2.5)])
def test_preset_ode_residuals(which, gamma):
    b = 2.0 / 3.0
    pair = preset_alpha_beta(which, gamma, b)
    t = np.linspace(0.01, 3.0, 900)
    for name, entry in preset_ode_residuals(pair, which, b, t).items():
        rel = np.abs(entry["residual"]) / entry["scale"]
        assert np.max(rel) <= 1e-12, name


def test_preset_alpha_above_one_for_positive_time():
    for which in ("coth", "linear"):
        pair = preset_alpha_beta(which, 0.7, 2.0 / 3.0)
        t = np.linspace(1e-3, 2.0, 200)
        assert np.all(pair.alpha_at(t) > 1.0)


@pytest.mark.parametrize("which", ["exp", "coth", "linear"])
def test_preset_refuses_gamma_zero(which):
    # at gamma 0 the exp preset is alpha == 1, where no eps is admissible
    with pytest.raises(ParamError, match=f"^{which} preset requires gamma > 0$"):
        preset_alpha_beta(which, 0.0, 2.0 / 3.0)


def test_shifted_clock():
    pair = preset_alpha_beta("exp", 0.5, 2.0 / 3.0)
    shifted = pair.shifted(1.0)
    t = np.linspace(1.0, 2.0, 7)
    assert np.allclose(shifted.alpha_at(t), pair.alpha_at(t - 1.0))


@pytest.mark.parametrize("which", PRESETS)
def test_at_reads_each_coefficient_and_its_rate_off_one_series(which):
    # against each profile's own partial, on a clock with an offset
    pair = preset_alpha_beta(which, 0.7, 0.6).shifted(-0.25)
    t = np.linspace(0.0, 2.0, 33)
    r = np.zeros_like(t)
    values = pair.at(t)
    for got, (prof, order) in zip(values, [(pair.alpha, 0), (pair.alpha, 1),
                                           (pair.beta, 0), (pair.beta, 1)]):
        want = prof.at(0, order, r, t)
        assert got.tobytes() == want.tobytes()
