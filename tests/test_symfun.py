import numpy as np
import pytest
import sympy as sp

from harnacklab.symfun import PoleEvaluationError, Profile, R, T, constant_profile


def test_profile_basic_evaluation():
    prof = Profile(R**2 * T + 3, "f")
    assert prof(2.0, 1.0) == pytest.approx(7.0)
    r = np.linspace(0, 1, 5)[:, None]
    t = np.linspace(0, 2, 3)[None, :]
    vals = prof(r, t)
    assert vals.shape == (5, 3)
    assert np.allclose(vals, r**2 * t + 3)


def test_profile_derivative_table():
    prof = Profile(sp.sin(R) * sp.exp(-T))
    r, t = 0.7, 0.4
    assert prof.at(1, 0, r, t) == pytest.approx(np.cos(r) * np.exp(-t), rel=1e-14)
    assert prof.at(2, 1, r, t) == pytest.approx(np.sin(r) * np.exp(-t), rel=1e-13)


def test_profile_string_parsing_and_helpers():
    prof = Profile("2 + r**2/4")
    assert prof(2.0, 0.0) == pytest.approx(3.0)
    assert constant_profile(5).is_constant()
    assert Profile(T**2).space_independent
    assert Profile(R**2).time_independent


def test_profile_rejects_stray_symbols():
    x = sp.Symbol("x")
    with pytest.raises(ValueError):
        Profile(x + 1)


def test_pole_limit_evaluation():
    # sin(r)/r extends to 1 at the pole
    prof = Profile(sp.sin(R) / R * sp.exp(-T), "sinc")
    vals = prof(np.array([0.0, 0.5]), np.array([0.0, 0.0]))
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == pytest.approx(np.sin(0.5) / 0.5, rel=1e-12)


def test_pole_limit_failure():
    prof = Profile(1 / R, "bad")
    with pytest.raises(PoleEvaluationError):
        prof(np.array([0.0]), np.array([0.0]))


def test_broadcasting_constant_expression():
    prof = constant_profile(2.5)
    vals = prof(np.zeros((3, 4)), np.ones((3, 4)))
    assert vals.shape == (3, 4)
    assert np.all(vals == 2.5)
