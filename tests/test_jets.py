"""Truncated Taylor series in r, against sympy.series and sympy.limit as oracles."""

import math

import numpy as np
import pytest
import sympy as sp

from harnacklab.jets import JET_FUNCTIONS, Jet, PoleEvaluationError, d_r, d_t, partial, variables
from harnacklab.solver import manufactured_forcing
from harnacklab.symfun import ExpressionError, Profile, compile_expression

from conftest import R, T, make_geometry, profile_of, sym, symbolic_closure

K = 5
R0 = sp.Rational(7, 10)
TS = np.array([0.5, 1.0, 1.5])
# the oracles are slow, so they are taken at one of the time nodes
T_ORACLE = 1
X = sp.Symbol("x")


def _series_coeffs(expr):
    """Coefficients of (r - R0)^k, k < K, by sympy.series at t = TS[T_ORACLE]."""
    shifted = sym(expr).subs({R: R0 + X, T: sp.nsimplify(TS[T_ORACLE])})
    poly = sp.series(shifted, X, 0, K).removeO()
    return [float(poly.coeff(X, k)) for k in range(K)]


def _jet_coeffs(expr, r0=float(R0)):
    fun, _ = compile_expression(expr)
    jet = fun(Jet.variable(r0, K), TS)
    assert len(jet) == K
    return np.array([np.broadcast_to(c, TS.shape) for c in jet.c])


# one argument per rule that keeps it away from its branch points on [0.2, 1.2]
RULE_CASES = {name: f"{name}(r*(1 + t)/2 + 1/5)" for name in JET_FUNCTIONS}
ARITHMETIC_CASES = {
    "add-sub": "r**2 - t*r + 3 - exp(t)",
    "mul": "(1 + r*t)*sin(r)",
    "div": "(1 + r**2)/(2 + t*r)",
    "int-power": "(1 + r*t)**5",
    "neg-power": "(1 + r*t)**-3",
    "real-power": "(1 + r*t)**(5/2)",
    "float-power": "(2 + r)**-1.25",
    "pow-of-r": "2**r",
    "array-exponent": "(2 + r)**t",
    "constants": "pi*r + E",
}


@pytest.mark.parametrize("name", sorted({**RULE_CASES, **ARITHMETIC_CASES}))
def test_rule_coefficients_match_sympy_series(name):
    expr = {**RULE_CASES, **ARITHMETIC_CASES}[name]
    got = _jet_coeffs(expr)[:, T_ORACLE]
    assert got == pytest.approx(_series_coeffs(expr), rel=1e-12, abs=1e-13)


KT = 2


def _bivariate_series_coeffs(expr):
    """Coefficients of (r - R0)^i (t - t0)^j, i < K and j < KT, with t0 =
    TS[T_ORACLE]: the r-series of d^j expr/dt^j by sympy.series, over j!.
    (t^2 coefficients are covered by test_symfun's symbolic-differentiation
    oracle.)"""
    return np.array([_series_coeffs(sp.diff(sym(expr), T, j)) for j in range(KT)]).T / [
        math.factorial(j) for j in range(KT)]


def _nested_coeffs(expr):
    r, t = variables(float(R0), TS, K, KT)
    jet = compile_expression(expr)[0](r, t)
    assert len(jet) == K
    return np.array([[np.broadcast_to(partial(jet, i, j), TS.shape)[T_ORACLE]
                      / math.factorial(i) / math.factorial(j) for j in range(KT)]
                     for i in range(K)])


@pytest.mark.parametrize("name", sorted({**RULE_CASES, **ARITHMETIC_CASES}))
def test_nested_rule_coefficients_match_sympy_series(name):
    # coefficients that are series in t: the bivariate series of every rule
    expr = {**RULE_CASES, **ARITHMETIC_CASES}[name]
    got = _nested_coeffs(expr)
    want = _bivariate_series_coeffs(expr)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_series_derivatives_shift_the_coefficients():
    text = "exp(r*t)*(1 + r**2)"
    expr = sym(text)
    r, t = variables(float(R0), TS, K, 3)
    jet = compile_expression(text)[0](r, t)
    at = {R: R0, T: sp.nsimplify(TS[T_ORACLE])}
    for (dr, dt), series in {(1, 0): d_r(jet), (0, 1): d_t(jet), (2, 1): d_t(d_r(d_r(jet)))}.items():
        for i, j in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            want = float(sp.diff(expr, R, dr + i, T, dt + j).subs(at))
            assert partial(series, i, j)[T_ORACLE] == pytest.approx(want, rel=1e-13)
    # a constant has no derivative, and a derivative is one coefficient shorter
    assert d_r(2.0) == 0 and d_t(2.0) == 0
    assert len(d_r(jet)) == K - 1 and len(d_t(jet).c[0]) == 2


def test_jet_exponent_matches_taylor_derivatives():
    # sympy.series takes seconds on a variable exponent; its derivatives do not
    text = "(2 + r)**(r*t + 1)"
    expr = sym(text)
    got = _jet_coeffs(text)[:, T_ORACLE]
    at = {R: R0, T: sp.nsimplify(TS[T_ORACLE])}
    want = [float(sp.diff(expr, R, k).subs(at)) / math.factorial(k) for k in range(4)]
    assert got[:4] == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_numbers_and_arrays_take_the_numpy_rules():
    for name, rule in JET_FUNCTIONS.items():
        numeric = sp.lambdify(R, getattr(sp, name)(R), modules="numpy")
        assert rule(TS) == pytest.approx(numeric(TS), rel=1e-15)


# each function's u-derivative from its value f and tanh u
SLOPES = {"tanh": lambda f, th: 1 - f**2, "coth": lambda f, th: 1 - f**2,
          "sech": lambda f, th: -f * th, "csch": lambda f, th: -f / th}


@pytest.mark.parametrize("name", ["tanh", "coth", "sech", "csch"])
def test_tanh_and_coth_series_lead_with_the_value_past_the_overflow(name):
    # the series divides sinh or cosh by cosh of the constant term (sech and
    # csch then scale by its sech), so it leads with the value rule's bits,
    # and stays finite where sinh and cosh overflow (past 710)
    prof = Profile(f"{name}(t*(1 + r))", name)
    t = np.array([0.3, 2.0, 700.0, 720.0, -800.0])
    table = prof.table(2, 2, 0.5, t)
    assert table[0, 0].tobytes() == prof(0.5, t).tobytes()
    assert np.all(np.isfinite(table))
    # d/dt f(t (1 + r)) = (1 + r) f'(t (1 + r))
    want = 1.5 * SLOPES[name](table[0, 0], np.tanh(1.5 * t))
    assert table[0, 1] == pytest.approx(want, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("expr, values", [
    # value, first and second r-derivative at r = 0
    pytest.param("sinh(r)/r", (1.0, 0.0, 1 / 3), id="expr0-values0"),
    pytest.param("(cosh(r) - 1)/r**2", (0.5, 0.0, 1 / 12), id="expr1-values1"),
])
def test_removable_quotients_at_the_pole(expr, values):
    prof = Profile(expr, "quotient")
    zero = np.zeros_like(TS)
    for nr, want in enumerate(values):
        assert prof.at(nr, 0, zero, TS) == pytest.approx(np.full(TS.shape, want), abs=1e-15)


def test_warp_quotient_at_the_pole_matches_sympy_series():
    # the drift product psi_r v_r / psi of a time-dependent warp
    psi = sp.sinh((1 + T) * R) / (1 + T)
    v = 2 + sp.exp(-T) * sp.cos(R) + R**2 * T
    expr = sp.diff(psi, R) * sp.diff(v, R) / psi
    prof = profile_of(expr, "drift")
    zero = np.zeros_like(TS)
    at = {T: sp.nsimplify(TS[T_ORACLE])}
    series = sp.series(expr.subs(at), R, 0, 3).removeO()
    for nr in range(3):
        want = float(series.coeff(R, nr)) * math.factorial(nr)
        assert prof.at(nr, 0, zero, TS)[T_ORACLE] == pytest.approx(want, rel=1e-13, abs=1e-14)
    want = float(sp.limit(sp.diff(expr, T).subs(at), R, 0, "+"))
    assert prof.at(0, 1, zero, TS)[T_ORACLE] == pytest.approx(want, rel=1e-13)


def test_hyperbolic_bump_forcing_pole_values(bump_profile):
    geom = make_geometry("hyperbolic", n=2)
    forcing = manufactured_forcing(bump_profile, geom, 2.5).forcing
    zero = np.zeros_like(TS)
    # direct evaluation is 0/0 at the pole, so these values come from the series
    direct = sp.lambdify((R, T), symbolic_closure(sym(bump_profile), geom, 2.5),
                         modules="numpy")
    with np.errstate(all="ignore"):
        assert np.isnan(direct(0.0, 0.5))
    e = np.exp
    want = {
        (0, 0): 2 * e(-TS) - 0.75 * e(-3 * TS),
        (1, 0): np.zeros_like(TS),
        (2, 0): (-12 * e(3 * TS) - 26 * e(2 * TS) + 8 * e(TS) - 2.5) * e(-4 * TS) / 8,
        (0, 1): -2 * e(-TS) + 2.25 * e(-3 * TS),
    }
    for (nr, nt), values in want.items():
        assert forcing.at(nr, nt, zero, TS) == pytest.approx(values, rel=1e-14, abs=1e-15)


def test_pole_node_among_others_cancels_at_that_node(bump_profile):
    # in one series over r = 0 and r = 0.3, the division by psi cancels at the
    # pole node alone, and agrees there with the series about r = 0
    forcing = manufactured_forcing(bump_profile, make_geometry("hyperbolic", n=2), 2.5).forcing
    r, t = np.array([0.0, 0.0, 0.0, 0.3]), np.array([*TS, 1.0])
    with np.errstate(all="ignore"):  # the plain quotient's 0/0 at the pole node
        value = partial(forcing.jet(*variables(r, t, 3, 2)), 0, 0)
    assert np.all(np.isfinite(value))
    assert value[:3] == pytest.approx(forcing(np.zeros(3), TS), rel=1e-14, abs=1e-15)
    assert forcing.table(2, 1, r, t)[..., :3] == pytest.approx(
        forcing.table(2, 1, np.zeros(3), TS), rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("expr", ["t*r**2/(r + t*r**3/10)",
                                  "exp(-t)*r**2*(1 + 3*t*r**2/10)/(r + t*r**3/10)"], ids=str)
def test_quotient_of_t_series_over_a_block_with_the_pole_matches_each_node(expr):
    # the divisor's r-coefficients are series in t, and at the pole node its
    # leading one is identically zero while at the other radii it is not: the
    # t-level quotient must leave that node to the r-level cancellation
    prof = Profile(expr, "quotient")
    r, t = np.array([0.0, 0.5, 0.0, 1.0]), np.array([0.5, 0.5, 1.5, 1.0])
    block = prof.table(2, 2, r, t)
    for k in range(len(r)):
        alone = prof.table(2, 2, r[k:k + 1], t[k:k + 1])[..., 0]
        assert block[..., k] == pytest.approx(alone, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("expr", ["1/r", "cos(r)/r", "log(r)"], ids=str)
def test_singular_forms_are_refused(expr):
    prof = Profile(f"{expr}*exp(-t)", "bad")
    with pytest.raises(PoleEvaluationError, match="singular at r = 0"):
        prof(np.zeros(2), np.array([0.5, 1.0]))


def test_forms_without_a_series_rule_are_refused():
    # every function an expression may call has a series rule; others are
    # refused when the string is read
    with pytest.raises(ExpressionError, match="is not allowed"):
        Profile("Abs(r)/r", "abs")


def test_truncation_guard_retries_then_refuses():
    quotient = "sinh(r)**6/r**6"
    fun, _ = compile_expression(quotient)
    # six leading zeros cancel: a 6-coefficient jet keeps none, a 14-coefficient one keeps 8
    assert len(fun(Jet.variable(0.0, 6), TS)) == 0
    assert len(fun(Jet.variable(0.0, 14), TS)) == 8
    # (sinh r / r)^6 = 1 + r^2 + O(r^4), so its second r-derivative at 0 is 2
    prof = Profile(quotient, "sinh6")
    assert prof.at(2, 0, np.zeros(1), np.ones(1)) == pytest.approx([2.0], rel=1e-14)
    deep = Profile("sinh(r)**20/r**20", "sinh20")
    with pytest.raises(PoleEvaluationError, match="truncated"):
        deep.at(2, 0, np.zeros(1), np.ones(1))

