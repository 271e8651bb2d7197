"""Closed-form radial/time functions with every r-partial from one Taylor series.

Every analytic input to the laboratory (warp factor, conformal factor,
potential, manufactured solutions, forcing terms) is a sympy expression in
the coordinates ``r`` and ``t``.  A :class:`Profile` differentiates in t
symbolically and lambdifies each t-partial once, into the jet namespace
(``jets.JET_NAMESPACE``), whose rules act like numpy on numbers and arrays
and give the truncated Taylor series on a :class:`~.jets.Jet`.  Called on
arrays, that function gives the value; called at ``r = Jet.variable(r, nr +
1)`` it gives the series in r about every node, and the (nr, nt) partial is
nr! times its r^nr coefficient.  So one function serves every r-order, no
r-partial is differentiated symbolically, and identity residuals are limited
only by floating-point roundoff rather than differencing error.  r-partials
need a jet rule for every function in the expression
(:func:`functions_without_series`); values do not.

Radial expressions may contain factors like ``psi_r/psi`` that are singular
at the pole ``r = 0`` even though the full expression extends smoothly there.
Where evaluation at ``r = 0`` is not finite, the value comes from the same
function's series about r = 0, whose quotients cancel removable 0/0 forms.
An expression with no such series (1/r, log r, r log r) is refused with
:class:`PoleEvaluationError`.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import sympy as sp

from .jets import JET_FUNCTIONS, JET_NAMESPACE, Jet, PoleEvaluationError

R, T = sp.symbols("r t", real=True)


def _broadcast_eval(fun, *arrays):
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    with np.errstate(all="ignore"):
        out = fun(*arrays)
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


def functions_without_series(expr) -> set:
    """Names of the functions in ``expr`` that have no jet rule."""
    return {f.func.__name__ for f in expr.atoms(sp.Function)} - JET_FUNCTIONS.keys()


# jet lengths beyond the nr + 1 coefficients a pole value needs: each
# cancelled 0/0 quotient uses coefficients up, and a shortfall retries once
_POLE_EXTRA = (3, 11)


class Profile:
    """A closed-form function of ``(r, t)`` with cached t-partials.

    Parameters
    ----------
    expr : sympy expression or str or number
        May reference the module symbols ``r`` and ``t``.
    name : optional label used in reports and error messages.
    """

    def __init__(self, expr, name: str = ""):
        if isinstance(expr, str):
            expr = sp.sympify(expr, locals={"r": R, "t": T})
        self.expr = sp.sympify(expr)
        bad = self.expr.free_symbols - {R, T}
        if bad:
            raise ValueError(f"profile {name!r} has stray symbols {bad}")
        self.name = name
        self._derivs: dict[int, sp.Expr] = {0: self.expr}
        self._series: dict[int, object] = {}

    def __repr__(self):
        label = self.name or str(self.expr)
        return f"Profile({label})"

    # -- symbolic table ----------------------------------------------------
    def deriv_expr(self, nt: int = 0) -> sp.Expr:
        """The t-partial of order ``nt``; r-partials come from its series."""
        if nt not in self._derivs:
            self._derivs[nt] = sp.diff(self.expr, T, nt)
        return self._derivs[nt]

    @property
    def time_independent(self) -> bool:
        return not self.expr.has(T)

    @property
    def space_independent(self) -> bool:
        return not self.expr.has(R)

    def is_constant(self) -> bool:
        return not (self.expr.has(R) or self.expr.has(T))

    # -- numeric evaluation --------------------------------------------------
    def _series_func(self, nt):
        """The ``nt`` t-partial lambdified into the jet namespace."""
        if nt not in self._series:
            self._series[nt] = sp.lambdify((R, T), self.deriv_expr(nt), modules=[JET_NAMESPACE])
        return self._series[nt]

    @cached_property
    def _unruled(self):
        # t-partials of the rule functions are built from rule functions
        return sorted(functions_without_series(self.expr))

    def _jet_partial(self, key, r, t, length):
        """nr! times the r^nr coefficient of the ``nt`` t-partial's series
        about r, ``length`` coefficients long; None when cancelled 0/0
        quotients left too few."""
        nr, nt = key
        if self._unruled:
            raise PoleEvaluationError(f"profile {self.name!r} has no Taylor series in r: "
                                      f"no rule for {self._unruled}")
        try:
            jet = self._series_func(nt)(Jet.variable(r, length), t)
        except PoleEvaluationError as exc:
            raise PoleEvaluationError(f"profile {self.name!r} deriv {key}: {exc}") from None
        if not isinstance(jet, Jet):  # constant in r
            return jet if nr == 0 else 0.0
        return jet.c[nr] * math.factorial(nr) if len(jet) > nr else None

    def _pole_value(self, key, t):
        nr = key[0]
        for extra in _POLE_EXTRA:
            value = self._jet_partial(key, 0.0, t, nr + 1 + extra)
            if value is not None:
                return value
        raise PoleEvaluationError(
            f"profile {self.name!r} deriv {key}: series truncated at r = 0 "
            f"(fewer than {nr + 1} coefficients left from {nr + 1 + extra})")

    def _evaluate(self, nr, nt, r, t):
        key = (nr, nt)
        r_arr = np.asarray(r, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if nr == 0:
            out = _broadcast_eval(self._series_func(nt), r_arr, t_arr)
        else:
            def partial(r, t):
                value = self._jet_partial(key, r, t, nr + 1)
                return np.nan if value is None else value
            out = _broadcast_eval(partial, r_arr, t_arr)
        bad = ~np.isfinite(out)
        if np.any(bad):
            r_b = np.broadcast_to(r_arr, out.shape)
            at_pole = bad & (r_b == 0.0)
            if np.any(bad & ~at_pole):
                where = np.argwhere(bad & ~at_pole)[0]
                raise FloatingPointError(
                    f"profile {self.name!r} deriv {key} non-finite away "
                    f"from the pole (first at index {tuple(where)})"
                )
            t_b = np.broadcast_to(t_arr, out.shape)
            out[at_pole] = _broadcast_eval(lambda t: self._pole_value(key, t), t_b[at_pole])
            if not np.all(np.isfinite(out[at_pole])):
                raise PoleEvaluationError(f"profile {self.name!r} deriv {key} is "
                                          f"singular at r = 0")
        return out

    def __call__(self, r, t):
        return self._evaluate(0, 0, r, t)

    def at(self, nr, nt, r, t):
        """The (nr, nt) partial derivative at broadcast arrays r, t."""
        return self._evaluate(nr, nt, r, t)


def constant_profile(value, name: str = "") -> Profile:
    return Profile(sp.sympify(value), name=name or f"const({value})")
