"""Closed-form radial/time functions backed by symbolic derivative tables.

Every analytic input to the laboratory (warp factor, conformal factor,
potential, manufactured solutions, forcing terms) is a sympy expression in
the coordinates ``r`` and ``t``.  Derivatives of any order are generated
symbolically once, lambdified, and cached, so identity residuals are limited
only by floating-point roundoff rather than differencing error.

Radial expressions may contain factors like ``psi_r/psi`` that are singular
at the pole ``r = 0`` even though the full expression extends smoothly there.
Where direct evaluation at ``r = 0`` is not finite, the value comes from the
truncated Taylor series in r of the expression's t-partial (``jets``): the
(nr, nt) partial is nr! times its r^nr coefficient, so one series serves
every r-order.  An expression with no such series (1/r, log r, r log r) is
refused with :class:`PoleEvaluationError`.
"""

from __future__ import annotations

import math

import numpy as np
import sympy as sp

from .jets import JET_FUNCTIONS, JET_NAMESPACE, Jet, PoleEvaluationError

R, T = sp.symbols("r t", real=True)

# numpy lacks the reciprocal hyperbolics that show up in the coth/csch
# presets; the jet namespace's rules evaluate them on arrays too
_NUMPY_EXTRAS = {name: JET_FUNCTIONS[name] for name in ("coth", "csch", "sech")}


def _lambdify(expr, args):
    # the numpy module itself, not "numpy": the string makes lambdify run
    # `from numpy import *`, which imports numpy.f2py, numpy.testing and more
    # (0.13 s) on the first call of every command; the printed code is the same
    return sp.lambdify(args, expr, modules=[_NUMPY_EXTRAS, np])


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
    """A closed-form function of ``(r, t)`` with a cached derivative table.

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
        self._derivs: dict[tuple[int, int], sp.Expr] = {(0, 0): self.expr}
        self._funcs: dict[tuple[int, int], object] = {}
        self._pole_funcs: dict[int, object] = {}

    def __repr__(self):
        label = self.name or str(self.expr)
        return f"Profile({label})"

    # -- symbolic table ----------------------------------------------------
    def deriv_expr(self, nr: int = 0, nt: int = 0) -> sp.Expr:
        key = (nr, nt)
        if key not in self._derivs:
            self._derivs[key] = sp.diff(self.expr, R, nr, T, nt)
        return self._derivs[key]

    @property
    def time_independent(self) -> bool:
        return not self.expr.has(T)

    @property
    def space_independent(self) -> bool:
        return not self.expr.has(R)

    def is_constant(self) -> bool:
        return not (self.expr.has(R) or self.expr.has(T))

    # -- numeric evaluation --------------------------------------------------
    def _func(self, key):
        if key not in self._funcs:
            self._funcs[key] = _lambdify(self.deriv_expr(*key), (R, T))
        return self._funcs[key]

    def _pole_func(self, key):
        """Evaluator over t of the ``key`` partial at r = 0.

        The t-partial is lambdified once per nt into the jet namespace and
        expanded in r at r = 0; the value is coefficient nr times nr!.
        """
        nr, nt = key
        if nt not in self._pole_funcs:
            expr = self.deriv_expr(0, nt)
            missing = functions_without_series(expr)
            if missing:
                raise PoleEvaluationError(f"profile {self.name!r} has no series at r = 0: "
                                          f"no rule for {sorted(missing)}")
            self._pole_funcs[nt] = sp.lambdify((R, T), expr, modules=[JET_NAMESPACE])
        series = self._pole_funcs[nt]

        def evaluate(t):
            for extra in _POLE_EXTRA:
                try:
                    jet = series(Jet.variable(0.0, nr + 1 + extra), t)
                except PoleEvaluationError as exc:
                    raise PoleEvaluationError(f"profile {self.name!r} deriv {key}: {exc}") from None
                if not isinstance(jet, Jet):  # constant in r
                    return jet if nr == 0 else 0.0
                if len(jet) > nr:
                    return jet.c[nr] * math.factorial(nr)
            raise PoleEvaluationError(
                f"profile {self.name!r} deriv {key}: series truncated at r = 0 "
                f"({len(jet)} of {nr + 1} coefficients left from {nr + 1 + extra})")

        return evaluate

    def deriv(self, nr: int = 0, nt: int = 0):
        """Vectorized evaluator for the (nr, nt) partial derivative."""
        key = (nr, nt)
        fun = self._func(key)

        def evaluate(r, t):
            r_arr = np.asarray(r, dtype=float)
            t_arr = np.asarray(t, dtype=float)
            out = _broadcast_eval(fun, r_arr, t_arr)
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
                pole = self._pole_func(key)
                t_b = np.broadcast_to(t_arr, out.shape)
                out[at_pole] = _broadcast_eval(pole, t_b[at_pole])
                if not np.all(np.isfinite(out[at_pole])):
                    raise PoleEvaluationError(f"profile {self.name!r} deriv {key} is "
                                              f"singular at r = 0")
            return out

        return evaluate

    def __call__(self, r, t):
        return self.deriv(0, 0)(r, t)

    def at(self, nr, nt, r, t):
        return self.deriv(nr, nt)(r, t)


def constant_profile(value, name: str = "") -> Profile:
    return Profile(sp.sympify(value), name=name or f"const({value})")
