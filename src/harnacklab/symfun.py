"""Closed-form radial/time functions backed by symbolic derivative tables.

Every analytic input to the laboratory (warp factor, conformal factor,
potential, manufactured solutions, forcing terms) is a sympy expression in
the coordinates ``r`` and ``t``.  Derivatives of any order are generated
symbolically once, lambdified, and cached, so identity residuals are limited
only by floating-point roundoff rather than differencing error.

Radial expressions may contain factors like ``psi_r/psi`` that are singular
at the pole ``r = 0`` even though the full expression has a finite limit
there.  Evaluation handles this by computing the one-sided limit (cached per
expression and derivative order) whenever direct substitution at ``r = 0``
fails to produce a finite value.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

R, T = sp.symbols("r t", real=True)

# numpy lacks the reciprocal hyperbolics that show up in the coth/csch
# presets; supply them to lambdify explicitly.
_NUMPY_EXTRAS = {
    "coth": lambda x: 1.0 / np.tanh(x),
    "csch": lambda x: 1.0 / np.sinh(x),
    "sech": lambda x: 1.0 / np.cosh(x),
}


def _lambdify(expr, args):
    return sp.lambdify(args, expr, modules=[_NUMPY_EXTRAS, "numpy"])


def _broadcast_eval(fun, *arrays):
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    with np.errstate(all="ignore"):
        out = fun(*arrays)
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return out


class PoleEvaluationError(ValueError):
    """Expression has no finite one-sided limit at r = 0."""


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
        self._pole_funcs: dict[tuple[int, int], object] = {}

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
        if key not in self._pole_funcs:
            expr = self.deriv_expr(*key)
            value = _pole_value(expr, self.name)
            self._pole_funcs[key] = _lambdify(value, (T,))
        return self._pole_funcs[key]

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
            return out

        return evaluate

    def __call__(self, r, t):
        return self.deriv(0, 0)(r, t)

    def at(self, nr, nt, r, t):
        return self.deriv(nr, nt)(r, t)


def _pole_value(expr, name=""):
    """Value of ``expr`` at r = 0, via substitution then one-sided limit."""
    try:
        direct = expr.subs(R, 0)
        if direct.is_finite is not False and not direct.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            # substitution may still hide a 0/0; probe numerically
            probe = complex(direct.subs(T, sp.Rational(7, 10)))
            if np.isfinite(probe.real):
                return direct
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    try:
        lim = sp.limit(expr, R, 0, "+")
    except Exception as exc:  # pragma: no cover - sympy failure is fatal here
        raise PoleEvaluationError(f"cannot evaluate {name!r} at the pole: {exc}")
    if lim.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise PoleEvaluationError(f"profile {name!r} is singular at r = 0: limit {lim}")
    return lim


def constant_profile(value, name: str = "") -> Profile:
    return Profile(sp.sympify(value), name=name or f"const({value})")
