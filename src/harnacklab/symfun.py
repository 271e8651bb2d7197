"""Functions of (r, t) with every partial derivative from one Taylor series.

Every analytic input to the laboratory (warp factor, conformal factor,
potential, manufactured solutions) is a sympy expression in the coordinates
``r`` and ``t``.  A :class:`Profile` lambdifies it once, into the jet
namespace (``jets.JET_NAMESPACE``), whose rules act like numpy on arrays and
give the truncated Taylor series on a :class:`~.jets.Jet`.  Called on arrays,
that function gives the value; called on the series of r and t about every
node (``jets.variables``) it gives the bivariate series there, off which
every (nr, nt) partial is read.  Nothing is differentiated symbolically, and
identity residuals are limited only by floating-point roundoff.  Partials
need a jet rule for every function in the expression
(:func:`functions_without_series`); values do not.  Derived fields (a
weighted Laplacian, a closure forcing) are Profiles built by
:meth:`Profile.of_jets` from arithmetic on the series of their operands.

Radial expressions may contain factors like ``psi_r/psi`` that are singular
at the pole ``r = 0`` even though the full expression extends smoothly there.
Where evaluation at ``r = 0`` is not finite, the partials come from the
series about r = 0, whose quotients cancel removable 0/0 forms.  An
expression with no such series (1/r, log r) is refused with
:class:`PoleEvaluationError`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import sympy as sp

from .jets import JET_FUNCTIONS, JET_NAMESPACE, Jet, PoleEvaluationError, partial, variables

R, T = sp.symbols("r t", real=True)


def functions_without_series(expr) -> set:
    """Names of the functions in ``expr`` that have no jet rule."""
    return {f.func.__name__ for f in expr.atoms(sp.Function)} - JET_FUNCTIONS.keys()


# jet lengths beyond the nr + 1 coefficients a pole value needs: each
# cancelled 0/0 quotient uses coefficients up, and a shortfall retries once
_POLE_EXTRA = (3, 11)


class Profile:
    """A function of ``(r, t)`` whose partials come from its Taylor series.

    Parameters
    ----------
    expr : sympy expression or str or number
        May reference the module symbols ``r`` and ``t``.
    name : optional label used in reports and error messages.
    """

    # r- and t-derivatives the series function takes of its arguments; each
    # costs the series one coefficient in that variable
    orders = (0, 0)

    def __init__(self, expr, name: str = ""):
        if isinstance(expr, str):
            expr = sp.sympify(expr, locals={"r": R, "t": T})
        self.expr = sp.sympify(expr)
        bad = self.expr.free_symbols - {R, T}
        if bad:
            raise ValueError(f"profile {name!r} has stray symbols {bad}")
        self.name = name

    @classmethod
    def of_jets(cls, fun, orders, name: str) -> "Profile":
        """The profile, with no ``expr``, whose series at the series (r, t)
        is ``fun(r, t)``, which takes at most ``orders`` r- and
        t-derivatives; with orders (0, 0) ``fun`` must also take arrays."""
        prof = cls.__new__(cls)
        prof.expr, prof.name, prof.orders = None, name, tuple(int(k) for k in orders)
        prof._fun = fun
        return prof

    def __repr__(self):
        return f"Profile({self.name or self.expr})"

    @property
    def time_independent(self) -> bool:
        return not self.expr.has(T)

    @property
    def space_independent(self) -> bool:
        return not self.expr.has(R)

    def is_constant(self) -> bool:
        return not (self.expr.has(R) or self.expr.has(T))

    # -- evaluation ----------------------------------------------------------
    @cached_property
    def _fun(self):
        return sp.lambdify((R, T), self.expr, modules=[JET_NAMESPACE])

    @cached_property
    def _unruled(self):
        return [] if self.expr is None else sorted(functions_without_series(self.expr))

    def jet(self, r, t):
        """The series at the series (r, t), or the value at arrays r, t."""
        if self._unruled and isinstance(r, Jet):
            raise PoleEvaluationError(f"profile {self.name!r} has no Taylor series in r: "
                                      f"no rule for {self._unruled}")
        return self._fun(r, t)

    def _table(self, nr, nt, r, t, shape, extra=0):
        """The (i <= nr, j <= nt) partials off the series about (r, t), and
        whether cancelled 0/0 quotients left enough coefficients for all."""
        kr, kt = self.orders
        try:
            with np.errstate(all="ignore"):
                if (nr, nt) == (0, 0) == self.orders and not extra:  # a value off the pole
                    values = [self.jet(r, t)]
                else:
                    out = self.jet(*variables(r, t, nr + 1 + kr + extra, nt + 1 + kt))
                    values = [partial(out, i, j) for i in range(nr + 1) for j in range(nt + 1)]
        except PoleEvaluationError as exc:
            raise PoleEvaluationError(f"profile {self.name!r} deriv {(nr, nt)}: {exc}") from None
        table = np.empty((nr + 1, nt + 1, *shape))
        for ij, value in zip(np.ndindex(nr + 1, nt + 1), values):
            table[ij] = np.nan if value is None else value
        return table, all(value is not None for value in values)

    def table(self, nr, nt, r, t):
        """Every (i, j) partial with i <= nr and j <= nt at broadcast arrays
        r, t, from one evaluation: an array of shape (nr + 1, nt + 1, *shape)."""
        r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(r.shape, t.shape)
        out, _ = self._table(nr, nt, r, t, shape)
        bad = ~np.all(np.isfinite(out), axis=(0, 1))
        if np.any(bad):
            at_pole = bad & (np.broadcast_to(r, shape) == 0.0)
            if np.any(bad & ~at_pole):
                where = np.argwhere(bad & ~at_pole)[0]
                raise FloatingPointError(f"profile {self.name!r} deriv {(nr, nt)} non-finite "
                                         f"away from the pole (first at index {tuple(where)})")
            t_pole = np.broadcast_to(t, shape)[at_pole]
            for extra in _POLE_EXTRA:
                pole, complete = self._table(nr, nt, 0.0, t_pole, t_pole.shape, extra)
                if complete:
                    break
            else:
                raise PoleEvaluationError(
                    f"profile {self.name!r} deriv {(nr, nt)}: series truncated at r = 0 "
                    f"(fewer than {nr + 1} coefficients left from "
                    f"{nr + 1 + self.orders[0] + extra})")
            if not np.all(np.isfinite(pole)):
                raise PoleEvaluationError(f"profile {self.name!r} deriv {(nr, nt)} is "
                                          "singular at r = 0")
            out[:, :, at_pole] = pole
        return out

    def __call__(self, r, t):
        return self.table(0, 0, r, t)[0, 0]

    def at(self, nr, nt, r, t):
        """The (nr, nt) partial derivative at broadcast arrays r, t."""
        return self.table(nr, nt, r, t)[nr, nt]


def constant_profile(value, name: str = "") -> Profile:
    return Profile(sp.sympify(value), name=name or f"const({value})")
