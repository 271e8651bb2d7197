"""Functions of (r, t) with every partial derivative from one Taylor series.

Every analytic input to the laboratory (warp, conformal factor, potential,
manufactured solutions) is an expression string in ``r`` and ``t``, as a
config holds it.  :func:`compile_expression` reads it with ``ast`` against a
whitelist, folds its constant parts and compiles the rest over the jet
namespace, whose rules act like numpy on arrays and give the truncated Taylor
series on a :class:`~.jets.Jet`.  A :class:`Profile` calls that function on
arrays for values, and on the series of r and t about every node
(``jets.variables``) for the bivariate series there, off which every
(nr, nt) partial is read.  Nothing is differentiated symbolically, and
identity residuals are limited only by floating-point roundoff.  Derived
fields (a weighted Laplacian, a closure forcing) are Profiles built by
:meth:`Profile.of_jets` from arithmetic on the series of their operands.

Radial expressions may contain factors like ``psi_r/psi`` that are singular
at the pole ``r = 0`` even though the full expression extends smoothly there.
Where evaluation at ``r = 0`` is not finite, the partials come from the
series about r = 0, whose quotients cancel removable 0/0 forms.  An
expression with no such series (1/r, log r) is refused with
:class:`PoleEvaluationError`.
"""

from __future__ import annotations

import ast
import math
import operator
import sys

import numpy as np

from .jets import JET_FUNCTIONS, JET_NAMESPACE, PoleEvaluationError, partial, variables

COORDINATES = ("r", "t")
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow, ast.UAdd: operator.pos,
        ast.USub: operator.neg}
_GRAMMAR = (f"an expression takes numbers, r, t, pi, E, + - * / ** and the functions "
            f"{', '.join(JET_FUNCTIONS)} of one argument")


class ExpressionError(ValueError):
    """A string outside the grammar of :func:`compile_expression`."""


def _constant(fun, node, *args) -> float:
    """``fun(*args)`` for a constant subtree, which must be a finite real."""
    try:
        with np.errstate(all="ignore"):
            value = fun(*args)
    except ArithmeticError as exc:
        raise ExpressionError(f"{ast.unparse(node)!r} has no finite value "
                              f"({exc.args[-1]})") from None
    if not (isinstance(value, float) and math.isfinite(value)):
        raise ExpressionError(f"{ast.unparse(node)!r} is not a finite real number")
    return float(value)


def _literal(value):
    return ast.Constant(value) if isinstance(value, float) else value


def _fold(node):
    """A float for a constant subtree, or the subtree with its constant parts
    folded in place; anything outside the grammar raises ExpressionError."""
    kind = type(node)
    if kind is ast.Constant and type(node.value) in (int, float):
        if not abs(node.value) <= sys.float_info.max:
            raise ExpressionError("a number in the expression overflows a float")
        return float(node.value)
    if kind is ast.Name and node.id in COORDINATES:
        return node
    if kind is ast.Name and node.id in JET_NAMESPACE.keys() - JET_FUNCTIONS.keys():
        return float(JET_NAMESPACE[node.id])
    if kind is ast.BinOp and type(node.op) is ast.BitXor:
        raise ExpressionError("'^' is not a power; use '**'")
    if kind is ast.UnaryOp and type(node.op) in _OPS:
        children, fun = [node.operand], _OPS[type(node.op)]
    elif kind is ast.BinOp and type(node.op) in _OPS:
        children, fun = [node.left, node.right], _OPS[type(node.op)]
    elif (kind is ast.Call and type(node.func) is ast.Name and node.func.id in JET_FUNCTIONS
          and len(node.args) == 1 and not node.keywords):
        children, fun = node.args, JET_FUNCTIONS[node.func.id]
    else:
        raise ExpressionError(f"{ast.unparse(node)!r} is not allowed: {_GRAMMAR}")
    parts = [_fold(child) for child in children]
    if all(isinstance(part, float) for part in parts):
        return _constant(fun, node, *parts)
    # a product with a zero factor is zero, so 0*(1 + t) reads no coordinate
    if kind is ast.BinOp and type(node.op) is ast.Mult and 0.0 in parts:
        return 0.0
    parts = [_literal(part) for part in parts]
    if kind is ast.Call:
        node.args = parts
    elif kind is ast.UnaryOp:
        node.operand, = parts
    else:
        node.left, node.right = parts
    return node


def compile_expression(text: str):
    """The function of (r, t) that an expression string computes, and the
    frozenset of the coordinates it reads."""
    try:
        lam = ast.parse("lambda r, t: 0", mode="eval")
        lam.body.body = _literal(_fold(ast.parse(text.strip(), mode="eval").body))
        code = compile(ast.fix_missing_locations(lam), "<expression>", "eval")
    except (SyntaxError, RecursionError) as exc:
        raise ExpressionError(f"cannot parse expression: {getattr(exc, 'msg', exc)}") from None
    coords = frozenset(n.id for n in ast.walk(lam.body.body)
                       if type(n) is ast.Name and n.id in COORDINATES)
    return eval(code, {"__builtins__": {}, **JET_NAMESPACE}), coords


# jet lengths beyond the nr + 1 coefficients a pole value needs: each
# cancelled 0/0 quotient uses coefficients up, and a shortfall retries once
_POLE_EXTRA = (3, 11)
# node-coefficients per series evaluation in Profile.table: a block holds
# this many coefficients over all its arrays, so a series of more arrays runs
# fewer nodes at once (a closure forcing's (2, 0) table, 10 arrays, runs 2048)
_BLOCK_COEFFS = 20480


class Profile:
    """A function of ``(r, t)`` whose partials come from its Taylor series.

    Parameters
    ----------
    source : str
        An expression string in ``r`` and ``t`` (see :func:`compile_expression`).
    name : optional label used in reports and error messages.
    """

    # r- and t-derivatives the series function takes of its arguments; each
    # costs the series one coefficient in that variable
    orders = (0, 0)

    def __init__(self, source: str, name: str = ""):
        # jet(r, t): the series at the series (r, t), or the value at arrays r, t
        self.jet, self.coords = compile_expression(source)
        self.source, self.name = source, name

    @classmethod
    def of_jets(cls, fun, orders, name: str) -> "Profile":
        """The profile, with no source, whose series at the series (r, t) is
        ``fun(r, t)``, which takes at most ``orders`` r- and t-derivatives
        and may read both coordinates; with orders (0, 0) ``fun`` must also
        take arrays."""
        prof = cls.__new__(cls)
        prof.source, prof.name, prof.orders = None, name, tuple(int(k) for k in orders)
        prof.jet, prof.coords = fun, frozenset(COORDINATES)
        return prof

    def __repr__(self):
        return f"Profile({self.name or self.source})"

    @property
    def time_independent(self) -> bool:
        return "t" not in self.coords

    def is_constant(self) -> bool:
        return not self.coords

    # -- evaluation ----------------------------------------------------------
    def _partials(self, nr, nt, r, t, into, extra=0) -> bool:
        """Write the (i <= nr, j <= nt) partials off the series about (r, t)
        into ``into``, and say whether cancelled 0/0 quotients left enough
        coefficients for all."""
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
        for ij, value in zip(np.ndindex(nr + 1, nt + 1), values):
            into[ij] = np.nan if value is None else value
        return all(value is not None for value in values)

    def table(self, nr, nt, r, t):
        """Every (i, j) partial with i <= nr and j <= nt at broadcast arrays
        r, t: an array of shape (nr + 1, nt + 1, *shape).

        A series of (nr + 1 + kr) x (nt + 1 + kt) coefficient arrays (kr, kt
        the :attr:`orders`) is evaluated over consecutive blocks of
        ``_BLOCK_COEFFS`` // that many nodes of the raveled (r, t), each
        written into the output, so the coefficients held at once grow with
        neither the node count nor the orders.  A quotient's zero tests
        reduce over the nodes of one block, so a block (say, of pole nodes
        only) may cancel by another branch than the whole would; on every
        shipped profile each partition gives the same bits.  Pole nodes
        whose partials are not finite are then evaluated again together,
        from the series about r = 0.
        """
        r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(r.shape, t.shape)
        out = np.empty((nr + 1, nt + 1, *shape))
        size = math.prod(shape)
        kr, kt = self.orders
        nodes = max(1, _BLOCK_COEFFS // ((nr + 1 + kr) * (nt + 1 + kt)))
        # one block, or a value that builds no series: the nodes as they are
        if size <= nodes or (nr, nt) == (0, 0) == self.orders:
            self._partials(nr, nt, r, t, out)
        else:
            flat = out.reshape(nr + 1, nt + 1, size)
            r_all, t_all = np.broadcast_to(r, shape).flat, np.broadcast_to(t, shape).flat
            for start in range(0, size, nodes):
                block = slice(start, start + nodes)
                self._partials(nr, nt, r_all[block], t_all[block], flat[:, :, block])
        bad = ~np.all(np.isfinite(out), axis=(0, 1))
        if np.any(bad):
            at_pole = bad & (np.broadcast_to(r, shape) == 0.0)
            if np.any(bad & ~at_pole):
                where = np.argwhere(bad & ~at_pole)[0]
                raise FloatingPointError(f"profile {self.name!r} deriv {(nr, nt)} non-finite "
                                         f"away from the pole (first at index {tuple(where)})")
            t_pole = np.broadcast_to(t, shape)[at_pole]
            pole = np.empty((nr + 1, nt + 1, t_pole.size))
            for extra in _POLE_EXTRA:
                if self._partials(nr, nt, 0.0, t_pole, pole, extra):
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
    return Profile(repr(float(value)), name=name or f"const({value})")
