"""Truncated Taylor series in r whose coefficients are arrays or series in t.

A :class:`Jet` holds the coefficients c_0, ..., c_{K-1} of
sum_k c_k (r - r0)^k; each c_k is a number, a numpy array over the nodes, or
itself a Jet: a series in (t - t0) whose coefficients are numbers or arrays.
An expression compiled over ``JET_NAMESPACE`` (``symfun.compile_expression``)
and called at the series of :func:`variables` gives the bivariate series of
the expression about (r0, t0), from which the (i, j) partial is i! j! times
the t^j coefficient of c_i (:func:`partial`).  :func:`d_r` and :func:`d_t`
differentiate a series, so fields derived from several expressions (a
weighted Laplacian, a closure forcing) are built by arithmetic on their
series, with no symbolic differentiation.

The rules are the truncated Taylor recurrences of Griewank and Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13.  A quotient first
cancels its divisor's leading zero coefficients, which is what turns the
removable 0/0 forms at the pole (such as psi_r/psi) into finite values; it
requires the numerator's matching coefficients to vanish and otherwise raises
:class:`PoleEvaluationError`.  Cancelling k zeros costs k coefficients, so a
quotient is shorter than its operands and a caller checks the length of what
comes out.  A divisor whose leading coefficient vanishes at some nodes only
(the pole among other radii) is cancelled at those nodes alone, where each
cancelled zero makes the quotient's last coefficient nan.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_ZERO = np.float64(0.0)

# a coefficient counts as zero when, at every node, it is below this
# fraction of the largest coefficient of its series there
_ZERO_RTOL = 1e-10


class PoleEvaluationError(ValueError):
    """Expression has no Taylor series in r at r = 0."""


class Jet:
    """Truncated Taylor series in r; see the module docstring."""

    __slots__ = ("c",)
    # numpy operands defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @classmethod
    def variable(cls, r0, length: int) -> "Jet":
        """The series of r itself about r0, with ``length`` coefficients."""
        return cls([np.float64(r0), np.float64(1.0), *[_ZERO] * (length - 2)][:length])

    def __len__(self):
        return len(self.c)

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet([self.c[0] + other, *self.c[1:]]) if self.c else self
        return Jet([a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([a * other for a in self.c])
        return Jet(_cauchy(self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet([a / other for a in self.c])
        return _divide(self.c, other.c)

    def __rtruediv__(self, other):
        return _divide([other, *[_ZERO] * (len(self) - 1)], self.c)

    def __pow__(self, a):
        if isinstance(a, Jet) or np.ndim(a):
            return exp(a * log(self))
        if float(a).is_integer():
            n = int(a)
            return _integer_power(self, n) if n >= 0 else 1.0 / _integer_power(self, -n)
        return _real_power(self, float(a))

    def __rpow__(self, base):
        return exp(self * np.log(base))


def _magnitude(a):
    """|a| per node; a coefficient that is a series in t counts by its largest."""
    return _scale(a.c) if isinstance(a, Jet) else np.abs(a)


def _scale(c):
    """Largest coefficient magnitude of a series, per node."""
    return functools.reduce(np.maximum, (_magnitude(a) for a in c), _ZERO)


def _vanishes(a, scale) -> bool:
    return bool(np.all(_magnitude(a) <= _ZERO_RTOL * scale))


def _valuation(c) -> int:
    """Number of leading coefficients that vanish (all of them when all do)."""
    scale = _scale(c)
    for k, a in enumerate(c):
        if not _vanishes(a, scale):
            return k
    return len(c)


def _cauchy(a, b):
    n = min(len(a), len(b))
    return [sum((a[j] * b[k - j] for j in range(1, k + 1)), a[0] * b[k]) for k in range(n)]


def _divide(a, b) -> Jet:
    k = _valuation(b)
    scale = _scale(a)
    if not all(_vanishes(x, scale) for x in a[:k]):
        raise PoleEvaluationError("singular at r = 0: a numerator does not vanish "
                                  "to the order of its divisor")
    a, b = a[k:], b[k:]
    q = []
    for i in range(min(len(a), len(b))):
        q.append((a[i] - sum(q[j] * b[i - j] for j in range(i))) / b[0])
    if len(q) > 1:
        # nodes where both leading coefficients vanish, but not the whole divisor
        # (a t-series at the pole, left nan for the r-level), take the shifted quotient
        cancel = ((_magnitude(b[0]) <= _ZERO_RTOL * (b_scale := _scale(b))) & (b_scale > 0)
                  & (_magnitude(a[0]) <= _ZERO_RTOL * scale))
        if np.any(cancel):
            shifted = _divide(a[1:], b[1:]).c
            q = [_where(cancel, x, y) for x, y in zip([*shifted, q[-1] * np.nan], q)]
    return Jet(q)


def _where(mask, x, y):
    """x at the nodes of ``mask`` and y elsewhere; a series in t is merged
    coefficient by coefficient, a plain value being one with no t-terms."""
    if not (isinstance(x, Jet) or isinstance(y, Jet)):
        return np.where(mask, x, y)
    n = min(len(u) for u in (x, y) if isinstance(u, Jet))
    xs, ys = ((u.c if isinstance(u, Jet) else [u, *[_ZERO] * n])[:n] for u in (x, y))
    return Jet([_where(mask, xi, yi) for xi, yi in zip(xs, ys)])


def _integer_power(u: Jet, n: int) -> Jet:
    out = None  # no product yet: u^0 is the series of 1
    while n:
        if n & 1:
            out = u if out is None else out * u
        n >>= 1
        if n:
            u = u * u
    return Jet([np.float64(1.0), *[_ZERO] * (len(u) - 1)][:len(u)]) if out is None else out


def _real_power(u: Jet, a: float) -> Jet:
    if not u.c:
        return u
    if _vanishes(u.c[0], _scale(u.c)):
        raise PoleEvaluationError(f"singular at r = 0: power {a:g} of a series "
                                  "that vanishes there is not smooth")
    u0 = u.c[0]
    v = [u0**a]
    for k in range(1, len(u)):
        v.append(sum(((a + 1) * j - k) * u.c[j] * v[k - j] for j in range(1, k + 1)) / (k * u0))
    return Jet(v)


def _exp(u: Jet) -> Jet:
    v = [exp(u.c[0])] if u.c else []
    for k in range(1, len(u)):
        v.append(sum(j * u.c[j] * v[k - j] for j in range(1, k + 1)) / k)
    return Jet(v)


def _log(u: Jet) -> Jet:
    if not u.c:
        return u
    if _vanishes(u.c[0], _scale(u.c)):
        raise PoleEvaluationError("singular at r = 0: log of a series that vanishes there")
    u0 = u.c[0]
    v = [log(u0)]
    for k in range(1, len(u)):
        v.append((u.c[k] - sum(j * v[j] * u.c[k - j] for j in range(1, k)) / k) / u0)
    return Jet(v)


def _sin_cos(u: Jet, sign: int, scaled: bool = False):
    """(sin u, cos u) for sign -1, (sinh u, cosh u) for sign +1, ``scaled`` over
    cosh u0: their quotients then lead with np.tanh(u0) and outlive the overflow."""
    if not u.c:
        return u, u
    u0 = u.c[0]
    if isinstance(u0, Jet):
        s, c = ([a] for a in _sin_cos(u0, sign, scaled))
    elif sign < 0:
        s, c = [np.sin(u0)], [np.cos(u0)]
    elif scaled:
        s, c = [np.tanh(u0)], [np.ones_like(u0)]
    else:
        s, c = [np.sinh(u0)], [np.cosh(u0)]
    for k in range(1, len(u)):
        s.append(sum(j * u.c[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(sign * sum(j * u.c[j] * s[k - j] for j in range(1, k + 1)) / k)
    return Jet(s), Jet(c)


def _reciprocal(u: Jet, k: int) -> Jet:
    """csch u (k = 0) or sech u (k = 1): sech of u's innermost constant term over
    the scaled sinh or cosh, so it leads with the value rule's bits past the overflow."""
    u0 = u
    while isinstance(u0, Jet) and u0.c:
        u0 = u0.c[0]
    return u if not u.c else (1.0 / np.cosh(u0)) / _sin_cos(u, 1, True)[k]


def _rule(numeric, series):
    """A function of a Jet (by ``series``) or of numbers and arrays (by ``numeric``)."""
    def apply(x):
        return series(x) if isinstance(x, Jet) else numeric(x)
    return apply


exp = _rule(np.exp, _exp)
log = _rule(np.log, _log)

# the series rules by name; config expressions may call these functions only
JET_FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sqrt": _rule(np.sqrt, lambda u: _real_power(u, 0.5)),
    "sin": _rule(np.sin, lambda u: _sin_cos(u, -1)[0]),
    "cos": _rule(np.cos, lambda u: _sin_cos(u, -1)[1]),
    "sinh": _rule(np.sinh, lambda u: _sin_cos(u, 1)[0]),
    "cosh": _rule(np.cosh, lambda u: _sin_cos(u, 1)[1]),
    "tanh": _rule(np.tanh, lambda u: operator.truediv(*_sin_cos(u, 1, True))),
    "coth": _rule(lambda x: 1.0 / np.tanh(x),
                  lambda u: operator.truediv(*_sin_cos(u, 1, True)[::-1])),
    "sech": _rule(lambda x: 1.0 / np.cosh(x), lambda u: _reciprocal(u, 1)),
    "csch": _rule(lambda x: 1.0 / np.cosh(x) / np.tanh(x), lambda u: _reciprocal(u, 0)),
}

# every name an expression may use besides r and t: the rules and two constants
JET_NAMESPACE = {**JET_FUNCTIONS, "pi": math.pi, "E": math.e}


def variables(r0, t0, kr: int, kt: int):
    """The series of r and t about (r0, t0), with kr coefficients in r and kt
    in t: t enters as a series in r whose constant coefficient is its series
    in t, or as the plain t0 when kt is 1."""
    r = Jet.variable(r0, kr)
    return r, (Jet([Jet.variable(t0, kt), *[_ZERO] * (kr - 1)]) if kt > 1 else t0)


def partial(u, i: int, j: int):
    """i! j! times the r^i t^j coefficient of the series u, the (i, j)
    partial at its expansion point; None where u ends before it."""
    for k in (i, j):
        if isinstance(u, Jet):
            if k >= len(u):
                return None
            u = u.c[k]
        elif k:
            return _ZERO
    return u * (math.factorial(i) * math.factorial(j))


def d_r(u):
    """The r-derivative of a series, one coefficient shorter."""
    return Jet([k * a for k, a in enumerate(u.c[1:], 1)]) if isinstance(u, Jet) else _ZERO


def d_t(u):
    """The t-derivative of a series whose coefficients are series in t."""
    return Jet([d_r(a) for a in u.c]) if isinstance(u, Jet) else _ZERO
