"""Truncated Taylor series in r whose coefficients are arrays over t.

A :class:`Jet` holds the coefficients c_0, ..., c_{K-1} of
sum_k c_k (r - r0)^k; each c_k is a number or a numpy array over the time
nodes.  Lambdifying a sympy expression with ``modules=[JET_NAMESPACE]`` and
calling it at ``r = Jet.variable(r0, K)`` gives the series of the expression
about r0, from which the k-th r-derivative is ``c_k * k!``.

The rules are the truncated Taylor recurrences of Griewank and Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13.  A quotient first
cancels its divisor's leading zero coefficients, which is what turns the
removable 0/0 forms at the pole (such as psi_r/psi) into finite values; it
requires the numerator's matching coefficients to vanish and otherwise raises
:class:`PoleEvaluationError`.  Cancelling k zeros costs k coefficients, so a
quotient is shorter than its operands and a caller checks the length of what
comes out.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_ZERO = np.float64(0.0)

# a coefficient counts as zero when, at every time node, it is below this
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


def _scale(c):
    """Largest coefficient magnitude of a series, per time node."""
    return functools.reduce(np.maximum, (np.abs(a) for a in c), _ZERO)


def _vanishes(a, scale) -> bool:
    return bool(np.all(np.abs(a) <= _ZERO_RTOL * scale))


def _valuation(c) -> int:
    """Number of leading coefficients that vanish (all of them when all do)."""
    scale = _scale(c)
    for k, a in enumerate(c):
        if not _vanishes(a, scale):
            return k
    return len(c)


def _cauchy(a, b):
    n = min(len(a), len(b))
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(n)]


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
    return Jet(q)


def _integer_power(u: Jet, n: int) -> Jet:
    out = Jet([np.float64(1.0), *[_ZERO] * (len(u) - 1)][:len(u)])
    while n:
        if n & 1:
            out = out * u
        n >>= 1
        if n:
            u = u * u
    return out


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
    v = [np.exp(u.c[0])] if u.c else []
    for k in range(1, len(u)):
        v.append(sum(j * u.c[j] * v[k - j] for j in range(1, k + 1)) / k)
    return Jet(v)


def _log(u: Jet) -> Jet:
    if not u.c:
        return u
    if _vanishes(u.c[0], _scale(u.c)):
        raise PoleEvaluationError("singular at r = 0: log of a series that vanishes there")
    u0 = u.c[0]
    v = [np.log(u0)]
    for k in range(1, len(u)):
        v.append((u.c[k] - sum(j * v[j] * u.c[k - j] for j in range(1, k)) / k) / u0)
    return Jet(v)


def _sin_cos(u: Jet, sign: int):
    """(sin u, cos u) for sign -1, (sinh u, cosh u) for sign +1."""
    if not u.c:
        return u, u
    if sign < 0:
        s, c = [np.sin(u.c[0])], [np.cos(u.c[0])]
    else:
        s, c = [np.sinh(u.c[0])], [np.cosh(u.c[0])]
    for k in range(1, len(u)):
        s.append(sum(j * u.c[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(sign * sum(j * u.c[j] * s[k - j] for j in range(1, k + 1)) / k)
    return Jet(s), Jet(c)


def _rule(numeric, series):
    """A function of a Jet (by ``series``) or of numbers and arrays (by ``numeric``)."""
    def apply(x):
        return series(x) if isinstance(x, Jet) else numeric(x)
    return apply


def _ratio(top, bottom):
    return lambda u: top(u) / bottom(u)


def _sin(u):
    return _sin_cos(u, -1)[0]


def _cos(u):
    return _sin_cos(u, -1)[1]


def _sinh(u):
    return _sin_cos(u, 1)[0]


def _cosh(u):
    return _sin_cos(u, 1)[1]


exp = _rule(np.exp, _exp)
log = _rule(np.log, _log)

# the series rules by name; config expressions may call these functions only
JET_FUNCTIONS = {
    "exp": exp,
    "log": log,
    "sqrt": _rule(np.sqrt, lambda u: _real_power(u, 0.5)),
    "sin": _rule(np.sin, _sin),
    "cos": _rule(np.cos, _cos),
    "sinh": _rule(np.sinh, _sinh),
    "cosh": _rule(np.cosh, _cosh),
    "tanh": _rule(np.tanh, _ratio(_sinh, _cosh)),
    "coth": _rule(lambda x: 1.0 / np.tanh(x), _ratio(_cosh, _sinh)),
    "sech": _rule(lambda x: 1.0 / np.cosh(x), lambda u: 1.0 / _cosh(u)),
    "csch": _rule(lambda x: 1.0 / np.sinh(x), lambda u: 1.0 / _sinh(u)),
}

# every name a lambdified expression resolves: the rules, and the constants
# the printer emits for pi and E
JET_NAMESPACE = {**JET_FUNCTIONS, "pi": math.pi, "e": math.e}
