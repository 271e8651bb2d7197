"""Harnack-exponent parameter bundles and the special (alpha, beta) presets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import PoleEvaluationError
from .symfun import Profile, constant_profile


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class AlphaBeta:
    """Time-dependent Harnack coefficient pair with closed-form derivatives."""

    alpha: Profile
    beta: Profile
    gamma: float | None = None

    def alpha_at(self, t):
        return self.alpha(np.zeros_like(np.asarray(t, dtype=float)), t)

    def at(self, t):
        """(alpha, alpha', beta, beta') at the times t, each coefficient and its
        t-derivative off one series; one not finite there is refused by name."""
        r = np.zeros_like(np.asarray(t, dtype=float))
        out = []
        for name, prof in (("alpha", self.alpha), ("beta", self.beta)):
            try:
                out.extend(prof.table(0, 1, r, t)[0])
            except (PoleEvaluationError, FloatingPointError):
                raise ParamError(f"{name} is not finite on the window") from None
        return out

    def check_admissible(self, t):
        """Refuse a pair that is not finite at the times t (with its
        t-derivatives), or whose alpha does not exceed 1 or decreases."""
        a, a_t, _, _ = self.at(t)
        if np.any(a <= 1.0):
            raise ParamError(f"alpha must exceed 1 on the window (min {np.min(a):.6g})")
        if np.any(a_t < -1e-12):
            raise ParamError("alpha must be nondecreasing")

    def shifted(self, t0: float) -> "AlphaBeta":
        """Same pair on a clock starting at t0 (t -> t - t0)."""
        if t0 == 0:
            return self
        shift = lambda prof: prof if prof.time_independent else Profile.of_jets(
            lambda r, t: prof.jet(r, t - t0), prof.orders, prof.name)
        return AlphaBeta(shift(self.alpha), shift(self.beta), gamma=self.gamma)


def constant_alpha_beta(alpha: float, beta: float = 0.0) -> AlphaBeta:
    if alpha <= 1.0:
        raise ParamError(f"alpha must exceed 1, got {alpha}")
    return AlphaBeta(constant_profile(alpha, "alpha"), constant_profile(beta, "beta"))


PRESETS = ("exp", "coth", "linear")


def preset_alpha_beta(which: str, gamma: float, b: float) -> AlphaBeta:
    """The three special coefficient pairs with their defining ODEs.

    ``gamma`` plays the role of the aggregate rate (m-1) k (p-1) sup(v) and
    must be positive: at gamma = 0 the exponential preset is alpha == 1,
    where no eps is admissible.  The coth and linear presets are singular at
    t = 0 and must be evaluated at t > 0.
    """
    if which not in PRESETS:
        raise ParamError(f"unknown alpha/beta preset {which!r}")
    if gamma <= 0:
        raise ParamError(f"{which} preset requires gamma > 0")
    g, b = float(gamma), float(b)
    # the coefficients the expressions below print, each a finite number
    printed = {"exp": [2 * g], "coth": [g, b * g], "linear": [2 * g / 3, b, g, g * g / 3]}
    if not np.all(np.isfinite(printed[which])):
        raise ParamError(f"{which} preset: gamma = {g!r} overflows its coefficients")
    if which == "exp":
        alpha = Profile(f"exp({2 * g!r}*t)", "alpha")
        beta = constant_profile(0.0, "beta")
    elif which == "coth":
        s, c = f"sinh({g!r}*t)", f"cosh({g!r}*t)"
        alpha = Profile(f"1 + ({c}*{s} - {g!r}*t)/{s}**2", "alpha")
        beta = Profile(f"{b * g!r}*(coth({g!r}*t) + 1)", "beta")
    else:
        alpha = Profile(f"1 + {2 * g / 3!r}*t", "alpha")
        beta = Profile(f"{b!r}*(1/t + {g!r} + {g**2 / 3!r}*t)", "beta")
    return AlphaBeta(alpha, beta, gamma=gamma)


def preset_ode_residuals(pair: AlphaBeta, which: str, b: float, t) -> dict[str, dict]:
    """Residuals of the defining ODEs of each preset on a time grid.

    Each entry carries the raw residual and the scale of the ODE's terms at
    that time; the singular presets have terms of size 1/t^2 near t = 0, so
    residual tolerances are meaningful relative to the scale.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) and which in ("coth", "linear"):
        raise ParamError("coth/linear presets are singular at t = 0")
    g = pair.gamma if pair.gamma is not None else 0.0
    a, ap, be, bp = pair.at(t)

    def entry(residual, *terms):
        scale = np.maximum(1.0, sum(np.abs(x) for x in terms))
        return {"residual": residual, "scale": scale}

    if which == "exp":
        return {"2*gamma*alpha - alpha'": entry(2 * g * a - ap, 2 * g * a, ap)}
    if which == "coth":
        return {
            "2*beta/b - alpha' - 2*alpha*(beta/b - gamma)":
                entry(2 * be / b - ap - 2 * a * (be / b - g),
                      2 * be / b, ap, 2 * a * (be / b - g)),
            "beta' + 2*(beta/b - gamma)*beta - beta^2/b":
                entry(bp + 2 * (be / b - g) * be - be**2 / b,
                      bp, 2 * (be / b - g) * be, be**2 / b),
        }
    if which == "linear":
        return {
            "2*(1/t + gamma) - alpha' - 2*alpha/t":
                entry(2 * (1 / t + g) - ap - 2 * a / t,
                      2 * (1 / t + g), ap, 2 * a / t),
            "beta' + 2*beta/t - b*(1/t + gamma)^2":
                entry(bp + 2 * be / t - b * (1 / t + g) ** 2,
                      bp, 2 * be / t, b * (1 / t + g) ** 2),
        }
    raise ParamError(f"unknown preset {which!r}")


def family_weight(family: str, alpha):
    """The weight w of an estimate family: 1 for the first, alpha for the
    second.  Besides w, only the first family's alpha'/alpha slope term
    (``estimates.estimate_brackets``) tells the two apart."""
    if family == "first":
        return 1.0
    if family == "second":
        return alpha
    raise ParamError(f"unknown estimate family {family!r}")


@dataclass(frozen=True)
class HarnackParams:
    """Exponents and coefficient functions entering the gradient estimates."""

    p: float
    m: float
    coeffs: AlphaBeta

    def __post_init__(self):
        if self.p <= 1:
            raise ParamError(f"exponent p must exceed 1, got {self.p}")
        if self.m < 2:
            raise ParamError("synthetic dimension m must be at least 2")

    @property
    def b(self) -> float:
        mp = self.m * (self.p - 1)
        return mp / (1.0 + mp)

    def eps_ceiling(self, t, mode: str = "first") -> float:
        """Largest admissible eps over a time grid for the estimate family
        ``mode``: the minimum of 2(alpha-1)^2/(b alpha^2 w)."""
        a = self.coeffs.alpha_at(t)
        return float(np.min(2 * (a - 1) ** 2 / (self.b * a**2 * family_weight(mode, a))))

    def require_eps(self, eps: float, t, mode: str = "first"):
        cap = self.eps_ceiling(t, mode)
        bound = "2(alpha-1)^2/(b alpha^2)/w"
        if cap <= 0:
            raise ParamError(
                f"no admissible eps: {bound} vanishes on the window because "
                "alpha reaches 1 (preset pairs need a positive clock_offset)"
            )
        if not 0 < eps < cap:
            raise ParamError(
                f"eps = {eps:.6g} violates 0 < eps < {bound} = {cap:.6g} for the {mode} "
                "estimate (w = 1 for the first family, alpha for the second)"
            )
