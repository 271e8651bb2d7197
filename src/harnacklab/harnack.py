"""Integrated Harnack inequalities: path energies, the comparison constant,
a seeded Kronecker design of space-time pairs, pairwise verification and the
intermediate log-integral inequality.

The comparison bound for a positive pressure field v reads

    v(x1, t1) <= v(x2, t2) * exp[ alpha L(x1,x2) / (4 m_inf (t2-t1))
                                  + H (t2-t1)/alpha ] * (t2/t1)^(b alpha)

for constant alpha > 1, where m_inf = inf v, H = q0 + alpha sup_part of the
global gradient estimate (``estimates.sup_part``: its right side less the
clock term b alpha / t) and L is the infimum of path energies with the metric
along the traversed interval [t1, t2], in closed form for two points on one
ray (``path_energy``).  H and alpha are evaluated once per ``verify_harnack``
call, which checks all its pairs as arrays.
"""

from __future__ import annotations

import numpy as np

from .estimates import sup_part
from .geometry import WarpedGeometry
from .params import HarnackParams


class HarnackError(ValueError):
    pass


# ---------------------------------------------------------------------------
# path energy
# ---------------------------------------------------------------------------

def path_energy(geom: WarpedGeometry, r1, t1, r2, t2):
    """Infimum of the path energy between (x1, t1) and (x2, t2) on one ray,
    for each of the broadcast arrays (or scalars) r1, t1, r2, t2.

    A path x(s), s in [0, 1], traversed over [t1, t2] costs
    int_0^1 a(t(s))^2 |x'(s)|^2 ds in the metric at t(s) = t1 + s (t2 - t1).
    The sampled points lie on one ray from the pole and a depends on t only,
    so angular motion only adds energy, and by Cauchy-Schwarz

        (r2 - r1)^2 = (int a r' / a ds)^2 <= int a^2 r'^2 ds * int a^-2 ds,

    with equality for r' proportional to a^-2.  The infimum is therefore
    (r2 - r1)^2 / int_0^1 a^-2 ds; the integral is the mean of Simpson panel
    means over 256 panels, so a static unit factor gives exactly (r2 - r1)^2.
    One conformal evaluation at the panel nodes and one at the midpoints
    cover every pair.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not np.all(t1 < t2):
        raise HarnackError("path energy requires t1 < t2")
    s = np.linspace(0.0, 1.0, 257)
    inv_sq = lambda x: geom.conformal(0.0, t1[..., None] + x * (t2 - t1)[..., None]) ** -2.0
    nodes, mids = inv_sq(s), inv_sq(0.5 * (s[:-1] + s[1:]))
    panel_means = (nodes[..., :-1] + 4.0 * mids + nodes[..., 1:]) / 6.0
    return (np.asarray(r2, dtype=float) - r1) ** 2 / np.mean(panel_means, axis=-1)


# ---------------------------------------------------------------------------
# the comparison constant and bound
# ---------------------------------------------------------------------------

def _constant_alpha(params: HarnackParams) -> float:
    if not params.coeffs.alpha.time_independent:
        raise HarnackError("the integrated inequality is stated for constant alpha")
    return float(params.coeffs.alpha_at(np.array([0.0]))[0])


def harnack_constant(quantities: dict, alpha: float, b: float) -> float:
    """H = q0 + alpha sup_part: the matching global estimate's right side less
    its clock term b alpha / tau, at constant alpha (:func:`estimates.sup_part`)."""
    return float(quantities["q0"] + alpha * sup_part(quantities, b, alpha))


def harnack_log_bound(H: float, alpha: float, b: float, energy, v_inf: float, t1, t2):
    """log of the comparison bound for 0 < t1 < t2 on the estimate clock,
    at broadcast arrays (or scalars) energy, t1, t2."""
    exponent = alpha * energy / (4.0 * v_inf * (t2 - t1)) + H * (t2 - t1) / alpha
    return exponent + b * alpha * np.log(t2 / t1)


# ---------------------------------------------------------------------------
# the pair design
# ---------------------------------------------------------------------------

def sample_pairs(seed: int, n_pairs: int, r_max: float, tau_lo: float, tau_hi: float):
    """(n_pairs, 4) rows (r1, tau1, r2, tau2): pair k of ``seed`` maps the R4
    Kronecker point x_i = frac(j phi^-i), i = 1..4, j = seed 2^32 + k + 1, phi
    the real root of x^5 = x + 1 (Niederreiter, SIAM 1992), to r_max x1,
    tau_lo + (tau_hi - tau_lo - gap) x3, r_max x2 and
    tau1 + gap + (tau_hi - tau1 - gap) x4, so no pair is redrawn.  The least
    time gap is gap = 1e-3 tau_hi, so the design scales with the clock; the
    window [tau_lo, tau_hi] is wider than it (check-harnack's is
    [tau_hi/64, tau_hi]).  Each x_i is the top 53 bits of the fraction in
    integer arithmetic as wide as j needs: the same on every machine, and two
    seeds read disjoint blocks."""
    gap = 1e-3 * tau_hi
    first = seed << 32
    bits = (first + n_pairs).bit_length() + 128
    # y = 2^bits / phi: Newton's method from above on the convex y^5 + y^4 = 1
    one = y = 1 << bits
    while (step := (((y**5 >> 4 * bits) + (y**4 >> 3 * bits) - one) << bits)
            // ((5 * y**4 >> 3 * bits) + (4 * y**3 >> 2 * bits))) > 0:
        y -= step
    mask, steps = one - 1, [y**i >> (i - 1) * bits for i in range(1, 5)]
    x = np.array([[((first + k) * g & mask) >> (bits - 53) for g in steps]
                  for k in range(1, n_pairs + 1)], dtype=float).reshape(-1, 4) * 2.0**-53
    tau1 = tau_lo + (tau_hi - tau_lo - gap) * x[:, 2]
    tau2 = tau1 + gap + (tau_hi - tau1 - gap) * x[:, 3]
    # the rounded sum can fall one ulp short of the gap
    tau2 = np.where(tau2 - tau1 < gap, np.nextafter(tau2, np.inf), tau2)
    return np.column_stack([r_max * x[:, 0], tau1, r_max * x[:, 1], tau2])


# ---------------------------------------------------------------------------
# pairwise verification and the log-integral inequality
# ---------------------------------------------------------------------------

def verify_harnack(solution, geom: WarpedGeometry, params: HarnackParams,
                   quantities: dict, pairs, t0_clock: float, v_inf: float):
    """Check v(x1,t1) <= bound * v(x2,t2) and the log-integral step at every
    pair (r1, tau1, r2, tau2) of ``pairs`` at once.

    Margins are in log space: margin = log_bound - log(v1/v2), passed
    where margin >= -1e-8 * max(1, |log(v1/v2)|).  A log-integral margin
    below -1e-8 (unscaled) is a log-integral violation.
    An H, margin or log-integral margin that is not finite raises
    FloatingPointError: it is neither a pass nor a violation.  ``bound`` is
    exp(log_bound), saturated to inf where that overflows.  The result holds
    the ``pairs.csv`` columns as arrays over the pairs, the ``passed`` mask,
    both violation counts, H and v_inf.
    """
    if v_inf <= 0:
        raise HarnackError("the bound needs a positive infimum of v")
    r1, tau1, r2, tau2 = np.array(pairs, dtype=float).reshape(-1, 4).T
    if not np.all((0 < tau1) & (tau1 < tau2)):
        raise HarnackError("need 0 < tau1 < tau2 on the estimate clock")
    alpha = _constant_alpha(params)
    b = params.b
    H = harnack_constant(quantities, alpha, b)
    t1_abs, t2_abs = tau1 + t0_clock, tau2 + t0_clock
    energy = path_energy(geom, r1, t1_abs, r2, t2_abs)
    log_bound = harnack_log_bound(H, alpha, b, energy, v_inf, tau1, tau2)
    with np.errstate(over="ignore"):
        bound = np.exp(log_bound)
    v1, v2 = solution.value(r1, t1_abs), solution.value(r2, t2_abs)
    if np.any(v1 <= 0) or np.any(v2 <= 0):
        raise HarnackError("v must be positive at both ends of every pair")
    ratio = v1 / v2
    log_ratio = np.log(ratio)
    margin = log_bound - log_ratio
    log_margin = log_integral_margin(log_ratio, geom, alpha, b, H, v_inf,
                                     r1, tau1, r2, tau2, t0_clock)
    for name, values in (("H", H), ("margin", margin), ("log-integral margin", log_margin)):
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(f"check-harnack {quantities['family']} family: "
                                     f"{name} is not finite")
    ok = margin >= -1e-8 * np.maximum(1.0, np.abs(log_ratio))
    return {"r1": r1, "tau1": tau1, "r2": r2, "tau2": tau2, "energy": energy,
            "ratio": ratio, "bound": bound, "margin": margin,
            "log_integral_margin": log_margin, "passed": ok,
            "violations": int(np.count_nonzero(~ok)),
            "log_integral_violations": int(np.count_nonzero(log_margin < -1e-8)),
            "H": H, "v_inf": v_inf}


def log_integral_margin(log_ratio, geom: WarpedGeometry, alpha: float, b: float,
                        H: float, v_inf: float, r1, tau1, r2, tau2, t0_clock: float):
    """Margin of the intermediate inequality for f = log v along a path,
    at broadcast arrays (or scalars) log_ratio, r1, tau1, r2, tau2.

    f(x1,t1) - f(x2,t2) <= int alpha |dgamma/dt|^2 / (4 m_inf) dt
                           + int h(t)/alpha dt,   h(t) = b alpha^2/t + H,
    along the straight radial path traversed over [t1, t2]; ``log_ratio``
    is the left side, log(v(x1,t1) / v(x2,t2)).  The caller checks
    0 < tau1 < tau2 and v_inf > 0.
    """
    tau1, tau2 = np.asarray(tau1, dtype=float), np.asarray(tau2, dtype=float)
    # one path per row, contiguous, so each row sums as a lone path would
    taus = np.ascontiguousarray(np.linspace(tau1, tau2, 257, axis=-1))
    rdot = ((np.asarray(r2, dtype=float) - r1) / (tau2 - tau1))[..., None]
    # the path runs along one ray at constant speed, and a depends on t only
    speed2 = geom.conformal(0.0, taus + t0_clock) ** 2 * rdot**2
    kinetic = np.trapezoid(alpha * speed2 / (4.0 * v_inf), taus, axis=-1)
    # the bound's clock and H terms: its log at zero energy
    return kinetic + harnack_log_bound(H, alpha, b, 0.0, v_inf, tau1, tau2) - log_ratio
