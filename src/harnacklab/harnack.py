"""Integrated Harnack inequalities: path energies, the comparison constant,
pairwise verification and the intermediate log-integral inequality.

The comparison bound for a positive pressure field v reads

    v(x1, t1) <= v(x2, t2) * exp[ alpha L(x1,x2) / (4 m_inf (t2-t1))
                                  + H (t2-t1)/alpha ] * (t2/t1)^(b alpha)

for constant alpha > 1, where m_inf = inf v, H aggregates the sup-quantities
of the corresponding global gradient estimate and L is the infimum of path
energies with the metric evaluated along the traversed interval [t1, t2],
in closed form for two points on one ray (``path_energy``).  H and alpha are
evaluated once per ``verify_harnack`` call.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import WarpedGeometry
from .params import HarnackParams, family_weight


class HarnackError(ValueError):
    pass


# ---------------------------------------------------------------------------
# path energy
# ---------------------------------------------------------------------------

def path_energy(geom: WarpedGeometry, r1: float, t1: float, r2: float,
                t2: float) -> float:
    """Infimum of the path energy between (x1, t1) and (x2, t2) on one ray.

    A path x(s), s in [0, 1], traversed over [t1, t2] costs
    int_0^1 a(t(s))^2 |x'(s)|^2 ds in the metric at t(s) = t1 + s (t2 - t1).
    The sampled points lie on one ray from the pole and a depends on t only,
    so angular motion only adds energy, and by Cauchy-Schwarz

        (r2 - r1)^2 = (int a r' / a ds)^2 <= int a^2 r'^2 ds * int a^-2 ds,

    with equality for r' proportional to a^-2.  The infimum is therefore
    (r2 - r1)^2 / int_0^1 a^-2 ds; the integral is the mean of Simpson panel
    means over 256 panels, so a static unit factor gives exactly (r2 - r1)^2.
    """
    if not t1 < t2:
        raise HarnackError("path energy requires t1 < t2")
    s = np.linspace(0.0, 1.0, 257)
    inv_sq = lambda x: geom.conformal(0.0, t1 + x * (t2 - t1)) ** -2.0
    nodes, mids = inv_sq(s), inv_sq(0.5 * (s[:-1] + s[1:]))
    panel_means = (nodes[:-1] + 4.0 * mids + nodes[1:]) / 6.0
    return float((r2 - r1) ** 2 / np.mean(panel_means))


# ---------------------------------------------------------------------------
# the comparison constant and bound
# ---------------------------------------------------------------------------

def _constant_alpha(params: HarnackParams) -> float:
    if not params.coeffs.alpha.time_independent:
        raise HarnackError("the integrated inequality is stated for constant alpha")
    return float(params.coeffs.alpha_at(np.array([0.0]))[0])


def harnack_constant(quantities: dict, alpha: float, b: float) -> float:
    """H from the sup-quantities of the matching global estimate."""
    agg = quantities["q2"] ** (4.0 / 3.0) + quantities["q3"] + quantities["q4"] ** 2
    root = math.sqrt(b * family_weight(quantities["family"], alpha))
    return quantities["q0"] + b * alpha**2 * quantities["q1"] + alpha * root * math.sqrt(agg)


def harnack_log_bound(H: float, alpha: float, b: float, energy: float,
                      v_inf: float, t1: float, t2: float) -> float:
    """log of the comparison bound for 0 < t1 < t2 on the estimate clock."""
    exponent = alpha * energy / (4.0 * v_inf * (t2 - t1)) + H * (t2 - t1) / alpha
    return exponent + b * alpha * math.log(t2 / t1)


# ---------------------------------------------------------------------------
# pairwise verification and the log-integral inequality
# ---------------------------------------------------------------------------

def sample_pairs(rng: np.random.Generator, n_pairs: int, r_max: float,
                 tau_lo: float, tau_hi: float, min_gap: float = 1e-3):
    """Seeded random space-time pairs with strictly increasing times."""
    pairs = []
    while len(pairs) < n_pairs:
        r1, r2 = rng.uniform(0.0, r_max, size=2)
        ta, tb = rng.uniform(tau_lo, tau_hi, size=2)
        t1, t2 = min(ta, tb), max(ta, tb)
        if t2 - t1 < min_gap:
            continue
        pairs.append((float(r1), float(t1), float(r2), float(t2)))
    return pairs


def verify_harnack(solution, geom: WarpedGeometry, params: HarnackParams,
                   quantities: dict, pairs, t0_clock: float, v_inf: float,
                   tolerance_factor: float = 1e-8):
    """Check v(x1,t1) <= bound * v(x2,t2) and the log-integral step over pairs.

    Margins are in log space: margin = log_bound - [log v1 - log v2],
    with scale max(1, |log v1 - log v2|).  A log-integral margin below
    -tolerance_factor (unscaled) is a log-integral violation.  Each row's
    ``bound`` is exp(log_bound), saturated to inf where that overflows.
    """
    if v_inf <= 0:
        raise HarnackError("the bound needs a positive infimum of v")
    alpha = _constant_alpha(params)
    b = params.b
    H = harnack_constant(quantities, alpha, b)
    rows = []
    violations = 0
    log_violations = 0
    for (r1, tau1, r2, tau2) in pairs:
        if not 0 < tau1 < tau2:
            raise HarnackError("need 0 < tau1 < tau2 on the estimate clock")
        t1_abs, t2_abs = tau1 + t0_clock, tau2 + t0_clock
        energy = path_energy(geom, r1, t1_abs, r2, t2_abs)
        log_bound = harnack_log_bound(H, alpha, b, energy, v_inf, tau1, tau2)
        try:
            bound = math.exp(log_bound)
        except OverflowError:
            bound = math.inf
        v1 = float(solution.value(r1, t1_abs))
        v2 = float(solution.value(r2, t2_abs))
        log_ratio = math.log(v1) - math.log(v2)
        margin = log_bound - log_ratio
        scale = max(1.0, abs(log_ratio))
        ok = margin >= -tolerance_factor * scale
        if not ok:
            violations += 1
        log_margin = log_integral_margin(log_ratio, geom, alpha, b, H, v_inf,
                                         r1, tau1, r2, tau2, t0_clock)
        if log_margin < -tolerance_factor:
            log_violations += 1
        rows.append({
            "r1": r1, "tau1": tau1, "r2": r2, "tau2": tau2,
            "energy": energy,
            "ratio": v1 / v2, "bound": bound,
            "margin": margin, "scale": scale, "passed": ok,
            "log_integral_margin": log_margin,
        })
    return {"rows": rows, "violations": violations,
            "log_integral_violations": log_violations, "H": H, "v_inf": v_inf}


def log_integral_margin(log_ratio: float, geom: WarpedGeometry, alpha: float,
                        b: float, H: float, v_inf: float, r1, tau1, r2, tau2,
                        t0_clock: float) -> float:
    """Margin of the intermediate inequality for f = log v along a path.

    f(x1,t1) - f(x2,t2) <= int alpha |dgamma/dt|^2 / (4 m_inf) dt
                           + int h(t)/alpha dt,   h(t) = b alpha^2/t + H,
    along the straight radial path traversed over [t1, t2]; ``log_ratio``
    is the left side, log v(x1,t1) - log v(x2,t2).  The caller checks
    0 < tau1 < tau2 and v_inf > 0.
    """
    taus = np.linspace(tau1, tau2, 257)
    t_abs = taus + t0_clock
    rs = r1 + (taus - tau1) / (tau2 - tau1) * (r2 - r1)
    rdot = (r2 - r1) / (tau2 - tau1)
    speed2 = geom.conformal(rs, t_abs) ** 2 * rdot**2
    kinetic = np.trapezoid(alpha * speed2 / (4.0 * v_inf), taus)
    clock = b * alpha * math.log(tau2 / tau1) + H * (tau2 - tau1) / alpha
    return float(kinetic + clock - log_ratio)
