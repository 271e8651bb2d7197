"""Integrated Harnack inequalities: path energies, the comparison constant,
pairwise verification and the intermediate log-integral inequality.

The comparison bound for a positive pressure field v reads

    v(x1, t1) <= v(x2, t2) * exp[ alpha L(x1,x2) / (4 m_inf (t2-t1))
                                  + H (t2-t1)/alpha ] * (t2/t1)^(b alpha)

for constant alpha > 1, where L is a path energy, m_inf = inf v and H
aggregates the sup-quantities of the corresponding global gradient estimate.

The path energy uses the proof traversal: the metric is evaluated along the
actual time interval [t1, t2], not at the unit-interval parameter of the
stated infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import WarpedGeometry
from .params import HarnackParams


class HarnackError(ValueError):
    pass


# ---------------------------------------------------------------------------
# path energies
# ---------------------------------------------------------------------------

def _segment_weights(a_sq_fun, s_nodes):
    """Mean of a(t(s))^2 over each segment by three-point quadrature."""
    mids = 0.5 * (s_nodes[:-1] + s_nodes[1:])
    return (a_sq_fun(s_nodes[:-1]) + 4.0 * a_sq_fun(mids) + a_sq_fun(s_nodes[1:])) / 6.0


def _direct_energy(a_sq_fun, r1, r2, n_seg=256):
    s = np.linspace(0.0, 1.0, n_seg + 1)
    w = _segment_weights(a_sq_fun, s)
    return float((r2 - r1) ** 2 * np.mean(w))


def _optimal_energy(a_sq_fun, r1, r2, n_free=8):
    """Exact minimizer over piecewise-linear radial profiles.

    The energy is a positive-definite quadratic in the interior nodes, so
    the minimum solves a tridiagonal linear system; no iterative search is
    needed.
    """
    n_seg = n_free + 1
    s = np.linspace(0.0, 1.0, n_seg + 1)
    ds = s[1] - s[0]
    c = _segment_weights(a_sq_fun, s) / ds  # conductances per segment
    # minimize sum c_k (r_{k+1} - r_k)^2 over interior nodes
    n = n_free
    diag = c[:-1] + c[1:]
    rhs = np.zeros(n)
    rhs[0] += c[0] * r1
    rhs[-1] += c[-1] * r2
    lower = -c[1:-1]
    mat = np.diag(diag) + np.diag(lower, -1) + np.diag(lower, 1)
    nodes = np.linalg.solve(mat, rhs)
    full = np.concatenate([[r1], nodes, [r2]])
    return float(np.sum(c * np.diff(full) ** 2))


def path_energy(geom: WarpedGeometry, r1: float, t1: float, r2: float,
                t2: float) -> float:
    """Radial path energy between two space-time points.

    The metric is evaluated along the traversed interval [t1, t2]; the
    energy is the smaller of the direct and the optimized path's.  With a
    static conformal factor both equal the squared distance.
    """
    if not t1 < t2:
        raise HarnackError("path energy requires t1 < t2")
    a_sq = lambda s: geom.conformal(0.0, t1 + s * (t2 - t1)) ** 2
    return min(_direct_energy(a_sq, r1, r2), _optimal_energy(a_sq, r1, r2))


# ---------------------------------------------------------------------------
# the comparison constant and bound
# ---------------------------------------------------------------------------

@dataclass
class HarnackBound:
    H: float
    log_bound: float
    bound: float                 # exp(log_bound), inf where that overflows


def _constant_alpha(params: HarnackParams) -> float:
    if not params.coeffs.alpha.time_independent:
        raise HarnackError("the integrated inequality is stated for constant alpha")
    return float(params.coeffs.alpha_at(np.array([0.0]))[0])


def harnack_constant(quantities: dict, params: HarnackParams) -> float:
    """H from the sup-quantities of the matching global estimate."""
    alpha = _constant_alpha(params)
    b = params.b
    agg = quantities["q2"] ** (4.0 / 3.0) + quantities["q3"] + quantities["q4"] ** 2
    if quantities["family"] == "first":
        return quantities["q0"] + b * alpha**2 * quantities["q1"] + alpha * math.sqrt(b) * math.sqrt(agg)
    return quantities["q0"] + b * alpha**2 * quantities["q1"] + math.sqrt(b * alpha**3) * math.sqrt(agg)


def harnack_bound(quantities: dict, params: HarnackParams, energy: float,
                  v_inf: float, t1: float, t2: float) -> HarnackBound:
    if v_inf <= 0:
        raise HarnackError("the bound needs a positive infimum of v")
    if not 0 < t1 < t2:
        raise HarnackError("need 0 < t1 < t2 on the estimate clock")
    if energy < 0:
        raise HarnackError("path energy must be non-negative")
    alpha = _constant_alpha(params)
    H = harnack_constant(quantities, params)
    exponent = alpha * energy / (4.0 * v_inf * (t2 - t1)) + H * (t2 - t1) / alpha
    log_bound = exponent + params.b * alpha * math.log(t2 / t1)
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        bound = math.inf
    return HarnackBound(H=H, log_bound=log_bound, bound=bound)


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
                   nl, quantities: dict, pairs, t0_clock: float, v_inf: float,
                   tolerance_factor: float = 1e-8):
    """Check v(x1,t1) <= bound * v(x2,t2) and the log-integral step over pairs.

    Margins are in log space: margin = log_bound - [log v1 - log v2],
    with scale max(1, |log v1 - log v2|).  A log-integral margin below
    -tolerance_factor (unscaled) is a log-integral violation.
    """
    H = harnack_constant(quantities, params)
    rows = []
    violations = 0
    log_violations = 0
    for (r1, tau1, r2, tau2) in pairs:
        if not tau1 < tau2:
            raise HarnackError("pair has non-increasing times")
        t1_abs, t2_abs = tau1 + t0_clock, tau2 + t0_clock
        energy = path_energy(geom, r1, t1_abs, r2, t2_abs)
        hb = harnack_bound(quantities, params, energy, v_inf, tau1, tau2)
        v1 = float(solution.value(r1, t1_abs))
        v2 = float(solution.value(r2, t2_abs))
        log_ratio = math.log(v1) - math.log(v2)
        margin = hb.log_bound - log_ratio
        scale = max(1.0, abs(log_ratio))
        ok = margin >= -tolerance_factor * scale
        if not ok:
            violations += 1
        log_margin = log_integral_margin(log_ratio, geom, params, H, v_inf,
                                         r1, tau1, r2, tau2, t0_clock)
        if log_margin < -tolerance_factor:
            log_violations += 1
        rows.append({
            "r1": r1, "tau1": tau1, "r2": r2, "tau2": tau2,
            "energy": energy,
            "ratio": v1 / v2, "bound": hb.bound,
            "margin": margin, "scale": scale, "passed": ok,
            "log_integral_margin": log_margin,
        })
    return {"rows": rows, "violations": violations,
            "log_integral_violations": log_violations, "H": H, "v_inf": v_inf}


def log_integral_margin(log_ratio: float, geom: WarpedGeometry, params: HarnackParams,
                        H: float, v_inf: float, r1, tau1, r2, tau2,
                        t0_clock: float) -> float:
    """Margin of the intermediate inequality for f = log v along a path.

    f(x1,t1) - f(x2,t2) <= int alpha |dgamma/dt|^2 / (4 m_inf) dt
                           + int h(t)/alpha dt,   h(t) = b alpha^2/t + H,
    along the straight radial path traversed over [t1, t2]; ``log_ratio``
    is the left side, log v(x1,t1) - log v(x2,t2).
    """
    if not 0 < tau1 < tau2:
        raise HarnackError("need 0 < tau1 < tau2 on the estimate clock")
    if v_inf <= 0:
        raise HarnackError("positive infimum required")
    alpha = _constant_alpha(params)
    b = params.b
    taus = np.linspace(tau1, tau2, 257)
    t_abs = taus + t0_clock
    rs = r1 + (taus - tau1) / (tau2 - tau1) * (r2 - r1)
    rdot = (r2 - r1) / (tau2 - tau1)
    speed2 = geom.conformal(rs, t_abs) ** 2 * rdot**2
    kinetic = np.trapezoid(alpha * speed2 / (4.0 * v_inf), taus)
    clock = b * alpha * math.log(tau2 / tau1) + H * (tau2 - tau1) / alpha
    return float(kinetic + clock - log_ratio)
