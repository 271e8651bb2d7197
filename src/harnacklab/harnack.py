"""Integrated Harnack inequalities: path energies, the comparison constant,
pairwise verification and the intermediate log-integral inequality.

The comparison bound for a positive pressure field v reads

    v(x1, t1) <= v(x2, t2) * exp[ alpha L(x1,x2) / (4 m_inf (t2-t1))
                                  + H (t2-t1)/alpha ] * (t2/t1)^(b alpha)

for constant alpha > 1, where L is a path energy, m_inf = inf v and H
aggregates the sup-quantities of the corresponding global gradient estimate.

The path energy statement is parameterization-sensitive for evolving
metrics: the integral proof traverses the actual time interval [t1, t2]
while the stated infimum writes the metric argument on the unit interval.
Both values are computed and reported; the verification bound uses the
proof traversal.
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
    energy = float(np.sum(c * np.diff(full) ** 2))
    return energy, full


@dataclass
class PathEnergy:
    """Energy of radial space-time paths joining (r1, t1) to (r2, t2)."""

    value: float                 # used by the verification bound (proof clock)
    proof_direct: float
    proof_optimal: float
    statement_direct: float
    statement_optimal: float
    nodes: np.ndarray

    def __post_init__(self):
        if self.value < -1e-15:
            raise HarnackError("path energy must be non-negative")


def path_energy(geom: WarpedGeometry, r1: float, t1: float, r2: float,
                t2: float) -> PathEnergy:
    """Radial path energy between two space-time points.

    ``proof`` values evaluate the metric along the traversed interval
    [t1, t2]; ``statement`` values evaluate it at the unit-interval
    parameter.  With a static conformal factor all four numbers agree and
    equal the squared distance for the direct path.  The verification value
    is the smaller of the direct and the optimized proof energies.
    """
    if not t1 < t2:
        raise HarnackError("path energy requires t1 < t2")
    a_sq_proof = lambda s: geom.conformal(0.0, t1 + s * (t2 - t1)) ** 2
    a_sq_stmt = lambda s: geom.conformal(0.0, s) ** 2
    pd = _direct_energy(a_sq_proof, r1, r2)
    sd = _direct_energy(a_sq_stmt, r1, r2)
    po, nodes = _optimal_energy(a_sq_proof, r1, r2)
    so, _ = _optimal_energy(a_sq_stmt, r1, r2)
    return PathEnergy(value=min(pd, po), proof_direct=pd, proof_optimal=po,
                      statement_direct=sd, statement_optimal=so, nodes=nodes)


# ---------------------------------------------------------------------------
# the comparison constant and bound
# ---------------------------------------------------------------------------

@dataclass
class HarnackBound:
    H: float
    alpha: float
    b: float
    energy: float
    v_inf: float
    t1: float
    t2: float
    power_factor: float
    bound: float


def harnack_constant(quantities: dict, params: HarnackParams) -> float:
    """H from the sup-quantities of the matching global estimate."""
    if not params.coeffs.alpha.time_independent:
        raise HarnackError("the integrated inequality is stated for constant alpha")
    alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
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
    alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
    H = harnack_constant(quantities, params)
    power = (t2 / t1) ** (params.b * alpha)
    exponent = alpha * energy / (4.0 * v_inf * (t2 - t1)) + H * (t2 - t1) / alpha
    return HarnackBound(H=H, alpha=alpha, b=params.b, energy=energy, v_inf=v_inf,
                        t1=t1, t2=t2, power_factor=power,
                        bound=math.exp(exponent) * power)


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
    """Check v(x1,t1) <= bound * v(x2,t2) over a list of pairs.

    Margins are in log space: margin = log(bound) - [log v1 - log v2],
    with scale max(1, |log v1 - log v2|).
    """
    rows = []
    violations = 0
    for (r1, tau1, r2, tau2) in pairs:
        if not tau1 < tau2:
            raise HarnackError("pair has non-increasing times")
        t1_abs, t2_abs = tau1 + t0_clock, tau2 + t0_clock
        energy = path_energy(geom, r1, t1_abs, r2, t2_abs)
        hb = harnack_bound(quantities, params, energy.value, v_inf, tau1, tau2)
        v1 = float(solution.value(r1, t1_abs))
        v2 = float(solution.value(r2, t2_abs))
        log_ratio = math.log(v1) - math.log(v2)
        margin = math.log(hb.bound) - log_ratio
        scale = max(1.0, abs(log_ratio))
        ok = margin >= -tolerance_factor * scale
        if not ok:
            violations += 1
        rows.append({
            "r1": r1, "tau1": tau1, "r2": r2, "tau2": tau2,
            "energy": energy.value,
            "ratio": v1 / v2, "bound": hb.bound,
            "margin": margin, "scale": scale, "passed": ok,
        })
    return {"rows": rows, "violations": violations,
            "H": harnack_constant(quantities, params), "v_inf": v_inf}


def log_integral_margin(solution, geom: WarpedGeometry, params: HarnackParams,
                        H: float, v_inf: float, r1, tau1, r2, tau2,
                        t0_clock: float) -> float:
    """Margin of the intermediate inequality for f = log v along a path.

    f(x1,t1) - f(x2,t2) <= int alpha |dgamma/dt|^2 / (4 m_inf) dt
                           + int h(t)/alpha dt,   h(t) = b alpha^2/t + H,
    along the straight radial path traversed over [t1, t2].
    """
    if not 0 < tau1 < tau2:
        raise HarnackError("need 0 < tau1 < tau2 on the estimate clock")
    if v_inf <= 0:
        raise HarnackError("positive infimum required")
    alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
    b = params.b
    taus = np.linspace(tau1, tau2, 257)
    t_abs = taus + t0_clock
    rs = r1 + (taus - tau1) / (tau2 - tau1) * (r2 - r1)
    rdot = (r2 - r1) / (tau2 - tau1)
    speed2 = geom.conformal(rs, t_abs) ** 2 * rdot**2
    kinetic = np.trapezoid(alpha * speed2 / (4.0 * v_inf), taus)
    clock = b * alpha * math.log(tau2 / tau1) + H * (tau2 - tau1) / alpha
    v1 = float(solution.value(r1, tau1 + t0_clock))
    v2 = float(solution.value(r2, tau2 + t0_clock))
    lhs = math.log(v1) - math.log(v2)
    return float(kinetic + clock - lhs)
