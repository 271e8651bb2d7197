"""Gradient-estimate constants, right-hand sides and pointwise verification.

Two families of estimates bound the same quantity

    |grad v|^2 / (alpha v) - (dv/dt)/v + G/v - beta/alpha

for a positive pressure field v on a space-time cylinder.  They differ by a
weight w (``params.family_weight``), 1 for the "first" family and alpha for
the "second": the eps ceiling is 2(alpha-1)^2/(b alpha^2 w), the brackets of
:func:`estimate_brackets` and the aggregates are divided by w (their k2 terms
aside), the right side aggregates with sqrt(b w), and only the first family's
slope carries alpha'/alpha.  Each family has a local form (cylinder of radius
R, with cutoff-localization terms), a global form (suprema over the whole
domain; truncated when the domain is finite) and a static form (the
vanishing-eps limit).  The forcing G is a power sum in v plus a forcing in
(x, t), so no term carries a mixed x-v partial of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Cylinder, GeometryBounds, WarpedGeometry, extract_bounds
from .params import HarnackParams, family_weight
from .solver import Nonlinearity


class EstimateError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffProfile:
    """Radial bump: 1 on [0,1], cos^2(pi (s-1)/2) on [1,2], 0 beyond.

    The certified constants bound the profile's slope and curvature:
    -c1 sqrt(eta) <= eta' <= 0 and eta'' >= -c2 everywhere they exist.
    """

    c1: float = math.pi
    c2: float = math.pi**2 / 2

    @staticmethod
    def _theta(s):
        return math.pi * (np.clip(np.asarray(s, dtype=float), 1.0, 2.0) - 1.0) / 2.0

    def value(self, s):
        s = np.asarray(s, dtype=float)
        th = self._theta(s)
        out = np.cos(th) ** 2
        return np.where(s <= 1.0, 1.0, np.where(s >= 2.0, 0.0, out))

    def slope(self, s):
        s = np.asarray(s, dtype=float)
        th = self._theta(s)
        out = -(math.pi / 2.0) * np.sin(2.0 * th)
        return np.where((s <= 1.0) | (s >= 2.0), 0.0, out)

    def curvature(self, s):
        s = np.asarray(s, dtype=float)
        th = self._theta(s)
        out = -(math.pi**2 / 2.0) * np.cos(2.0 * th)
        return np.where((s <= 1.0) | (s >= 2.0), 0.0, out)

    def certify(self) -> dict:
        """Dense-grid confirmation that (c1, c2) dominate the profile."""
        s = np.linspace(0.0, 2.5, 20001)
        eta = self.value(s)
        d1 = self.slope(s)
        d2 = self.curvature(s)
        slope_margin = float(np.min(d1 + self.c1 * np.sqrt(eta)))
        curv_margin = float(np.min(d2 + self.c2))
        pos = eta > 0
        scanned_c1 = float(np.max(-d1[pos] / np.sqrt(eta[pos])))
        scanned_c2 = float(np.max(-d2))
        return {
            "c1": self.c1,
            "c2": self.c2,
            "scanned_c1": scanned_c1,
            "scanned_c2": scanned_c2,
            "slope_margin": slope_margin,
            "curvature_margin": curv_margin,
            "monotone": bool(np.all(d1 <= 1e-15)),
            "range_ok": bool(np.all((eta >= 0) & (eta <= 1))),
        }


# the one cutoff the local estimates are localized with
CUTOFF = CutoffProfile()


# ---------------------------------------------------------------------------
# aggregate constants
# ---------------------------------------------------------------------------

def _young(v_sup, eps) -> float:
    """E, the Young coefficient of the forcing-gradient block (inf at eps None)."""
    return math.inf if eps is None else (1.5) ** 1.5 * v_sup / math.sqrt(eps)


def aggregates(bounds: GeometryBounds, params: HarnackParams, n_dim: int, v_sup, radius: float,
               al, eps, family: str = "first", scope: str = "local") -> dict:
    """The aggregate coefficients K, L, F, N and M at the values ``al`` of
    alpha; M carries the metric speed into the clamped zeroth-order block.

    ``eps`` may be None for the vanishing-eps limit, in which case the
    Young-inequality coefficient attached to the forcing-gradient block
    (:func:`_young`) is infinite and callers must check that its bracket
    vanishes.  Any other eps is taken as admissible: :func:`reduce_suprema`
    checks it against the ceiling on every node's clock time.
    """
    if scope not in ("local", "global"):
        raise EstimateError(f"unknown scope {scope!r}")
    w = family_weight(family, al)
    b = params.b
    p, m = params.p, params.m
    c1 = CUTOFF.c1
    K = 2.0 * c1 * bounds.k_lo
    if scope == "local":
        if radius <= 0:
            raise EstimateError("local constants need a positive radius")
        with np.errstate(divide="ignore"):
            K = K + c1**2 * b * al**2 * p**2 * v_sup / (2.0 * (al - 1.0) * radius**2)
    else:
        K = K * np.ones_like(al)
    L = al * (p - 1) * bounds.l2 / 2.0 + al * (p - 1) * bounds.k_lo * bounds.l1
    young = 0.0 if eps is None else 2.0 * eps * b * al**2 * w
    return {
        "K": K, "L": L,
        "F": b * al**2 * w / (4.0 * (al - 1.0) ** 2 - young),
        "N": (2.0 * (p - 1) * v_sup * ((m - 1) * bounds.k + w * bounds.k2)
              + 2.0 * (al - 1.0) * bounds.k_hi) / w,
        "M": al**2 / w * (p - 1) * n_dim * ((bounds.k_lo + bounds.k_hi) ** 2
                                            + 2.0 * bounds.k2 / w),
    }


def _family_slope(family: str, s):
    """G_v with the first family's alpha'/alpha term."""
    return s.G_v + s.alpha_p / s.alpha if family == "first" else s.G_v


def estimate_brackets(s, params: HarnackParams, family: str, agg: dict):
    """The brackets (slope, grad, const, quad) of the completed square in F,
    pointwise on the :class:`SupSamples` ``s``, with the aggregates L, N and M
    of ``agg`` (:func:`aggregates` of the extracted bounds, or zeros)."""
    b, p = params.b, params.p
    al, alp, be = s.alpha, s.alpha_p, s.beta
    w = family_weight(family, al)
    slope = _family_slope(family, s) - 2.0 * be / (b * al**2)
    grad = ((al - 1.0) * s.G_x_norm / s.v + agg["L"]) / w
    const = (be * s.G_v - al * (p - 1) * s.lap_Gx
             + (be / al) * (alp - be / (b * al)) - s.beta_p) / w + agg["M"]
    quad = ((al - 1.0) * (s.G / s.v - s.G_v) - al * (p - 1) * s.v * s.G_vv
            - 2.0 * (al - 1.0) * be / (b * al**2) - alp / al) / w + agg["N"]
    return slope, grad, const, quad


# ---------------------------------------------------------------------------
# sampled suprema over a cylinder
# ---------------------------------------------------------------------------

@dataclass
class SupSamples:
    """What the brackets read at a set of nodes: the clock time and pressure,
    G with its partials (G_x the coordinate one, G_x_norm its metric norm)
    and the coefficient pair."""

    tau: np.ndarray
    v: np.ndarray
    G: np.ndarray
    G_x: np.ndarray
    G_v: np.ndarray
    G_vv: np.ndarray
    G_x_norm: np.ndarray
    lap_Gx: np.ndarray
    alpha: np.ndarray
    alpha_p: np.ndarray
    beta: np.ndarray
    beta_p: np.ndarray

    @property
    def v_sup(self) -> float:
        return float(np.max(self.v))

    def blocks(self):
        """The samples as one block (see :meth:`SupNodes.blocks`)."""
        yield self


def node_samples(geom: WarpedGeometry, params: HarnackParams, nl: Nonlinearity,
                 r, t, tau, v) -> SupSamples:
    """The :class:`SupSamples` at the nodes (r, t), with clock times tau and
    pressure v there."""
    G, G_x, lap_Gx, G_v, G_vv = nl.partials(t, r, v)
    alpha, alpha_p, beta, beta_p = params.coeffs.at(tau)
    return SupSamples(tau=tau, v=v, G=G, G_x=G_x, G_v=G_v, G_vv=G_vv,
                      G_x_norm=np.abs(G_x) / geom.conformal(r, t), lap_Gx=lap_Gx,
                      alpha=alpha, alpha_p=alpha_p, beta=beta, beta_p=beta_p)


# nodes per block of the sup reductions and the LHS: the Python work of each
# block's requests is paid once per block, so smaller blocks cost time
_BLOCK_NODES = 4096


def _node_blocks(mask):
    """Consecutive blocks of at most ``_BLOCK_NODES`` of the nodes ``mask``
    selects: the mesh indices of each and its slice of the selected nodes, in
    mask order."""
    index = np.flatnonzero(mask)
    for start in range(0, index.size, _BLOCK_NODES):
        part = slice(start, start + _BLOCK_NODES)
        yield np.unravel_index(index[part], mask.shape), part


class SupNodes:
    """The nodes of a sup cylinder with their clock times and pressure.

    The nodes are those ``mask`` selects of the mesh (rr, tt).  The other
    :class:`SupSamples` fields are evaluated a block of at most
    ``_BLOCK_NODES`` nodes at a time, so the data held beyond tau and
    v does not grow with the sup density.
    """

    def __init__(self, geom: WarpedGeometry, params: HarnackParams, nl: Nonlinearity,
                 rr, tt, mask, tau, v):
        self.geom, self.params, self.nl = geom, params, nl
        self.rr, self.tt, self.mask, self.tau, self.v = rr, tt, mask, tau, v
        self.v_sup, self.v_inf = float(np.max(v)), float(np.min(v))

    def blocks(self):
        """The :class:`SupSamples` of consecutive blocks of the nodes."""
        for nodes, part in _node_blocks(self.mask):
            yield node_samples(self.geom, self.params, self.nl, self.rr[nodes],
                               self.tt[nodes], self.tau[part], self.v[part])


def collect_sup_samples(solution, geom: WarpedGeometry, params: HarnackParams,
                        nl: Nonlinearity, cyl: Cylinder, t0_clock: float,
                        density=(129, 65)) -> SupNodes:
    """The sup-relevant nodes of a cylinder, with the pressure on them.

    ``t0_clock`` is the absolute time at which the estimate clock starts;
    tau = t - t0_clock feeds alpha, beta and the 1/t term.
    """
    rr, tt, mask = solution.sample(cyl, geom, density)
    if not np.any(mask):
        raise EstimateError("sup cylinder misses the solution grid")
    v = solution.table(0, 0, rr, tt, mask)[0, 0]
    if np.any(v <= 0):
        raise EstimateError("pressure field not positive on the sup cylinder")
    return SupNodes(geom, params, nl, rr, tt, mask, tt[mask] - t0_clock, v)


def _sup_terms(s: SupSamples, v_sup: float, bounds: GeometryBounds, params: HarnackParams,
               n_dim: int, radius: float, family: str, scope: str, eps) -> np.ndarray:
    """The maxima over the nodes of ``s`` that the quantities of (family,
    scope, eps) are made of, before any clamping; at eps None also those of
    the static forms: sup |G_x|, the slope and the last bracket."""
    cst = aggregates(bounds, params, n_dim, v_sup, radius, s.alpha, eps, family, scope)
    slope, grad, const, quad = estimate_brackets(s, params, family, cst)
    terms = [s.beta - s.alpha * s.G / s.v, slope + cst["K"], grad, const,
             np.sqrt(cst["F"]) * quad]
    if eps is None:
        # the static forms divide the last sup by sqrt(w) and weight it by
        # b sqrt(w); their slope adds K, which at k_lo = 0 (as they require)
        # is the local scope's cutoff slope and 0 on the global scope
        p, m = params.p, params.m
        al, alp = s.alpha, s.alpha_p
        drift = 2.0 * al * (p - 1) * v_sup * (m - 1) * bounds.k - alp
        last = (((al / 2.0) * (s.G / s.v - s.G_v)
                 - al**2 * (p - 1) / (2.0 * (al - 1.0)) * s.v * s.G_vv
                 + drift / (2.0 * (al - 1.0))) / np.sqrt(family_weight(family, al)))
        terms += [s.G_x_norm, _family_slope(family, s) + cst["K"], last]
    return np.array([np.max(x) for x in terms])


def reduce_suprema(samples, bounds: GeometryBounds, params: HarnackParams, n_dim: int,
                   radius: float, requests, scope: str = "local") -> list[dict]:
    """The clamped sup-quantities q0..q4 entering the estimate right side, for
    each (family, eps) of ``requests`` on one scope, from one pass over
    ``samples.blocks()``.

    q0 is the unclamped sup of [beta - alpha G / v] (used by the Harnack
    bound); q1..q4 are the non-negative aggregates.  For the "first" family
    these are the mu's, for the "second" family the lambda's.  At eps None
    (the vanishing-eps limit) the quantities also carry the sups the static
    forms read.  ``samples`` is a :class:`SupSamples` or :class:`SupNodes`.

    Each block is evaluated once and every maximum is taken from it; a max
    over blocks is the max over their union, so the quantities do not depend
    on the partition.  Each eps is checked against the ceiling on every
    node's clock time before any block is evaluated.
    """
    for family, eps in requests:
        if eps is not None:
            params.require_eps(eps, samples.tau, mode=family)
    v_sup = samples.v_sup
    sups = None
    for block in samples.blocks():
        terms = [_sup_terms(block, v_sup, bounds, params, n_dim, radius, family, scope, eps)
                 for family, eps in requests]
        sups = terms if sups is None else list(map(np.maximum, sups, terms))
    out = []
    for (family, eps), terms in zip(requests, sups):
        # checked before the clamps, as max(0.0, nan) is 0.0
        if not np.all(np.isfinite(terms)):
            raise FloatingPointError(f"sup quantities of the {family} family at eps={eps}: "
                                     "a maximum is not finite")
        q0, sup1, sup2, sup3, sup4, *static = terms.tolist()
        q = {"q0": q0, "q1": max(0.0, sup1),
             # a vanishing grad bracket needs no Young coefficient, even an infinite one
             "q2": math.sqrt(_young(v_sup, eps)) * sup2 if sup2 > 0.0 else 0.0,
             "q3": max(0.0, sup3), "q4": max(0.0, sup4),
             "family": family, "scope": scope, "eps": eps, "v_sup": v_sup}
        if static:
            q.update(G_x_sup=static[0], static_slope=max(0.0, static[1]),
                     static_last=max(0.0, static[2]))
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

VARIANTS = (
    "first-local", "first-global", "second-local", "second-global",
    "static-first-local", "static-first-global",
    "static-second-local", "static-second-global",
)


def _localization_term(params: HarnackParams, al, v_sup, radius, k, m):
    c1, c2 = CUTOFF.c1, CUTOFF.c2
    return (params.b * (params.p - 1) * al * (v_sup / radius**2)
            * (c2 + (m - 1) * c1 * (1.0 + radius * math.sqrt(k)) + 2.0 * c1**2))


def variant_kind(variant: str) -> tuple[str, str]:
    """(family, scope) of an estimate variant."""
    return ("second" if "second" in variant else "first",
            "global" if variant.endswith("global") else "local")


def sup_part(q: dict, b: float, al):
    """b al q1 + sqrt(b w) sqrt(q2^(4/3) + q3 + q4^2) at the values ``al`` of alpha,
    to which the evolving right sides add b al / tau; H is q0 + alpha sup_part."""
    agg = q["q2"] ** (4.0 / 3.0) + q["q3"] + q["q4"] ** 2
    return b * al * q["q1"] + np.sqrt(b * family_weight(q["family"], al)) * np.sqrt(agg)


def rhs_bound(variant: str, q: dict, bounds: GeometryBounds, params: HarnackParams,
              radius: float, tau):
    """Estimate right-hand side at clock times tau > 0.

    ``q`` holds the :func:`reduce_suprema` of the variant's family and scope,
    at eps None for the static forms.
    """
    if variant not in VARIANTS:
        raise EstimateError(f"unknown estimate variant {variant!r}")
    if (q["family"], q["scope"]) != variant_kind(variant):
        raise EstimateError(f"sup quantities of the {q['family']} family on the "
                            f"{q['scope']} scope do not bound {variant!r}")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise EstimateError("the estimate right side requires tau > 0")
    b = params.b
    al = params.coeffs.alpha_at(tau)
    if not variant.startswith("static"):
        part = sup_part(q, b, al)
    else:
        # the vanishing-eps limits with zeroed evolution data are only sound for
        # x-independent forcing on static data: refuse either kind of structure
        if q["eps"] is not None:
            raise EstimateError(f"{variant!r} takes the sup quantities of the vanishing-eps limit")
        if q["G_x_sup"] > 0:
            raise EstimateError("static estimate forms require x-independent forcing")
        if max(bounds.k_lo, bounds.k_hi, bounds.k2, bounds.l2) > 0:
            raise EstimateError("static estimate forms require zero evolution bounds")
        part = (b * al * q["static_slope"]
                + b * np.sqrt(family_weight(q["family"], al)) * q["static_last"])
    rhs = b * al / tau + part
    if q["scope"] == "local":
        rhs = rhs + _localization_term(params, al, q["v_sup"], radius, bounds.k, params.m)
    return rhs


# ---------------------------------------------------------------------------
# pointwise verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    """Per-node margins of one estimate variant at one eps on its scope's
    verification nodes; ``summary`` is the record summary.json keeps."""

    variant: str
    eps: object
    scope: EstimateScope
    rhs: np.ndarray
    margin: np.ndarray
    violations: int
    min_margin: float
    summary: dict


def harnack_quantity(v, grad2, v_t, G, alpha, beta):
    """F = |grad v|^2 / v - alpha v_t / v + alpha G / v - beta, on arrays or
    on series."""
    return grad2 / v - alpha * v_t / v + alpha * G / v - beta


def estimate_lhs(solution, geom, params, nl, rr, tt, mask, t0_clock):
    """F / alpha = |grad v|^2/(alpha v) - v_t/v + G/v - beta/alpha at the
    nodes of the mesh (rr, tt) that ``mask`` selects, on the clock
    tau = t - t0_clock, evaluated a block of nodes at a time."""
    lhs = np.empty(np.count_nonzero(mask))
    for nodes, part in _node_blocks(mask):
        r, t_abs = rr[nodes], tt[nodes]
        table = solution.table(1, 1, rr, tt, nodes)
        v, v_r, v_t = table[0, 0], table[1, 0], table[0, 1]
        al, _, be, _ = params.coeffs.at(t_abs - t0_clock)
        grad2 = v_r**2 / geom.conformal(r, t_abs) ** 2
        lhs[part] = harnack_quantity(v, grad2, v_t, nl.G(t_abs, r, v), al, be) / al
    return lhs


class EstimateScope:
    """What every report on one scope shares, whatever its family and eps.

    The local scope samples its constants on Q_2R and checks the nodes of
    Q_R; the global scope does both on the whole domain.  A scope extracts
    its geometric bounds and collects its sup nodes when it is built;
    ``suprema`` keeps the sup-quantities reduced so far, by (family, eps).
    """

    def __init__(self, solution, geom: WarpedGeometry, params: HarnackParams,
                 nl: Nonlinearity, cyl: Cylinder, t0_clock: float, scope: str,
                 density=(129, 65)):
        if scope == "local":
            cyl.require_inside(geom, factor=2.0)
            self.sup_cyl = cyl.scaled(2.0)
        elif scope == "global":
            self.sup_cyl = Cylinder.whole_domain(cyl.t_lo, cyl.t_hi)
        else:
            raise EstimateError(f"unknown scope {scope!r}")
        self.solution, self.geom, self.params, self.nl = solution, geom, params, nl
        self.name, self.cyl, self.t0_clock, self.density = scope, cyl, t0_clock, density
        self.bounds = extract_bounds(geom, self.sup_cyl, grid_density=density)
        self.samples = collect_sup_samples(solution, geom, params, nl, self.sup_cyl,
                                           t0_clock, density=density)
        self.suprema = {}

    def with_nodes(self, eval_density=(65, 33)) -> "EstimateScope":
        """This scope with the verification nodes :func:`verify_estimate`
        checks, at ``eval_density`` and positive clock time, the left-hand
        side on them and its tolerance scale max(1, max |lhs|)."""
        eval_cyl = self.cyl if self.name == "local" else self.sup_cyl
        rr, tt, mask = self.solution.sample(eval_cyl, self.geom, eval_density)
        mask = mask & (tt - self.t0_clock > 1e-12)
        if not np.any(mask):
            raise EstimateError("no verification nodes with positive clock time")
        self.r, self.t_abs = rr[mask], tt[mask]
        self.tau = self.t_abs - self.t0_clock
        self.lhs = estimate_lhs(self.solution, self.geom, self.params, self.nl, rr, tt, mask,
                                self.t0_clock)
        self.scale = max(1.0, float(np.max(np.abs(self.lhs))))
        return self

    def quantities(self, requests) -> list[dict]:
        """The :func:`reduce_suprema` of each (family, eps) of ``requests``
        on this scope; those not reduced before are reduced together, in one
        pass over the sup blocks."""
        new = [key for key in dict.fromkeys(requests) if key not in self.suprema]
        if new:
            reduced = reduce_suprema(self.samples, self.bounds, self.params, self.geom.n,
                                     self.cyl.radius, new, self.name)
            self.suprema.update(zip(new, reduced))
        return [self.suprema[key] for key in requests]


def verify_estimate(scope: EstimateScope, variant: str, eps=None,
                    rhs_scale: float = 1.0) -> VerificationReport:
    """Check one variant at one eps on its scope; margins = rhs - lhs >= -tol,
    with tol = 1e-6 times the scope's scale.  A margin that is not finite
    raises FloatingPointError: it is neither a pass nor a violation.

    ``rhs_scale`` != 1 is the negative-control hook: scaling the right side
    down must produce violations on honest scenarios.
    """
    family, _ = variant_kind(variant)
    params, cyl, bounds, samples = scope.params, scope.cyl, scope.bounds, scope.samples
    # rhs_bound refuses quantities of a scope the variant is not checked on
    quantities, = scope.quantities([(family, eps)])
    rhs = rhs_bound(variant, quantities, bounds, params, cyl.radius, scope.tau) * rhs_scale
    margin = rhs - scope.lhs
    if not np.all(np.isfinite(margin)):
        raise FloatingPointError(f"check-estimate {variant} eps={eps}: margin is not finite")
    tol = 1e-6 * scope.scale
    imin = int(np.argmin(margin))
    violations, min_margin = int(np.count_nonzero(margin < -tol)), float(margin[imin])
    eps_value = None if eps is None else float(eps)
    constants = {
        "b": params.b,
        "eps": eps_value,
        **bounds.as_dict(),
        "c1": CUTOFF.c1, "c2": CUTOFF.c2,
        "v_sup": samples.v_sup,
        **{name: quantities[name] for name in ("q0", "q1", "q2", "q3", "q4")},
        "sup_cylinder": f"radius={'domain' if scope.name == 'global' else 2 * cyl.radius}, "
                        f"t=[{cyl.t_lo:g},{cyl.t_hi:g}]",
        "sup_density": "{}x{}".format(*scope.density),
    }
    flags = ["truncated-global"] if scope.name == "global" else []
    if rhs_scale != 1.0:
        flags.append(f"negative-control(rhs_scale={rhs_scale:g})")
    summary = {
        "variant": variant, "eps": eps_value, "radius": cyl.radius,
        "clock": f"t0={scope.t0_clock:g}", "nodes": int(margin.size),
        "min_margin": min_margin, "argmin_r": float(scope.r[imin]),
        "argmin_tau": float(scope.tau[imin]), "violations": violations,
        "tolerance": tol, "scale": scope.scale, "v_sup": samples.v_sup, "v_inf": samples.v_inf,
        "flags": flags,
        "constants": {name: None if isinstance(value, float) and math.isinf(value) else value
                      for name, value in constants.items()},
    }
    return VerificationReport(variant, eps, scope, rhs, margin, violations, min_margin, summary)


def estimate_matrix(sc, rhs_scale: float = 1.0):
    """Yield one report per configured variant and eps of a scenario, in
    config order.

    Static variants take the vanishing-eps limit; the others scan the eps
    fractions of their family's ceiling.  Each scope is built on first use,
    so errors surface in the order a report-by-report check would raise them,
    and then reduces the suprema of every report on it in one pass over its
    sup blocks.
    """
    ver = sc.verification
    sol = sc.solution_handle()
    cyl = Cylinder(ver["radius"], sc.t0, sc.t_hi)
    scopes, eps_of = {}, {}
    for variant in ver["variants"]:
        _, name = variant_kind(variant)
        if name not in scopes:
            scope = scopes[name] = EstimateScope(
                sol, sc.geom, sc.params, sc.nonlinearity, cyl, sc.t0, name,
                density=ver["sup_density"]).with_nodes(ver["eval_density"])
            on_scope = [v for v in ver["variants"] if variant_kind(v)[1] == name]
            for other in on_scope:
                # the ceiling on the clock times the admissibility check reads
                eps_of[other] = ([None] if other.startswith("static") else
                                 eps_scan(sc.params, scope.samples.tau, variant_kind(other)[0],
                                          ver["eps_fractions"]))
            scope.quantities([(variant_kind(v)[0], eps) for v in on_scope
                              for eps in eps_of[v]])
        for eps in eps_of[variant]:
            yield verify_estimate(scopes[name], variant, eps=eps, rhs_scale=rhs_scale)


def eps_scan(params: HarnackParams, tau, family: str, fractions=(0.1, 0.5, 0.9)):
    """Admissible eps values as fractions of the pointwise ceiling."""
    ceiling = params.eps_ceiling(tau, mode=family)
    return [f * ceiling for f in fractions]


# ---------------------------------------------------------------------------
# power-sum nonlinearity admissibility conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearityConditions:
    slope_nonpositive_exponents: bool
    convexity_exponents: bool
    slope_nonpositive_scan: bool
    convexity_scan: bool

    @property
    def consistent(self) -> bool:
        """The exponent ranges are sufficient conditions: whenever they hold
        the numeric scan must agree."""
        return ((not self.slope_nonpositive_exponents or self.slope_nonpositive_scan)
                and (not self.convexity_exponents or self.convexity_scan))


def nonlinearity_conditions(nl: Nonlinearity, p: float, alpha: float) -> NonlinearityConditions:
    """Exponent ranges and a numeric scan, on v in [0.1, 10] and to a relative
    1e-12, for the two structure conditions on the power sum of ``nl`` (its
    forcing is never evaluated).

    Condition 1: dG/dv <= 0.  Condition 2:
    alpha (p-1) v G_vv - (alpha-1)(G/v - G_v) >= 0.
    """
    if alpha <= 1:
        raise EstimateError("conditions are stated for alpha > 1")
    a_active = [ex for coef, ex in zip(nl.A, nl.a) if coef > 0]
    b_active = [ex for coef, ex in zip(nl.B, nl.b) if coef < 0]
    slope_exp = all(ex <= 0 for ex in a_active) and all(ex >= 0 for ex in b_active)
    cap = (1.0 - alpha) / (alpha * (p - 1.0))
    convex_exp = all(ex <= cap for ex in a_active) and all(0.0 <= ex <= 1.0 for ex in b_active)

    v = np.geomspace(0.1, 10.0, 181)
    G, G_v, G_vv = (np.zeros_like(v) if part is None else part
                    for part in (nl.G_vpart(v, k) for k in range(3)))
    slope_scan = bool(np.all(G_v <= 1e-12 * np.maximum(1.0, np.abs(G_v).max())))
    expr = alpha * (p - 1) * v * G_vv - (alpha - 1) * (G / v - G_v)
    convex_scan = bool(np.all(expr >= -1e-12 * np.maximum(1.0, np.abs(expr).max())))
    return NonlinearityConditions(slope_exp, convex_exp, slope_scan, convex_scan)
