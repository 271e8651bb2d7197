"""Residual checks for the evolution identities and pointwise inequalities.

The central object is the Harnack quantity

    F = |grad v|^2 / v - alpha(t) (dv/dt) / v + alpha(t) G / v - beta(t)

built from a positive pressure field v, and the degenerate parabolic operator

    L[w] = dw/dt - (p-1) v Delta_phi w.

:class:`TermTable` evaluates F, L[F] and every other pointwise term of the
identities in two modes sharing a single transcription of the formulas:
analytic mode takes all derivatives from Taylor series (residuals at
roundoff level), grid mode takes them from second-order stencils (residuals
shrink at the discretization order).  Both modes apply the weighted
Laplacian through :func:`geometry.phi_laplacian_eval`.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, diff
from .estimates import aggregates, estimate_brackets, harnack_quantity, node_samples
from .geometry import (Cylinder, WarpedGeometry, angular_drift_product, metric_speed,
                       phi_laplacian_eval)
from .jets import d_r, d_t
from .params import HarnackParams
from .solver import Nonlinearity, pressure_equation_residual  # noqa: F401  (re-exported)
from .symfun import Profile


class IdentityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# solution handles
# ---------------------------------------------------------------------------

class _SolutionHandle:
    """What estimates, identities and Harnack checks ask of a pressure field.

    A handle says which nodes a cylinder is sampled on (:meth:`nodes`) and
    which points a term table covers (:meth:`points`), gives the partials of
    v at the masked nodes of a mesh (:meth:`table`, indexed ``[i, j]`` for
    d^i/dr^i d^j/dt^j v) and the value of v at arbitrary points
    (:meth:`value`), so callers never need to know whether v is a closed
    form or a grid solve.
    """

    def sample(self, cyl: Cylinder, geom: WarpedGeometry, density):
        """:meth:`Cylinder.sample` on the nodes this field samples ``cyl`` on."""
        return cyl.sample(geom, *self.nodes(cyl, geom, density))


class AnalyticSolution(_SolutionHandle):
    """Pressure field given in closed form; partials from its Taylor series."""

    def __init__(self, profile: Profile):
        self.profile = profile

    def points(self, r, t):
        """The (r, t) arrays a term table is evaluated on: the given points."""
        if r is None or t is None:
            raise IdentityError("analytic mode needs explicit sample points")
        return np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))

    def nodes(self, cyl: Cylinder, geom: WarpedGeometry, density):
        return cyl.sample_nodes(geom, *density)

    def table(self, nr, nt, rr, tt, mask=...):
        """Every partial up to order (nr, nt) at the nodes of (rr, tt) that
        ``mask`` selects (by default every node, in mesh shape), from one
        series evaluation."""
        return self.profile.table(nr, nt, rr[mask], tt[mask])

    def value(self, r, t):
        return self.profile.at(0, 0, np.asarray(r, dtype=float), np.asarray(t, dtype=float))


class GridSolution(_SolutionHandle):
    """Pressure field known only on a grid; derivatives from stencils.

    Every mesh it is asked about is its own grid, whatever the cylinder's
    sampling density.
    """

    def __init__(self, field: ScalarField):
        self.field = field
        self._cache = {(0, 0): field}

    def _field(self, nr, nt) -> ScalarField:
        if (nr, nt) not in self._cache:
            self._cache[nr, nt] = (diff(self._field(nr, nt - 1), "d_t") if nt > 0
                                   else diff(self._field(nr - 1, 0), "d_r"))
        return self._cache[nr, nt]

    def points(self, r=None, t=None):
        return self.field.grid.mesh()

    def nodes(self, cyl: Cylinder, geom: WarpedGeometry, density):
        grid = self.field.grid
        return grid.r, grid.t

    def table(self, nr, nt, rr=None, tt=None, mask=...):
        """The partials at the masked grid nodes; each stencil field is built
        when it is first read."""
        return _Stencils(self, mask)

    def value(self, r, t):
        """Bilinear interpolation of the field at off-node points."""
        g = self.field.grid
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        fi = np.clip((r - 0.0) / g.dr, 0, g.n_r - 1 - 1e-12)
        fj = np.clip((t - g.t0) / g.dt, 0, g.n_t - 1 - 1e-12)
        i0 = np.floor(fi).astype(int)
        j0 = np.floor(fj).astype(int)
        wr = fi - i0
        wt = fj - j0
        vals = self.field.values
        return ((1 - wr) * (1 - wt) * vals[i0, j0]
                + wr * (1 - wt) * vals[i0 + 1, j0]
                + (1 - wr) * wt * vals[i0, j0 + 1]
                + wr * wt * vals[i0 + 1, j0 + 1])


class _Stencils:
    def __init__(self, solution: GridSolution, mask):
        self.solution, self.mask = solution, mask

    def __getitem__(self, order):
        return self.solution._field(*order).values[self.mask]


# ---------------------------------------------------------------------------
# pointwise term table
# ---------------------------------------------------------------------------

class _HessianTerms:
    """|grad v|^2, Delta v and |Hess v|^2 of a radial field v from v_r and
    v_rr on broadcast arrays (rr, tt): what the Bochner check reads."""

    def __init__(self, geom: WarpedGeometry, rr, tt, v_r, v_rr):
        n = geom.n
        self.a = geom.conformal(rr, tt)
        self.a2 = self.a**2
        self.grad2 = v_r**2 / self.a2
        self.ang_v = angular_drift_product(geom, rr, tt, v_r, v_rr)
        self.lap_plain = (v_rr + (n - 1) * self.ang_v) / self.a2
        self.hess2 = (v_rr**2 + (n - 1) * self.ang_v**2) / self.a2**2


class _RadialTerms(_HessianTerms):
    """With the potential's and metric speed's pairings, which the commutator shares."""

    def __init__(self, geom: WarpedGeometry, rr, tt, v_r, v_rr):
        super().__init__(geom, rr, tt, v_r, v_rr)
        phi_r, phi_rt = (geom.potential.at(1, k, rr, tt) for k in (0, 1))
        self.phi_pair = phi_r * v_r / self.a2            # <grad phi, grad v>
        self.phit_pair = phi_rt * v_r / self.a2          # <grad d(phi)/dt, grad v>
        self.lap_v = self.lap_plain - self.phi_pair

        # the metric speed h = (dg/dt)/2 contracted against v
        h_rad, h_ang, _, h_div = metric_speed(geom, rr, tt)
        self.h_vv = h_rad * self.grad2
        self.h_hess = (h_rad * v_rr + (geom.n - 1) * h_ang * self.ang_v) / self.a2
        self.h_phi_pair = h_rad * self.phi_pair
        self.divh_pair = h_div * v_r / self.a2
        self.h_norm2 = h_rad**2 + (geom.n - 1) * h_ang**2


class TermTable(_RadialTerms):
    """All pointwise quantities entering the identities, on one point set.

    F is written once, by :func:`harnack_quantity`, and differentiated: in
    analytic mode its partials are read off the series of F, in grid mode
    off the stencils of the F field.
    """

    def __init__(self, solution, geom: WarpedGeometry, params: HarnackParams,
                 nonlinearity: Nonlinearity, r=None, t=None):
        self.geom = geom
        self.params = params
        rr, tt = solution.points(r, t)
        self.r, self.t = rr, tt
        n, m, p = geom.n, params.m, params.p
        if m != geom.m:
            raise IdentityError(
                f"params.m = {m} disagrees with the geometry's m = {geom.m}")

        part = solution.table(2, 1, rr, tt)
        self.v = part[0, 0]
        if np.any(self.v <= 0):
            raise IdentityError("pressure field not positive on the requested points")
        self.v_r, self.v_rr, self.v_t = part[1, 0], part[2, 0], part[0, 1]

        super().__init__(geom, rr, tt, self.v_r, self.v_rr)
        self.grad_norm = np.abs(self.v_r) / self.a
        self.ric_m_vv = geom.bakry_emery(m)[0](rr, tt) * self.grad2
        self.sharp_pair = (self.phi_pair**2 / (m - n)) if m > n else np.zeros_like(self.v)

        # G with its partials and the coefficient pair, on the clock t, as the
        # brackets read them; G's pairings with v are taken here
        s = self.samples = node_samples(geom, params, nonlinearity, rr, tt, tt, self.v)
        self.gradG_pair = (s.G_x + s.G_v * self.v_r) * self.v_r / self.a2
        self.lap_G_full = s.lap_Gx + s.G_vv * self.grad2 + s.G_v * self.lap_v
        self.b = params.b

        if isinstance(solution, GridSolution):
            self.F = harnack_quantity(self.v, self.grad2, self.v_t, s.G, s.alpha, s.beta)
            F_field = ScalarField(self.F, solution.field.grid, parity="even")
            F_r = diff(F_field, "d_r")
            self.F_r, F_rr = F_r.values, diff(F_r, "d_r").values
            self.F_t = diff(F_field, "d_t").values
        else:
            F = _series_of_F(solution.profile, geom.conformal, params.coeffs,
                             nonlinearity).table(2, 1, rr, tt)
            self.F, self.F_t, self.F_r, F_rr = F[0, 0], F[0, 1], F[1, 0], F[2, 0]
        self.lap_F = phi_laplacian_eval(geom, rr, tt, self.F_r, F_rr)
        self.LpvF = self.F_t - (p - 1) * self.v * self.lap_F
        self.gradF_pair = self.F_r * self.v_r / self.a2


def _series_of_F(v: Profile, a: Profile, coeffs, nl: Nonlinearity) -> Profile:
    """F as a profile, by arithmetic on the series of v, the conformal factor
    a, alpha, beta and the composed forcing G(t, x, v)."""
    def series(r, t):
        V = v.jet(r, t)
        return harnack_quantity(V, d_r(V) ** 2 / a.jet(r, t) ** 2, d_t(V), nl.G_jet(t, r, V),
                                coeffs.alpha.jet(r, t), coeffs.beta.jet(r, t))

    orders = [prof.orders for prof in (a, coeffs.alpha, coeffs.beta, nl.forcing) if prof]
    return Profile.of_jets(series, np.max([np.add(v.orders, (1, 1)), *orders], axis=0),
                           "harnack_quantity")


# ---------------------------------------------------------------------------
# identity residuals (analytic derivative tables)
# ---------------------------------------------------------------------------

def quotient_rule_residual(f: Profile, g: Profile, v: Profile,
                           geom: WarpedGeometry, p: float, r, t):
    """Residual of the operator quotient rule for L applied to f/g."""
    rr, tt = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    g_vals = g(rr, tt)
    if np.any(np.abs(g_vals) < 1e-10):
        raise IdentityError("quotient rule requires g bounded away from zero")
    quot = Profile.of_jets(lambda r, t: f.jet(r, t) / g.jet(r, t),
                           np.maximum(f.orders, g.orders), "f_over_g")
    a2 = geom.conformal(rr, tt) ** 2
    v_vals = v(rr, tt)

    def apply_L(w: Profile):
        return w.at(0, 1, rr, tt) - (p - 1) * v_vals * geom.phi_laplacian(w)(rr, tt)

    lhs = apply_L(quot)
    pair = quot.at(1, 0, rr, tt) * g.at(1, 0, rr, tt) / (a2 * g_vals)
    rhs = (apply_L(f) / g_vals + 2 * (p - 1) * v_vals * pair
           - (f(rr, tt) / g_vals**2) * apply_L(g))
    return lhs - rhs


# the signs of the four terms that reproduce the commutator on both evolving
# families; the reference orientation (+,+,+,+) does not
COMMUTATOR_SIGNS = (-1, 1, 1, 1)


def commutator_terms(v: Profile, geom: WarpedGeometry, r, t):
    """d/dt(Delta_phi v) - Delta_phi(dv/dt), and the four terms of the
    reference orientation (+,+,+,+)
        2<h, Hess v> - <2 div h - grad Tr h, grad v>
        + 2 h(grad phi, grad v) - <grad d(phi)/dt, grad v>
    (Hessian trace, divergence, potential speed and mixed potential term).
    """
    rr, tt = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    v_t = Profile.of_jets(lambda r, t: d_t(v.jet(r, t)), np.add(v.orders, (0, 1)), "v_t")
    lhs = geom.phi_laplacian(v).at(0, 1, rr, tt) - geom.phi_laplacian(v_t)(rr, tt)

    _, v_r, v_rr = v.table(2, 0, rr, tt)[:, 0]
    h = _RadialTerms(geom, rr, tt, v_r, v_rr)
    return lhs, (2 * h.h_hess, -h.divh_pair, 2 * h.h_phi_pair, -h.phit_pair)


def commutator_residual(v: Profile, geom: WarpedGeometry, r, t):
    """Residual of the commutator with the terms signed by
    :data:`COMMUTATOR_SIGNS`."""
    lhs, terms = commutator_terms(v, geom, r, t)
    return lhs - sum(sign * term for sign, term in zip(COMMUTATOR_SIGNS, terms))


def bochner_residual(w: Profile, geom: WarpedGeometry, r, t):
    """Residual of the weighted Bochner formula for a radial field.

    Uses the infinite-dimensional weighted Ricci tensor Ric + Hess(phi).
    The formula is a fixed-time identity, so evolving families are checked
    slice by slice.
    """
    rr, tt = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    grad2 = Profile.of_jets(lambda r, t: d_r(w.jet(r, t)) ** 2 / geom.conformal.jet(r, t) ** 2,
                            np.add(w.orders, (1, 0)), "grad_w_sq")
    half_lap_grad2 = 0.5 * geom.phi_laplacian(grad2)(rr, tt)
    _, w_r, w_rr = w.table(2, 0, rr, tt)[:, 0]
    terms = _HessianTerms(geom, rr, tt, w_r, w_rr)
    pair = w_r * geom.phi_laplacian(w).at(1, 0, rr, tt) / terms.a2
    return half_lap_grad2 - pair - terms.hess2 - geom.bakry_emery(np.inf)[0](rr, tt) * terms.grad2


# ---------------------------------------------------------------------------
# evolution identity and inequality chain for F
# ---------------------------------------------------------------------------

def geometry_terms(tt: TermTable):
    """The evolution identity's terms in the Bakry-Emery Ricci tensor, the
    metric speed h and the potential's speed, which the quadratic stage
    keeps as they are."""
    p, al = tt.params.p, tt.samples.alpha
    return ((2 / tt.v) * (al - 1) * tt.h_vv
            - 2 * (p - 1) * tt.ric_m_vv
            + al * (p - 1) * tt.divh_pair
            + al * (p - 1) * tt.phit_pair
            - 2 * al * (p - 1) * tt.h_phi_pair)


def evolution_identity_rhs(tt: TermTable):
    """Right-hand side of the exact evolution identity for F."""
    p, s = tt.params.p, tt.samples
    al, alp = s.alpha, s.alpha_p
    rhs = (
        -((p - 1) * tt.lap_v) ** 2
        + 2 * p * tt.gradF_pair
        - 2 * (p - 1) * tt.hess2
        - 2 * (p - 1) * tt.sharp_pair
        + geometry_terms(tt)
        + 2 * al * (p - 1) * tt.h_hess
        - s.beta_p
        - alp * tt.v_t / tt.v
        + (1 - al) * (tt.v_t / tt.v - s.G / tt.v) ** 2
        + (2 / tt.v) * (1 - al) * tt.gradG_pair
        - al * (p - 1) * tt.lap_G_full
        + (al - 1) * (tt.grad2 / tt.v) * (s.G / tt.v)
        + alp * s.G / tt.v
    )
    return rhs


def harnack_evolution_residual(solution, geom, params, nonlinearity, r=None, t=None):
    """L[F] minus the full identity right-hand side."""
    table = TermTable(solution, geom, params, nonlinearity, r=r, t=t)
    return table.LpvF - evolution_identity_rhs(table), table


def inequality_rhs(stage: str, tt: TermTable, bounds=None, sharper_static: bool = False):
    """Upper bounds for L[F]: the identity's right side with two steps
    added (pointwise), the completed square in F (quadratic), and that
    square with the geometric bounds substituted (bounded)."""
    p, m, n = tt.params.p, tt.params.m, tt.geom.n
    al, b = tt.samples.alpha, tt.b
    if np.any(al < 1.0):
        raise IdentityError("inequality stages require alpha >= 1")
    if stage == "pointwise":
        factor = (1 + m * (p - 1)) / (m * (p - 1))
        if sharper_static:
            if not tt.geom.metric_static:
                raise IdentityError("sharper quadratic factor is only valid for static metrics")
            factor = (2 + m * (p - 1)) / (m * (p - 1))
        # the identity plus two steps, each >= 0: the Hessian step by the
        # m-trace inequality, with Young's inequality absorbing the metric
        # speed's pairing, and the dropped square
        hessian_step = ((1 - factor) * ((p - 1) * tt.lap_v) ** 2
                        + 2 * (p - 1) * (tt.hess2 + tt.sharp_pair)
                        + (p - 1) * al * (al * tt.h_norm2 - 2 * tt.h_hess))
        dropped_square = (al - 1) * (tt.v_t / tt.v - tt.samples.G / tt.v) ** 2
        return evolution_identity_rhs(tt) + hessian_step + dropped_square
    # the completed square in F over the estimate's brackets: with the metric's
    # pointwise terms, or with the aggregates of the bounds (v for sup v)
    if stage == "quadratic":
        agg = dict.fromkeys("LNM", 0.0)
        metric = geometry_terms(tt) + (p - 1) * al**2 * tt.h_norm2
    elif stage != "bounded":
        raise IdentityError(f"unknown inequality stage {stage!r}")
    elif bounds is None:
        raise IdentityError("bounded stage needs extracted geometry bounds")
    else:
        agg = aggregates(bounds, tt.params, n, tt.v, 0.0, al, None, scope="global")
        metric = 0.0
    slope, grad, const, quad = estimate_brackets(tt.samples, tt.params, "first", agg)
    y = tt.grad2 / tt.v
    return (
        -tt.F**2 / (b * al**2)
        - 2 * (al - 1) / (b * al**2) * y * tt.F
        + slope * tt.F
        + 2 * p * tt.gradF_pair
        - (al - 1) ** 2 / (b * al**2) * y**2
        + quad * y
        + 2 * grad * tt.grad_norm
        + const
        + metric
    )

