"""Positive radial solutions of the weighted slow diffusion equation.

Solves d(u)/dt = Delta_phi(u^p) + N(t, x, u) for strictly positive data.  N
has one shape, :class:`Nonlinearity`: in pressure form it is
G = sum A_j v^a_j + sum B_j v^b_j + f(x, t), a power sum in v plus a forcing
in (x, t).  The scheme is a conservative finite-volume space discretization
with semi-implicit time stepping: the diffusion coefficient p u^(p-1) is
frozen at the current state (lagged linearization), the resulting linear
diffusion solved implicitly, and the source term taken explicitly.  Each
step's linear system is a tridiagonal M-matrix, solved by LAPACK dgtsv's
elimination transcribed to Python floats (no pivoting).  A solve evaluates
the forcing once, at every node and every step's start time, and the
geometry (face densities, cell masses, conformal factor) once, at every
step's end time.  Exact solutions (the self-similar source solution and
manufactured pressure fields) provide the discretization oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScalarField
from .geometry import WarpedGeometry, phi_laplacian_eval
from .jets import d_r, d_t
from .symfun import Profile, constant_profile


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# pressure transform and the nonlinearity
# ---------------------------------------------------------------------------

def pressure(u, p: float):
    """v = p u^(p-1) / (p-1); monotone for p > 1."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise SolverError("pressure transform requires positive u")
    return p * u ** (p - 1) / (p - 1)


def pressure_inverse(v, p: float):
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise SolverError("inverse pressure transform requires positive v")
    return ((p - 1) * v / p) ** (1.0 / (p - 1))


def _sum(vpart, xpart, *like):
    """vpart + xpart with an absent (None) part left out, never added as
    zeros (which would turn a -0.0 into +0.0); zeros shaped like the
    broadcast of ``like`` when both are absent."""
    if vpart is None:
        return np.zeros(np.broadcast_shapes(*map(np.shape, like))) if xpart is None else xpart
    return vpart if xpart is None else vpart + xpart


class Nonlinearity:
    """G(t, x, v) = sum_j A_j v^a_j + sum_j B_j v^b_j + f(x, t), with A_j >= 0
    and B_j <= 0: a power sum in v plus a forcing profile f (None: absent).

    G is the rescaled forcing entering the pressure equation
    d(v)/dt = (p-1) v Delta_phi v + |grad v|^2 + G; ``G_jet(t, r, v)`` is G
    on series in r and t.  ``G_vpart(v)`` is the power sum (on arrays or jets)
    and ``G_xpart(t, r)`` the forcing, None where absent.  ``partials`` gives G
    with its coordinate r-partial G_x at frozen v (callers convert it to a
    metric norm), the weighted Laplacian of the frozen-v spatial slice and
    the v-partials G_v, G_vv (the power sum's), all from one table of the
    forcing.  G is separable, so its mixed x-v partial vanishes.
    ``form`` names the parts present: "zero", "power-sum", "separable-x" or
    "power-sum+separable-x".
    """

    def __init__(self, A=(), a=(), B=(), b=(), forcing: Profile | None = None,
                 geom: WarpedGeometry | None = None):
        self.A, self.a, self.B, self.b = (np.asarray(x, dtype=float) for x in (A, a, B, b))
        if self.A.shape != self.a.shape or self.B.shape != self.b.shape:
            raise SolverError("coefficient/exponent lists must pair up")
        if np.any(self.A < 0) or np.any(self.B > 0):
            raise SolverError("power-sum form requires A_j >= 0 and B_j <= 0")
        if forcing is not None and geom is None:
            raise SolverError("a forcing needs the geometry of its weighted Laplacian")
        self.terms = tuple(zip((*self.A, *self.B), (*self.a, *self.b)))
        self.forcing, self.geom = forcing, geom
        self.form = "+".join(name for name, present in (("power-sum", bool(self.terms)),
                                                        ("separable-x", forcing is not None))
                             if present) or "zero"

    def G_vpart(self, v, shift: int = 0):
        """The shift-th v-partial of the power sum at v; None without terms.
        A term whose falling factorial is 0 is left out, as its power of v may
        overflow (0 * inf is NaN); with every term left out, 0 in v's shape."""
        if not self.terms:
            return None
        parts = [coef * fall * v ** (ex - shift) for coef, ex in self.terms
                 if (fall := math.prod(ex - j for j in range(shift)))]
        return sum(parts) if parts else 0.0 * v

    def G_xpart(self, t, r):
        return None if self.forcing is None else self.forcing(r, t)

    def G(self, t, r, v):
        return _sum(self.G_vpart(v), self.G_xpart(t, r), t, r, v)

    def G_jet(self, t, r, v):
        return _sum(self.G_vpart(v), None if self.forcing is None else self.forcing.jet(r, t), 0.0)

    def partials(self, t, r, v):
        """(G, G_x, lap_phi_Gx, G_v, G_vv) at (t, r, v)."""
        G_v, G_vv = (_sum(self.G_vpart(v, k), None, t, r, v) for k in (1, 2))
        if self.forcing is None:
            zero = _sum(None, None, t, r, v)
            return self.G(t, r, v), zero, zero, G_v, G_vv
        f, f_x, f_xx = self.forcing.table(2, 0, r, t)[:, 0]
        return (_sum(self.G_vpart(v), f), f_x, phi_laplacian_eval(self.geom, r, t, f_x, f_xx),
                G_v, G_vv)

    def source(self, u, p: float, xpart):
        """Source form N = G u^(2-p) / p, with G the power sum at
        v = pressure(u, p) plus ``xpart``, the forcing at the nodes of u
        (None where there is none)."""
        u = np.asarray(u, dtype=float)
        return _sum(self.G_vpart(pressure(u, p)), xpart, u) * u ** (2.0 - p) / p


def manufactured_forcing(v_exact: Profile, geom: WarpedGeometry, p: float,
                         power: Nonlinearity | None = None) -> Nonlinearity:
    """The power-sum terms of ``power`` (none when None) plus the forcing
    f = d(v)/dt - (p-1) v Delta_phi v - |grad v|^2 - (the power sum) that
    makes ``v_exact`` an exact pressure solution; every partial of f comes
    from arithmetic on the series of v and the geometry."""
    power = Nonlinearity() if power is None else power

    def closure(r, t):
        v = v_exact.jet(r, t)
        G = (d_t(v) - (p - 1) * v * geom.phi_laplacian_jet(v, r, t)
             - d_r(v) ** 2 / geom.conformal.jet(r, t) ** 2)
        vpart = power.G_vpart(v)
        return G if vpart is None else G - vpart

    forcing = Profile.of_jets(closure, np.add(v_exact.orders, (2, 1)), "closure_forcing")
    return Nonlinearity(power.A, power.a, power.B, power.b, forcing=forcing, geom=geom)


# ---------------------------------------------------------------------------
# exact self-similar solution (Euclidean, phi = 0, zero forcing)
# ---------------------------------------------------------------------------

def barenblatt_exponents(n: int, p: float):
    beta = 1.0 / (n * (p - 1) + 2.0)
    return n * beta, beta


def barenblatt_oracle(n: int, p: float, mass_const: float, r, t):
    """Self-similar source solution of d(u)/dt = Delta u^p on flat space."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise SolverError("self-similar solution requires t > 0")
    nbeta, beta = barenblatt_exponents(n, p)
    kk = (p - 1) * beta / (2 * p)
    r = np.asarray(r, dtype=float)
    core = mass_const - kk * r**2 * t ** (-2 * beta)
    return t ** (-nbeta) * np.maximum(core, 0.0) ** (1.0 / (p - 1))


def barenblatt_pressure_profile(n: int, p: float, mass_const: float) -> Profile:
    """Closed-form pressure inside the support (quadratic in r)."""
    nbeta, beta = barenblatt_exponents(n, p)
    c, kk, a = p / (p - 1), (p - 1) * beta / (2 * p), -nbeta * (p - 1)
    return Profile(f"{float(c * mass_const)!r}*t**{float(a)!r}"
                   f" - {float(c * kk)!r}*r**2*t**{float(a - 2 * beta)!r}", "barenblatt_pressure")


def barenblatt_support_radius(n: int, p: float, mass_const: float, t):
    _, beta = barenblatt_exponents(n, p)
    kk = (p - 1) * beta / (2 * p)
    return np.sqrt(mass_const / kk) * np.asarray(t, dtype=float) ** beta


def validate_barenblatt(n: int, p: float, mass_const: float) -> float:
    """Max residual of the oracle in the flat pressure equation.

    The oracle is only trusted after this substitution check; callers assert
    the returned residual is at machine-precision level.
    """
    rr, tt = np.meshgrid(np.linspace(0.0, 1.0, 17), np.linspace(0.5, 2.0, 9), indexing="ij")
    inside = rr < barenblatt_support_radius(n, p, mass_const, tt)
    vals = pressure_equation_residual(barenblatt_pressure_profile(n, p, mass_const),
                                      _flat_geometry(n), p, Nonlinearity(), rr, tt)
    return float(np.max(np.abs(vals[inside])))


def pressure_equation_residual(v: Profile, geom: WarpedGeometry, p: float,
                               nonlinearity: Nonlinearity, r, t):
    """L[v] - |grad v|^2 - G, which vanishes on exact pressure solutions."""
    rr, tt = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    vv, v_t, v_r, v_rr = v.table(2, 1, rr, tt)[[0, 0, 1, 2], [0, 1, 0, 0]]
    grad2 = v_r**2 / geom.conformal(rr, tt) ** 2
    lhs = v_t - (p - 1) * vv * phi_laplacian_eval(geom, rr, tt, v_r, v_rr)
    return lhs - grad2 - nonlinearity.G(tt, rr, vv)


def _flat_geometry(n: int) -> WarpedGeometry:
    return WarpedGeometry(
        n=n, m=float(n), warp=Profile("r", "psi"), conformal=constant_profile(1.0, "a"),
        potential=constant_profile(0.0, "phi"), r_max=1e9, name="flat",
    )


# ---------------------------------------------------------------------------
# finite-volume semi-implicit solver
# ---------------------------------------------------------------------------

BOUNDARY_POLICIES = ("neumann-zero", "dirichlet-oracle")


@dataclass(frozen=True)
class PdeParams:
    """Exponent, forcing, positivity floor and boundary policy."""

    p: float
    nonlinearity: Nonlinearity
    positivity_floor: float
    outer_boundary: str = "neumann-zero"  # or "dirichlet-oracle"
    oracle: object = None  # u(r, t) callable for dirichlet-oracle boundaries
    substeps: int = 1

    def __post_init__(self):
        if self.p <= 1:
            raise SolverError("exponent p must exceed 1")
        if self.positivity_floor <= 0:
            raise SolverError("positivity floor must be positive")
        if self.outer_boundary not in BOUNDARY_POLICIES:
            raise SolverError(f"unknown boundary policy {self.outer_boundary!r}")
        if self.outer_boundary == "dirichlet-oracle" and self.oracle is None:
            raise SolverError("dirichlet-oracle boundary needs an oracle")
        if self.substeps < 1:
            raise SolverError("substeps must be >= 1")


@dataclass
class SolveResult:
    u: ScalarField
    v: ScalarField
    clamp_events: int
    clamp_fraction: float
    meta: dict = field(default_factory=dict)


def _cell_masses(J, r_nodes, dr, r_max, t):
    """Simpson masses of J(., t) over the cells [r - dr/2, r + dr/2] clipped
    to [0, r_max], for all nodes (broadcast against the times t) at once."""
    lo = np.maximum(r_nodes - dr / 2, 0.0)
    hi = np.minimum(r_nodes + dr / 2, r_max)
    return (hi - lo) / 6.0 * (J(lo, t) + 4.0 * J(0.5 * (lo + hi), t) + J(hi, t))


def _step_geometry(geom: WarpedGeometry, grid: Grid, t_ends):
    """What a step needs of the geometry at each of the times ``t_ends``: the
    volume density at the cell faces, the cells' Simpson masses (one column
    per time each) and the conformal factor at the pole (one entry per time)."""
    J = geom.volume_density
    faces = J((grid.r[:-1] + grid.dr / 2)[:, None], t_ends)
    masses = _cell_masses(J, grid.r[:, None], grid.dr, grid.r_max, t_ends)
    return faces, masses, geom.conformal(0.0, t_ends)


def _tridiagonal_solve(lower, diag, upper, rhs, t: float):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``lower``, ``diag``, ``upper`` for ``rhs``: LAPACK dgtsv's elimination and
    back substitution in Python floats, in dgtsv's operation order, so its
    solutions are bit-identical to LAPACK's.  dgtsv would swap rows where a
    pivot is smaller than the entry below it; step's M-matrix never needs
    that, so such a pivot, a zero pivot and non-finite input are refused with
    a SolverError naming the step time t.  (dgtsv's back substitution also
    subtracts the zeroed sub-diagonal times a solution entry, which can only
    turn a zero's sign; it is left out.)"""
    def refuse(why):
        return SolverError(f"linear solve failed at t = {t:.6g}: {why}")

    if not all(np.all(np.isfinite(a)) for a in (lower, diag, upper, rhs)):
        raise refuse("non-finite matrix or right side")
    dl, d, du, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    for i in range(len(dl)):
        if d[i] == 0.0 or abs(d[i]) < abs(dl[i]):
            raise refuse(f"pivot {d[i]!r} in row {i} is smaller than the entry {dl[i]!r} below it"
                         if d[i] else f"zero pivot in row {i}")
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    if d[-1] == 0.0:
        raise refuse(f"zero pivot in row {len(d) - 1}")
    b[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return np.array(b)


def step(u: np.ndarray, params: PdeParams, grid: Grid, t: float, dt: float,
         xpart, faces, masses, a):
    """One semi-implicit step from t to t + dt; returns (u_new, clamp_count).

    ``xpart`` is the forcing's x-part ``params.nonlinearity.G_xpart(t, r)`` at
    the nodes (None where the forcing has none).  ``faces``, ``masses`` and
    ``a`` are one time's column of :func:`_step_geometry` at t + dt.
    :func:`solve` evaluates both for all steps at once.
    """
    dr = grid.dr
    t_new = t + dt
    kappa = params.p * (0.5 * (u[:-1] + u[1:])) ** (params.p - 1)
    a2 = float(a) ** 2
    w = faces * kappa / (a2 * dr)

    src = params.nonlinearity.source(u, params.p, xpart)

    # no-flux at the pole/inner face is automatic, since no flux term is
    # added there
    lower = upper = -w
    diag = masses / dt
    diag[1:] += w
    diag[:-1] += w
    rhs = masses / dt * u + masses * src
    if params.outer_boundary == "dirichlet-oracle":
        diag[-1] = 1.0
        lower = np.append(lower[:-1], 0.0)
        rhs[-1] = float(params.oracle(grid.r_max, t_new))
    u_new = _tridiagonal_solve(lower, diag, upper, rhs, t_new)
    if not np.all(np.isfinite(u_new)):
        raise SolverError(f"non-finite state at t = {t_new:.6g}")
    clamped = u_new < params.positivity_floor
    u_new = np.maximum(u_new, params.positivity_floor)
    return u_new, int(np.count_nonzero(clamped))


def solve(initial, geom: WarpedGeometry, params: PdeParams, grid: Grid) -> SolveResult:
    """March the semi-implicit scheme across the grid's time nodes; the meta
    data warn when more than 1% of the updates were clamped to the floor."""
    r = grid.r
    t_nodes = grid.t
    u = np.asarray(initial(r, t_nodes[0]) if callable(initial) else initial, dtype=float).copy()
    if u.shape != (grid.n_r,):
        raise SolverError("initial data shape does not match the grid")
    if np.any(u < params.positivity_floor):
        raise SolverError("initial data below the positivity floor")
    U = np.zeros((grid.n_r, grid.n_t))
    U[:, 0] = u
    steps = []  # (time node, start time, dt) of every step, in order
    for j in range(1, grid.n_t):
        t_prev = t_nodes[j - 1]
        sub_dt = (t_nodes[j] - t_prev) / params.substeps
        steps += [(j, t_prev + s * sub_dt, sub_dt) for s in range(params.substeps)]
    # the forcing's x-part at every node and step start time, and the
    # geometry at every step end time, each in one evaluation
    xpart = params.nonlinearity.G_xpart(np.array([t for _, t, _ in steps]), r[:, None])
    faces, masses, a = _step_geometry(geom, grid, np.array([t + dt for _, t, dt in steps]))
    clamps = 0
    for k, (j, t, dt) in enumerate(steps):
        u, c = step(u, params, grid, t, dt, None if xpart is None else xpart[:, k],
                    faces[:, k], masses[:, k], a[k])
        clamps += c
        U[:, j] = u
    total = grid.n_r * (grid.n_t - 1) * params.substeps
    frac = clamps / total
    meta = {
        "scheme": "semi-implicit lagged-coefficient finite volume",
        "clamp_events": clamps,
        "clamp_fraction": frac,
        "clamp_warning": frac > 0.01,
        "substeps": params.substeps,
    }
    u_field = ScalarField(U, grid, parity="even", positive=True)
    v_field = ScalarField(pressure(U, params.p), grid, parity="even", positive=True)
    return SolveResult(u=u_field, v=v_field, clamp_events=clamps, clamp_fraction=frac, meta=meta)


def weighted_mass(u: np.ndarray, geom: WarpedGeometry, grid: Grid, t: float) -> float:
    """Discrete weighted mass sum_i m_i u_i, with the scheme's Simpson cell
    masses m_i of ``geom.volume_density`` at time t."""
    return float(_cell_masses(geom.volume_density, grid.r, grid.dr, grid.r_max, t) @ u)
