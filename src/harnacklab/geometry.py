"""Rotationally symmetric evolving metric measure spaces.

The spatial slice is a warped product ``dr^2 + psi(r,t)^2 g_sphere`` of
dimension ``n``, optionally scaled by a conformal factor ``a(t)^2``, with
weighted measure ``exp(-phi) dv_g``.  The profile that evolves decides
which of three evolution families a geometry belongs to:

* ``static-warp``      -- metric time independent (``a`` constant, ``psi(r)``)
* ``conformal-evolving`` -- ``g(t) = a(t)^2 g_0`` with ``psi`` time independent
* ``evolving-warp``    -- ``psi(r,t)`` evolves, ``a == 1``

For these families every curvature quantity appearing in the estimates is
arithmetic on the series of ``psi``, ``a`` and ``phi``, the pole included, so
suprema of geometric bounds can be extracted at machine precision on sampled
cylinders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import d_r, d_t, exp
from .symfun import Profile

MODES = ("pole", "annulus")


class GeometryError(ValueError):
    """A geometry the laboratory cannot use; ``key`` names the key at fault."""

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class WarpedGeometry:
    """A rotationally symmetric smooth metric measure space."""

    n: int
    m: float
    warp: Profile
    conformal: Profile
    potential: Profile
    r_max: float
    mode: str | None = None         # None: the annulus if the warp evolves, else the pole
    name: str = ""

    def __post_init__(self):
        if self.n < 2 or int(self.n) != self.n:
            raise GeometryError(f"dimension n must be an integer >= 2, got {self.n}")
        if self.m < self.n:
            raise GeometryError(f"synthetic dimension m = {self.m} must be >= n = {self.n}")
        if self.mode is None:
            object.__setattr__(self, "mode",
                               "annulus" if self.family == "evolving-warp" else "pole")
        if self.mode not in MODES:
            raise GeometryError(f"unknown mode {self.mode!r}")
        if self.r_max <= 0:
            raise GeometryError("r_max must be positive")
        if self.m == self.n and not self.potential.is_constant():
            raise GeometryError("m == n requires a constant potential")
        if "r" in self.conformal.coords:
            raise GeometryError("conformal factor must depend on t only")
        if self.family == "evolving-warp":
            if not (self.conformal.is_constant() and abs(self.conformal(0.0, 0.0) - 1.0) < 1e-15):
                raise GeometryError("an evolving warp requires a == 1")

    # -- basic structure ----------------------------------------------------
    @property
    def family(self) -> str:
        """The evolution family: which profile evolves."""
        return ("evolving-warp" if not self.warp.time_independent else
                "static-warp" if self.conformal.time_independent else "conformal-evolving")

    @property
    def metric_static(self) -> bool:
        return self.family == "static-warp"

    @property
    def is_static(self) -> bool:
        return self.metric_static and self.potential.time_independent

    def validate_on(self, t_lo: float, t_hi: float):
        """Sampled positivity and regularity checks on [0, r_max] x [t_lo, t_hi],
        at 33 radii and 33 times."""
        ts = np.linspace(t_lo, t_hi, 33)
        rs = np.linspace(self.r_max / 33, self.r_max, 33)
        rr, tt = np.meshgrid(rs, ts, indexing="ij")
        psi = self.warp(rr, tt)
        if np.any(psi <= 0):
            raise GeometryError("warp must be positive on (0, r_max]")
        if np.any(self.conformal(0.0, ts) <= 0):
            raise GeometryError("conformal factor must be positive")
        if self.mode == "pole":
            p0, p1, p2 = self.warp.table(2, 0, np.zeros_like(ts), ts)[:, 0]
            if np.max(np.abs(p0)) > 1e-12 or np.max(np.abs(p1 - 1.0)) > 1e-12:
                raise GeometryError("pole mode requires psi(0,t) = 0 and psi_r(0,t) = 1",
                                    key="warp")
            # an even extension of the fields needs an odd warp
            if np.max(np.abs(p2)) > 1e-12:
                raise GeometryError("pole mode requires a warp odd in r: psi_rr(0,t) = 0, "
                                    f"not up to {np.max(np.abs(p2)):.6g}", key="warp")
            # and an even potential, whose slope phi_r vanishes at the pole
            phi_r = np.max(np.abs(self.potential.at(1, 0, np.zeros_like(ts), ts)))
            if phi_r > 1e-12:
                raise GeometryError("pole mode requires a potential even in r: phi_r(0,t) = 0, "
                                    f"not up to {phi_r:.6g}", key="potential")
        elif np.any(self.warp(np.zeros_like(ts), ts) <= 0):
            raise GeometryError("annulus mode requires psi bounded below by a positive constant")

    # -- derived fields, by jet arithmetic ------------------------------------
    def phi_laplacian_jet(self, w, r, t):
        """Weighted Laplacian a^-2 (w_rr + (n-1) psi_r w_r / psi - phi_r w_r)
        of the series w at the series (r, t), two r-coefficients shorter.

        The drift product is divided by psi last, so at the pole the series
        division cancels its 0/0 for warp-adapted w.
        """
        w_r = d_r(w)
        psi = self.warp.jet(r, t)
        drift = (self.n - 1) * (d_r(psi) * w_r) / psi - d_r(self.potential.jet(r, t)) * w_r
        return (d_r(w_r) + drift) / self.conformal.jet(r, t) ** 2

    def phi_laplacian(self, w: Profile) -> Profile:
        """The weighted Laplacian of a radial profile, as a profile."""
        return Profile.of_jets(lambda r, t: self.phi_laplacian_jet(w.jet(r, t), r, t),
                               np.add(w.orders, (2, 0)), f"lap_phi({w.name})")

    def bakry_emery(self, m: float) -> tuple[Profile, Profile]:
        """The radial and angular eigenvalues of the m-Bakry-Emery Ricci
        tensor Ric + Hess phi - d(phi)^2 / (m - n) relative to g, as profiles
        (Ric + Hess phi at m = inf, Ric with a constant potential) whose series
        divisions by psi give their values at the pole."""
        n, psi, phi, a = self.n, self.warp, self.potential, self.conformal

        def radial(r, t):
            P, phi_r = psi.jet(r, t), d_r(phi.jet(r, t))
            sharp = phi_r**2 / (m - n) if m > n else 0.0
            return (-(n - 1) * d_r(d_r(P)) / P + d_r(phi_r) - sharp) / a.jet(r, t) ** 2

        def angular(r, t):
            P, phi_r = psi.jet(r, t), d_r(phi.jet(r, t))
            P_r = d_r(P)
            return (((P_r * phi_r - d_r(P_r)) / P + (n - 2) * (1.0 - P_r**2) / P**2)
                    / a.jet(r, t) ** 2)

        return (Profile.of_jets(radial, (2, 0), "bakry_emery_radial"),
                Profile.of_jets(angular, (2, 0), "bakry_emery_angular"))

    def warp_speed(self) -> tuple[Profile, Profile, Profile]:
        """On an evolving warp, h's angular eigenvalue psi_t/psi, |grad h|^2 and the
        radial part of 2 div h - grad tr h, as profiles, the pole included."""
        n, psi = self.n, self.warp

        def h_angular(r, t):
            P = psi.jet(r, t)
            return d_t(P) / P

        def grad_h2(r, t):
            P = psi.jet(r, t)
            cross = d_r(P) * d_t(P) / P
            return (n - 1) * ((d_t(d_r(P)) - cross) ** 2 + 2.0 * cross**2) / P**2

        def div(r, t):
            P = psi.jet(r, t)
            return -(n - 1) * (d_r(P) * d_t(P) / P**2 + d_t(d_r(P)) / P)

        return (Profile.of_jets(h_angular, (0, 1), "h_angular"),
                Profile.of_jets(grad_h2, (1, 1), "grad_h_sq"),
                Profile.of_jets(div, (1, 1), "h_divergence"))

    @cached_property
    def volume_density(self) -> Profile:
        """J with d(mu) = J dr dOmega; J = a^n psi^(n-1) exp(-phi).

        Built on first use and kept, so a solve builds J once however many
        steps it takes.
        """
        a, psi, phi, n = self.conformal, self.warp, self.potential, self.n
        return Profile.of_jets(
            lambda r, t: a.jet(r, t) ** n * psi.jet(r, t) ** (n - 1) * exp(-phi.jet(r, t)),
            (0, 0), "volume_density")


# ---------------------------------------------------------------------------
# pointwise geometric quantities (vectorized over r, t arrays)
# ---------------------------------------------------------------------------

def _check_domain(geom, r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > geom.r_max * (1 + 1e-12)):
        raise GeometryError("radius outside [0, r_max]")
    return r


def angular_drift_product(geom: WarpedGeometry, r, t, f_r, f_rr):
    """(psi_r / psi) f_r for an even radial field f given as arrays (off a
    table or stencils), which no series division reaches: at the pole the
    product takes its limit f_rr(0, t)."""
    psi, psi_r = geom.warp.table(1, 0, r, t)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((np.asarray(r) == 0.0) & (geom.mode == "pole"), f_rr, psi_r * f_r / psi)


def phi_laplacian_eval(geom: WarpedGeometry, r, t, w_r, w_rr):
    """Weighted Laplacian of an even radial field from its radial partials.

    Assembles a^-2 (w_rr + (n-1)(psi_r/psi) w_r - phi_r w_r) with the pole
    limits built in.  The partials may come from a derivative table or from
    stencils; this is the one numeric transcription of Delta_phi.
    """
    ang = angular_drift_product(geom, r, t, w_r, w_rr)
    phi_r = geom.potential.at(1, 0, r, t)
    return (w_rr + (geom.n - 1) * ang - phi_r * w_r) / geom.conformal(r, t) ** 2


def bakry_emery_eigs(geom: WarpedGeometry, r, t):
    """Eigenvalues (radial, angular) of the m-Bakry-Emery Ricci tensor relative to g."""
    r = _check_domain(geom, r)
    if np.any((geom.warp(r, t) <= 0) & ((r > 0) | (geom.mode == "annulus"))):
        raise GeometryError("warp non-positive inside domain")
    return tuple(prof(r, t) for prof in geom.bakry_emery(geom.m))


def metric_speed(geom: WarpedGeometry, r, t):
    """h = (dg/dt)/2 at each node: its eigenvalues (radial, angular) relative
    to g, |grad h|, and the radial component of 2 div h - grad tr h, which is
    nonzero only on an evolving warp."""
    r = _check_domain(geom, r)
    zeros = np.zeros(np.broadcast_shapes(np.shape(r), np.shape(t)))
    if geom.family == "static-warp":
        return zeros, zeros, zeros, zeros
    if geom.family == "conformal-evolving":
        rate = geom.conformal.at(0, 1, r, t) / geom.conformal(r, t)
        return rate, rate, zeros, zeros
    h_ang, grad_h2, div = (prof(r, t) for prof in geom.warp_speed())
    return zeros, h_ang, np.sqrt(grad_h2), div


# ---------------------------------------------------------------------------
# cylinders and extracted bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cylinder:
    """Space-time cylinder {a(t) r <= radius} x [t_lo, t_hi] around the axis."""

    radius: float
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("cylinder radius must be positive")
        if self.t_hi < self.t_lo:
            raise GeometryError("cylinder time window is empty")

    @classmethod
    def whole_domain(cls, t_lo: float, t_hi: float) -> "Cylinder":
        """A cylinder wider than any domain: its mask keeps every radius."""
        return cls(1e18, t_lo, t_hi)

    def scaled(self, factor: float) -> "Cylinder":
        return Cylinder(self.radius * factor, self.t_lo, self.t_hi)

    def mask(self, r_nodes, t_nodes, geom: WarpedGeometry):
        """Boolean array over the (r, t) grid of nodes inside the cylinder."""
        r = np.asarray(r_nodes, dtype=float)[:, None]
        t = np.asarray(t_nodes, dtype=float)[None, :]
        a = geom.conformal(np.zeros_like(t), t)
        inside_t = (t >= self.t_lo - 1e-12) & (t <= self.t_hi + 1e-12)
        return (a * r <= self.radius * (1 + 1e-12)) & inside_t

    def coordinate_reach(self, geom: WarpedGeometry) -> float:
        """Largest coordinate radius the cylinder touches over its window,
        sampled at 65 times."""
        ts = np.linspace(self.t_lo, self.t_hi, 65)
        a = geom.conformal(np.zeros_like(ts), ts)
        return float(self.radius / np.min(a))

    def require_inside(self, geom: WarpedGeometry, factor: float = 1.0):
        reach = self.scaled(factor).coordinate_reach(geom)
        if reach > geom.r_max * (1 + 1e-9):
            raise GeometryError(
                f"cylinder of radius {factor * self.radius} reaches coordinate radius "
                f"{reach:.6g} > r_max = {geom.r_max}"
            )

    def sample(self, geom: WarpedGeometry, r_nodes, t_nodes):
        """The mesh (rr, tt) of the nodes, as read-only broadcast views of the
        node arrays, and the mask of the nodes inside the cylinder."""
        mask = self.mask(r_nodes, t_nodes, geom)
        return (np.broadcast_to(r_nodes[:, None], mask.shape),
                np.broadcast_to(t_nodes[None, :], mask.shape), mask)

    def sample_nodes(self, geom: WarpedGeometry, n_r: int, n_t: int):
        # fixed domain-wide radial nodes (the cylinder mask selects inside);
        # enlarging a cylinder on the same density then only adds nodes, so
        # extracted suprema are monotone under enlargement
        r_nodes = np.linspace(0.0, geom.r_max, n_r)
        t_nodes = np.linspace(self.t_lo, self.t_hi, n_t)
        return r_nodes, t_nodes


@dataclass(frozen=True)
class GeometryBounds:
    """Sampled suprema of the curvature/evolution bounds over a cylinder.

    ``k`` bounds the Bakry-Emery Ricci tensor from below by -(m-1) k g,
    ``k_lo``/``k_hi`` sandwich the metric speed h, ``k2`` bounds |grad h|,
    ``l1`` bounds |grad phi| and ``l2`` bounds |grad d(phi)/dt|.
    """

    k: float
    k_lo: float
    k_hi: float
    k2: float
    l1: float
    l2: float

    def __post_init__(self):
        for name in ("k", "k_lo", "k_hi", "k2", "l1", "l2"):
            if getattr(self, name) < 0:
                raise GeometryError(f"bound {name} must be non-negative")

    def as_dict(self):
        return {
            "k": self.k, "k_lo": self.k_lo, "k_hi": self.k_hi,
            "k2": self.k2, "l1": self.l1, "l2": self.l2,
        }


def extract_bounds(geom: WarpedGeometry, cyl: Cylinder, grid_density=(129, 65)) -> GeometryBounds:
    """Grid suprema of the six geometric bound constants over a cylinder."""
    rr, tt, mask = cyl.sample(geom, *cyl.sample_nodes(geom, *grid_density))
    if not np.any(mask):
        raise GeometryError("cylinder does not intersect the sampling grid")
    r_in, t_in = rr[mask], tt[mask]

    be_rad, be_ang = bakry_emery_eigs(geom, r_in, t_in)
    k = max(0.0, float(np.max(-np.minimum(be_rad, be_ang))) / (geom.m - 1))

    h_rad, h_ang, grad_h, _ = metric_speed(geom, r_in, t_in)
    k_lo = max(0.0, float(np.max(-np.minimum(h_rad, h_ang))))
    k_hi = max(0.0, float(np.max(np.maximum(h_rad, h_ang))))
    k2 = float(np.max(grad_h))

    a = geom.conformal(r_in, t_in)
    l1 = float(np.max(np.abs(geom.potential.at(1, 0, r_in, t_in)) / a))
    l2 = float(np.max(np.abs(geom.potential.at(1, 1, r_in, t_in)) / a))
    return GeometryBounds(k=k, k_lo=k_lo, k_hi=k_hi, k2=k2, l1=l1, l2=l2)
