import itertools

import numpy as np
import pytest
import sympy as sp

from harnacklab.fields import ScalarField
from harnacklab.geometry import WarpedGeometry
from harnacklab.identities import commutator_terms
from harnacklab.params import HarnackParams, constant_alpha_beta
from harnacklab.symfun import Profile

# the oracle's coordinates: sympy reads the same expression strings as the code
R, T = sp.symbols("r t", real=True)


def sym(expr):
    """The sympy expression of an expression string or of a Profile's source."""
    return sp.sympify(getattr(expr, "source", expr), locals={"r": R, "t": T})


def make_geometry(kind, n=2, m=None, r_max=2.0, conformal="1", potential=None,
                  mode=None):
    warps = {
        "euclidean": "r",
        "hyperbolic": "sinh(r)",
        "sphere": "sin(r)",
        "gaussian": "r",
        "warp": "1 + r*(1 + t/5)",
    }
    if potential is None:
        potential = "r**2/2" if kind == "gaussian" else "0"
    phi = Profile(potential, "phi")
    if m is None:
        m = float(n) if phi.is_constant() else float(n + 2)
    return WarpedGeometry(
        n=n, m=float(m), warp=Profile(warps[kind], "psi"), conformal=Profile(conformal, "a"),
        potential=phi, r_max=r_max, mode=mode, name=kind,
    )


@pytest.fixture(scope="session")
def euclid3():
    return make_geometry("euclidean", n=3)


@pytest.fixture(scope="session")
def hyperbolic2():
    return make_geometry("hyperbolic", n=2)


@pytest.fixture(scope="session")
def gaussian2():
    return make_geometry("gaussian", n=2, m=4)


@pytest.fixture(scope="session")
def conformal_gaussian():
    return make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)",
                         potential="r**2*(1 + t/9)/2")


@pytest.fixture(scope="session")
def evolving_warp():
    return make_geometry("warp", n=3, m=4, potential="r**2*(1 + t/9)/2")


@pytest.fixture(scope="session")
def bump_profile():
    return Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")


@pytest.fixture(scope="session")
def cosh_bump_profile():
    return Profile("2 + exp(-t)*(3 + cosh(r))/8", "v")


def params_for(geom, p=2.5, alpha=2.0, beta=0.0):
    return HarnackParams(p=p, m=geom.m, coeffs=constant_alpha_beta(alpha, beta))


def sample_points(r_max=1.8, include_pole=True, n_r=16, n_t=7, t_lo=0.5, t_hi=1.5):
    r = np.linspace(0.0 if include_pole else 0.05, r_max, n_r)[:, None]
    t = np.linspace(t_lo, t_hi, n_t)[None, :]
    return r, t


def convergence_order(samples) -> float:
    """Least-squares slope of log(err) against log(h)."""
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError("need at least 3 (h, err) samples")
    h = np.asarray([s[0] for s in samples], dtype=float)
    e = np.asarray([s[1] for s in samples], dtype=float)
    if np.any(np.diff(h) >= 0):
        raise ValueError("h must be strictly decreasing")
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


# ---------------------------------------------------------------------------
# the symbolic route of the derived fields, kept here as their oracle
# ---------------------------------------------------------------------------

def symbolic_phi_laplacian(geom, w):
    """Delta_phi of the sympy expression ``w`` by sympy.diff; the drift
    product is cancelled, so warp-adapted fields stay regular at the pole."""
    psi = sym(geom.warp)
    wr = sp.diff(w, R)
    drift = sp.cancel((geom.n - 1) * sp.diff(psi, R) * wr / psi)
    return (sp.diff(w, R, 2) + drift - sp.diff(sym(geom.potential), R) * wr) / sym(geom.conformal)**2


def symbolic_closure(v, geom, p):
    """The closure forcing v_t - (p-1) v Delta_phi v - |grad v|^2 of the
    sympy expression ``v``, by sympy.diff."""
    return (sp.diff(v, T) - (p - 1) * v * symbolic_phi_laplacian(geom, v)
            - sp.diff(v, R) ** 2 / sym(geom.conformal)**2)


def profile_of(expr, name=""):
    """The Profile of a sympy expression.  str() prints a Float to 15 digits,
    so each Float is first written as the rational it equals exactly."""
    exact = expr.xreplace({x: sp.Rational(float(x)) for x in expr.atoms(sp.Float)})
    return Profile(str(exact), name)


def field_from_function(fun, grid, parity="even", positive=False):
    """The grid field of ``fun(r, t)`` on the mesh of ``grid``."""
    rr, tt = grid.mesh()
    return ScalarField(fun(rr, tt), grid, parity=parity, positive=positive)


# ---------------------------------------------------------------------------
# the commutator's sign conventions, searched here; the checks apply one
# ---------------------------------------------------------------------------

COMMUTATOR_TERMS = ("hessian_trace", "divergence", "potential_speed", "potential_mixed")


def commutator_variants():
    """All sign conventions for the four evolving-metric commutator terms."""
    return list(itertools.product((1, -1), repeat=4))


def variant_label(signs) -> str:
    return ",".join(f"{name}:{'+' if s > 0 else '-'}"
                    for name, s in zip(COMMUTATOR_TERMS, signs))


def commutator_variant_residuals(v, geom, r, t):
    """(max |residual|, residual) of the commutator under every sign
    convention, keyed by its signs."""
    lhs, terms = commutator_terms(v, geom, r, t)
    results = {}
    for signs in commutator_variants():
        res = lhs - sum(s * term for s, term in zip(signs, terms))
        results[signs] = (float(np.max(np.abs(res))), res)
    return results


def adjudicate_commutator(v, geoms, r, t, tol: float = 1e-9):
    """Find the sign variants consistent across a battery of geometries."""
    worst = {}
    for geom in geoms:
        for signs, (mx, _) in commutator_variant_residuals(v, geom, r, t).items():
            worst[signs] = max(worst.get(signs, 0.0), mx)
    passing = sorted(signs for signs, mx in worst.items() if mx <= tol)
    return passing, worst
