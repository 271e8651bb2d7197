import numpy as np
import pytest
import sympy as sp

from harnacklab.geometry import WarpedGeometry
from harnacklab.params import HarnackParams, constant_alpha_beta
from harnacklab.symfun import Profile, R, T


def make_geometry(kind, n=2, m=None, r_max=2.0, conformal=None, potential=None,
                  mode=None):
    warps = {
        "euclidean": R,
        "hyperbolic": sp.sinh(R),
        "sphere": sp.sin(R),
        "gaussian": R,
        "warp": 1 + R * (1 + T / 5),
    }
    warp = warps[kind]
    if potential is None:
        potential = R**2 / 2 if kind == "gaussian" else sp.Integer(0)
    conf = sp.Integer(1) if conformal is None else conformal
    if kind == "warp":
        family = "evolving-warp"
        mode = mode or "annulus"
    elif sp.sympify(conf).has(T):
        family = "conformal-evolving"
        mode = mode or "pole"
    else:
        family = "static-warp"
        mode = mode or "pole"
    if m is None:
        m = float(n) if sp.sympify(potential).is_constant() else float(n + 2)
    return WarpedGeometry(
        n=n, m=float(m), warp=Profile(warp, "psi"), conformal=Profile(conf, "a"),
        potential=Profile(potential, "phi"), r_max=r_max, family=family, mode=mode,
        name=kind,
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
    return make_geometry("gaussian", n=2, m=4, conformal=sp.exp(T / 10),
                         potential=R**2 * (1 + T / 9) / 2)


@pytest.fixture(scope="session")
def evolving_warp():
    return make_geometry("warp", n=3, m=4, potential=R**2 * (1 + T / 9) / 2)


@pytest.fixture(scope="session")
def bump_profile():
    return Profile(2 + sp.exp(-T) * sp.exp(-R**2 / 4) + R**2 * sp.exp(-2 * T) / 8, "v")


@pytest.fixture(scope="session")
def cosh_bump_profile():
    return Profile(2 + sp.exp(-T) * (3 + sp.cosh(R)) / 8, "v")


def params_for(geom, p=2.5, alpha=2.0, beta=0.0):
    return HarnackParams(p=p, m=geom.m, coeffs=constant_alpha_beta(alpha, beta))


def sample_points(r_max=1.8, include_pole=True, n_r=16, n_t=7, t_lo=0.5, t_hi=1.5):
    r = np.linspace(0.0 if include_pole else 0.05, r_max, n_r)[:, None]
    t = np.linspace(t_lo, t_hi, n_t)[None, :]
    return r, t


# ---------------------------------------------------------------------------
# the symbolic route of the derived fields, kept here as their oracle
# ---------------------------------------------------------------------------

def symbolic_phi_laplacian(geom, w):
    """Delta_phi of the expression ``w`` by sympy.diff; the drift product is
    cancelled, so warp-adapted fields stay regular at the pole."""
    wr = sp.diff(w, R)
    drift = sp.cancel((geom.n - 1) * sp.diff(geom.warp.expr, R) * wr / geom.warp.expr)
    return (sp.diff(w, R, 2) + drift - sp.diff(geom.potential.expr, R) * wr) / geom.conformal.expr**2


def symbolic_closure(v, geom, p):
    """The closure forcing v_t - (p-1) v Delta_phi v - |grad v|^2 of the
    expression ``v``, by sympy.diff."""
    return (sp.diff(v, T) - (p - 1) * v * symbolic_phi_laplacian(geom, v)
            - sp.diff(v, R) ** 2 / geom.conformal.expr**2)
