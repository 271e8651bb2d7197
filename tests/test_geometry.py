import numpy as np
import pytest

from harnacklab.fields import Grid, diff
from harnacklab.geometry import (Cylinder, GeometryBounds, GeometryError,
                                 WarpedGeometry, angular_drift_product,
                                 bakry_emery_eigs, extract_bounds, metric_speed,
                                 phi_laplacian_eval)
from harnacklab.symfun import Profile, constant_profile

from conftest import convergence_order, field_from_function, make_geometry


def test_flat_space_is_ricci_flat():
    geom = make_geometry("euclidean", n=3)
    rad, ang = bakry_emery_eigs(geom, 1.0, 0.0)
    assert rad == pytest.approx(0.0, abs=1e-14)
    assert ang == pytest.approx(0.0, abs=1e-14)


def test_hyperbolic_eigenvalues_closed_form():
    geom = make_geometry("hyperbolic", n=3)
    rad, ang = bakry_emery_eigs(geom, 0.7, 0.0)
    assert rad == pytest.approx(-2.0, rel=1e-12)
    assert ang == pytest.approx(-2.0, rel=1e-12)


def test_sphere_eigenvalues():
    geom = make_geometry("sphere", n=2, r_max=1.4)
    rad, ang = bakry_emery_eigs(geom, 0.5, 0.0)
    assert rad == pytest.approx(1.0, rel=1e-12)
    assert ang == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind,value", [("hyperbolic", -1.0), ("euclidean", 0.0),
                                        ("sphere", 1.0)])
def test_constant_curvature_at_every_sample_point(kind, value):
    r_max = 1.4 if kind == "sphere" else 2.0
    for n in (2, 3, 4):
        geom = make_geometry(kind, n=n, r_max=r_max)
        r = np.linspace(0.0, 0.95 * r_max, 40)
        rad, ang = bakry_emery_eigs(geom, r, 0.0)
        expect = value * (n - 1)
        scale = max(1.0, abs(expect))
        assert np.max(np.abs(rad - expect)) <= 1e-10 * scale
        assert np.max(np.abs(ang - expect)) <= 1e-10 * scale


def test_curvature_matches_finite_differences_of_warp():
    # independent oracle: difference the warp itself
    geom = make_geometry("hyperbolic", n=3)
    r, h = 0.9, 1e-5
    psi = np.sinh
    d2 = (psi(r + h) - 2 * psi(r) + psi(r - h)) / h**2
    d1 = (psi(r + h) - psi(r - h)) / (2 * h)
    rad_o = -(geom.n - 1) * d2 / psi(r)
    ang_o = -d2 / psi(r) + (geom.n - 2) * (1 - d1**2) / psi(r) ** 2
    rad, ang = bakry_emery_eigs(geom, r, 0.0)
    assert rad == pytest.approx(rad_o, rel=1e-6)
    assert ang == pytest.approx(ang_o, rel=1e-6)


def test_bakry_emery_example_with_numeric_hessian():
    geom = make_geometry("euclidean", n=2, m=4, potential="r**2/2")
    rad, ang = bakry_emery_eigs(geom, 1.0, 0.0)
    assert rad == pytest.approx(0.5, rel=1e-12)
    assert ang == pytest.approx(1.0, rel=1e-12)
    # cross-check the Hessian correction by finite differences of phi
    h = 1e-4
    phi = lambda r: r**2 / 2
    phi_rr = (phi(1 + h) - 2 * phi(1) + phi(1 - h)) / h**2
    phi_r = (phi(1 + h) - phi(1 - h)) / (2 * h)
    assert rad == pytest.approx(phi_rr - phi_r**2 / (4 - 2), rel=1e-6)


def test_bakry_emery_zero_potential_any_m():
    base = make_geometry("hyperbolic", n=2)
    geom = make_geometry("hyperbolic", n=2, m=5)
    r = np.linspace(0.1, 1.9, 9)
    assert np.allclose(bakry_emery_eigs(geom, r, 0.0), bakry_emery_eigs(base, r, 0.0))


def test_bakry_emery_constant_potential_m_equals_n():
    geom = make_geometry("euclidean", n=3, m=3, potential="2")
    twin = make_geometry("euclidean", n=3, m=3)
    r = np.linspace(0.1, 1.9, 9)
    assert np.allclose(bakry_emery_eigs(geom, r, 0.0), bakry_emery_eigs(twin, r, 0.0))


def test_bakry_emery_monotone_in_m():
    r = np.linspace(0.2, 1.8, 9)
    prev = None
    for m in (3.0, 4.0, 6.0, 10.0, 50.0):
        geom = make_geometry("euclidean", n=2, m=m, potential="r**2/2")
        rad, ang = bakry_emery_eigs(geom, r, 0.0)
        if prev is not None:
            assert np.all(rad >= prev[0] - 1e-12)
            assert np.all(ang >= prev[1] - 1e-12)
        prev = (rad, ang)


def test_m_equals_n_requires_constant_potential():
    with pytest.raises(GeometryError):
        make_geometry("euclidean", n=2, m=2, potential="r**2/2")


def test_drift_examples():
    # the drift (n-1) psi_r/psi - phi_r of Delta_phi, read at unit slope w_r = 1
    geom = make_geometry("euclidean", n=3)
    ang = angular_drift_product(geom, 2.0, 0.0, 1.0, 0.0)
    assert (geom.n - 1) * ang == pytest.approx(1.0, rel=1e-14)
    gauss = make_geometry("gaussian", n=2, m=4)
    drift = angular_drift_product(gauss, 1.0, 0.0, 1.0, 0.0) - gauss.potential.at(1, 0, 1.0, 0.0)
    assert drift == pytest.approx(0.0, abs=1e-14)
    hyp = make_geometry("hyperbolic", n=2)
    assert angular_drift_product(hyp, 1.0, 0.0, 1.0, 0.0) == pytest.approx(np.cosh(1) / np.sinh(1),
                                                                          rel=1e-13)


@pytest.mark.parametrize("kind, m", [("hyperbolic", None), ("gaussian", 4)])
def test_phi_laplacian_stencil_and_table_routes_agree(kind, m, bump_profile):
    # one Laplacian fed two ways: stencil partials converge to the table's at
    # order 2, but for the outer two radial nodes.  There the second partial,
    # d_r applied twice, differences the one-sided first partial against the
    # centred one; their O(h^2) errors differ, so the result is order 1
    geom = make_geometry(kind, n=2, m=m)
    rows, pole_rows, outer_rows = [], [], []
    for n_r in (33, 65, 129):
        g = Grid(n_r=n_r, n_t=5, r_max=2.0, t0=0.5, duration=1.0)
        f = field_from_function(bump_profile, g)
        rr, tt = g.mesh()
        f_r = diff(f, "d_r")
        stencil = phi_laplacian_eval(geom, rr, tt, f_r.values, diff(f_r, "d_r").values)
        table = phi_laplacian_eval(geom, rr, tt, bump_profile.at(1, 0, rr, tt),
                                   bump_profile.at(2, 0, rr, tt))
        err = np.abs(stencil - table)
        rows.append((g.dr, np.max(err[:-2])))
        pole_rows.append((g.dr, np.max(err[0])))
        outer_rows.append((g.dr, np.max(err[-2:])))
    assert convergence_order(rows) == pytest.approx(2.0, abs=0.2)
    assert convergence_order(pole_rows) == pytest.approx(2.0, abs=0.2)
    assert convergence_order(outer_rows) == pytest.approx(1.0, abs=0.2)


def test_metric_speed_static():
    geom = make_geometry("hyperbolic", n=2)
    rad, ang, gh, _ = metric_speed(geom, 0.5, 0.3)
    assert rad == 0.0 and ang == 0.0 and gh == 0.0


def test_metric_speed_conformal_exponential():
    geom = make_geometry("euclidean", n=3, conformal="exp(t)")
    rad, ang, gh, _ = metric_speed(geom, 0.5, 0.3)
    assert rad == pytest.approx(1.0, rel=1e-13)
    assert ang == pytest.approx(1.0, rel=1e-13)
    assert gh == 0.0


def test_metric_speed_evolving_warp_table():
    geom = WarpedGeometry(3, 3.0, Profile("r*(1 + t/10)", "psi"),
                          constant_profile(1.0), constant_profile(0.0), 2.0)
    assert (geom.family, geom.mode) == ("evolving-warp", "annulus")
    rad, ang, gh, _ = metric_speed(geom, 1.0, 0.0)
    assert rad == 0.0
    assert ang == pytest.approx(0.1, rel=1e-13)
    # closed-form |grad h| for psi = r (1 + t/10) at t = 0
    cross = 1.0 * (1.0 / 10) / 1.0
    expect = np.sqrt((geom.n - 1) * ((0.1 - cross) ** 2 + 2 * cross**2)) / 1.0
    assert gh == pytest.approx(expect, rel=1e-12)


def test_extract_bounds_euclidean_all_zero():
    geom = make_geometry("euclidean", n=3)
    b = extract_bounds(geom, Cylinder(1.5, 0.0, 1.0))
    assert b == GeometryBounds(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_extract_bounds_hyperbolic_curvature():
    geom = make_geometry("hyperbolic", n=2)  # m = n = 2, Ric = -(n-1) g
    b = extract_bounds(geom, Cylinder(1.5, 0.0, 1.0))
    assert b.k == pytest.approx(1.0, rel=1e-12)
    assert b.k_lo == b.k_hi == b.k2 == b.l1 == b.l2 == 0.0


def test_extract_bounds_shrinking_conformal():
    geom = make_geometry("euclidean", n=2, conformal="exp(-t)")
    b = extract_bounds(geom, Cylinder(0.5, 0.0, 1.0))
    assert b.k_lo == pytest.approx(1.0, rel=1e-12)
    assert b.k_hi == 0.0


def test_extract_bounds_static_invariant(gaussian2):
    b = extract_bounds(gaussian2, Cylinder(1.0, 0.0, 1.0))
    assert b.k_lo == b.k_hi == b.k2 == b.l2 == 0.0
    assert b.l1 > 0


def test_extract_bounds_monotone_under_enlargement(conformal_gaussian):
    radii = (0.4, 0.8, 1.2, 1.6)
    prev = None
    for radius in radii:
        b = extract_bounds(conformal_gaussian, Cylinder(radius, 0.0, 1.0),
                           grid_density=(257, 33))
        if prev is not None:
            for key, val in b.as_dict().items():
                assert val >= prev[key] - 1e-14
        prev = b.as_dict()


def test_cylinder_requires_fit():
    geom = make_geometry("euclidean", n=2)
    cyl = Cylinder(1.5, 0.0, 1.0)
    with pytest.raises(GeometryError):
        cyl.require_inside(geom, factor=2.0)


def test_empty_cylinder_rejected():
    geom = make_geometry("euclidean", n=2)
    with pytest.raises(GeometryError):
        Cylinder(1.0, 1.0, 0.0)


def test_family_validation():
    # the profile that evolves decides the family and the default mode
    for warp, conformal, family, mode in [
            ("sinh(r)", "1", "static-warp", "pole"),
            ("sinh(r)", "exp(t)", "conformal-evolving", "pole"),
            ("1 + r*(1 + t)", "1", "evolving-warp", "annulus"),
            # a warp may evolve under a moving conformal factor
            ("1 + r*(1 + t)", "exp(t)", "evolving-warp", "annulus")]:
        geom = WarpedGeometry(2, 2.0, Profile(warp), Profile(conformal),
                              constant_profile(0.0), 2.0)
        assert (geom.family, geom.mode) == (family, mode)
    with pytest.raises(GeometryError):
        WarpedGeometry(1, 1.0, Profile("r"), constant_profile(1.0),
                       constant_profile(0.0), 2.0)


def test_pole_regularity_validation():
    geom = WarpedGeometry(2, 2.0, Profile("sinh(r)"), constant_profile(1.0),
                          constant_profile(0.0), 2.0, mode="pole")
    geom.validate_on(0.0, 1.0)
    bad = WarpedGeometry(2, 2.0, Profile("2*r"), constant_profile(1.0),
                         constant_profile(0.0), 2.0, mode="pole")
    with pytest.raises(GeometryError):
        bad.validate_on(0.0, 1.0)


def test_bakry_emery_refuses_a_warp_that_vanishes_off_the_pole():
    # psi = r - r^3/2 vanishes at r = sqrt(2) < r_max; its zero at the pole
    # is the coordinate's, and there the Ricci eigenvalues are -(n-1) psi_rrr = 3
    geom = WarpedGeometry(2, 2.0, Profile("r - r**3/2"), constant_profile(1.0),
                          constant_profile(0.0), 2.0, mode="pole")
    assert bakry_emery_eigs(geom, 0.0, 0.0) == pytest.approx((3.0, 3.0), rel=1e-14)
    with pytest.raises(GeometryError, match="warp non-positive"):
        bakry_emery_eigs(geom, np.array([0.0, 1.5]), 0.0)


# an odd warp whose curvature varies: psi = r + r^3/10, psi_rrr(0) = 3/5
CUBIC_WARP = "r + r**3/10"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_at_the_pole_is_minus_n_minus_one_psi_rrr(n):
    # the series division gives the limit -(n-1) psi_rrr(0) / a^2 of both
    # eigenvalues, in a block with other radii and on the pole alone
    geom = WarpedGeometry(n, float(n), Profile(CUBIC_WARP, "psi"), Profile("exp(t/4)", "a"),
                          constant_profile(0.0), 2.0, mode="pole")
    t = np.array([0.0, 0.5, 1.0])
    want = -(n - 1) * 0.6 / np.exp(t / 4) ** 2
    for r in (np.zeros(3), np.array([0.0, 0.8, 0.0])):
        rad, ang = bakry_emery_eigs(geom, r, t)
        pole = r == 0.0
        assert rad[pole] == pytest.approx(want[pole], rel=1e-14)
        assert ang[pole] == pytest.approx(want[pole], rel=1e-14)
    # and the curvature is continuous there
    rad, ang = bakry_emery_eigs(geom, 1e-4, 0.0)
    assert (rad, ang) == pytest.approx((-(n - 1) * 0.6,) * 2, rel=1e-6)


def test_bakry_emery_angular_eigenvalue_at_the_pole_picks_up_phi_rr():
    # for an even potential psi_r phi_r / psi -> phi_rr(0, t), so both
    # eigenvalues gain phi_rr(0, t) / a^2 = (1 + t/9) exp(-t/2) over the
    # constant-potential twin
    phi, a = Profile("r**2*(1 + t/9)/2 + r**4", "phi"), Profile("exp(t/4)", "a")
    geom = WarpedGeometry(3, 5.0, Profile(CUBIC_WARP, "psi"), a, phi, 2.0, mode="pole")
    twin = WarpedGeometry(3, 3.0, Profile(CUBIC_WARP, "psi"), a, constant_profile(0.0), 2.0,
                          mode="pole")
    r, t = np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.3, 0.9])
    rad, ang = bakry_emery_eigs(geom, r, t)
    ric_rad, ric_ang = bakry_emery_eigs(twin, r, t)
    pole, a2 = r == 0.0, np.exp(t / 2)
    want = (1 + t / 9) / a2
    assert ang[pole] - ric_ang[pole] == pytest.approx(want[pole], rel=1e-14)
    assert rad[pole] - ric_rad[pole] == pytest.approx(want[pole], rel=1e-14)
    # away from the pole the drift product is psi_r phi_r / psi, and the
    # radial one loses phi_r^2 / (m - n)
    x, s = 0.5, 0.3
    psi, psi_r = x + x**3 / 10, 1 + 3 * x**2 / 10
    phi_r, phi_rr = x * (1 + s / 9) + 4 * x**3, (1 + s / 9) + 12 * x**2
    assert ang[1] - ric_ang[1] == pytest.approx(psi_r * phi_r / psi / a2[1], rel=1e-13)
    assert rad[1] - ric_rad[1] == pytest.approx((phi_rr - phi_r**2 / 2) / a2[1], rel=1e-13)


def test_evolving_warp_speed_is_finite_at_the_pole():
    # on psi = r + t r^3/10 the three warp terms of h vanish at r = 0; near it
    # psi_t/psi = r^2/10 and |grad h|^2 = (n-1)(1/25 + 2/100) r^2 differ from
    # those values by O(r^2), and the radial component of 2 div h - grad tr h,
    # odd in r, is -(n-1)(psi_r psi_t/psi^2 + psi_rt/psi) = -(n-1) 2r/5 + O(r^3)
    geom = WarpedGeometry(3, 3.0, Profile("r + t*r**3/10", "psi"), constant_profile(1.0),
                          constant_profile(0.0), 2.0, mode="pole")
    geom.validate_on(0.5, 1.5)
    t = np.array([0.5, 1.0, 1.5])
    for r in (np.zeros(3), np.array([0.0, 0.7, 0.0])):
        h_rad, h_ang, grad_h, div = metric_speed(geom, r, t)
        assert np.all(np.abs([h_rad, h_ang, grad_h, div])[:, r == 0.0] == 0.0)
    r = 1e-3
    _, h_ang, grad_h, div = metric_speed(geom, np.full(3, r), t)
    assert h_ang == pytest.approx(np.full(3, r**2 / 10), rel=1e-5)
    assert grad_h**2 == pytest.approx(np.full(3, 2 * 0.06 * r**2), rel=1e-5)
    assert div / r == pytest.approx(np.full(3, -2 * 2 / 5), rel=1e-5)
