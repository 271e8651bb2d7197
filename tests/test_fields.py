import numpy as np
import pytest

from harnacklab.fields import FieldError, Grid, ScalarField, diff
from harnacklab.geometry import Cylinder, phi_laplacian_eval

from conftest import convergence_order, field_from_function, make_geometry


def grid(n_r=65, n_t=17, r_max=2.0, t0=0.0, duration=1.0, pole=True):
    return Grid(n_r=n_r, n_t=n_t, r_max=r_max, t0=t0, duration=duration, pole=pole)


def test_grid_invariants():
    g = grid(n_r=9, n_t=5)
    assert g.dr == pytest.approx(g.r_max / (g.n_r - 1))
    assert g.dt == pytest.approx(g.duration / (g.n_t - 1))
    with pytest.raises(FieldError):
        grid(n_r=7)
    with pytest.raises(FieldError):
        grid(n_t=3)


def test_diff_exact_on_linear_and_quadratic():
    g = grid(pole=False)
    f = field_from_function(lambda r, t: 3 * r, g)
    assert np.allclose(diff(f, "d_r").values, 3.0, atol=1e-12)
    q = field_from_function(lambda r, t: r**2, g)
    assert np.allclose(diff(diff(q, "d_r"), "d_r").values, 2.0, atol=1e-10)


def test_diff_time_direction():
    g = grid()
    f = field_from_function(lambda r, t: 2 * t + r**2, g)
    assert np.allclose(diff(f, "d_t").values, 2.0, atol=1e-12)


def test_diff_linearity():
    g = grid()
    rng = np.random.default_rng(5)
    A = ScalarField(rng.normal(size=(g.n_r, g.n_t)), g)
    B = ScalarField(rng.normal(size=(g.n_r, g.n_t)), g)
    a, b = 1.7, -0.4
    combo = ScalarField(a * A.values + b * B.values, g)
    for kinds in (["d_r"], ["d_r", "d_r"], ["d_t"]):
        def apply(f):
            for which in kinds:
                f = diff(f, which)
            return f.values
        lhs = apply(combo)
        rhs = a * apply(A) + b * apply(B)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_diff_order_two_on_sine():
    errs = []
    for n_r in (33, 65, 129, 257):
        g = Grid(n_r=n_r, n_t=4, r_max=2.0, t0=0.0, duration=1.0, pole=False)
        f = field_from_function(lambda r, t: np.sin(r), g)
        d = diff(f, "d_r").values[:, 0]
        errs.append((g.dr, np.max(np.abs(d - np.cos(g.r)))))
    order = convergence_order(errs)
    assert order == pytest.approx(2.0, abs=0.1)


def test_pole_symmetry_even_field():
    g = grid()
    f = field_from_function(lambda r, t: np.cos(r), g)
    d = diff(f, "d_r")
    assert np.allclose(d.values[0], 0.0)
    assert d.parity == "odd"
    d2 = diff(d, "d_r")
    assert np.max(np.abs(d2.values[0] + 1.0)) < 1e-3  # second derivative of cos at 0


def stencil_laplacian(f, geom):
    """Delta_phi of a grid field: the stencil partials fed to the one Laplacian."""
    rr, tt = f.grid.mesh()
    f_r = diff(f, "d_r")
    return phi_laplacian_eval(geom, rr, tt, f_r.values, diff(f_r, "d_r").values)


def test_weighted_laplacian_constant_is_zero():
    for kind in ("euclidean", "hyperbolic", "gaussian"):
        geom = make_geometry(kind, n=3, m=5)
        g = grid()
        f = field_from_function(lambda r, t: np.full_like(r, 4.2), g)
        assert np.max(np.abs(stencil_laplacian(f, geom))) <= 1e-10


def test_weighted_laplacian_euclid_quadratic():
    geom = make_geometry("euclidean", n=3)
    g = grid()
    f = field_from_function(lambda r, t: r**2, g)
    out = stencil_laplacian(f, geom)
    assert np.max(np.abs(out[:-1] - 6.0)) <= 1e-8


def test_weighted_laplacian_gaussian_quadratic():
    geom = make_geometry("gaussian", n=2, m=4)
    g = grid()
    f = field_from_function(lambda r, t: r**2, g)
    out = stencil_laplacian(f, geom)
    rr, _ = g.mesh()
    assert np.max(np.abs(out[:-1] - (4.0 - 2.0 * rr[:-1] ** 2))) <= 1e-8


def test_sup_over_cylinder_examples():
    geom = make_geometry("euclidean", n=2)
    g = grid(r_max=2.0)
    rr, tt = g.mesh()
    mask = Cylinder(1.0, 0.0, 1.0).mask(g.r, g.t, geom)
    assert np.max(np.full_like(rr, 5.0)[mask]) == 5.0
    prod = (rr * tt)[mask]
    assert np.max(prod) == pytest.approx(1.0)
    assert (rr[mask][np.argmax(prod)], tt[mask][np.argmax(prod)]) == (1.0, 1.0)
    neg = -(rr**2)[mask]
    assert np.max(neg) == 0.0 and rr[mask][np.argmax(neg)] == 0.0


def test_sup_monotone_in_radius_and_horizon():
    geom = make_geometry("euclidean", n=2)
    g = grid(r_max=2.0)
    rng = np.random.default_rng(11)
    f = rng.normal(size=(g.n_r, g.n_t))
    vals_r = [np.max(f[Cylinder(R_, 0.0, 1.0).mask(g.r, g.t, geom)])
              for R_ in (0.5, 1.0, 1.5, 2.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals_r, vals_r[1:]))
    vals_t = [np.max(f[Cylinder(1.5, 0.0, hi).mask(g.r, g.t, geom)])
              for hi in (0.25, 0.5, 0.75, 1.0)]
    assert all(a <= b + 1e-15 for a, b in zip(vals_t, vals_t[1:]))


def test_convergence_order_trivial():
    h = np.array([0.4, 0.2, 0.1, 0.05])
    assert convergence_order(list(zip(h, h**2))) == pytest.approx(2.0, abs=1e-12)
    assert convergence_order(list(zip(h, h))) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="strictly decreasing"):
        convergence_order([(0.1, 1.0), (0.2, 0.5), (0.05, 0.2)])
    with pytest.raises(ValueError, match="positive"):
        convergence_order([(0.2, 1.0), (0.1, -0.5), (0.05, 0.2)])


def test_field_validation():
    g = grid()
    with pytest.raises(FieldError):
        ScalarField(np.full((g.n_r, g.n_t), np.nan), g)
    with pytest.raises(FieldError):
        ScalarField(np.zeros((3, 3)), g)
    with pytest.raises(FieldError):
        ScalarField(np.zeros((g.n_r, g.n_t)), g, positive=True)


def test_weighted_laplacian_constant_on_evolving_families():
    conf = make_geometry("euclidean", n=3, conformal="exp(t/5)")
    warp = make_geometry("warp", n=3, m=4)
    for geom in (conf, warp):
        g = Grid(n_r=33, n_t=9, r_max=2.0, t0=0.2, duration=1.0,
                 pole=(geom.mode == "pole"))
        f = field_from_function(lambda r, t: np.full_like(r, 2.5), g)
        assert np.max(np.abs(stencil_laplacian(f, geom))) <= 1e-10
