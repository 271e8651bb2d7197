from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from harnacklab.fields import Grid, ScalarField, diff
from harnacklab.geometry import Cylinder, extract_bounds, phi_laplacian_eval
from harnacklab.identities import (AnalyticSolution, GridSolution, IdentityError,
                                   TermTable, _RadialTerms, bochner_residual, harnack_evolution_residual,
                                   harnack_quantity, inequality_rhs, pressure_equation_residual,
                                   quotient_rule_residual)
from harnacklab.params import AlphaBeta, HarnackParams
from harnacklab.solver import (Nonlinearity, barenblatt_pressure_profile,
                               manufactured_forcing, pressure_inverse, PdeParams, solve)
from harnacklab.symfun import Profile, constant_profile

from conftest import (adjudicate_commutator, commutator_variant_residuals,
                      convergence_order, field_from_function, make_geometry, params_for,
                      sample_points, variant_label)


# ---------------------------------------------------------------------------
# pressure equation
# ---------------------------------------------------------------------------

def test_pressure_residual_manufactured(bump_profile, conformal_gaussian):
    p = 2.5
    nl = manufactured_forcing(bump_profile, conformal_gaussian, p)
    r, t = sample_points()
    res = pressure_equation_residual(bump_profile, conformal_gaussian, p, nl, r, t)
    assert np.max(np.abs(res)) <= 1e-9


def test_pressure_residual_barenblatt_interior():
    geom = make_geometry("euclidean", n=2)
    prof = barenblatt_pressure_profile(2, 2.0, 1.0)
    r, t = sample_points(r_max=1.5, t_lo=1.0, t_hi=2.0)
    res = pressure_equation_residual(prof, geom, 2.0, Nonlinearity(), r, t)
    assert np.max(np.abs(res)) <= 1e-9


def test_pressure_residual_constant_static():
    geom = make_geometry("hyperbolic", n=2)
    prof = constant_profile(3.0, "v")
    r, t = sample_points()
    res = pressure_equation_residual(prof, geom, 2.0, Nonlinearity(), r, t)
    assert np.max(np.abs(res)) == 0.0


# ---------------------------------------------------------------------------
# operator quotient rule
# ---------------------------------------------------------------------------

def test_quotient_rule_trivial_cases(bump_profile, euclid3):
    r, t = sample_points()
    f = Profile("1 + r**2*t/7", "f")
    res = quotient_rule_residual(f, f, bump_profile, euclid3, 2.0, r, t)
    assert np.max(np.abs(res)) <= 1e-13
    one = constant_profile(1.0, "g")
    res = quotient_rule_residual(f, one, bump_profile, euclid3, 2.0, r, t)
    assert np.max(np.abs(res)) <= 1e-13


def test_quotient_rule_random_polynomials(hyperbolic2, bump_profile):
    rng = np.random.default_rng(17)
    r, t = sample_points(include_pole=False)
    for _ in range(5):
        c = rng.uniform(0.1, 1.0, size=6)
        c = [repr(float(x)) for x in c]
        f = Profile(f"{c[0]} + {c[1]}*r**2 + {c[2]}*t + {c[3]}*r**2*t", "f")
        g = Profile(f"2 + {c[4]}*r**2 + {c[5]}*t", "g")
        res = quotient_rule_residual(f, g, bump_profile, hyperbolic2, 2.5, r, t)
        assert np.max(np.abs(res)) <= 1e-10


def test_quotient_rule_rejects_vanishing_denominator(euclid3, bump_profile):
    r = np.linspace(0.0, 2.0, 21)[:, None]  # hits the zero of g at r = 1
    t = np.linspace(0.5, 1.5, 5)[None, :]
    g = Profile("r**2 - 1", "g")
    with pytest.raises(IdentityError):
        quotient_rule_residual(g, g, bump_profile, euclid3, 2.0, r, t)


# ---------------------------------------------------------------------------
# commutator adjudication
# ---------------------------------------------------------------------------

def test_commutator_static_all_variants_vanish(bump_profile, gaussian2):
    r, t = sample_points(include_pole=False)
    results = commutator_variant_residuals(bump_profile, gaussian2, r, t)
    assert all(v[0] <= 1e-13 for v in results.values())


def test_commutator_adjudication_unique(bump_profile, conformal_gaussian, evolving_warp):
    r, t = sample_points(include_pole=False)
    passing, worst = adjudicate_commutator(bump_profile, [conformal_gaussian, evolving_warp], r, t)
    assert passing == [(-1, 1, 1, 1)]
    # the reference orientation is inconsistent on evolving geometries
    assert worst[(1, 1, 1, 1)] > 1e-3
    assert variant_label(passing[0]).startswith("hessian_trace:-")


def test_commutator_single_family_underdetermines(bump_profile, conformal_gaussian):
    # the conformal family cannot excite the divergence term, so two sign
    # conventions survive on it alone
    r, t = sample_points(include_pole=False)
    results = commutator_variant_residuals(bump_profile, conformal_gaussian, r, t)
    winners = [k for k, v in results.items() if v[0] <= 1e-9]
    assert len(winners) == 2
    assert all(k[0] == -1 for k in winners)


# ---------------------------------------------------------------------------
# weighted Bochner formula
# ---------------------------------------------------------------------------

def test_bochner_quadratic_euclidean():
    geom = make_geometry("euclidean", n=3)
    w = Profile("r**2", "w")
    r, t = sample_points()
    res = bochner_residual(w, geom, r, t)
    assert np.max(np.abs(res)) <= 1e-12


def test_bochner_constant():
    geom = make_geometry("gaussian", n=2, m=4)
    r, t = sample_points()
    res = bochner_residual(constant_profile(5.0, "w"), geom, r, t)
    assert np.max(np.abs(res)) == 0.0


def test_bochner_hyperbolic_cosh():
    geom = make_geometry("hyperbolic", n=3, m=5, potential="r**2/3")
    w = Profile("cosh(r) + 2", "w")
    r, t = sample_points()
    res = bochner_residual(w, geom, r, t)
    assert np.max(np.abs(res)) <= 1e-9


# ---------------------------------------------------------------------------
# operator on grids and the Harnack quantity (TermTable in grid mode)
# ---------------------------------------------------------------------------

def _grid_field(fun, n_r=65, n_t=33, r_max=2.0, t0=0.5, duration=1.0):
    g = Grid(n_r=n_r, n_t=n_t, r_max=r_max, t0=t0, duration=duration)
    return field_from_function(fun, g, positive=True)


def _grid_table(v, geom, params, nl=None):
    return TermTable(GridSolution(v), geom, params, nl or Nonlinearity())


def test_solution_handles_sample_part_and_value(euclid3, bump_profile):
    # each handle gives bit for bit what its callers used to compute from it:
    # the grid its stencil fields indexed by the mask, the closed form its
    # derivative table at the masked cylinder nodes; one table holds every
    # order, and the grid builds only the stencil fields that are read
    cyl = Cylinder(1.2, 0.6, 1.3)
    orders = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))

    v = _grid_field(lambda r, t: bump_profile(r, t))
    grid = v.grid
    sol = GridSolution(v)
    rr, tt, mask = sol.sample(cyl, euclid3, (17, 9))
    grid_rr, grid_tt = grid.mesh()
    assert np.array_equal(rr, grid_rr) and np.array_equal(tt, grid_tt)
    assert np.array_equal(mask, cyl.mask(grid.r, grid.t, euclid3))
    assert 0 < mask.sum() < mask.size
    v_r = diff(v, "d_r")
    stencil = {(0, 0): v, (1, 0): v_r, (2, 0): diff(v_r, "d_r"),
               (0, 1): diff(v, "d_t"), (1, 1): diff(v_r, "d_t")}
    part, whole = sol.table(2, 1, rr, tt, mask), sol.table(2, 1, rr, tt)
    for nr, nt in orders:
        assert np.array_equal(part[nr, nt], stencil[nr, nt].values[mask])
        assert np.array_equal(whole[nr, nt], stencil[nr, nt].values)
    assert set(sol._cache) == set(orders)
    # point values interpolate bilinearly: node values at nodes, the corner
    # mean at a cell centre
    i, j = 20, 10
    corners = v.values[i:i + 2, j:j + 2]
    assert sol.value(grid.r[i], grid.t[j]) == pytest.approx(corners[0, 0], rel=1e-12)
    centre = sol.value(grid.r[i] + grid.dr / 2, grid.t[j] + grid.dt / 2)
    assert centre == pytest.approx(corners.mean(), rel=1e-12)

    sol = AnalyticSolution(bump_profile)
    rr, tt, mask = sol.sample(cyl, euclid3, (17, 9))
    r_nodes, t_nodes = cyl.sample_nodes(euclid3, 17, 9)
    assert np.array_equal(rr, np.broadcast_to(r_nodes[:, None], mask.shape))
    assert np.array_equal(tt, np.broadcast_to(t_nodes[None, :], mask.shape))
    assert np.array_equal(mask, cyl.mask(r_nodes, t_nodes, euclid3))
    assert 0 < mask.sum() < mask.size
    part = sol.table(2, 1, rr, tt, mask)
    for nr, nt in orders:
        assert np.array_equal(part[nr, nt], bump_profile.at(nr, nt, rr[mask], tt[mask]))
    r, t = np.array([0.0, 0.3, 1.7]), np.array([0.6, 0.9, 1.3])
    assert np.array_equal(sol.value(r, t), bump_profile.at(0, 0, r, t))


def test_op_lpv_constant_and_linearity(euclid3, bump_profile):
    v = _grid_field(lambda r, t: bump_profile(r, t))
    const = field_from_function(lambda r, t: np.full_like(r, 2.0), v.grid)
    table = _grid_table(const, euclid3, params_for(euclid3, p=2.0))
    assert np.max(np.abs(table.v_t - table.v * table.lap_v)) <= 1e-10
    assert np.max(np.abs(table.LpvF)) <= 1e-10
    # L = d/dt - (p-1) v Delta_phi is linear because both stencil parts are
    rng = np.random.default_rng(23)
    w1 = ScalarField(rng.normal(size=v.values.shape) + 3, v.grid)
    w2 = ScalarField(rng.normal(size=v.values.shape) + 3, v.grid)
    combo = ScalarField(2.0 * w1.values - 0.5 * w2.values, v.grid)
    rr, tt = v.grid.mesh()
    for part in (lambda w: diff(w, "d_t").values,
                 lambda w: phi_laplacian_eval(euclid3, rr, tt, diff(w, "d_r").values,
                                              diff(diff(w, "d_r"), "d_r").values)):
        lhs = part(combo)
        rhs = 2.0 * part(w1) - 0.5 * part(w2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_op_lpv_on_exact_solution_recovers_sources(bump_profile, euclid3):
    p = 2.0
    nl = manufactured_forcing(bump_profile, euclid3, p)
    errs = []
    for n_r, n_t in ((49, 25), (97, 97)):
        v = _grid_field(lambda r, t: bump_profile(r, t), n_r=n_r, n_t=n_t)
        table = _grid_table(v, euclid3, params_for(euclid3, p=p), nl)
        res = table.v_t - (p - 1) * table.v * table.lap_v - table.grad2 - table.samples.G
        inner = (slice(3, -3), slice(3, -3))
        errs.append((v.grid.dr, np.max(np.abs(res[inner]))))
    assert errs[1][1] < errs[0][1] / 2.5


def test_harnack_quantity_trivial_and_beta_shift(euclid3):
    params = params_for(euclid3, p=2.0, alpha=2.0)
    v = _grid_field(lambda r, t: np.full_like(r, 3.0))
    F = _grid_table(v, euclid3, params).F
    assert np.max(np.abs(F)) <= 1e-12
    shifted = params_for(euclid3, p=2.0, alpha=2.0, beta=0.7)
    assert np.allclose(_grid_table(v, euclid3, shifted).F, F - 0.7, atol=1e-13)


def test_harnack_quantity_affine_structure(euclid3, bump_profile):
    # affine in beta and degree-1 homogeneous in alpha for fixed constituents
    v = _grid_field(lambda r, t: bump_profile(r, t))
    params = params_for(euclid3, p=2.0, alpha=2.0, beta=0.3)
    table = _grid_table(v, euclid3, params)
    grad_ratio, time_ratio = table.grad2 / table.v, table.v_t / table.v
    forcing_ratio = table.samples.G / table.v
    rebuilt = (grad_ratio - 2.0 * time_ratio + 2.0 * forcing_ratio - 0.3)
    assert np.allclose(rebuilt, table.F, atol=1e-13)
    doubled = grad_ratio - 4.0 * time_ratio + 4.0 * forcing_ratio - 0.3
    params4 = params_for(euclid3, p=2.0, alpha=4.0, beta=0.3)
    assert np.allclose(_grid_table(v, euclid3, params4).F, doubled, atol=1e-13)


# ---------------------------------------------------------------------------
# the evolution identity for F
# ---------------------------------------------------------------------------

def _mixed_nl(profile, geom, p):
    power = Nonlinearity(A=[0.3], a=[-1.0], B=[-0.5], b=[0.5])
    return manufactured_forcing(profile, geom, p, power)


@pytest.mark.parametrize("kind,m,potential", [
    pytest.param("euclidean", 3.0, "0", id="euclidean-3.0-potential0"),
    pytest.param("hyperbolic", 2.0, "0", id="hyperbolic-2.0-potential1"),
    pytest.param("gaussian", 4.0, "r**2/2", id="gaussian-4.0-potential2"),
])
def test_evolution_identity_static_families(kind, m, potential, bump_profile, cosh_bump_profile):
    n = 3 if kind == "euclidean" else 2
    geom = make_geometry(kind, n=n, m=m, potential=potential)
    prof = cosh_bump_profile if kind == "hyperbolic" else bump_profile
    params = params_for(geom, p=2.5)
    nl = _mixed_nl(prof, geom, params.p)
    r, t = sample_points()
    res, table = harnack_evolution_residual(AnalyticSolution(prof), geom, params, nl, r=r, t=t)
    scale = max(1.0, np.max(np.abs(table.LpvF)))
    assert np.max(np.abs(res)) <= 1e-11 * scale


def test_evolution_identity_evolving_families(bump_profile, conformal_gaussian, evolving_warp):
    pair = AlphaBeta(Profile("1 + exp(t)/2", "alpha"), Profile("sin(t)/3", "beta"))
    for geom in (conformal_gaussian, evolving_warp):
        params = HarnackParams(p=2.2, m=geom.m, coeffs=pair)
        nl = _mixed_nl(bump_profile, geom, params.p)
        r, t = sample_points(include_pole=geom.mode == "pole")
        res, table = harnack_evolution_residual(AnalyticSolution(bump_profile), geom,
                                                params, nl, r=r, t=t)
        scale = max(1.0, np.max(np.abs(table.LpvF)))
        assert np.max(np.abs(res)) <= 1e-11 * scale


@pytest.mark.parametrize("fixture, family", [("conformal_gaussian", "conformal-evolving"),
                                             ("evolving_warp", "evolving-warp")])
def test_metric_speed_terms_match_each_family_formula(request, fixture, family, bump_profile):
    # the five terms of h, contracted from the geometry's metric speed, against
    # the formulas each evolution family had for them
    geom = request.getfixturevalue(fixture)
    assert geom.family == family
    rr, tt = np.meshgrid(np.linspace(0.1, 1.9, 13), np.linspace(0.5, 1.5, 7), indexing="ij")
    _, v_r, v_rr = bump_profile.table(2, 0, rr, tt)[:, 0]
    h, n, zero = _RadialTerms(geom, rr, tt, v_r, v_rr), geom.n, np.zeros_like(rr)
    if family == "conformal-evolving":
        rate = geom.conformal.at(0, 1, rr, tt) / h.a
        want = {"h_vv": rate * h.grad2, "h_hess": rate * h.lap_plain,
                "h_phi_pair": rate * h.phi_pair, "divh_pair": zero, "h_norm2": n * rate**2}
    else:
        (psi, psi_t), (psi_r, psi_rt) = geom.warp.table(1, 1, rr, tt)
        want = {"h_vv": zero, "h_hess": (psi_t / psi) * (n - 1) * (psi_r / psi) * v_r,
                "h_phi_pair": zero,
                "divh_pair": -(n - 1) * (psi_r * psi_t / psi**2 + psi_rt / psi) * v_r,
                "h_norm2": (n - 1) * (psi_t / psi) ** 2}
    for name, expect in want.items():
        ulps = np.abs(getattr(h, name) - expect) / np.spacing(np.max(np.abs(expect)))
        assert np.max(ulps, initial=0.0) <= 4, name


def test_evolution_identity_barenblatt():
    geom = make_geometry("euclidean", n=2)
    prof = barenblatt_pressure_profile(2, 2.0, 1.0)
    params = params_for(geom, p=2.0)
    r, t = sample_points(r_max=1.6, t_lo=1.0, t_hi=2.0)
    res, table = harnack_evolution_residual(AnalyticSolution(prof), geom, params,
                                            Nonlinearity(), r=r, t=t)
    scale = max(1.0, np.max(np.abs(table.LpvF)))
    assert np.max(np.abs(res)) <= 1e-7 * scale


def test_evolution_identity_spatially_constant():
    geom = make_geometry("euclidean", n=2)
    prof = Profile("2 + exp(-t)", "v")
    params = params_for(geom, p=2.0)
    nl = manufactured_forcing(prof, geom, params.p)
    r, t = sample_points()
    res, _ = harnack_evolution_residual(AnalyticSolution(prof), geom, params, nl, r=r, t=t)
    assert np.max(np.abs(res)) <= 1e-9


def _numeric_residual(n_r, n_t, prof, geom, params, nl):
    oracle = lambda r, t: pressure_inverse(prof(r, t), params.p)
    grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=0.5, duration=1.0)
    pde = PdeParams(p=params.p, nonlinearity=nl, positivity_floor=1e-10,
                    outer_boundary="dirichlet-oracle", oracle=oracle)
    result = solve(oracle, geom, pde, grid)
    sol = GridSolution(result.v)
    res, table = harnack_evolution_residual(sol, geom, params, nl)
    rr, tt = grid.mesh()
    window = (rr >= 0.2) & (rr <= 1.6) & (tt >= 0.65) & (tt <= 1.35)
    return grid.dr, float(np.max(np.abs(res[window])))


def test_evolution_identity_numeric_order(bump_profile):
    geom = make_geometry("euclidean", n=3)
    params = params_for(geom, p=2.0)
    nl = manufactured_forcing(bump_profile, geom, params.p)
    errs = [_numeric_residual(n_r, n_t, bump_profile, geom, params, nl)
            for n_r, n_t in ((49, 49), (97, 193), (193, 769))]
    assert convergence_order(errs) >= 1.8


# ---------------------------------------------------------------------------
# inequality chain
# ---------------------------------------------------------------------------

def _margin_setup(geom, prof, p=2.5, alpha=2.0, beta=0.0):
    params = params_for(geom, p=p, alpha=alpha, beta=beta)
    nl = _mixed_nl(prof, geom, p)
    bounds = extract_bounds(geom, Cylinder(1e18, 0.5, 1.5))
    return params, nl, bounds


@pytest.mark.parametrize("stage", ["pointwise", "quadratic", "bounded"])
def test_inequality_margins_nonnegative(stage, bump_profile, conformal_gaussian):
    params, nl, bounds = _margin_setup(conformal_gaussian, bump_profile)
    r, t = sample_points()
    table = TermTable(AnalyticSolution(bump_profile), conformal_gaussian, params, nl, r=r, t=t)
    marg = inequality_rhs(stage, table, bounds=bounds) - table.LpvF
    scale = max(1.0, np.max(np.abs(table.LpvF)))
    assert np.min(marg) >= -1e-6 * scale


def test_inequality_margin_barenblatt():
    geom = make_geometry("euclidean", n=2)
    prof = barenblatt_pressure_profile(2, 2.0, 1.0)
    params = params_for(geom, p=2.0)
    bounds = extract_bounds(geom, Cylinder(1e18, 1.0, 2.0))
    r, t = sample_points(r_max=1.6, t_lo=1.0, t_hi=2.0)
    for stage in ("pointwise", "quadratic", "bounded"):
        table = TermTable(AnalyticSolution(prof), geom, params, Nonlinearity(), r=r, t=t)
        marg = inequality_rhs(stage, table, bounds=bounds) - table.LpvF
        scale = max(1.0, np.max(np.abs(table.LpvF)))
        assert np.min(marg) >= -1e-6 * scale


def test_sharper_static_factor_still_nonnegative(bump_profile, gaussian2):
    params, nl, bounds = _margin_setup(gaussian2, bump_profile)
    r, t = sample_points()
    table = TermTable(AnalyticSolution(bump_profile), gaussian2, params, nl, r=r, t=t)
    marg = inequality_rhs("pointwise", table, bounds=bounds, sharper_static=True) - table.LpvF
    scale = max(1.0, np.max(np.abs(table.LpvF)))
    assert np.min(marg) >= -1e-6 * scale
    evolving = make_geometry("euclidean", n=2, conformal="exp(t/5)")
    table = TermTable(AnalyticSolution(bump_profile), evolving, params_for(evolving, p=2.5),
                      manufactured_forcing(bump_profile, evolving, 2.5), r=r, t=t)
    with pytest.raises(IdentityError):
        inequality_rhs("pointwise", table, sharper_static=True)


def test_alpha_equal_one_limit_drops_square_exactly(bump_profile, euclid3):
    # at alpha == 1 the square dropped between the identity and the first
    # inequality stage vanishes identically
    pair = AlphaBeta(constant_profile(1.0, "alpha"), constant_profile(0.0, "beta"))
    params = HarnackParams(p=2.0, m=euclid3.m, coeffs=pair)
    nl = manufactured_forcing(bump_profile, euclid3, params.p)
    r, t = sample_points()
    table = TermTable(AnalyticSolution(bump_profile), euclid3, params, nl, r=r, t=t)
    dropped = (1 - table.samples.alpha) * (table.v_t / table.v - table.samples.G / table.v) ** 2
    assert np.max(np.abs(dropped)) == 0.0


def test_quadratic_stage_is_the_pointwise_stage_in_a_function_field():
    # with G independent of x and alpha a constant, the quadratic stage only
    # rewrites the pointwise one in F: with F's definition and the pressure
    # equation substituted, the two are the same rational function over QQ
    # of the remaining terms, each free: alpha', beta and beta' at a point and
    # the metric's terms, so the metric may evolve
    metric = ("ric_m_vv", "h_vv", "h_hess", "h_phi_pair", "divh_pair", "h_norm2", "phit_pair")
    K, *gens = sp.field(["p", "m", "v", "lap_v", "grad2", "grad_norm", "G", "G_v", "G_vv",
                         "alpha_p", "beta", "beta_p", "gradF_pair", "hess2", "sharp_pair",
                         *metric], sp.QQ)
    p, m, v, lap_v, grad2, grad_norm, G, G_v, G_vv, alpha_p, beta, beta_p, *rest = gens
    al, zero = Fraction(3, 2), K.zero
    v_t = (p - 1) * v * lap_v + grad2 + G
    b = m * (p - 1) / (1 + m * (p - 1))
    table = SimpleNamespace(
        params=SimpleNamespace(p=p, m=m, b=b), geom=SimpleNamespace(n=2), b=b,
        samples=SimpleNamespace(alpha=al, alpha_p=alpha_p, beta=beta, beta_p=beta_p, v=v,
                                G=G, G_v=G_v, G_vv=G_vv, G_x_norm=zero, lap_Gx=zero),
        v=v, v_t=v_t, lap_v=lap_v, grad2=grad2, grad_norm=grad_norm,
        F=harnack_quantity(v, grad2, v_t, G, al, beta),
        gradG_pair=G_v * grad2, lap_G_full=G_vv * grad2 + G_v * lap_v,
        **dict(zip(("gradF_pair", "hess2", "sharp_pair", *metric), rest)))
    assert inequality_rhs("quadratic", table) - inequality_rhs("pointwise", table) == 0


def test_inequality_margins_grid_mode():
    # stencil-mode margins on a numeric solution stay above a
    # discretization-sized tolerance
    geom = make_geometry("euclidean", n=2)
    from harnacklab.solver import barenblatt_oracle

    oracle = lambda r, t: barenblatt_oracle(2, 2.0, 1.0, r, t)
    grid = Grid(n_r=97, n_t=97, r_max=2.0, t0=1.0, duration=1.0)
    pde = PdeParams(p=2.0, nonlinearity=Nonlinearity(), positivity_floor=1e-10,
                    outer_boundary="dirichlet-oracle", oracle=oracle)
    result = solve(oracle, geom, pde, grid)
    params = params_for(geom, p=2.0)
    bounds = extract_bounds(geom, Cylinder(1e18, 1.0, 2.0))
    sol = GridSolution(result.v)
    for stage in ("pointwise", "quadratic", "bounded"):
        table = TermTable(sol, geom, params, Nonlinearity())
        marg = inequality_rhs(stage, table, bounds=bounds) - table.LpvF
        rr, tt = grid.mesh()
        window = (rr >= 0.15) & (rr <= 1.6) & (tt >= 1.1) & (tt <= 1.9)
        scale = max(1.0, np.max(np.abs(table.LpvF[window])))
        assert np.min(marg[window]) >= -5e-3 * scale
