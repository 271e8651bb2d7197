import numpy as np
import pytest

from harnacklab.fields import Grid
from harnacklab.geometry import phi_laplacian_eval
from harnacklab.solver import (Nonlinearity, PdeParams, SolverError,
                               barenblatt_exponents, barenblatt_oracle,
                               barenblatt_support_radius, manufactured_forcing,
                               pressure, pressure_inverse, _cell_masses, _step_geometry,
                               _tridiagonal_solve, solve, step, validate_barenblatt,
                               weighted_mass)
from harnacklab.scenarios import parse_geometry
from harnacklab import symfun
from harnacklab.symfun import Profile, compile_expression

from conftest import convergence_order, make_geometry


def test_pressure_examples_and_roundtrip():
    assert pressure(1.0, 2.0) == pytest.approx(2.0)
    assert pressure(4.0, 2.0) == pytest.approx(8.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.1, 9.0, size=200)
    for p in (1.5, 2.0, 3.2):
        back = pressure_inverse(pressure(u, p), p)
        assert np.max(np.abs(back - u) / u) <= 1e-12


def test_pressure_monotone():
    rng = np.random.default_rng(4)
    u = np.sort(rng.uniform(0.05, 5.0, size=100))
    for p in (1.3, 2.0, 4.0):
        v = pressure(u, p)
        assert np.all(np.diff(v) > 0)


def test_pressure_rejects_nonpositive():
    with pytest.raises(SolverError):
        pressure(-1.0, 2.0)
    with pytest.raises(SolverError):
        pressure_inverse(0.0, 2.0)


def test_power_sum_validation_and_partials():
    with pytest.raises(SolverError):
        Nonlinearity(A=[-1.0], a=[1.0])
    with pytest.raises(SolverError):
        Nonlinearity(B=[1.0], b=[1.0])
    nl = Nonlinearity(A=[2.0], a=[-1.0], B=[-3.0], b=[0.5])
    v = np.array([0.5, 1.0, 2.0])
    assert np.allclose(nl.G(0, 0, v), 2 * v**-1 - 3 * v**0.5)
    *_, G_v, G_vv = nl.partials(0, 0, v)
    assert np.allclose(G_v, -2 * v**-2 - 1.5 * v**-0.5)
    assert np.allclose(G_vv, 4 * v**-3 + 0.75 * v**-1.5)


def test_power_sum_partial_leaves_out_terms_whose_factor_is_zero():
    # b = 1 has falling factorial 0 at shift 2, so its v^-1 is never taken: a
    # subnormal v gives 0 in v's shape, not 0 * inf = NaN; the term b = 3 stays
    v = np.array([5e-324, 1e-310, 1.0])
    with np.errstate(all="raise"):
        assert _same(Nonlinearity(B=[-0.5], b=[1.0]).G_vpart(v, 2), np.zeros(3))
        assert _same(Nonlinearity(B=[-0.5, -1.0], b=[1.0, 3.0]).G_vpart(v, 2), -6.0 * v)


TERMS = {"A": [2.0], "a": [-1.0], "B": [-3.0], "b": [0.5]}


def _same(a, b):
    """Equal values and equal signs of zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("terms, with_forcing, form", [
    ({}, False, "zero"),
    (TERMS, False, "power-sum"),
    ({}, True, "separable-x"),
    (TERMS, True, "power-sum+separable-x"),
], ids=["none", "terms", "forcing", "both"])
def test_nonlinearity_is_its_present_parts(terms, with_forcing, form):
    # G and each partial are the parts present evaluated on their own, an
    # absent part left out rather than added as zeros: the forcing is -0.0
    # at the pole, which an added +0.0 would flip
    geom = make_geometry("gaussian", n=2, m=4)
    f = Profile("-sin(r)*exp(t) - r**2/3", "f") if with_forcing else None
    nl = Nonlinearity(**terms, forcing=f, geom=geom if with_forcing else None)
    assert nl.form == form
    r, t = np.meshgrid(np.linspace(0.0, 1.5, 7), np.linspace(0.5, 1.5, 4), indexing="ij")
    v = 1.5 + np.cos(r + t)
    p = 2.5
    u = pressure_inverse(v, p)
    zero = np.zeros_like(v)

    def power(w):
        return 2.0 * w**-1.0 - 3.0 * w**0.5

    def both(vpart, xpart, empty=zero):
        parts = [part for part, present in ((vpart, bool(terms)), (xpart, with_forcing))
                 if present]
        return sum(parts[1:], parts[0]) if parts else empty

    fx = f.table(2, 0, r, t)[:, 0] if with_forcing else (None, zero, zero)
    assert _same(nl.G(t, r, v), both(power(v), f(r, t) if with_forcing else None))
    G, G_x, lap, G_v, G_vv = nl.partials(t, r, v)
    assert _same(G, both(power(v), fx[0]))
    assert _same(G_x, fx[1])
    # the forcing never enters the v-partials
    for got, shift in ((G_v, 1), (G_vv, 2)):
        assert _same(got, nl.G_vpart(v, shift) if terms else zero)
    assert _same(lap, phi_laplacian_eval(geom, r, t, fx[1], fx[2]) if with_forcing else zero)
    xpart = nl.G_xpart(t, r)
    assert _same(xpart, f(r, t)) if with_forcing else xpart is None
    assert _same(nl.source(u, p, xpart), both(power(pressure(u, p)), xpart) * u ** (2.0 - p) / p)
    V = Profile("1.5 + cos(r + t)", "v")
    got = Profile.of_jets(lambda r, t: V.jet(r, t) + nl.G_jet(t, r, V.jet(r, t)), (0, 0), "got")
    want = Profile.of_jets(lambda r, t: V.jet(r, t) + both(
        power(V.jet(r, t)), f.jet(r, t) if with_forcing else None, 0.0), (0, 0), "want")
    assert _same(got.table(1, 1, r, t), want.table(1, 1, r, t))


def test_barenblatt_exponents_and_values():
    nbeta, beta = barenblatt_exponents(2, 2.0)
    assert beta == pytest.approx(0.25)
    assert barenblatt_oracle(2, 2.0, 1.0, 0.0, 1.0) == pytest.approx(1.0)
    # outside the support the solution vanishes
    r_out = barenblatt_support_radius(2, 2.0, 1.0, 1.0) + 0.1
    assert barenblatt_oracle(2, 2.0, 1.0, r_out, 1.0) == 0.0
    with pytest.raises(SolverError):
        barenblatt_oracle(2, 2.0, 1.0, 0.5, 0.0)


@pytest.mark.parametrize("n,p", [(2, 2.0), (3, 2.0), (2, 3.0), (4, 1.5)])
def test_barenblatt_oracle_validated_by_substitution(n, p):
    assert validate_barenblatt(n, p, 1.0) <= 1e-10


def test_manufactured_forcing_closes_the_equation(bump_profile):
    geom = make_geometry("gaussian", n=2, m=4)
    p = 2.5
    nl = manufactured_forcing(bump_profile, geom, p)
    # residual of the pressure equation with this forcing is zero by design
    from harnacklab.identities import pressure_equation_residual

    r = np.linspace(0.0, 1.8, 12)[:, None]
    t = np.linspace(0.5, 1.5, 5)[None, :]
    res = pressure_equation_residual(bump_profile, geom, p, nl, r, t)
    assert np.max(np.abs(res)) <= 1e-12


def test_manufactured_forcing_already_solving_gives_zero():
    # the self-similar pressure solves the zero-forcing equation, so the
    # closure forcing built from it must vanish on the support interior
    from harnacklab.solver import barenblatt_pressure_profile

    geom = make_geometry("euclidean", n=2)
    prof = barenblatt_pressure_profile(2, 2.0, 1.0)
    nl = manufactured_forcing(prof, geom, 2.0)
    r = np.linspace(0.0, 1.5, 9)
    t = np.linspace(1.0, 2.0, 5)
    vals = nl.G(t[None, :], r[:, None], None)
    assert np.max(np.abs(vals)) <= 1e-9


def test_forcing_of_spatially_constant_field_is_time_derivative():
    geom = make_geometry("euclidean", n=2)
    prof = Profile("2 + exp(-t)", "v")
    nl = manufactured_forcing(prof, geom, 2.0)
    t = np.linspace(0.2, 1.2, 7)
    assert np.allclose(nl.G(t, 0.3 + 0 * t, None), -np.exp(-t), rtol=1e-13)


def _pde(geom, p, nl, oracle, floor=1e-8, boundary="dirichlet-oracle", substeps=1):
    return PdeParams(p=p, nonlinearity=nl, positivity_floor=floor,
                     outer_boundary=boundary, oracle=oracle, substeps=substeps)


def test_constant_solution_preserved():
    geom = make_geometry("euclidean", n=2)
    grid = Grid(n_r=33, n_t=9, r_max=2.0, t0=0.0, duration=0.5)
    params = _pde(geom, 2.0, Nonlinearity(), None, boundary="neumann-zero")
    result = solve(lambda r, t: np.full_like(r, 3.0), geom, params, grid)
    assert np.max(np.abs(result.u.values - 3.0)) <= 1e-12
    assert result.clamp_events == 0


def test_weighted_mass_conserved_no_flux():
    geom = make_geometry("gaussian", n=2, m=4)
    grid = Grid(n_r=101, n_t=41, r_max=2.0, t0=0.0, duration=1.0)
    params = _pde(geom, 2.0, Nonlinearity(), None, boundary="neumann-zero")
    result = solve(lambda r, t: 1.0 + np.exp(-(r**2)), geom, params, grid)
    m0 = weighted_mass(result.u.values[:, 0], geom, grid, grid.t[0])
    m1 = weighted_mass(result.u.values[:, -1], geom, grid, grid.t[-1])
    assert abs(m1 - m0) / m0 <= 1e-8


def barenblatt_error(n_r, n_t):
    geom = make_geometry("euclidean", n=2)
    grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=1.0, duration=1.0)
    oracle = lambda r, t: barenblatt_oracle(2, 2.0, 1.0, r, t)
    params = _pde(geom, 2.0, Nonlinearity(), oracle)
    result = solve(oracle, geom, params, grid)
    rr, tt = grid.mesh()
    exact = oracle(rr, tt)
    interior = grid.r <= 1.6
    return grid.dr, float(np.max(np.abs(result.u.values[interior] - exact[interior])))


def test_barenblatt_convergence_order():
    errs = [barenblatt_error(33, 9), barenblatt_error(65, 33), barenblatt_error(129, 129)]
    order = convergence_order(errs)
    assert order >= 1.5


def test_one_step_tracks_oracle():
    geom = make_geometry("euclidean", n=2)
    grid = Grid(n_r=129, n_t=9, r_max=2.0, t0=1.0, duration=0.08)
    oracle = lambda r, t: barenblatt_oracle(2, 2.0, 1.0, r, t)
    params = _pde(geom, 2.0, Nonlinearity(), oracle)
    u0 = oracle(grid.r, grid.t[0])
    xpart = params.nonlinearity.G_xpart(grid.t[0], grid.r)
    faces, masses, a = _step_geometry(geom, grid, np.array([grid.t[0] + grid.dt]))
    u1, clamps = step(u0, params, grid, grid.t[0], grid.dt, xpart,
                      faces[:, 0], masses[:, 0], a[0])
    err = np.max(np.abs(u1 - oracle(grid.r, grid.t[1])))
    assert clamps == 0
    assert err <= 5.0 * (grid.dt**2 + grid.dt * grid.dr**2)


def _step_shaped_system(rng, n, dirichlet):
    """A system shaped like step's: masses/dt on the diagonal plus the face
    weights, which span 12 decades, on both sides; optionally the Dirichlet
    last row."""
    w = 10.0 ** rng.uniform(-6.0, 6.0, n - 1)
    diag = 10.0 ** rng.uniform(-3.0, 3.0, n)
    diag[1:] += w
    diag[:-1] += w
    lower, upper = -w, -w
    rhs = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    if dirichlet:
        diag[-1] = 1.0
        lower = np.append(lower[:-1], 0.0)
    return lower, diag, upper, rhs


def test_tridiagonal_solve_matches_lapack_bit_for_bit():
    # scipy's solve_banded((1, 1), ...) calls LAPACK dgtsv: a test oracle only
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(13)
    for k in range(300):
        n = int(rng.integers(5, 601))
        lower, diag, upper, rhs = _step_shaped_system(rng, n, dirichlet=k % 2 == 1)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
        assert np.array_equal(_tridiagonal_solve(lower, diag, upper, rhs, 0.0),
                              solve_banded((1, 1), ab, rhs))


@pytest.mark.parametrize("case", ["interchange pivot", "zero pivot", "zero last pivot",
                                  "nan rhs", "inf diagonal"])
def test_tridiagonal_solve_refusals(case):
    lower, diag, upper, rhs = np.full(3, -1.0), np.full(4, 3.0), np.full(3, -1.0), np.ones(4)
    if case == "interchange pivot":
        lower[1] = -8.0       # row 1's pivot, 3 - 1/3, is below |-8|: dgtsv would swap
    elif case == "zero pivot":
        diag[0], lower[0] = 0.0, 0.0
    elif case == "zero last pivot":
        diag[-1] = 1.0 / (3.0 - 1.0 / (3.0 - 1.0 / 3.0))
    elif case == "nan rhs":
        rhs[2] = np.nan
    else:
        diag[1] = np.inf
    with pytest.raises(SolverError, match="t = 0.25"):
        _tridiagonal_solve(lower, diag, upper, rhs, 0.25)


@pytest.mark.parametrize("with_power", [False, True])
def test_solve_evaluates_forcing_once(monkeypatch, bump_profile, with_power):
    # the x-part of the forcing is evaluated for every step at once, and each
    # of its columns equals that step's own evaluation bit for bit
    geom = make_geometry("euclidean", n=3)
    p = 2.0
    if with_power:
        nl = manufactured_forcing(bump_profile, geom, p, Nonlinearity(B=[-0.5], b=[1.0]))
    else:
        nl = manufactured_forcing(bump_profile, geom, p)
    forcing = nl.forcing
    oracle = lambda r, t: pressure_inverse(bump_profile(r, t), p)
    grid = Grid(n_r=33, n_t=65, r_max=2.0, t0=0.5, duration=1.0)
    params = _pde(geom, p, nl, oracle, substeps=2)
    calls = []
    table = symfun.Profile.table

    def counting(self, *args):
        calls.append(self is forcing)
        return table(self, *args)

    monkeypatch.setattr(symfun.Profile, "table", counting)
    solve(oracle, geom, params, grid)
    assert sum(calls) == 1
    monkeypatch.undo()
    starts = [t0 + s * (t1 - t0) / 2 for t0, t1 in zip(grid.t[:-1], grid.t[1:]) for s in (0, 1)]
    xpart = nl.G_xpart(np.array(starts), grid.r[:, None])
    assert xpart.shape == (grid.n_r, 128)
    for k in (0, 1, 77, 127):
        assert np.array_equal(xpart[:, k], forcing(grid.r, starts[k]))


@pytest.mark.parametrize("label", ["euclidean", "conformal", "warp"])
def test_solve_evaluates_step_geometry_once(monkeypatch, label):
    # the face densities, cell masses and pole conformal factor are evaluated
    # for every step end time at once, and each column equals that step's own
    # evaluation bit for bit
    if label == "warp":
        geom = make_geometry("warp", n=3, m=4, potential="r**2*(1 + t/9)/2")
    else:
        geom = make_geometry("euclidean", n=2,
                             conformal="exp(-t/10)" if label == "conformal" else "1")
    grid = Grid(n_r=33, n_t=17, r_max=2.0, t0=0.5, duration=1.0, pole=label != "warp")
    params = _pde(geom, 2.0, Nonlinearity(), None, boundary="neumann-zero", substeps=2)
    J = geom.volume_density
    calls = []
    table = symfun.Profile.table

    def counting(self, *args):
        calls.append(self.name)
        return table(self, *args)

    monkeypatch.setattr(symfun.Profile, "table", counting)
    solve(lambda r, t: 1.0 + np.exp(-(r**2)), geom, params, grid)
    assert sorted(calls) == ["a"] + ["volume_density"] * 4
    monkeypatch.undo()
    ends = np.array([t0 + s * (t1 - t0) / 2 + (t1 - t0) / 2
                     for t0, t1 in zip(grid.t[:-1], grid.t[1:]) for s in (0, 1)])
    faces, masses, a = _step_geometry(geom, grid, ends)
    assert faces.shape == (grid.n_r - 1, 32) and masses.shape == (grid.n_r, 32)
    for k in (0, 1, 17, 31):
        assert np.array_equal(faces[:, k], J(grid.r[:-1] + grid.dr / 2, ends[k]))
        assert np.array_equal(masses[:, k], _cell_masses(J, grid.r, grid.dr, grid.r_max, ends[k]))
        assert float(a[k]) == float(geom.conformal(0.0, ends[k]))


def test_manufactured_solution_tracked(bump_profile):
    geom = make_geometry("euclidean", n=3)
    p = 2.0
    nl = manufactured_forcing(bump_profile, geom, p)
    oracle = lambda r, t: pressure_inverse(bump_profile(r, t), p)
    errs = []
    for n_r, n_t in ((33, 9), (65, 33), (129, 129)):
        grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=0.5, duration=1.0)
        params = _pde(geom, p, nl, oracle)
        result = solve(oracle, geom, params, grid)
        rr, tt = grid.mesh()
        exact = oracle(rr, tt)
        interior = grid.r <= 1.6
        errs.append((grid.dr, float(np.max(np.abs(result.u.values[interior] - exact[interior])))))
    assert convergence_order(errs) >= 1.5


def test_positivity_floor_and_clamp_stats():
    geom = make_geometry("euclidean", n=2)
    grid = Grid(n_r=33, n_t=9, r_max=2.0, t0=0.0, duration=0.5)
    sink = Nonlinearity(B=[-40.0], b=[1.0])  # strong decay forcing
    params = _pde(geom, 2.0, sink, None, floor=0.05, boundary="neumann-zero")
    result = solve(lambda r, t: np.full_like(r, 0.06), geom, params, grid)
    assert np.min(result.u.values) >= 0.05
    assert result.clamp_events > 0
    assert result.meta["clamp_warning"]


def test_solver_errors():
    geom = make_geometry("euclidean", n=2)
    grid = Grid(n_r=33, n_t=9, r_max=2.0, t0=0.0, duration=0.5)
    params = _pde(geom, 2.0, Nonlinearity(), None, boundary="neumann-zero")
    with pytest.raises(SolverError):
        solve(lambda r, t: np.full_like(r, -1.0), geom, params, grid)
    with pytest.raises(SolverError):
        PdeParams(p=0.5, nonlinearity=Nonlinearity(), positivity_floor=1e-6)
    with pytest.raises(SolverError):
        PdeParams(p=2.0, nonlinearity=Nonlinearity(), positivity_floor=1e-6,
                  outer_boundary="dirichlet-oracle")


def test_solver_on_evolving_conformal_geometry(bump_profile):
    # the scheme evaluates the volume density at each new time level; on an
    # evolving conformal metric the manufactured solution must still be tracked
    geom = make_geometry("euclidean", n=2, m=3, conformal="exp(t/10)")
    p = 2.0
    nl = manufactured_forcing(bump_profile, geom, p)
    oracle = lambda r, t: pressure_inverse(bump_profile(r, t), p)
    errs = []
    for n_r, n_t in ((33, 17), (65, 65)):
        grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=0.5, duration=1.0)
        params = _pde(geom, p, nl, oracle)
        result = solve(oracle, geom, params, grid)
        rr, tt = grid.mesh()
        interior = grid.r <= 1.6
        errs.append(float(np.max(np.abs(result.u.values[interior] - oracle(rr, tt)[interior]))))
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 2e-3


def test_solver_on_evolving_warp_annulus(bump_profile):
    from conftest import make_geometry as mk

    geom = mk("warp", n=3, m=4, potential="0")
    p = 2.0
    nl = manufactured_forcing(bump_profile, geom, p)
    oracle = lambda r, t: pressure_inverse(bump_profile(r, t), p)
    errs = []
    for n_r, n_t in ((33, 17), (65, 65)):
        grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=0.5, duration=1.0, pole=False)
        params = _pde(geom, p, nl, oracle)
        result = solve(oracle, geom, params, grid)
        rr, tt = grid.mesh()
        interior = grid.r <= 1.6
        errs.append(float(np.max(np.abs(result.u.values[interior] - oracle(rr, tt)[interior]))))
    assert errs[1] < errs[0] / 2.5


def _scalar_face_densities_and_masses(J, grid, t):
    """The per-node form the whole-array quadrature replaced: every face and
    Simpson point through ``float(J(x, t))``, one at a time."""
    Jx = lambda x: float(J(x, t))
    r, dr = grid.r, grid.dr
    faces = np.array([Jx(x) for x in r[:-1] + dr / 2])
    masses = np.empty_like(r)
    for i, ri in enumerate(r):
        lo = max(ri - dr / 2, 0.0)
        hi = min(ri + dr / 2, grid.r_max)
        masses[i] = (hi - lo) / 6.0 * (Jx(lo) + 4.0 * Jx(0.5 * (lo + hi)) + Jx(hi))
    return faces, masses


@pytest.mark.parametrize("label", ["euclidean", "gaussian", "linear-warp"])
def test_volume_density_quadrature_matches_scalar_form(label):
    if label == "linear-warp":
        geom = parse_geometry({"preset": "euclidean", "warp_rate": 0.2, "n": 3, "r_max": 2.0,
                               "potential": "r**2*(1 + t/9)/2"}, 4.0)
    else:
        geom = make_geometry(label, n=2, m=4 if label == "gaussian" else None)
    # the grid of configs/evolving-warp-identities.json; on linear-warp the
    # levels 9, 35 and 38 hold nodes where the two forms round apart
    grid = Grid(n_r=257, n_t=129, r_max=2.0, t0=0.5, duration=1.0)
    J = geom.volume_density
    u = 1.0 + np.exp(-grid.r**2)
    for t in grid.t[[1, 9, 35, 38, 40, -1]]:
        faces_ref, masses_ref = _scalar_face_densities_and_masses(J, grid, t)
        faces = J(grid.r[:-1] + grid.dr / 2, t)
        masses = _cell_masses(J, grid.r, grid.dr, grid.r_max, t)
        if label == "euclidean":
            # J = r: the first cell is clipped to [0, dr/2] at the pole, the
            # last one to [r_max - dr/2, r_max]
            half = grid.dr / 2
            assert masses[0] == pytest.approx(half**2 / 2, rel=1e-12)
            assert masses[-1] == pytest.approx((grid.r_max**2 - (grid.r_max - half) ** 2) / 2,
                                               rel=1e-12)
        if label == "linear-warp":
            # the scalar path squared numpy scalars through libm pow, which
            # can round 1 ulp away from the array square
            assert np.max(np.abs(faces - faces_ref) / faces_ref) <= 1e-13
            assert np.max(np.abs(masses - masses_ref) / masses_ref) <= 1e-13
        else:
            assert np.array_equal(faces, faces_ref)
            assert np.array_equal(masses, masses_ref)
            assert weighted_mass(u, geom, grid, t) == float(masses_ref @ u)


def test_solve_builds_the_volume_density_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return compile_expression(text)

    monkeypatch.setattr(symfun, "compile_expression", counted)
    for n_t in (9, 33):
        geom = make_geometry("warp", n=3, m=4, potential="r**2*(1 + t/9)/2")
        grid = Grid(n_r=33, n_t=n_t, r_max=2.0, t0=0.5, duration=1.0, pole=False)
        params = _pde(geom, 2.0, Nonlinearity(), None, boundary="neumann-zero")
        calls.clear()
        solve(lambda r, t: 1.0 + np.exp(-(r**2)), geom, params, grid)
        # J is composed from the geometry's compiled profiles, kept after the first use
        assert calls == []
        assert geom.volume_density is geom.volume_density
