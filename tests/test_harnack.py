import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnacklab.estimates import collect_sup_samples, reduce_suprema
from harnacklab.geometry import Cylinder, extract_bounds
from harnacklab import harnack
from harnacklab.harnack import (HarnackError, _constant_alpha, harnack_constant,
                                harnack_log_bound, log_integral_margin, path_energy,
                                sample_pairs, verify_harnack)
from harnacklab.identities import AnalyticSolution
from harnacklab.params import HarnackParams, constant_alpha_beta
from harnacklab.scenarios import load_scenario
from harnacklab.solver import Nonlinearity, barenblatt_pressure_profile, manufactured_forcing
from harnacklab.symfun import Profile

from conftest import make_geometry


def _straight_energy(geom, r1, t1, r2, t2, n=20001):
    """Energy of the constant-speed radial path traversed over [t1, t2]."""
    s = np.linspace(0.0, 1.0, n)
    return (r2 - r1) ** 2 * np.trapezoid(geom.conformal(0.0, t1 + s * (t2 - t1)) ** 2, s)


def test_path_energy_static_is_squared_distance():
    geom = make_geometry("euclidean", n=2)
    assert path_energy(geom, 0.0, 1.0, 1.0, 2.0) == 1.0
    assert path_energy(geom, 0.3, 1.0, 1.4, 2.0) == (1.4 - 0.3) ** 2


def test_path_energy_zero_iff_coincident():
    geom = make_geometry("euclidean", n=2)
    assert path_energy(geom, 0.7, 1.0, 0.7, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert path_energy(geom, 0.3, 1.0, 0.8, 2.0) > 0


def test_path_energy_requires_time_order():
    geom = make_geometry("euclidean", n=2)
    with pytest.raises(HarnackError):
        path_energy(geom, 0.0, 2.0, 1.0, 1.0)


def test_path_energy_conformal_closed_form():
    # a = e^{t/2} over [0.5, 1.5]: L = (r2-r1)^2 / int e^{-t} dt exactly
    geom = make_geometry("euclidean", n=2, conformal="exp(t/2)")
    energy = path_energy(geom, 0.2, 0.5, 1.4, 1.5)
    exact = 1.2**2 / (math.exp(-0.5) - math.exp(-1.5))
    assert energy == pytest.approx(exact, rel=1e-12)
    assert energy <= _straight_energy(geom, 0.2, 0.5, 1.4, 1.5)


def test_pair_arrays_match_single_pairs():
    # on an evolving conformal factor each pair's entry of the array route
    # is, bit for bit, the value of the same call on that pair alone
    geom = make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)")
    pairs = sample_pairs(3, 40, geom.r_max, 0.05, 1.0)
    r1, tau1, r2, tau2 = np.array(pairs).T
    log_ratio = np.linspace(-0.5, 0.5, len(pairs))
    energy = path_energy(geom, r1, tau1 + 1.0, r2, tau2 + 1.0)
    margin = log_integral_margin(log_ratio, geom, 2.0, 0.6, 0.3, 1.5, r1, tau1, r2, tau2, 1.0)
    for k, (a1, s1, a2, s2) in enumerate(pairs):
        assert energy[k] == path_energy(geom, a1, s1 + 1.0, a2, s2 + 1.0)
        assert margin[k] == log_integral_margin(log_ratio[k], geom, 2.0, 0.6, 0.3, 1.5,
                                                a1, s1, a2, s2, 1.0)


def test_conformal_bound_margin_within_log_integral_margin():
    # the straight path of the log-integral step costs at least the infimum,
    # so each pair's bound margin is at most its log-integral margin
    geom = make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)")
    prof = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    params = HarnackParams(p=2.2, m=4.0, coeffs=constant_alpha_beta(2.0))
    nl = manufactured_forcing(prof, geom, params.p)
    sol = AnalyticSolution(prof)
    full = Cylinder(1e18, 1.0, 2.0)
    samples = collect_sup_samples(sol, geom, params, nl, full, 1.0)
    eps = 0.5 * params.eps_ceiling(np.linspace(0.01, 1.0, 64), "first")
    q, = reduce_suprema(samples, extract_bounds(geom, full), params, geom.n, 0.9,
                        [("first", eps)], "global")
    pairs = sample_pairs(31, 60, geom.r_max, 0.05, 1.0)
    rep = verify_harnack(sol, geom, params, q, pairs, 1.0, float(np.min(samples.v)))
    assert np.all(rep["margin"] <= rep["log_integral_margin"] + 1e-12)


def _barenblatt_quantities(alpha=2.0, t_hi=2.0, family="first"):
    geom = make_geometry("euclidean", n=2)
    prof = barenblatt_pressure_profile(2, 2.0, 1.0)
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(alpha))
    sol = AnalyticSolution(prof)
    full = Cylinder(1e18, 1.0, t_hi)
    bounds = extract_bounds(geom, full)
    samples = collect_sup_samples(sol, geom, params, Nonlinearity(), full, 1.0)
    eps = 0.25 * params.eps_ceiling(np.linspace(0.05, t_hi - 1.0, 33), family)
    q = reduce_suprema(samples, bounds, params, geom.n, 0.9, [(family, eps)], "global")[0]
    v_inf = float(np.min(samples.v))
    return geom, prof, params, sol, q, v_inf


def _log_bound(q, params, energy, v_inf, t1, t2):
    alpha = _constant_alpha(params)
    H = harnack_constant(q, alpha, params.b)
    return harnack_log_bound(H, alpha, params.b, energy, v_inf, t1, t2)


def test_harnack_constant_vanishes_for_flat_zero_forcing():
    _, _, params, _, q, _ = _barenblatt_quantities()
    assert harnack_constant(q, _constant_alpha(params), params.b) == 0.0


def test_harnack_bound_power_factor():
    _, _, params, _, q, v_inf = _barenblatt_quantities()
    log_bound = _log_bound(q, params, energy=0.0, v_inf=v_inf, t1=0.25, t2=1.0)
    # b alpha = (2/3) * 2; (t2/t1)^(b alpha) = 4^(4/3)
    assert log_bound == pytest.approx((4.0 / 3.0) * math.log(4.0), rel=1e-12)
    assert math.exp(log_bound) == pytest.approx(4.0 ** (4.0 / 3.0), rel=1e-12)


def test_harnack_bound_coincident_points():
    _, _, params, _, q, v_inf = _barenblatt_quantities()
    log_bound = _log_bound(q, params, energy=0.0, v_inf=v_inf, t1=0.5, t2=1.0)
    assert math.exp(log_bound) == pytest.approx((2.0) ** (params.b * 2.0) * math.exp(0.0),
                                                rel=1e-12)


def test_harnack_bound_separated_points_formula():
    _, _, params, _, q, v_inf = _barenblatt_quantities()
    L = 0.8
    log_bound = _log_bound(q, params, energy=L, v_inf=v_inf, t1=0.5, t2=1.0)
    expect = math.exp(2.0 * L / (4 * v_inf * 0.5)) * 2.0 ** (params.b * 2.0)
    assert math.exp(log_bound) == pytest.approx(expect, rel=1e-12)


def test_harnack_bound_overflow_stays_in_log_space(monkeypatch):
    # an exponent past exp's range saturates the reported bound only
    geom, _, params, sol, q, v_inf = _barenblatt_quantities()
    log_bound = _log_bound(q, params, energy=1e4, v_inf=v_inf, t1=0.5, t2=0.51)
    expect = 2.0 * 1e4 / (4 * v_inf * 0.01) + params.b * 2.0 * math.log(0.51 / 0.5)
    assert log_bound == pytest.approx(expect, rel=1e-12)
    monkeypatch.setattr(harnack, "path_energy", lambda *args: 1e4)
    rep = verify_harnack(sol, geom, params, q, [(0.3, 0.5, 0.3, 0.51)], 1.0, v_inf)
    assert rep["bound"][0] == math.inf
    assert rep["margin"][0] == pytest.approx(expect - math.log(rep["ratio"][0]), rel=1e-12)


@pytest.mark.parametrize("name", ["H", "margin", "log-integral margin"])
def test_non_finite_harnack_value_is_a_numerical_failure(monkeypatch, name):
    # an H, margin or log-integral margin that is not finite is neither a pass
    # nor a violation, and names the check; an infinite bound is not gated
    geom, _, params, sol, q, v_inf = _barenblatt_quantities()
    pairs = [(0.3, 0.5, 0.6, 0.9)]
    if name == "H":
        q = {**q, "q0": math.nan}
    elif name == "margin":
        monkeypatch.setattr(harnack, "path_energy", lambda *args: np.array([math.inf]))
    else:
        monkeypatch.setattr(harnack, "log_integral_margin", lambda *args: np.array([math.nan]))
    with pytest.raises(FloatingPointError, match=f"check-harnack first family: {name} is not"):
        verify_harnack(sol, geom, params, q, pairs, 1.0, v_inf)


def test_harnack_bound_validation():
    geom, _, params, sol, q, v_inf = _barenblatt_quantities()
    with pytest.raises(HarnackError):
        verify_harnack(sol, geom, params, q, [(0.0, 0.5, 0.0, 1.0)], 1.0, -1.0)
    with pytest.raises(HarnackError):
        verify_harnack(sol, geom, params, q, [(0.0, 1.0, 0.0, 0.5)], 1.0, v_inf)
    # v below zero between the sampled nodes has no logarithm
    dips = AnalyticSolution(Profile("r - 1", "v"))
    with pytest.raises(HarnackError, match="both ends"):
        verify_harnack(dips, geom, params, q, [(1.5, 0.5, 0.5, 1.0)], 1.0, v_inf)


@pytest.mark.parametrize("family", ["first", "second"])
def test_verify_harnack_barenblatt(family):
    geom, prof, params, sol, q, v_inf = _barenblatt_quantities(family=family)
    pairs = sample_pairs(2026, 120, geom.r_max, 0.05, 1.0)
    rep = verify_harnack(sol, geom, params, q, pairs, 1.0, v_inf)
    assert rep["violations"] == 0
    assert rep["passed"].shape == (len(pairs),) and np.all(rep["passed"])


def test_verify_harnack_rows_carry_log_integral_margin(monkeypatch):
    # the pairs are checked as arrays: v is evaluated once at all first and
    # once at all second endpoints, and every column entry is, bit for bit,
    # what the scalar route gives on that pair alone
    geom, prof, params, sol, q, v_inf = _barenblatt_quantities()
    pairs = sample_pairs(5, 30, geom.r_max, 0.05, 1.0)
    calls = []

    def counted(r, t, _value=sol.value):
        calls.append((r, t))
        return _value(r, t)

    monkeypatch.setattr(sol, "value", counted)
    rep = verify_harnack(sol, geom, params, q, pairs, 1.0, v_inf)
    assert len(calls) == 2
    assert rep["log_integral_violations"] == 0
    alpha, b = _constant_alpha(params), params.b
    H = harnack_constant(q, alpha, b)
    for k, (r1, tau1, r2, tau2) in enumerate(pairs):
        energy = path_energy(geom, r1, tau1 + 1.0, r2, tau2 + 1.0)
        log_bound = harnack_log_bound(H, alpha, b, energy, v_inf, tau1, tau2)
        lr = _log_ratio(sol, r1, tau1 + 1.0, r2, tau2 + 1.0)
        alone = log_integral_margin(lr, geom, alpha, b, H, v_inf, r1, tau1, r2, tau2, 1.0)
        assert (rep["r1"][k], rep["tau1"][k], rep["r2"][k], rep["tau2"][k]) == (r1, tau1, r2, tau2)
        assert rep["energy"][k] == energy
        assert rep["margin"][k] == log_bound - lr
        assert rep["log_integral_margin"][k] == alone


@pytest.mark.parametrize("n_pairs", [1, 30])
def test_verify_harnack_profile_evaluations_do_not_grow_with_pairs(monkeypatch, n_pairs):
    # alpha once, the conformal factor a at the path energies' panel nodes,
    # at their midpoints and on the log-integral paths, and v once at each end
    geom = make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)")
    prof = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    params = HarnackParams(p=2.2, m=4.0, coeffs=constant_alpha_beta(2.0))
    sol = AnalyticSolution(prof)
    q = {"q0": 0.1, "q1": 0.1, "q2": 0.1, "q3": 0.1, "q4": 0.1, "family": "first"}
    pairs = sample_pairs(7, n_pairs, geom.r_max, 0.05, 1.0)
    tables = []
    table = Profile.table

    def counted(self, *args):
        tables.append(self.name)
        return table(self, *args)

    monkeypatch.setattr(Profile, "table", counted)
    rep = verify_harnack(sol, geom, params, q, pairs, 1.0, 1.0)
    assert rep["margin"].shape == (n_pairs,)
    assert sorted(tables) == ["a", "a", "a", "alpha", "v", "v"]


def test_verify_harnack_computes_constants_once(monkeypatch):
    # H and alpha do not depend on the pair: one evaluation per call
    geom, prof, params, sol, q, v_inf = _barenblatt_quantities()
    pairs = sample_pairs(5, 30, geom.r_max, 0.05, 1.0)
    calls = {"harnack_constant": 0, "_constant_alpha": 0}

    def counting(name):
        inner = getattr(harnack, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harnack, name, counting(name))
    verify_harnack(sol, geom, params, q, pairs, 1.0, v_inf)
    assert calls == {"harnack_constant": 1, "_constant_alpha": 1}


def test_verify_harnack_rejects_bad_pair():
    geom, prof, params, sol, q, v_inf = _barenblatt_quantities()
    with pytest.raises(HarnackError):
        verify_harnack(sol, geom, params, q, [(0.1, 0.5, 0.3, 0.5)],
                       1.0, v_inf)


def test_degenerate_pair_reduces_to_time_ratio():
    # spatially constant field: the comparison is a pure clock-ratio check
    geom = make_geometry("euclidean", n=2)
    prof = Profile("2 + exp(-t)", "v")
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    nl = manufactured_forcing(prof, geom, params.p)
    sol = AnalyticSolution(prof)
    full = Cylinder(1e18, 0.5, 1.5)
    bounds = extract_bounds(geom, full)
    samples = collect_sup_samples(sol, geom, params, nl, full, 0.5)
    q = reduce_suprema(samples, bounds, params, geom.n, 0.9, [("first", 0.05)], "global")[0]
    v_inf = float(np.min(samples.v))
    rep = verify_harnack(sol, geom, params, q, [(0.4, 0.3, 0.4, 0.6)], 0.5, v_inf)
    assert rep["energy"][0] == pytest.approx(0.0, abs=1e-14)
    # ratio v(t1)/v(t2) > 1 (decaying field) and the bound still covers it
    assert rep["ratio"][0] > 1.0
    assert rep["passed"][0]


def _log_ratio(sol, r1, t1, r2, t2):
    return np.log(sol.value(r1, t1) / sol.value(r2, t2))


def test_log_integral_examples():
    geom, prof, params, sol, q, v_inf = _barenblatt_quantities()
    alpha, b = _constant_alpha(params), params.b
    H = harnack_constant(q, alpha, b)
    lr = _log_ratio(sol, 0.2, 1.3, 0.9, 1.8)
    margin = log_integral_margin(lr, geom, alpha, b, H, v_inf, 0.2, 0.3, 0.9, 0.8, 1.0)
    assert margin >= 0
    # shrinking the infimum only helps (the right side grows)
    margin_small = log_integral_margin(lr, geom, alpha, b, H, v_inf / 4,
                                       0.2, 0.3, 0.9, 0.8, 1.0)
    assert margin_small >= margin - 1e-12
    # the pair loop rejects reversed times before any margin is taken
    with pytest.raises(HarnackError):
        verify_harnack(sol, geom, params, q, [(0.2, 0.8, 0.9, 0.3)], 1.0, v_inf)


def test_log_integral_constant_solution():
    geom = make_geometry("euclidean", n=2)
    prof = Profile("3", "v")
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    sol = AnalyticSolution(prof)
    lr = _log_ratio(sol, 0.3, 0.7, 0.3, 1.4)
    margin = log_integral_margin(lr, geom, 2.0, params.b, 0.0, 3.0, 0.3, 0.2, 0.3, 0.9, 0.5)
    # zero left side, positive right side
    assert margin > 0


def test_sampled_pairs_are_reproducible():
    # the same seed gives the same bits, and another seed other pairs
    p1, p2 = (sample_pairs(9, 50, 2.0, 0.1, 1.0) for _ in range(2))
    assert p1.shape == (50, 4) and p1.tobytes() == p2.tobytes()
    assert not np.any(p1 == sample_pairs(10, 50, 2.0, 0.1, 1.0))


@pytest.mark.parametrize("config", sorted(
    path for path in (Path(__file__).resolve().parent.parent / "configs").glob("*.json")
    if not path.name.startswith("sweep")), ids=lambda path: path.stem)
@pytest.mark.parametrize("seed", [None, 40])
def test_sample_pairs_lie_in_the_window_at_shipped_seeds(config, seed):
    # the pairs check-harnack checks, at the config's seed and at seed 40
    sc = load_scenario(config)
    lo, hi = sc.duration / 64, sc.duration
    r1, tau1, r2, tau2 = sample_pairs(sc.seed if seed is None else seed,
                                      sc.verification["pairs"], sc.geom.r_max, lo, hi).T
    assert len(r1) == sc.verification["pairs"]
    assert np.all((0 <= r1) & (r1 < sc.geom.r_max) & (0 <= r2) & (r2 < sc.geom.r_max))
    assert np.all((lo <= tau1) & (tau2 <= hi) & (tau2 - tau1 >= 1e-3 * hi))


def test_sample_pairs_keep_the_gap_in_a_window_just_wider_than_it():
    # the gap is 1e-3 tau_hi; tau1 + gap rounds, and can fall one ulp short of
    # the gap; the pair is then moved up by that ulp, which can take tau2 one
    # ulp past tau_hi
    for seed in range(200):
        hi = (1.0 + seed / 300) * 10.0 ** (seed % 7 - 3)
        gap = 1e-3 * hi
        lo = hi - gap
        for _ in range(seed % 3 + 1):
            lo = np.nextafter(lo, -np.inf)
        _, tau1, _, tau2 = sample_pairs(seed, 120, 1.0, lo, hi).T
        assert np.all((lo <= tau1) & (tau2 <= np.nextafter(hi, np.inf)) & (tau2 - tau1 >= gap))


def test_sample_pairs_are_the_r4_kronecker_points():
    # x_i is the top 53 bits of frac(j phi^-i), phi the real root of
    # x^5 = x + 1, at j = seed 2^32 + k + 1; on the unit window r1 and r2 are
    # x1 and x2 exactly, and tau1 is x3 times the window less the gap, 0.999.
    # Seeds far apart share no pair: two seeds read disjoint blocks of the
    # sequence.
    seeds = [0, 1, 2**40, 10**30]
    with mpmath.workprec(400):
        phi = mpmath.findroot(lambda x: x**5 - x - 1, mpmath.mpf("1.17"))
        for seed in seeds:
            pairs = sample_pairs(seed, 20, 1.0, 0.0, 1.0)
            for k, (r1, tau1, r2, _) in enumerate(pairs):
                j = seed * 2**32 + k + 1
                x = [int(mpmath.floor(mpmath.frac(j / phi**i) * 2**53)) * 2.0**-53
                     for i in (1, 2, 3)]
                assert [r1, r2, tau1] == [x[0], x[1], (1.0 - 1e-3) * x[2]], (seed, k)
    rows = [sample_pairs(seed, 120, 2.0, 1 / 64, 1.0) for seed in seeds]
    assert all(np.all(np.isfinite(pairs)) for pairs in rows)
    assert len({tuple(pair) for pairs in rows for pair in pairs}) == 120 * len(seeds)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**40), v_inf=st.floats(1e-3, 1e3), H=st.floats(0.0, 1e3),
       scale=st.floats(1.0, 1e3), alpha=st.floats(1.01, 8.0), b=st.floats(0.0, 2.0))
def test_harnack_log_bound_monotone_on_design_pairs(seed, v_inf, H, scale, alpha, b):
    # nonincreasing in the infimum of v, nondecreasing in H, at every pair
    r1, tau1, r2, tau2 = sample_pairs(seed, 30, 2.0, 1 / 64, 1.0).T
    energy = (r2 - r1) ** 2
    at = lambda H, v_inf: harnack_log_bound(H, alpha, b, energy, v_inf, tau1, tau2)
    assert np.all(at(H, v_inf * scale) <= at(H, v_inf))
    assert np.all(at(H * scale, v_inf) >= at(H, v_inf))


def test_harnack_harness_can_fail():
    # feed a deliberately broken setup (zeroed comparison constant and an
    # inflated infimum that suppresses the kinetic protection): a steep
    # spatial profile must then violate the bound and be reported
    geom = make_geometry("euclidean", n=2)
    prof = Profile("(2 + 5*exp(-r**2))*exp(-t/2)", "v")
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    sol = AnalyticSolution(prof)
    broken = {"q0": 0.0, "q1": 0.0, "q2": 0.0, "q3": 0.0, "q4": 0.0,
              "family": "first", "scope": "global", "eps": 0.1, "v_sup": 1.0}
    rep = verify_harnack(sol, geom, params, broken,
                         [(0.0, 0.5, 1.8, 0.55)], 0.0, v_inf=1e6)
    assert rep["violations"] == 1
    assert not rep["passed"][0]


def test_harnack_follows_global_estimate_same_constants():
    # whenever the truncated-global estimate passes, the integrated
    # comparison built from the same sup-quantities passes as well
    from harnacklab.estimates import EstimateScope, verify_estimate

    geom = make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)")
    prof = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    params = HarnackParams(p=2.2, m=4.0, coeffs=constant_alpha_beta(2.0))
    nl = manufactured_forcing(prof, geom, params.p)
    sol = AnalyticSolution(prof)
    cyl = Cylinder(0.5, 1.0, 2.0)
    full = Cylinder(1e18, 1.0, 2.0)
    for family, variant in (("first", "first-global"), ("second", "second-global")):
        eps = 0.5 * params.eps_ceiling(np.linspace(0.01, 1.0, 64), family)
        scope = EstimateScope(sol, geom, params, nl, cyl, 1.0, "global").with_nodes()
        est = verify_estimate(scope,
                              variant, eps=eps)
        assert est.violations == 0
        bounds = extract_bounds(geom, full)
        samples = collect_sup_samples(sol, geom, params, nl, full, 1.0)
        q, = reduce_suprema(samples, bounds, params, geom.n, cyl.radius, [(family, eps)],
                            "global")
        pairs = sample_pairs(31, 60, geom.r_max, 0.05, 1.0)
        rep = verify_harnack(sol, geom, params, q, pairs, 1.0,
                             float(np.min(samples.v)))
        assert rep["violations"] == 0


def test_families_coincide_for_plain_forcing_at_matched_eps_fraction():
    # with beta = 0, constant alpha, v-independent forcing, and eps chosen as
    # the same fraction of each family's ceiling, the two comparison
    # constants agree exactly: the second family's 1/alpha weights are
    # compensated by its sqrt(b alpha^3) aggregation and larger ceiling
    geom = make_geometry("hyperbolic", n=2)
    prof = Profile("2 + exp(-t)*(3 + cosh(r))/8", "v")
    params = HarnackParams(p=2.5, m=2.0, coeffs=constant_alpha_beta(2.0))
    nl = manufactured_forcing(prof, geom, params.p)
    sol = AnalyticSolution(prof)
    full = Cylinder(1e18, 1.0, 2.0)
    bounds = extract_bounds(geom, full)
    samples = collect_sup_samples(sol, geom, params, nl, full, 1.0)
    values = {}
    for family in ("first", "second"):
        eps = 0.5 * params.eps_ceiling(samples.tau, family)
        q = reduce_suprema(samples, bounds, params, geom.n, 0.9, [(family, eps)], "global")[0]
        values[family] = harnack_constant(q, _constant_alpha(params), params.b)
    assert values["first"] == pytest.approx(values["second"], rel=1e-12)
    assert values["first"] > 0
