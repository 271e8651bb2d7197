"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion log;
every tolerance below is fixed here, not tuned at runtime.
"""

import json
import time

import numpy as np

from harnacklab.cli import EXIT_OK, EXIT_VIOLATION, main
from harnacklab.estimates import (EstimateScope, _young, aggregates, collect_sup_samples,
                                  eps_scan, reduce_suprema, rhs_bound, variant_kind,
                                  verify_estimate)
from harnacklab.fields import Grid
from harnacklab.geometry import Cylinder, GeometryBounds, extract_bounds
from harnacklab.harnack import sample_pairs, verify_harnack
from harnacklab.identities import (AnalyticSolution, GridSolution, bochner_residual,
                                   harnack_evolution_residual,
                                   pressure_equation_residual, quotient_rule_residual)
from harnacklab.params import (AlphaBeta, HarnackParams, constant_alpha_beta,
                               preset_alpha_beta, preset_ode_residuals)
from harnacklab.solver import (Nonlinearity, PdeParams, barenblatt_oracle,
                               barenblatt_pressure_profile, manufactured_forcing,
                               pressure_inverse, solve, weighted_mass)
from harnacklab.symfun import Profile, constant_profile

from conftest import (adjudicate_commutator, barenblatt_substitution_residual,
                      convergence_order, make_geometry, variant_label)


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: exact-mode identity suite on five scenarios, < 10 s
# ---------------------------------------------------------------------------

def identity_scenarios():
    bump = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    cosh_bump = Profile("2 + exp(-t)*(3 + cosh(r))/8", "v")
    cos_bump = Profile("2 + exp(-t)*(3 + cos(r))/8", "v")
    return [
        ("euclidean", make_geometry("euclidean", n=3), bump, 2.0),
        ("hyperbolic", make_geometry("hyperbolic", n=2), cosh_bump, 2.5),
        ("sphere-cap", make_geometry("sphere", n=2, r_max=1.3), cos_bump, 2.0),
        ("gaussian-weight", make_geometry("gaussian", n=2, m=4), bump, 1.8),
        ("conformal-evolving",
         make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)",
                       potential="r**2*(1 + t/9)/2"), bump, 2.2),
    ]


def test_criterion_1_identity_suite():
    started = time.time()
    worst = 0.0
    f = Profile("1 + r**2/3 + t/2", "f")
    g = Profile("2 + r**2*t/5", "g")
    for name, geom, prof, p in identity_scenarios():
        nl = manufactured_forcing(prof, geom, p)
        r = np.linspace(0.0, 0.92 * geom.r_max, 18)[:, None]
        t = np.linspace(0.5, 1.5, 8)[None, :]
        for label, res in (
            ("pressure-eq", pressure_equation_residual(prof, geom, p, nl, r, t)),
            ("quotient", quotient_rule_residual(f, g, prof, geom, p, r, t)),
            ("bochner", bochner_residual(prof, geom, r, t)),
        ):
            rel = float(np.max(np.abs(res)))  # identity scales here are O(1)
            worst = max(worst, rel)
            assert rel <= 1e-9, (name, label, rel)
    elapsed = time.time() - started
    report(1, worst <= 1e-9 and elapsed < 10.0,
           f"identity residuals <= 1e-9 on 5 scenarios (worst {worst:.2e}, "
           f"{elapsed:.1f}s < 10s)")


# ---------------------------------------------------------------------------
# criterion 2: evolution identity, exact and numeric-order modes, < 2 min
# ---------------------------------------------------------------------------

def test_criterion_2_evolution_identity():
    started = time.time()
    geom = make_geometry("euclidean", n=2)
    prof = barenblatt_pressure_profile(2, 2.0, 1.0)
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    r = np.linspace(0.0, 1.6, 18)[:, None]
    t = np.linspace(1.0, 2.0, 8)[None, :]
    res, table = harnack_evolution_residual(AnalyticSolution(prof), geom, params,
                                            Nonlinearity(), r=r, t=t)
    rel = float(np.max(np.abs(res)) / max(1.0, np.max(np.abs(table.LpvF))))
    assert rel <= 1e-7

    # numeric mode with x-dependent forcing
    geom3 = make_geometry("euclidean", n=3)
    bump = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    params3 = HarnackParams(p=2.0, m=3.0, coeffs=constant_alpha_beta(2.0))
    nl = manufactured_forcing(bump, geom3, params3.p)
    oracle = lambda rr, tt: pressure_inverse(bump(rr, tt), params3.p)
    errs = []
    for n_r, n_t in ((49, 49), (97, 193), (193, 769)):
        grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=0.5, duration=1.0)
        pde = PdeParams(p=params3.p, nonlinearity=nl, positivity_floor=1e-10,
                        outer_boundary="dirichlet-oracle", oracle=oracle)
        result = solve(oracle, geom3, pde, grid)
        resid, _ = harnack_evolution_residual(GridSolution(result.v), geom3, params3, nl)
        rr, tt = grid.mesh()
        window = (rr >= 0.2) & (rr <= 1.6) & (tt >= 0.65) & (tt <= 1.35)
        errs.append((grid.dr, float(np.max(np.abs(resid[window])))))
    order = convergence_order(errs)
    elapsed = time.time() - started
    report(2, rel <= 1e-7 and order >= 1.8 and elapsed < 120.0,
           f"evolution identity: exact residual {rel:.2e} <= 1e-7, numeric order "
           f"{order:.2f} >= 1.8 ({elapsed:.1f}s < 120s)")


# ---------------------------------------------------------------------------
# criterion 3: solver order and conservation, < 2 min
# ---------------------------------------------------------------------------

def test_criterion_3_solver():
    started = time.time()
    geom = make_geometry("euclidean", n=2)
    assert barenblatt_substitution_residual(2, 2.0, 1.0) <= 1e-10
    oracle = lambda r, t: barenblatt_oracle(2, 2.0, 1.0, r, t)
    errs = []
    for n_r, n_t in ((33, 9), (65, 33), (129, 129)):
        grid = Grid(n_r=n_r, n_t=n_t, r_max=2.0, t0=1.0, duration=1.0)
        pde = PdeParams(p=2.0, nonlinearity=Nonlinearity(), positivity_floor=1e-10,
                        outer_boundary="dirichlet-oracle", oracle=oracle)
        result = solve(oracle, geom, pde, grid)
        rr, tt = grid.mesh()
        interior = grid.r <= 1.6
        errs.append((grid.dr,
                     float(np.max(np.abs(result.u.values[interior] - oracle(rr, tt)[interior])))))
        assert result.clamp_fraction < 0.01
    order = convergence_order(errs)

    gauss = make_geometry("gaussian", n=2, m=4)
    grid = Grid(n_r=101, n_t=41, r_max=2.0, t0=0.0, duration=1.0)
    pde = PdeParams(p=2.0, nonlinearity=Nonlinearity(), positivity_floor=1e-10,
                    outer_boundary="neumann-zero")
    result = solve(lambda r, t: 1.0 + np.exp(-(r**2)), gauss, pde, grid)
    m0 = weighted_mass(result.u.values[:, 0], gauss, grid, grid.t[0])
    m1 = weighted_mass(result.u.values[:, -1], gauss, grid, grid.t[-1])
    drift = abs(m1 - m0) / m0
    elapsed = time.time() - started
    report(3, order >= 1.5 and drift <= 1e-8 and elapsed < 120.0,
           f"solver: interior order {order:.2f} >= 1.5, mass drift {drift:.2e} <= 1e-8 "
           f"({elapsed:.1f}s < 120s)")


# ---------------------------------------------------------------------------
# criterion 4: estimate verification matrix, < 5 min
# ---------------------------------------------------------------------------

def estimate_matrix():
    bump = {"kind": "manufactured", "catalog": "bump"}
    cosh_bump = {"kind": "manufactured", "catalog": "cosh-bump"}
    rows = [
        ("euclid-static", {"preset": "euclidean", "n": 2, "r_max": 2.0}, 2.0,
         {"kind": "barenblatt", "mass_const": 1.0}, 2.0, 0.9),
        ("hyperbolic-static", {"preset": "hyperbolic", "n": 2, "r_max": 2.0}, 2.0,
         cosh_bump, 2.5, 0.9),
        ("gaussian-static", {"preset": "gaussian-weight", "n": 2, "r_max": 2.0}, 4.0,
         bump, 1.8, 0.9),
        ("euclid-conformal", {"preset": "euclidean", "n": 3, "r_max": 2.0,
                              "conformal_rate": 0.1}, 3.0, bump, 2.0, 0.5),
        ("hyperbolic-conformal", {"preset": "hyperbolic", "n": 2, "r_max": 2.0,
                                  "conformal_rate": -0.1}, 2.0, cosh_bump, 3.0, 0.4),
        ("gaussian-conformal", {"preset": "gaussian-weight", "n": 2, "r_max": 2.0,
                                "conformal_rate": 0.1, "potential_drift": 0.1}, 4.0,
         bump, 2.0, 0.5),
    ]
    docs = []
    for name, geometry, m, solution, p, radius in rows:
        doc = {
            "name": name, "seed": 5,
            "geometry": geometry,
            "harnack": {"m": m, "alpha": 2.0},
            "pde": {"p": p},
            "solution": solution,
            "time": {"t0": 1.0, "duration": 1.0},
            "verification": {"radius": radius},
        }
        if solution.get("kind") == "barenblatt":
            doc["pde"]["nonlinearity"] = {"form": "zero"}
        docs.append(doc)
    return docs


def test_criterion_4_estimate_matrix():
    from harnacklab.scenarios import parse_scenario

    started = time.time()
    n_checks = 0
    worst = np.inf
    for doc in estimate_matrix():
        sc = parse_scenario(doc)
        sol = sc.solution_handle()
        cyl = Cylinder(sc.verification["radius"], sc.t0, sc.t_hi)
        tau_probe = np.linspace(sc.duration / 256, sc.duration, 64)
        for variant in ("first-local", "first-global", "second-local", "second-global"):
            family = "second" if "second" in variant else "first"
            for eps in eps_scan(sc.params, tau_probe, family, (0.1, 0.5, 0.9)):
                scope = EstimateScope(sol, sc.geom, sc.params, sc.nonlinearity, cyl,
                                      sc.t0, variant_kind(variant)[1]).with_nodes()
                rep = verify_estimate(scope, variant, eps=eps)
                n_checks += 1
                worst = min(worst, rep.min_margin)
                assert rep.violations == 0, (doc["name"], variant, eps, rep.min_margin)
    elapsed = time.time() - started
    report(4, elapsed < 300.0,
           f"estimates: zero violations over {n_checks} variant/eps checks on 6 "
           f"scenarios (worst margin {worst:+.3e}, {elapsed:.1f}s < 300s)")


# ---------------------------------------------------------------------------
# criterion 5: static consistency of the vanishing-eps limit
# ---------------------------------------------------------------------------

def test_criterion_5_static_consistency():
    from harnacklab.estimates import SupSamples

    rng = np.random.default_rng(77)
    worst = 0.0
    pairs = [("first-local", "static-first-local"),
             ("first-global", "static-first-global"),
             ("second-local", "static-second-local"),
             ("second-global", "static-second-global")]
    for _ in range(100):
        p = rng.uniform(1.2, 3.5)
        m = rng.uniform(2.0, 6.0)
        coeffs = AlphaBeta(Profile(f"{rng.uniform(1.1, 4.0)!r} + {rng.uniform(0.0, 0.5)!r}*t",
                                   "alpha"),
                           constant_profile(0.0, "beta"))
        params = HarnackParams(p=p, m=m, coeffs=coeffs)
        bounds = GeometryBounds(k=rng.uniform(0, 1), k_lo=0.0, k_hi=0.0, k2=0.0,
                                l1=rng.uniform(0, 1), l2=0.0)
        n_nodes = 20
        v = rng.uniform(0.2, 3.0, n_nodes)
        tau_nodes = rng.uniform(0.05, 1.0, n_nodes)
        power = Nonlinearity(A=[rng.uniform(0, 1)], a=[rng.uniform(-2, 0)],
                             B=[-rng.uniform(0, 1)], b=[rng.uniform(0, 1)])
        zeros = np.zeros(n_nodes)
        samples = SupSamples(tau=tau_nodes, v=v,
                             **dict(zip(("G", "G_x", "lap_Gx", "G_v", "G_vv"),
                                        power.partials(0, 0, v))),
                             G_x_norm=zeros,
                             alpha=coeffs.alpha_at(tau_nodes),
                             alpha_p=coeffs.at(tau_nodes)[1],
                             beta=zeros, beta_p=zeros)
        radius = rng.uniform(0.5, 2.0)
        tau_eval = np.array([rng.uniform(0.1, 1.0)])
        for evolving, static in pairs:
            family, scope = variant_kind(evolving)
            q = reduce_suprema(samples, bounds, params, 2, radius, [(family, None)], scope)[0]
            a = rhs_bound(evolving, q, bounds, params, radius, tau_eval)
            b = rhs_bound(static, q, bounds, params, radius, tau_eval)
            worst = max(worst, abs(a[0] - b[0]) / max(1.0, abs(b[0])))
    report(5, worst <= 1e-9,
           f"vanishing-eps limits match the static forms at 100 random points "
           f"(worst relative gap {worst:.2e} <= 1e-9)")


# ---------------------------------------------------------------------------
# criterion 6: integrated Harnack inequalities with the log-integral step
# ---------------------------------------------------------------------------

def harnack_scenarios():
    geoms = []
    geom = make_geometry("euclidean", n=2)
    geoms.append(("barenblatt", geom, barenblatt_pressure_profile(2, 2.0, 1.0),
                  Nonlinearity(), 2.0))
    gauss = make_geometry("gaussian", n=2, m=4, conformal="exp(t/10)")
    bump = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    geoms.append(("gaussian-conformal", gauss, bump,
                  manufactured_forcing(bump, gauss, 2.2), 2.2))
    return geoms


def test_criterion_6_harnack_pairs():
    total = 0
    for name, geom, prof, nl, p in harnack_scenarios():
        params = HarnackParams(p=p, m=geom.m, coeffs=constant_alpha_beta(2.0))
        sol = AnalyticSolution(prof)
        full = Cylinder(1e18, 1.0, 2.0)
        bounds = extract_bounds(geom, full)
        samples = collect_sup_samples(sol, geom, params, nl, full, 1.0)
        v_inf = float(np.min(samples.v))
        pairs = sample_pairs(101, 110, geom.r_max, 0.02, 1.0)
        tau_probe = np.linspace(0.01, 1.0, 64)
        for family in ("first", "second"):
            eps = 0.5 * params.eps_ceiling(tau_probe, family)
            q, = reduce_suprema(samples, bounds, params, geom.n, 0.9, [(family, eps)], "global")
            rep = verify_harnack(sol, geom, params, q, pairs, 1.0, v_inf)
            assert rep["violations"] == 0, (name, family)
            assert np.min(rep["log_integral_margin"]) >= -1e-8, (name, family)
            total += len(pairs)
    report(6, True,
           f"integrated inequality and log-integral step hold on {total} design "
           f"pairs across scenarios and both families")


# ---------------------------------------------------------------------------
# criterion 7: coefficient-pair presets satisfy their defining equations
# ---------------------------------------------------------------------------

def test_criterion_7_alpha_beta_presets():
    b = 2.0 / 3.0
    worst = 0.0
    t = np.linspace(0.005, 3.0, 2500)
    for which, gamma in (("exp", 0.8), ("coth", 0.8), ("linear", 0.8)):
        pair = preset_alpha_beta(which, gamma, b)
        for name, entry in preset_ode_residuals(pair, which, b, t).items():
            rel = float(np.max(np.abs(entry["residual"]) / entry["scale"]))
            worst = max(worst, rel)
    report(7, worst <= 1e-12,
           f"preset ODE residuals <= 1e-12 of their term scale on a dense grid "
           f"(worst {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 8: collapse of the sup-quantities with zero forcing
# ---------------------------------------------------------------------------

def test_criterion_8_sup_quantity_collapse():
    geom = make_geometry("euclidean", n=2, conformal="exp(-t/8)")
    prof = Profile("2 + exp(-t)*exp(-r**2/4)", "v")
    params = HarnackParams(p=2.0, m=2.0, coeffs=constant_alpha_beta(2.0))
    sol = AnalyticSolution(prof)
    cyl = Cylinder(1.2, 0.5, 1.5)
    bounds = extract_bounds(geom, cyl)
    samples = collect_sup_samples(sol, geom, params, Nonlinearity(), cyl, 0.5)
    worst = 0.0
    for family in ("first", "second"):
        eps = 0.2 * params.eps_ceiling(samples.tau, family)
        q = reduce_suprema(samples, bounds, params, geom.n, 0.6, [(family, eps)])[0]
        al = params.coeffs.alpha_at(samples.tau)
        cst = aggregates(bounds, params, geom.n, samples.v_sup, 0.6, al, eps, family=family)
        L_eff = cst["L"] if family == "first" else cst["L"] / al
        targets = {
            "q1": float(np.max(cst["K"])),
            "q2": float(np.sqrt(_young(samples.v_sup, eps)) * np.max(L_eff)),
            "q3": float(np.max(cst["M"])),
            "q4": float(np.max(np.sqrt(cst["F"]) * cst["N"])),
        }
        for key, target in targets.items():
            gap = abs(q[key] - target) / max(1.0, abs(target))
            worst = max(worst, gap)
    report(8, worst <= 1e-12,
           f"zero-forcing collapse of both sup-quantity families "
           f"(worst relative gap {worst:.2e} <= 1e-12)")


# ---------------------------------------------------------------------------
# criterion 9: negative control must fail loudly
# ---------------------------------------------------------------------------

def test_criterion_9_negative_control(tmp_path):
    doc = {
        "name": "negative-control", "seed": 11,
        "geometry": {"preset": "euclidean", "n": 2, "r_max": 2.0},
        "harnack": {"m": 2.0, "alpha": 1.2},
        "pde": {"p": 2.0, "nonlinearity": {"form": "zero"}},
        "solution": {"kind": "barenblatt", "mass_const": 1.0},
        "time": {"t0": 1.0, "duration": 9.0},
        "verification": {"radius": 0.9, "variants": ["first-global"]},
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    ok = main(["check-estimate", "--config", str(cfg), "--out", str(tmp_path / "ok")])
    bad = main(["check-estimate", "--config", str(cfg), "--out", str(tmp_path / "nc"),
                "--negative-control"])
    payload = json.loads((tmp_path / "nc" / "summary.json").read_text())
    report(9, ok == EXIT_OK and bad == EXIT_VIOLATION and payload["violations"] >= 1,
           f"halved right side reported {payload['violations']} violations and "
           f"exit code {bad}")


# ---------------------------------------------------------------------------
# criterion 10: unique commutator sign convention across evolving families
# ---------------------------------------------------------------------------

def test_criterion_10_commutator_adjudication():
    bump = Profile("2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8", "v")
    conformal = make_geometry("gaussian", n=2, m=4, conformal="exp(t/7)",
                              potential="r**2*(1 + t/9)/2")
    warp = make_geometry("warp", n=3, m=4, potential="r**2*(1 + t/9)/2")
    r = np.linspace(0.05, 1.8, 16)[:, None]
    t = np.linspace(0.4, 1.4, 9)[None, :]
    passing, worst = adjudicate_commutator(bump, [conformal, warp], r, t, tol=1e-9)
    ok = len(passing) == 1
    label = variant_label(passing[0]) if ok else "none"
    report(10, ok,
           f"exactly one sign convention is consistent on both evolving families: "
           f"{label} (printed-form residual {worst[(1, 1, 1, 1)]:.2e})")
