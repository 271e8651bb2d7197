"""Independent re-transcriptions of the estimate formulas on synthetic data.

The verification margins on honest scenarios are comfortably positive, so a
mis-transcribed (too large) right-hand side could hide there.  These tests
rebuild every constant, sup-quantity, right-hand side and the Harnack
constant directly from their displayed forms, on random synthetic samples
with every input active (all six bounds positive, beta != 0, alpha' != 0,
forcing with x- and v-structure), and require exact agreement.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from harnacklab.estimates import (VARIANTS, EstimateScope, SupSamples, harnack_quantity,
                                  reduce_suprema, rhs_bound, variant_kind)
from harnacklab.geometry import Cylinder, GeometryBounds
from harnacklab.harnack import harnack_constant, harnack_log_bound, sample_pairs, verify_harnack
from harnacklab.params import AlphaBeta, HarnackParams, constant_alpha_beta
from harnacklab.scenarios import load_scenario, parse_scenario
from harnacklab.solver import Nonlinearity
from harnacklab.symfun import Profile


def synthetic_setup(rng, constant_alpha=False):
    p = rng.uniform(1.3, 3.2)
    m = rng.uniform(2.2, 5.5)
    if constant_alpha:
        coeffs = constant_alpha_beta(rng.uniform(1.3, 3.0), rng.uniform(-0.4, 0.6))
    else:
        coeffs = AlphaBeta(
            Profile(f"{rng.uniform(1.3, 3.0)!r} + {rng.uniform(0.0, 0.4)!r}*t", "alpha"),
            Profile(f"{rng.uniform(-0.4, 0.6)!r} + {rng.uniform(-0.3, 0.3)!r}*t", "beta"),
        )
    params = HarnackParams(p=p, m=m, coeffs=coeffs)
    bounds = GeometryBounds(k=rng.uniform(0.05, 1.0), k_lo=rng.uniform(0.05, 0.6),
                            k_hi=rng.uniform(0.05, 0.6), k2=rng.uniform(0.05, 0.4),
                            l1=rng.uniform(0.05, 0.8), l2=rng.uniform(0.05, 0.8))
    n_nodes = 17
    tau = np.sort(rng.uniform(0.05, 1.0, n_nodes))
    v = rng.uniform(0.3, 2.5, n_nodes)
    samples = SupSamples(
        # no reduction reads G_x; its draw keeps the seeded data after it
        G_x=rng.uniform(0, 1, n_nodes), tau=tau, v=v,
        G=rng.normal(0, 0.5, n_nodes),
        G_v=rng.normal(0, 0.5, n_nodes),
        G_vv=rng.normal(0, 0.5, n_nodes),
        G_x_norm=rng.uniform(0, 0.5, n_nodes),
        lap_Gx=rng.normal(0, 0.5, n_nodes),
        **dict(zip(("alpha", "alpha_p", "beta", "beta_p"), coeffs.at(tau))),
    )
    n_dim = int(rng.integers(2, 4))
    radius = rng.uniform(0.4, 1.5)
    return params, bounds, samples, n_dim, radius


def reference_quantities(params, bounds, s, n_dim, radius, eps, family):
    """Straight-line transcription of the displayed formulas."""
    b = params.b
    p, m = params.p, params.m
    c1 = math.pi
    al, alp, be, bep = s.alpha, s.alpha_p, s.beta, s.beta_p
    v_sup = float(np.max(s.v))
    K = 2 * c1 * bounds.k_lo + c1**2 * b * al**2 * p**2 * v_sup / (2 * (al - 1) * radius**2)
    L = al * (p - 1) * bounds.l2 / 2 + al * (p - 1) * bounds.k_lo * bounds.l1
    E = (3 / 2) ** 1.5 * v_sup / math.sqrt(eps)
    if family == "first":
        M = al**2 * (p - 1) * n_dim * ((bounds.k_lo + bounds.k_hi) ** 2 + 2 * bounds.k2)
        N = 2 * (p - 1) * v_sup * ((m - 1) * bounds.k + bounds.k2) + 2 * (al - 1) * bounds.k_hi
        F = b * al**2 / (4 * (al - 1) ** 2 - 2 * eps * b * al**2)
        q0 = np.max(be - al * s.G / s.v)
        q1 = max(0.0, np.max(s.G_v + alp / al - 2 * be / (b * al**2) + K))
        q2 = math.sqrt(E) * np.max((al - 1) * s.G_x_norm / s.v + L)
        q3 = max(0.0, np.max(be * s.G_v - al * (p - 1) * s.lap_Gx
                             + (be / al) * (alp - be / (b * al)) - bep + M))
        q4 = max(0.0, np.max(np.sqrt(F) * ((al - 1) * (s.G / s.v - s.G_v)
                                           - al * (p - 1) * s.v * s.G_vv
                                           - 2 * (al - 1) * be / (b * al**2)
                                           - alp / al + N)))
    else:
        M = (p - 1) * n_dim * (al * (bounds.k_lo + bounds.k_hi) ** 2 + 2 * bounds.k2)
        N = (2 * (p - 1) * v_sup * ((m - 1) * bounds.k / al + bounds.k2)
             + 2 * (al - 1) * bounds.k_hi / al)
        F = b * al**3 / (4 * (al - 1) ** 2 - 2 * eps * b * al**3)
        q0 = np.max(be - al * s.G / s.v)
        q1 = max(0.0, np.max(s.G_v - 2 * be / (b * al**2) + K))
        q2 = math.sqrt(E) * np.max((al - 1) / al * s.G_x_norm / s.v + L / al)
        q3 = max(0.0, np.max((be / al) * s.G_v - (p - 1) * s.lap_Gx
                             + (be / al**2) * (alp - be / (b * al)) - bep / al + M))
        q4 = max(0.0, np.max(np.sqrt(F) * ((al - 1) / al * (s.G / s.v - s.G_v)
                                           - (p - 1) * s.v * s.G_vv
                                           - 2 * (al - 1) * be / (b * al**3)
                                           - alp / al**2 + N)))
    return {"q0": float(q0), "q1": float(q1), "q2": float(q2),
            "q3": float(q3), "q4": float(q4), "v_sup": v_sup}


def reference_rhs(variant, ref, params, bounds, tau, radius):
    b = params.b
    p, m = params.p, params.m
    al = params.coeffs.alpha_at(tau)
    c1, c2 = math.pi, math.pi**2 / 2
    agg = ref["q2"] ** (4 / 3) + ref["q3"] + ref["q4"] ** 2
    root = math.sqrt(b) if variant.startswith("first") else np.sqrt(b * al)
    out = b * al / tau + b * al * ref["q1"] + root * math.sqrt(agg)
    if variant.endswith("local"):
        out = out + (b * (p - 1) * al * ref["v_sup"] / radius**2
                     * (c2 + (m - 1) * c1 * (1 + radius * math.sqrt(bounds.k)) + 2 * c1**2))
    return out


@pytest.mark.parametrize("family", ["first", "second"])
def test_sup_quantities_match_reference(family):
    rng = np.random.default_rng(314)
    for trial in range(40):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        q = reduce_suprema(samples, bounds, params, n_dim, radius, [(family, eps)], "local")[0]
        ref = reference_quantities(params, bounds, samples, n_dim, radius, eps, family)
        for key in ("q0", "q1", "q2", "q3", "q4"):
            assert q[key] == pytest.approx(ref[key], rel=1e-13, abs=1e-13), (trial, key)


@pytest.mark.parametrize("variant", ["first-local", "second-local"])
def test_local_rhs_matches_reference(variant):
    rng = np.random.default_rng(2718)
    family = "second" if "second" in variant else "first"
    for trial in range(40):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        tau_eval = rng.uniform(0.1, 1.0, 3)
        q = reduce_suprema(samples, bounds, params, n_dim, radius, [(family, eps)], "local")[0]
        got = rhs_bound(variant, q, bounds, params, radius, tau_eval)
        ref = reference_quantities(params, bounds, samples, n_dim, radius, eps, family)
        want = reference_rhs(variant, ref, params, bounds, tau_eval, radius)
        assert np.allclose(got, want, rtol=1e-13), (trial, got, want)


def test_global_rhs_drops_radius_term_in_leading_constant():
    # global scope replaces K by its cutoff-time part only
    rng = np.random.default_rng(999)
    params, bounds, samples, n_dim, radius = synthetic_setup(rng)
    eps = 0.3 * params.eps_ceiling(samples.tau, "first")
    q = reduce_suprema(samples, bounds, params, n_dim, radius, [("first", eps)], "global")[0]
    s = samples
    b = params.b
    K_global = 2 * math.pi * bounds.k_lo
    q1_ref = max(0.0, float(np.max(s.G_v + s.alpha_p / s.alpha
                                   - 2 * s.beta / (b * s.alpha**2) + K_global)))
    assert q["q1"] == pytest.approx(q1_ref, rel=1e-13)


@pytest.mark.parametrize("family", ["first", "second"])
def test_harnack_constant_matches_reference(family):
    rng = np.random.default_rng(1618)
    for trial in range(25):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng, constant_alpha=True)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        q = reduce_suprema(samples, bounds, params, n_dim, radius, [(family, eps)], "global")[0]
        alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
        b = params.b
        H = harnack_constant(q, alpha, b)
        agg = math.sqrt(q["q2"] ** (4 / 3) + q["q3"] + q["q4"] ** 2)
        if family == "first":
            want = q["q0"] + b * alpha**2 * q["q1"] + alpha * math.sqrt(b) * agg
        else:
            want = q["q0"] + b * alpha**2 * q["q1"] + math.sqrt(b * alpha**3) * agg
        assert H == pytest.approx(want, rel=1e-13), trial


def test_harnack_bound_matches_reference():
    rng = np.random.default_rng(577)
    params, bounds, samples, n_dim, radius = synthetic_setup(rng, constant_alpha=True)
    eps = 0.4 * params.eps_ceiling(samples.tau, "first")
    q = reduce_suprema(samples, bounds, params, n_dim, radius, [("first", eps)], "global")[0]
    energy, v_inf, t1, t2 = 0.7, 0.4, 0.3, 0.9
    alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
    H = harnack_constant(q, alpha, params.b)
    log_bound = harnack_log_bound(H, alpha, params.b, energy, v_inf, t1, t2)
    want = (math.exp(alpha * energy / (4 * v_inf * (t2 - t1))
                     + H * (t2 - t1) / alpha)
            * (t2 / t1) ** (params.b * alpha))
    assert math.exp(log_bound) == pytest.approx(want, rel=1e-13)


def assert_H_is_the_global_rhs_less_its_clock(q, params, bounds, tau):
    """H = q0 + alpha (rhs - b alpha / tau) of the quantities' global form,
    at each clock time of ``tau`` (the radius is not read globally)."""
    alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
    b = params.b
    rhs = rhs_bound(f"{q['family']}-global", q, bounds, params, 1.0, tau)
    H = harnack_constant(q, alpha, b)
    np.testing.assert_allclose(q["q0"] + alpha * (rhs - b * alpha / tau), H, rtol=1e-12, atol=0)


@pytest.mark.parametrize("family", ["first", "second"])
def test_harnack_constant_is_the_global_rhs_less_its_clock_on_synthetic_data(family):
    rng = np.random.default_rng(1414)
    for trial in range(25):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng, constant_alpha=True)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        q = reduce_suprema(samples, bounds, params, n_dim, radius, [(family, eps)], "global")[0]
        assert_H_is_the_global_rhs_less_its_clock(q, params, bounds, rng.uniform(0.01, 5.0, 4))


CLOSED_FORM_CONFIGS = sorted(
    path for path in (Path(__file__).resolve().parent.parent / "configs").glob("*.json")
    if not path.name.startswith("sweep")
    and json.loads(path.read_text())["solution"]["kind"] != "numeric")


@pytest.mark.parametrize("config", CLOSED_FORM_CONFIGS, ids=lambda path: path.stem)
def test_harnack_constant_is_the_global_rhs_less_its_clock_on_shipped_configs(config):
    # the global quantities check-harnack reads, at half of each family's ceiling
    sc = load_scenario(config)
    ver = sc.verification
    scope = EstimateScope(sc.solution_handle(), sc.geom, sc.params, sc.nonlinearity,
                          Cylinder(ver["radius"], sc.t0, sc.t_hi), sc.t0, "global",
                          ver["sup_density"])
    for family in ("first", "second"):
        eps = 0.5 * sc.params.eps_ceiling(scope.samples.tau, family)
        q, = scope.quantities([(family, eps)])
        tau = np.array([sc.duration / 64, 0.3 * sc.duration, sc.duration])
        assert_H_is_the_global_rhs_less_its_clock(q, sc.params, scope.bounds, tau)


# ---------------------------------------------------------------------------
# the Harnack margin, split exactly by step
# ---------------------------------------------------------------------------

# gaussian-conformal at beta = -0.3 has q1 = -2 beta / (b alpha^2) > 0, which no
# shipped config has, so H's b alpha^2 q1 term enters
SPLIT_CASES = [(path, {}) for path in CLOSED_FORM_CONFIGS] + [
    (CLOSED_FORM_CONFIGS[0].parent / "gaussian-conformal.json", {"beta": -0.3})]


def simpson(f, tau1, tau2):
    """Composite Simpson's rule along the last axis of ``f``, whose row k is
    sampled at an odd number of equispaced nodes from tau1[k] to tau2[k]."""
    weights = np.ones(f.shape[-1])
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return (tau2 - tau1) / (3.0 * (f.shape[-1] - 1)) * (f @ weights)


def harnack_split(sc, bounds, q, v_inf, pairs, nodes=513):
    """The four step slacks of each pair's Harnack margin, at ``nodes``
    equispaced clock times from tau1 to tau2 (one row per pair).

    Along a path r(tau) on one ray, -d/dtau log v = F/alpha - |grad v|^2/(alpha v)
    - G/v + beta/alpha - v_r r'/v.  Completing the square in v_r, and with
    RHS + q0/alpha = b alpha/tau + H/alpha, it is b alpha/tau + H/alpha
    + alpha a^2 r'^2/(4 v_inf) less the four slacks:
      the estimate slack RHS - F/alpha,
      the forcing sup q0/alpha - (beta/alpha - G/v),
      the completed square (v_r/a + alpha a r'/2)^2/(alpha v),
      the inf step alpha a^2 r'^2 (1/(4 v_inf) - 1/(4 v)).
    On the path r' proportional to a^-2 the kinetic term integrates to the
    bound's energy term, so the four integrals sum to the pair margin.
    """
    params, geom = sc.params, sc.geom
    r1, tau1, r2, tau2 = (column[:, None] for column in pairs.T)
    taus = tau1 + np.linspace(0.0, 1.0, nodes) * (tau2 - tau1)
    t_abs = taus + sc.t0
    a = geom.conformal(0.0, t_abs)
    # int a^-2 dtau from tau1 to each node, by Simpson's rule on each interval
    mid = geom.conformal(0.0, 0.5 * (t_abs[:, 1:] + t_abs[:, :-1])) ** -2.0
    panels = (a[:, :-1] ** -2.0 + 4.0 * mid + a[:, 1:] ** -2.0) / 6.0 * np.diff(taus, axis=1)
    reach = np.concatenate([np.zeros_like(tau1), np.cumsum(panels, axis=1)], axis=1)
    r = r1 + (r2 - r1) * reach / reach[:, -1:]
    rdot = (r2 - r1) * a**-2.0 / reach[:, -1:]
    table = sc.v_profile.table(1, 1, r, t_abs)
    v, v_r, v_t = table[0, 0], table[1, 0], table[0, 1]
    G = sc.nonlinearity.G(t_abs, r, v)
    alpha, _, beta, _ = params.coeffs.at(taus)
    F = harnack_quantity(v, v_r**2 / a**2, v_t, G, alpha, beta)
    # the radius is not read globally
    rhs = rhs_bound(f"{q['family']}-global", q, bounds, params, 1.0, taus.ravel())
    return (rhs.reshape(taus.shape) - F / alpha,
            q["q0"] / alpha - (beta / alpha - G / v),
            (v_r / a + alpha * a * rdot / 2) ** 2 / (alpha * v),
            alpha * a**2 * rdot**2 * (1 / (4 * v_inf) - 1 / (4 * v)))


@pytest.mark.parametrize("config, harnack", SPLIT_CASES, ids=[
    path.stem + "".join(f"_{key}={value}" for key, value in harnack.items())
    for path, harnack in SPLIT_CASES])
def test_harnack_margin_is_the_sum_of_its_four_step_slacks(config, harnack):
    # check-harnack's margins, from H, against the integrated slacks, from
    # rhs_bound: the two are tied with no second transcription of either
    doc = json.loads(config.read_text())
    doc["harnack"].update(harnack)
    sc = parse_scenario(doc)
    ver = sc.verification
    scope = EstimateScope(sc.solution_handle(), sc.geom, sc.params, sc.nonlinearity,
                          Cylinder(ver["radius"], sc.t0, sc.t_hi), sc.t0, "global",
                          ver["sup_density"])
    v_inf = scope.samples.v_inf
    pairs = sample_pairs(sc.seed, ver["pairs"], sc.geom.r_max, sc.duration / 64, sc.duration)
    tau1, tau2 = pairs[:, 1], pairs[:, 3]
    for family in ("first", "second"):
        q, = scope.quantities([(family, 0.5 * sc.params.eps_ceiling(scope.samples.tau, family))])
        rep = verify_harnack(sc.solution_handle(), sc.geom, sc.params, q, pairs, sc.t0, v_inf)
        slacks = harnack_split(sc, scope.bounds, q, v_inf, pairs)
        fine = np.array([simpson(e, tau1, tau2) for e in slacks])
        coarse = np.array([simpson(e[:, ::2], tau1, tau2) for e in slacks])
        # Simpson's error at 513 nodes is about 1/15 of its change from 257;
        # 64 ulps of the magnitudes summed bound the roundoff
        log_ratio = np.log(rep["ratio"])
        tol = (np.abs(fine.sum(axis=0) - coarse.sum(axis=0))
               + 64 * np.finfo(float).eps * (np.abs(fine).sum(axis=0) + np.abs(log_ratio)
                                             + np.abs(rep["margin"] + log_ratio)))
        assert np.all(np.abs(fine.sum(axis=0) - rep["margin"]) <= tol), family
        for slack in slacks:
            assert np.all(slack >= -tol[:, None]), family


# ---------------------------------------------------------------------------
# the two families: the second is the first with weight w = alpha
# ---------------------------------------------------------------------------

FAMILY_PAIRS = [(v, v.replace("first", "second")) for v in VARIANTS if "first" in v]


def family_setup(rng, static, alpha_p=0.0, k2=0.0):
    """Sup samples of a power sum plus an x-forcing, with beta != 0, at a
    constant alpha that is not a power of two (so no scaling by w is exact).

    ``alpha_p`` enters through the samples only, so both eps ceilings stay
    those of constant alpha.  The static forms take x-independent forcing
    and zero evolution bounds.
    """
    p, m = rng.uniform(1.3, 3.2), rng.uniform(2.2, 5.5)
    alpha = rng.uniform(1.3, 3.0)
    assert alpha != 2.0
    beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.6)
    params = HarnackParams(p=p, m=m, coeffs=constant_alpha_beta(alpha, beta))
    evolving = 0.0 if static else 1.0
    bounds = GeometryBounds(k=rng.uniform(0.05, 1.0), k_lo=evolving * rng.uniform(0.3, 0.6),
                            k_hi=evolving * rng.uniform(0.05, 0.6), k2=k2,
                            l1=rng.uniform(0.05, 0.8), l2=evolving * rng.uniform(0.05, 0.8))
    nl = Nonlinearity(A=[rng.uniform(1.0, 2.0)], a=[rng.uniform(0.5, 1.5)],
                      B=[-rng.uniform(0.05, 0.3)], b=[rng.uniform(0.2, 0.9)])
    n_nodes = 23
    tau = np.sort(rng.uniform(0.05, 1.0, n_nodes))
    v = rng.uniform(0.3, 2.5, n_nodes)
    full = lambda value: np.full(n_nodes, value)
    samples = SupSamples(
        # no reduction reads G_x; its draw keeps the seeded data after it
        G_x=rng.uniform(0, 1, n_nodes), tau=tau, v=v,
        G=nl.G_vpart(v) + rng.normal(0, 0.5, n_nodes),
        G_v=nl.G_vpart(v, 1), G_vv=nl.G_vpart(v, 2),
        G_x_norm=evolving * rng.uniform(0, 0.5, n_nodes),
        lap_Gx=evolving * rng.normal(0, 0.2, n_nodes),
        alpha=full(alpha), alpha_p=full(alpha_p), beta=full(beta), beta_p=full(0.0),
    )
    # the slope sups stay unclamped, so alpha'/alpha shifts them exactly
    assert np.max(samples.G_v) > 0
    return params, bounds, samples, int(rng.integers(2, 4)), rng.uniform(0.4, 1.5)


def family_rhs(variant, setup, fraction, tau):
    """The variant's quantities and right side, at ``fraction`` of its
    family's eps ceiling (the static forms take the vanishing-eps limit)."""
    params, bounds, samples, n_dim, radius = setup
    family, scope = variant_kind(variant)
    eps = (None if variant.startswith("static")
           else fraction * params.eps_ceiling(samples.tau, family))
    q = reduce_suprema(samples, bounds, params, n_dim, radius, [(family, eps)], scope)[0]
    return q, rhs_bound(variant, q, bounds, params, radius, tau)


def test_families_agree_at_matched_eps_fractions_when_alpha_constant_and_k2_zero():
    # the second family's ceiling is the first's over alpha; at the same
    # fraction, E grows by sqrt(alpha) and F by alpha, the brackets shrink
    # by 1/alpha, and the root sqrt(b alpha) restores the first's right side
    rng = np.random.default_rng(4242)
    tau = np.linspace(0.05, 1.0, 9)
    for trial in range(6):
        for first, second in FAMILY_PAIRS:
            setup = family_setup(rng, static=first.startswith("static"))
            params, samples = setup[0], setup[2]
            alpha = samples.alpha[0]
            assert params.eps_ceiling(tau, "second") == pytest.approx(
                params.eps_ceiling(tau, "first") / alpha, rel=1e-14)
            for fraction in (0.1, 0.5, 0.9):
                q1, rhs1 = family_rhs(first, setup, fraction, tau)
                q2, rhs2 = family_rhs(second, setup, fraction, tau)
                assert q2["q1"] == pytest.approx(q1["q1"], rel=1e-13)
                assert q2["q3"] == pytest.approx(q1["q3"] / alpha, rel=1e-13, abs=1e-15)
                assert np.allclose(rhs2, rhs1, rtol=1e-12, atol=0), (trial, first, fraction)


def test_families_part_when_k2_positive_or_alpha_moves():
    # k2 enters N and M without the 1/w weight, so the map breaks; alpha'
    # enters only the first family's slope, as alpha'/alpha, so the first
    # right side exceeds the second by b alpha (alpha'/alpha) = b alpha'
    rng = np.random.default_rng(4243)
    tau = np.linspace(0.05, 1.0, 9)
    for trial in range(3):
        for first, second in FAMILY_PAIRS:
            static = first.startswith("static")
            if not static:  # the static forms refuse k2 > 0
                setup = family_setup(rng, static, k2=rng.uniform(0.05, 0.4))
                rhs1, rhs2 = (family_rhs(v, setup, 0.5, tau)[1] for v in (first, second))
                assert np.all(np.abs(rhs1 - rhs2) > 1e-9 * np.abs(rhs1)), (trial, first)
            alpha_p = rng.uniform(0.1, 0.5)
            setup = family_setup(rng, static, alpha_p=alpha_p)
            rhs1, rhs2 = (family_rhs(v, setup, 0.5, tau)[1] for v in (first, second))
            assert np.allclose(rhs1 - rhs2, setup[0].b * alpha_p, rtol=0,
                               atol=1e-12 * np.max(np.abs(rhs1))), (trial, first)
