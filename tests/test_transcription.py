"""Independent re-transcriptions of the estimate formulas on synthetic data.

The verification margins on honest scenarios are comfortably positive, so a
mis-transcribed (too large) right-hand side could hide there.  These tests
rebuild every constant, sup-quantity, right-hand side and the Harnack
constant directly from their displayed forms, on random synthetic samples
with every input active (all six bounds positive, beta != 0, alpha' != 0,
forcing with x- and v-structure), and require exact agreement.
"""

import math

import numpy as np
import pytest

from harnacklab.estimates import (SupSamples, aggregate_M, aggregate_constants,
                                  cutoff_profile, rhs_bound, sup_quantities)
from harnacklab.geometry import GeometryBounds
from harnacklab.harnack import harnack_constant, harnack_log_bound
from harnacklab.params import AlphaBeta, HarnackParams, constant_alpha_beta
from harnacklab.symfun import Profile, constant_profile


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
        r=rng.uniform(0, 1, n_nodes), t_abs=tau, tau=tau, v=v,
        G=rng.normal(0, 0.5, n_nodes),
        G_v=rng.normal(0, 0.5, n_nodes),
        G_vv=rng.normal(0, 0.5, n_nodes),
        G_x_norm=rng.uniform(0, 0.5, n_nodes),
        lap_Gx=rng.normal(0, 0.5, n_nodes),
        alpha=coeffs.alpha_at(tau), alpha_p=coeffs.alpha_prime_at(tau),
        beta=coeffs.beta_at(tau), beta_p=coeffs.beta_prime_at(tau),
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
    cut = cutoff_profile()
    for trial in range(40):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        q = sup_quantities(samples, bounds, params, n_dim, radius, cut, eps,
                           family=family, scope="local")
        ref = reference_quantities(params, bounds, samples, n_dim, radius, eps, family)
        for key in ("q0", "q1", "q2", "q3", "q4"):
            assert q[key] == pytest.approx(ref[key], rel=1e-13, abs=1e-13), (trial, key)


@pytest.mark.parametrize("variant", ["first-local", "second-local"])
def test_local_rhs_matches_reference(variant):
    rng = np.random.default_rng(2718)
    cut = cutoff_profile()
    family = "second" if "second" in variant else "first"
    for trial in range(40):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        tau_eval = rng.uniform(0.1, 1.0, 3)
        q = sup_quantities(samples, bounds, params, n_dim, radius, cut, eps,
                           family=family, scope="local")
        got = rhs_bound(variant, q, samples, bounds, params, radius, cut, tau_eval)
        ref = reference_quantities(params, bounds, samples, n_dim, radius, eps, family)
        want = reference_rhs(variant, ref, params, bounds, tau_eval, radius)
        assert np.allclose(got, want, rtol=1e-13), (trial, got, want)


def test_global_rhs_drops_radius_term_in_leading_constant():
    # global scope replaces K by its cutoff-time part only
    rng = np.random.default_rng(999)
    cut = cutoff_profile()
    params, bounds, samples, n_dim, radius = synthetic_setup(rng)
    eps = 0.3 * params.eps_ceiling(samples.tau, "first")
    q = sup_quantities(samples, bounds, params, n_dim, radius, cut, eps,
                       family="first", scope="global")
    s = samples
    b = params.b
    K_global = 2 * math.pi * bounds.k_lo
    q1_ref = max(0.0, float(np.max(s.G_v + s.alpha_p / s.alpha
                                   - 2 * s.beta / (b * s.alpha**2) + K_global)))
    assert q["q1"] == pytest.approx(q1_ref, rel=1e-13)


@pytest.mark.parametrize("family", ["first", "second"])
def test_harnack_constant_matches_reference(family):
    rng = np.random.default_rng(1618)
    cut = cutoff_profile()
    for trial in range(25):
        params, bounds, samples, n_dim, radius = synthetic_setup(rng, constant_alpha=True)
        eps = rng.uniform(0.05, 0.95) * params.eps_ceiling(samples.tau, family)
        q = sup_quantities(samples, bounds, params, n_dim, radius, cut, eps,
                           family=family, scope="global")
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
    cut = cutoff_profile()
    params, bounds, samples, n_dim, radius = synthetic_setup(rng, constant_alpha=True)
    eps = 0.4 * params.eps_ceiling(samples.tau, "first")
    q = sup_quantities(samples, bounds, params, n_dim, radius, cut, eps,
                       family="first", scope="global")
    energy, v_inf, t1, t2 = 0.7, 0.4, 0.3, 0.9
    alpha = float(params.coeffs.alpha_at(np.array([0.0]))[0])
    H = harnack_constant(q, alpha, params.b)
    log_bound = harnack_log_bound(H, alpha, params.b, energy, v_inf, t1, t2)
    want = (math.exp(alpha * energy / (4 * v_inf * (t2 - t1))
                     + H * (t2 - t1) / alpha)
            * (t2 / t1) ** (params.b * alpha))
    assert math.exp(log_bound) == pytest.approx(want, rel=1e-13)
