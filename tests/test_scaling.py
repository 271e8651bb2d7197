"""The parabolic scaling group as an exact oracle.

Slow diffusion and the estimates' hypotheses are invariant under x -> lam x
(g -> lam^2 g), t -> mu t, v -> (lam^2/mu) v and G -> (lam^2/mu^2) G.  The
bounds move by their units (k -> k/lam^2; k_lo, k_hi -> ./mu; k2, l2 ->
./(lam mu); l1 -> ./lam), the cylinder radius by lam and beta by 1/mu, and
alpha and eps stay.  Every left-hand side scales by 1/mu, so a covariant
right-hand side, every margin and H scale by 1/mu, and the Harnack log
margins do not move.  With lam and mu powers of two each floating-point
operation commutes with the map, so a config's scaled twin reproduces its
margins to the bit: the check needs no slack, no tolerance and no second
transcription, and it runs the whole pipeline (parse, jets, bound
extraction, sup sampling and the right-hand sides).

The twin is written as expressions: the warp lam f(r/lam, t/mu), the
potential and the conformal factor at (r/lam, t/mu), the pressure
(lam^2/mu) v(r/lam, t/mu), each power-sum coefficient A_j times
lam^(2 - 2 a_j) mu^(a_j - 2), and r_max, the radius, t0 and the duration
scaled.
"""

import copy
import dataclasses
import functools
import inspect
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from harnacklab import cli, estimates
from harnacklab.estimates import estimate_matrix
from harnacklab.scenarios import parse_scenario
from harnacklab.solver import barenblatt_pressure_profile

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCALES = [(2.0, 4.0), (1.0, 2.0)]
# the shipped configs whose bounds have k2 = 0
COVARIANT = ["gaussian-conformal", "hyperbolic-manufactured", "powerlaw-static"]
# configs derived from a shipped one: its name and the top-level keys replaced
DERIVED = {
    # the self-similar pressure as a manufactured field, as its twin is
    "barenblatt-manufactured": ("barenblatt", {"solution": {
        "kind": "manufactured", "expr": barenblatt_pressure_profile(2, 2.0, 1.0).source}}),
    # a closure forcing that depends on x, with a power sum of G_vv != 0 whose
    # integer exponent makes each coefficient scale, lam^4 / mu^3, a power of two
    "hyperbolic-power-sum": ("hyperbolic-manufactured", {"pde": {
        "p": 2.5, "nonlinearity": {"form": "power-sum", "A": [0.25], "a": [-1]}}}),
}


def config(name: str) -> dict:
    """The document of ``configs/<name>.json`` or of a :data:`DERIVED` config."""
    if name in DERIVED:
        base, keys = DERIVED[name]
        return {**config(base), **copy.deepcopy(keys)}
    return json.loads((CONFIGS / f"{name}.json").read_text())


def scaled_twin(name: str, lam: float, mu: float) -> dict:
    """The config :func:`config` ``name`` with space scaled by lam, time by
    mu and the pressure by lam^2/mu, its fields written as expressions."""
    doc = config(name)
    sc = parse_scenario(doc)

    def at(profile) -> str:
        scale = {"r": lam, "t": mu}
        return re.sub(r"\b[rt]\b", lambda x: f"({x[0]}/{scale[x[0]]!r})", profile.source)

    geom = sc.geom
    doc["geometry"] = {"n": geom.n, "r_max": lam * geom.r_max, "mode": geom.mode,
                       "warp": f"{lam!r}*({at(geom.warp)})",
                       "potential": at(geom.potential), "conformal": at(geom.conformal)}
    doc["solution"] = {"kind": "manufactured", "expr": f"{lam**2 / mu!r}*({at(sc.v_profile)})"}
    doc["time"] = {"t0": mu * sc.t0, "duration": mu * sc.duration}
    doc.setdefault("verification", {})["radius"] = lam * sc.verification["radius"]
    if "beta" in doc["harnack"]:
        doc["harnack"]["beta"] /= mu
    power = doc["pde"].get("nonlinearity") or {}
    for coef, expo in (("A", "a"), ("B", "b")):
        if coef in power:
            power[coef] = [c * lam ** (2 - 2 * e) * mu ** (e - 2)
                           for c, e in zip(power[coef], power[expo])]
    return doc


def estimate_margins(sc) -> list:
    return [(rep.variant, rep.eps, rep.margin) for rep in estimate_matrix(sc)]


def harnack_reports(sc) -> list:
    """The :func:`verify_harnack` result of each family that check-harnack checks."""
    reports = []

    def recorded(*args, _original=cli.verify_harnack):
        reports.append(_original(*args))
        return reports[-1]

    original, cli.verify_harnack = cli.verify_harnack, recorded
    try:
        with tempfile.TemporaryDirectory() as out:
            cli.cmd_check_harnack(sc, Path(out))
    finally:
        cli.verify_harnack = original
    return reports


@functools.cache
def shipped(name: str, command):
    """``command`` run on the config ``name``, once for every twin."""
    return command(parse_scenario(config(name)))


def assert_margins_scale(original, twin, mu):
    assert [(variant, eps) for variant, eps, _ in twin] == [
        (variant, eps) for variant, eps, _ in original]
    for (variant, eps, margin), (_, _, twin_margin) in zip(original, twin):
        assert np.array_equal(mu * twin_margin, margin), (variant, eps)


@pytest.mark.parametrize("lam, mu", SCALES)
@pytest.mark.parametrize("name", COVARIANT + list(DERIVED))
def test_estimate_margins_scale_by_one_over_mu(name, lam, mu):
    twin = estimate_margins(parse_scenario(scaled_twin(name, lam, mu)))
    assert_margins_scale(shipped(name, estimate_margins), twin, mu)


@pytest.mark.parametrize("lam, mu", SCALES)
@pytest.mark.parametrize("name", COVARIANT)
def test_harnack_log_margins_are_invariant(name, lam, mu):
    # the pair design scales with the clock, its least gap 1e-3 tau_hi included;
    # the twin's pressure is v or v/2, whose ratios v1/v2 are the same floats
    original = shipped(name, harnack_reports)
    twin = harnack_reports(parse_scenario(scaled_twin(name, lam, mu)))
    assert len(twin) == len(original) == 2
    for rep, twin_rep in zip(original, twin):
        assert mu * twin_rep["H"] == rep["H"]
        for key in ("margin", "log_integral_margin"):
            assert np.array_equal(twin_rep[key], rep[key]), key


@pytest.mark.parametrize("lam, mu", SCALES)
def test_evolving_warp_departs_only_by_its_k2_terms(monkeypatch, lam, mu):
    # N's 2 (p-1) v_sup k2 scales as lam/mu against the other terms and M's
    # 2 k2 / w as mu/lam; with k2 patched to 0 the margins scale exactly
    name = "evolving-warp-identities"
    original = shipped(name, estimate_margins)
    twin = estimate_margins(parse_scenario(scaled_twin(name, lam, mu)))
    assert not all(np.array_equal(mu * twin_margin, margin)
                   for (_, _, margin), (_, _, twin_margin) in zip(original, twin))

    def without_k2(*args, _original=estimates.extract_bounds, **kwargs):
        bounds = _original(*args, **kwargs)
        assert bounds.k2 > 0
        return dataclasses.replace(bounds, k2=0.0)

    monkeypatch.setattr(estimates, "extract_bounds", without_k2)
    original = estimate_margins(parse_scenario(config(name)))
    twin = estimate_margins(parse_scenario(scaled_twin(name, lam, mu)))
    assert_margins_scale(original, twin, mu)


def mutant(function: str, original: str, replacement: str):
    """The function ``estimates.<function>`` with the text ``original`` of its
    source, which must occur once, replaced."""
    source = inspect.getsource(getattr(estimates, function))
    assert source.count(original) == 1
    namespace = dict(vars(estimates))
    exec(source.replace(original, replacement), namespace)
    return namespace[function]


# mutants that change a term's units, each with the twin and scale that see
# it: a factor 1/R in the localization by lam, which gaussian-conformal's
# local variants see at (2, 4); a factor v in a bracket by lam^2/mu, hidden at
# (2, 4), which moves a margin of the power-sum twin at (1, 2) by more than
# 1% (2.2% and 7.8%; G_vv is 0 on every shipped config)
@pytest.mark.parametrize("function, original, replacement, name, lam, mu", [
    ("_localization_term", "(v_sup / radius**2)", "(v_sup / radius)",
     "gaussian-conformal", 2.0, 4.0),
    ("estimate_brackets", "al * (p - 1) * s.v * s.G_vv", "al * (p - 1) * s.G_vv",
     "hyperbolic-power-sum", 1.0, 2.0),
    ("estimate_brackets", "al * (p - 1) * s.lap_Gx", "al * (p - 1) * s.v * s.lap_Gx",
     "hyperbolic-power-sum", 1.0, 2.0),
])
def test_a_twin_kills_each_mutant_of_the_units(monkeypatch, function, original, replacement,
                                               name, lam, mu):
    monkeypatch.setattr(estimates, function, mutant(function, original, replacement))
    margins = estimate_margins(parse_scenario(config(name)))
    twin = estimate_margins(parse_scenario(scaled_twin(name, lam, mu)))
    assert max(np.max(np.abs(mu * twin_margin / margin - 1.0))
               for (_, _, margin), (_, _, twin_margin) in zip(margins, twin)) > 0.01
