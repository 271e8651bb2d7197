import csv
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from harnacklab import cli, estimates, identities
from harnacklab.cli import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_VIOLATION, cmd_check_estimate, cmd_check_identities,
                            main, run_sweep)
from harnacklab.geometry import Cylinder
from harnacklab.scenarios import (GEOMETRY_PRESETS, ConfigError, load_scenario, parse_geometry,
                                  parse_scenario)
from harnacklab.solver import Nonlinearity

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def barenblatt_doc(**overrides):
    doc = {
        "name": "barenblatt",
        "seed": 11,
        "geometry": {"preset": "euclidean", "n": 2, "r_max": 2.0},
        "harnack": {"m": 2.0, "alpha": 2.0},
        "pde": {"p": 2.0, "nonlinearity": {"form": "zero"},
                "grid": {"n_r": 65, "n_t": 33}},
        "solution": {"kind": "barenblatt", "mass_const": 1.0},
        "time": {"t0": 1.0, "duration": 1.0},
        "verification": {"radius": 0.9, "pairs": 40},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_scenario():
    sc = parse_scenario(barenblatt_doc())
    assert sc.solution_kind == "barenblatt"
    assert sc.params.b == pytest.approx(2.0 / 3.0)


def test_parse_rejects_small_alpha():
    doc = barenblatt_doc(harnack={"m": 2.0, "alpha": 0.5})
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "alpha" in str(err.value)
    assert "exceed 1" in str(err.value)


def test_parse_rejects_unknown_key():
    doc = barenblatt_doc()
    doc["harnack"]["alpha_typo"] = 2.0
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "harnack.alpha_typo" in str(err.value)


def test_parse_rejects_unknown_nested_key():
    doc = barenblatt_doc()
    doc["geometry"]["warp_typo"] = 1
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert "geometry.warp_typo" in str(err.value)


def test_first_fault_the_parse_reads_is_reported_before_an_unread_key():
    # unread keys are refused once the reads are done, so a bad value read
    # later in the document is reported first
    doc = barenblatt_doc()
    doc["harnack"]["alpha_typo"] = 2.0
    doc["pde"]["p"] = 0.5
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.path == "pde.p"


def test_top_level_key_path_has_no_leading_dot():
    # an unknown top-level key, and a missing required section
    missing = barenblatt_doc()
    del missing["geometry"]
    for doc, path in ((barenblatt_doc(nme="typo"), "nme"), (missing, "geometry")):
        with pytest.raises(ConfigError) as err:
            parse_scenario(doc)
        assert err.value.path == path


@pytest.mark.parametrize("solution, path", [
    ({"kind": "barenblatt", "expr": "2 + r**2"}, "solution.expr"),
    ({"kind": "barenblatt", "catalog": "bump"}, "solution.catalog"),
    ({"kind": "barenblatt", "base": "barenblatt"}, "solution.base"),
    ({"kind": "manufactured", "catalog": "bump", "mass_const": 1.0}, "solution.mass_const"),
    ({"kind": "manufactured", "expr": "2 + r**2", "base": "manufactured"}, "solution.base"),
    ({"kind": "manufactured", "expr": "2 + r**2", "catalog": "bump"}, "solution.catalog"),
], ids=json.dumps)
def test_solution_key_its_kind_does_not_read_rejected(tmp_path, capsys, solution, path):
    # barenblatt reads mass_const, manufactured expr or else catalog, numeric
    # base; any other key would be silently ignored
    key = path.split(".")[1]
    parse_scenario(barenblatt_doc(solution={k: v for k, v in solution.items() if k != key}))
    doc = barenblatt_doc(solution=solution)
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")
    assert not (tmp_path / "out").exists()


def test_parse_rejects_bad_variant():
    doc = barenblatt_doc()
    doc["verification"]["variants"] = ["third-local"]
    with pytest.raises(ConfigError):
        parse_scenario(doc)


def test_parse_manufactured_catalog():
    doc = barenblatt_doc(
        geometry={"preset": "hyperbolic", "n": 2, "r_max": 2.0},
        solution={"kind": "manufactured", "catalog": "cosh-bump"},
    )
    doc["pde"].pop("nonlinearity")
    sc = parse_scenario(doc)
    assert sc.solution_kind == "manufactured"
    assert sc.nonlinearity.form == "separable-x"


BARENBLATT_SOLUTIONS = [
    {"kind": "barenblatt", "mass_const": 1.0},
    {"kind": "numeric", "base": "barenblatt", "mass_const": 1.0},
]


@pytest.mark.parametrize("solution", BARENBLATT_SOLUTIONS, ids=lambda s: s["kind"])
@pytest.mark.parametrize("change, path", [
    ({"pde": {"p": 2.0, "nonlinearity": {"form": "power-sum", "B": [-0.5], "b": [1.0]}}},
     "pde.nonlinearity"),
    ({"solution": {"mass_const": 0.01}}, "solution.mass_const"),
    ({"time": {"t0": 0, "duration": 1.0}}, "time.t0"),
])
def test_parse_barenblatt_oracle_rejections(solution, change, path):
    doc = barenblatt_doc(**{**change, "solution": {**solution, **change.get("solution", {})}})
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.path == path


@pytest.mark.parametrize("solution", BARENBLATT_SOLUTIONS, ids=lambda s: s["kind"])
def test_parse_barenblatt_oracle_kinds(solution):
    sc = parse_scenario(barenblatt_doc(solution=dict(solution)))
    assert sc.solution_kind == solution["kind"]
    assert sc.v_profile is not None and sc.pde is not None
    assert sc.nonlinearity.form == "zero"


BAD_VALUES = [
    ("solution.mass_const", "abc"), ("verification.radius", "abc"), ("geometry.r_max", "abc"),
    ("verification.radius", None), ("solution.mass_const", None), ("time.duration", None),
    ("pde.p", [2]),
    # a check that runs nothing is never a pass
    ("verification.variants", []), ("harnack.eps_fractions", []), ("verification.pairs", 0),
    # eps fractions outside (0, 1): the ceiling itself is not admissible; the
    # fractions are read under harnack only
    ("harnack.eps_fractions", [1.0]), ("harnack.eps_fractions", [0]),
    ("harnack.eps_fractions", [-0.5]), ("verification.eps_fractions", [0.5]),
    ("verification.sup_density", [1, 1]), ("verification.sup_density", 65),
    ("verification.eval_density", [1, 1]), ("verification.eval_density", 65),
    # settings that are constants of their checks, and preset spellings of the
    # rate keys, are unknown, at any value
    ("verification.tolerance_factor", -1), ("verification.harnack_tolerance_factor", -1),
    ("verification.tolerance_factor", 1e-6), ("verification.harnack_tolerance_factor", 1e-8),
    ("pde.floor_fraction", 1e-6), ("geometry.preset", "linear-warp(0.2)"),
    ("geometry.preset", "conformal-exp(0.1)"),
    # preset pairs read from tau = 0, where exp and linear start at alpha = 1
    # and coth (alpha) and linear (beta) are singular
    ("harnack.alpha", {"preset": "exp", "gamma": 1}),
    ("harnack.alpha", {"preset": "coth", "gamma": 1}),
    ("harnack.alpha", {"preset": "linear", "gamma": 1}),
    # at gamma 0 the exp preset is alpha == 1 on every clock
    ("harnack.alpha", {"preset": "exp", "gamma": 0, "clock_offset": 0.5}),
    # rates whose coefficients overflow: 2 gamma for exp, gamma**2 / 3 for linear
    ("harnack.alpha", {"preset": "exp", "gamma": 1e308}),
    ("harnack.alpha", {"preset": "linear", "gamma": 1e200, "clock_offset": 0.5}),
    # presets that are not names of a preset, and one that is not a string
    ("geometry.preset", "conformal-exp(1e)"), ("geometry.preset", "linear-warp(1e999)"),
    ("geometry.preset", 5),
    # a choice or an expression of the wrong type, and expression strings that
    # are not a finite expression in r and t
    ("solution.kind", ["barenblatt"]), ("solution.kind", {"kind": "barenblatt"}),
    ("solution.catalog", ["bump"]), ("solution.base", {"base": "manufactured"}),
    ("geometry.potential", None), ("geometry.potential", ["r"]),
    ("geometry.potential", True), ("geometry.potential", {"r": 1}),
    ("solution.expr", None), ("solution.expr", ["r"]), ("solution.expr", True),
    ("solution.expr", {"r": 1}), ("solution.expr", "r.foo"), ("solution.expr", "1/0"),
    ("geometry.potential", "lambda: 1"),
    # names outside r, t, pi, E and the functions with a series rule, a constant
    # that overflows or is complex, and ^, which Python reads as exclusive or
    ("solution.expr", "__import__('os').getcwd()"), ("geometry.potential", "tan(r)"),
    ("solution.expr", "1e400*r + 2"), ("solution.expr", "2 + 1j*r"),
    ("solution.expr", "2**2**2**2**2"), ("solution.expr", "2 + r^2"),
    # fields with no series at the pole, and an odd field whose closure
    # forcing has none
    ("solution.expr", "2 + sqrt(r**2)"), ("solution.expr", "cos(r)/r"),
    ("solution.expr", "2 + r"),
    # choices read from the geometry and pde objects, and a mode the warp does
    # not admit (the euclidean warp vanishes at r = 0, so it has no annulus)
    ("geometry.mode", "foo"), ("geometry.mode", ["pole"]), ("pde.boundary", "foo"),
    ("geometry", {"preset": "euclidean", "n": 2, "r_max": 2.0, "mode": "annulus"}),
    # power-sum terms that are not finite numbers, terms on form zero, and a
    # power-sum with no terms
    ("pde.nonlinearity.B", ["-0.5"]), ("pde.nonlinearity.B", [False]),
    ("pde.nonlinearity.b", [True]), ("pde.nonlinearity.b", ["1"]),
    ("pde.nonlinearity.A", [float("inf")]), ("pde.nonlinearity.B", [-float("inf")]),
    ("pde.nonlinearity.b", [float("nan")]), ("pde.nonlinearity.b", [1e999]),
    ("pde.nonlinearity.a", [2.0]), ("pde.nonlinearity", {"form": "power-sum"}),
    # a seed picks a block of the Harnack pairs' sequence by a non-negative
    # integer, and the scenario's name is a string
    ("seed", -3), ("name", ["a", {"b": 1}]), ("name", 3),
    # the pressure of a manufactured field is positive where the oracle reads it
    ("solution.expr", -1), ("solution.expr", "1 - r**2"),
    # each range refusal names its key: the solver's substeps and grid sizes,
    # and a synthetic dimension below the geometry's n = 2
    ("pde.substeps", "abc"), ("pde.substeps", 0), ("pde.grid.n_r", 5), ("pde.grid.n_t", 3),
    ("harnack.m", 1.5),
]

# the terms of a power-sum: every key but "a", which is set on the default
# form zero
POWER_SUM = {"form": "power-sum", "A": [1.0], "a": [-1.0], "B": [-0.5], "b": [1.0]}
TERM_KEYS = ("pde.nonlinearity.A", "pde.nonlinearity.B", "pde.nonlinearity.b")

# keys that only the manufactured or numeric kind reads, and the power-sum
# keys, which the self-similar oracle refuses
KIND_READING = {"solution.expr": "manufactured", "solution.catalog": "manufactured",
                "solution.base": "numeric", "pde.nonlinearity": "manufactured",
                **dict.fromkeys(TERM_KEYS, "manufactured")}


@pytest.mark.parametrize("key, value", BAD_VALUES, ids=lambda x: json.dumps(x))
def test_bad_config_value_rejected_with_key_path(tmp_path, capsys, key, value):
    doc = barenblatt_doc()
    doc["solution"]["kind"] = KIND_READING.get(key, "barenblatt")
    if key in TERM_KEYS:
        doc["pde"]["nonlinearity"] = dict(POWER_SUM)
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"configuration error: {key}: ")
    assert "Traceback" not in err


def test_overflowing_preset_rate_is_refused_as_gamma(tmp_path, capsys):
    # not as the expression 'inf' that the preset would print
    doc = barenblatt_doc(harnack={"m": 2.0, "alpha": {"preset": "exp", "gamma": 1e308}})
    assert main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "gamma" in err and "'inf'" not in err


def test_synthetic_dimension_below_n_names_its_key():
    # n = 3 on this config, so m = 2 passes the parameters' own m >= 2
    doc = json.loads((CONFIGS / "evolving-warp-identities.json").read_text())
    doc["harnack"]["m"] = 2.0
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.path == "harnack.m"


@pytest.mark.parametrize("command", ["check-estimate", "check-identities"])
def test_field_without_pole_series_names_its_key(tmp_path, capsys, command):
    # the partials the checks take at r = 0 are taken when the config is parsed
    doc = json.loads((CONFIGS / "powerlaw-static.json").read_text())
    doc["solution"]["expr"] = "2 + sqrt(r**2)"
    code = main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: solution.expr: no series at the pole r = 0")


@pytest.mark.parametrize("geometry, key", [
    ({"preset": "euclidean", "warp": "r"}, "geometry.warp"),
    ({"preset": "euclidean", "conformal": "exp(t/10)", "conformal_rate": 0.1},
     "geometry.conformal"),
    ({"warp": "1 + r", "warp_rate": 0.2}, "geometry.warp_rate"),
    ({"preset": "hyperbolic", "warp_rate": 0.2}, "geometry.warp_rate"),
], ids=lambda x: json.dumps(x))
def test_geometry_key_another_would_replace_rejected(tmp_path, capsys, geometry, key):
    doc = barenblatt_doc(geometry={"n": 2, "r_max": 2.0, **geometry})
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")


@pytest.mark.parametrize("beta", [0.5, "abc", None], ids=json.dumps)
def test_harnack_beta_beside_preset_alpha_rejected(tmp_path, capsys, beta):
    # a preset alpha comes with its own beta; a given one would be ignored
    doc = json.loads((CONFIGS / "gaussian-conformal.json").read_text())
    doc["harnack"].update(alpha={"preset": "exp", "gamma": 1, "clock_offset": 0.5}, beta=beta)
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "configuration error: harnack.beta: a preset alpha fixes beta")


@pytest.mark.parametrize("geometry, name", [
    ({"preset": "euclidean", "warp_rate": 0.2}, "euclidean warp_rate=0.2"),
    ({"preset": "gaussian-weight", "conformal_rate": 0.1, "potential_drift": 0.1},
     "gaussian-weight conformal_rate=0.1 potential_drift=0.1"),
    ({"preset": "gaussian-weight", "warp_rate": 0.2, "potential_drift": 0}, "gaussian-weight warp_rate=0.2"),
    ({"preset": "euclidean", "conformal_rate": 0.1}, "euclidean conformal_rate=0.1"),
    ({"warp": "sinh(r)", "conformal_rate": 0.05}, "custom conformal_rate=0.05"),
], ids=lambda x: json.dumps(x))
def test_geometry_named_as_the_config_spells_it(geometry, name):
    assert parse_geometry({"n": 2, "r_max": 2.0, **geometry}, m=4.0).name == name


def test_pole_warp_not_odd_at_the_pole_rejected(tmp_path, capsys):
    # psi = r + r^2 has psi(0) = 0 and psi_r(0) = 1, but psi_rr(0) = 2
    doc = barenblatt_doc(geometry={"n": 2, "r_max": 2.0, "warp": "r + r**2"},
                         solution={"kind": "manufactured", "catalog": "bump"})
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: geometry.warp: ") and "psi_rr(0,t) = 0" in err


@pytest.mark.parametrize("command", ["solve", "check-identities", "check-estimate",
                                     "check-harnack"])
def test_pole_warp_with_moving_slope_rejected_at_the_warp(tmp_path, capsys, command):
    # psi = r (1 + t/10) vanishes at the pole, but psi_r(0, t) = 1 + t/10
    doc = json.loads((CONFIGS / "evolving-warp-pole.json").read_text())
    doc["geometry"]["warp"] = "r*(1 + t/10)"
    code = main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("configuration error: geometry.warp: ") and "psi_r(0,t) = 1" in err


@pytest.mark.parametrize("potential, code", [("r", EXIT_CONFIG), ("cosh(r)", EXIT_OK)])
def test_pole_potential_must_be_even(tmp_path, capsys, potential, code):
    # phi = |x| = r is not smooth at the pole: phi_r(0, t) = 1 + t/10 under
    # the config's drift; an even drifting potential still runs
    doc = json.loads((CONFIGS / "gaussian-conformal.json").read_text())
    doc["geometry"]["potential"] = potential
    assert main(["check-identities", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert err.startswith("configuration error: geometry.potential: ") and "phi_r(0,t)" in err
    else:
        assert err == ""


@pytest.mark.parametrize("preset", sorted(GEOMETRY_PRESETS))
def test_shipped_presets_are_odd_at_the_pole(preset):
    geom = parse_geometry({"preset": preset, "n": 2, "r_max": 1.5, "mode": "pole"}, m=4.0)
    geom.validate_on(0.5, 1.5)


def test_zero_potential_with_a_drift_stays_constant():
    # 0*(1 + 0.1 t) reads no coordinate, so m = n is still admissible
    geom = parse_geometry({"preset": "euclidean", "n": 2, "r_max": 2.0,
                           "potential_drift": 0.1}, m=2.0)
    assert geom.potential.is_constant() and geom.family == "static-warp"


def test_sqrt_of_a_square_is_refused_at_parse_with_its_key(tmp_path, capsys):
    # sqrt(r**2) is |r|: it compiles, but a pole geometry needs its series at
    # r = 0, which the parse takes
    doc = barenblatt_doc(solution={"kind": "manufactured", "expr": "2 + sqrt(r**2)"})
    with pytest.raises(ConfigError) as info:
        parse_scenario(doc)
    assert info.value.path == "solution.expr"
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "singular at r = 0" in capsys.readouterr().err


def test_commands_make_no_symbolic_derivatives(tmp_path, monkeypatch):
    # every derivative comes from jets: no sympy.diff, cancel or together runs
    import sympy

    calls = []
    for name in ("diff", "cancel", "together"):
        def counted(*args, _name=name, _original=getattr(sympy, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(sympy, name, counted)
    out = tmp_path / "identities"
    assert main(["check-identities", "--config", str(CONFIGS / "evolving-warp-identities.json"),
                 "--out", str(out)]) == EXIT_OK
    assert main(["check-estimate", "--config", str(CONFIGS / "gaussian-conformal.json"),
                 "--out", str(tmp_path / "estimate")]) == EXIT_OK
    assert calls == []
    # the geometry is named by its preset and the rate keys the config gave
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[2] == "geometry: euclidean warp_rate=0.2 (evolving-warp, n=3, m=4)"


def test_sweep_cap_must_be_an_integer(tmp_path):
    doc = sweep_doc()
    doc["cap"] = "16"
    with pytest.raises(ConfigError) as err:
        run_sweep(doc, tmp_path)
    assert err.value.path == "sweep.cap"


def test_sweep_key_no_read_asks_for_rejected(tmp_path):
    # the sweep document goes through the scenario's reader
    with pytest.raises(ConfigError) as err:
        run_sweep({**sweep_doc(), "cpa": 4}, tmp_path)
    assert err.value.path == "sweep.cpa"


@pytest.mark.parametrize("change, key", [
    (5, "sweep"), ([], "sweep"), ("sweep", "sweep"),
    ({"axes": [1]}, "sweep.axes"), ({"axes": "pde.p"}, "sweep.axes"),
    ({"cap": 0}, "sweep.cap"), ({"cap": -2}, "sweep.cap"),
], ids=json.dumps)
def test_sweep_document_of_the_wrong_shape_names_its_key(tmp_path, capsys, change, key):
    # a document or axes that is not an object, and a cap below 1, are
    # refused at their key before any combination runs
    doc = {**sweep_doc(), **change} if isinstance(change, dict) else change
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "check-identities", "check-estimate",
                                     "check-harnack"])
@pytest.mark.parametrize("text", ["[]", "3", '"x"', "null"])
def test_scenario_that_is_not_an_object_names_its_file(tmp_path, capsys, command, text):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: {cfg}: expected a JSON object, got ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "check-identities", "check-estimate",
                                     "check-harnack", "sweep"])
def test_malformed_config_json_is_a_config_error(tmp_path, capsys, command):
    # every command reads its file through one loader, which names the file;
    # bytes that are not UTF-8 (a UTF-16 byte order mark) are invalid JSON too
    cfg = tmp_path / "config.json"
    for payload in (b'{"template": ', b"\xff\xfe\x00"):
        cfg.write_bytes(payload)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {cfg}: invalid JSON")


# ---------------------------------------------------------------------------
# CSV writer
# ---------------------------------------------------------------------------

def _per_cell_csv(path, header, rows):
    """The per-cell writer ``_write_csv`` replaced: the reference for its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(x) for x in row])


def test_write_csv_matches_per_cell_writer(tmp_path):
    n = 2 * cli._CSV_CHUNK_ROWS + 17
    rng = np.random.default_rng(5)
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e16, 0.1, 1 / 3, 123456789012.5]
    drawn = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-20, 21, n)
    floats = (special + drawn.tolist())[:n]
    # 0.0 and -0.0, or 1 and True, are equal keys but print differently; a
    # "%" in a cell is text, not a format
    others = [1, 0, True, False, "", -0.0, 0.0, 2.5, np.nan, "a,b", 'say "hi"', 'say "x,y"',
              "100%", "two\nlines", "cr\rhere", "evolution-inequality[pointwise,sharp-static]",
              "pass", None]
    labels = [others[i % len(others)] for i in range(n)]
    mixed = [float(i) / 7 if i % 3 else i for i in range(n)]
    header = ("x", "label", "y", "mixed, quoted")
    rows = np.rec.fromarrays([np.array(floats), cli._objects(labels), np.array(floats[::-1]),
                              cli._objects(mixed)], names=header)
    cli._write_csv(tmp_path / "new.csv", rows)
    assert len(rows) == n
    _per_cell_csv(tmp_path / "old.csv", header, zip(floats, labels, floats[::-1], mixed))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a table of no rows is its header
    cli._write_csv(tmp_path / "empty.csv", rows[:0])
    assert (tmp_path / "empty.csv").read_bytes() == b'x,label,y,"mixed, quoted"\r\n'


def test_write_csv_streams_in_chunks(tmp_path):
    # 24,000 rows: a label and an eps column that repeat one value, three
    # float columns and an object column cycling through values that are
    # equal as keys but print apart.  Under tracemalloc (CPython 3.11) the
    # writer peaked at 0.3 MB in 1,024-row chunks, 4,096-row chunks at
    # 1.2 MB, 16,384-row chunks at 4.7 MB and all rows at once at 6.8 MB.
    n = 24_000
    rng = np.random.default_rng(3)
    x, y, z = (rng.standard_normal(n) for _ in range(3))
    cycle = [0.0, -0.0, 1, True, "a,b"]
    mixed = cli._objects(cycle[i % len(cycle)] for i in range(n))
    header = ("variant", "x", "eps", "y", "z", "mixed")
    rows = np.rec.fromarrays([cli._objects(["first-global"] * n), x, np.full(n, 0.25), y, z,
                              mixed], names=header)
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "table.csv", rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with open(tmp_path / "table.csv", newline="") as fh:
        written = list(csv.reader(fh))
    assert len(written) == n + 1
    assert [row[1] for row in written[1:]] == [f"{value:.12g}" for value in x.tolist()]
    assert [row[-1] for row in written[1:]] == [cli._fmt(value) for value in mixed]


def test_write_csv_error_leaves_no_file(tmp_path):
    # a cell of the second chunk fails to print: neither the file nor its
    # .partial stays behind
    class Unprintable:
        def __str__(self):
            raise RuntimeError("unprintable cell")

    n = 2 * cli._CSV_CHUNK_ROWS
    labels = ["ok"] * n
    labels[cli._CSV_CHUNK_ROWS + 5] = Unprintable()
    rows = np.rec.fromarrays([np.arange(n, dtype=float), cli._objects(labels)],
                             names=("x", "label"))
    with pytest.raises(RuntimeError, match="unprintable cell"):
        cli._write_csv(tmp_path / "table.csv", rows)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_workers_flag_only_on_sweep(tmp_path):
    cfg = write_config(tmp_path, barenblatt_doc())
    with pytest.raises(SystemExit) as err:
        main(["check-estimate", "--config", cfg, "--out", str(tmp_path / "out"),
              "--workers", "2"])
    assert err.value.code == 2


def test_check_estimate_computes_scope_constants_once(tmp_path, monkeypatch):
    # bounds and samples depend only on the scope (2 of them by default), and
    # the sup-quantities of every report on a scope (2 variants x 3 eps) are
    # reduced in one pass over its sup blocks
    calls = {"extract_bounds": 0, "collect_sup_samples": 0, "reduce_suprema": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(estimates, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(estimates, name, counted)
    reports = []

    def recorded(*args, _fn=estimates.verify_estimate, **kwargs):
        reports.append(_fn(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(estimates, "verify_estimate", recorded)
    sc = parse_scenario(barenblatt_doc())
    _, _, failures = cmd_check_estimate(sc, tmp_path / "out")
    assert failures == 0
    assert calls == {"extract_bounds": 2, "collect_sup_samples": 2, "reduce_suprema": 2}
    assert len(reports) == 12

    monkeypatch.undo()
    ver = sc.verification
    cyl = Cylinder(ver["radius"], sc.t0, sc.t_hi)
    for rep in reports:
        scope = estimates.EstimateScope(
            sc.solution_handle(), sc.geom, sc.params, sc.nonlinearity, cyl, sc.t0,
            estimates.variant_kind(rep.variant)[1], density=ver["sup_density"],
        ).with_nodes(ver["eval_density"])
        alone = estimates.verify_estimate(scope, rep.variant, eps=rep.eps)
        assert np.array_equal(rep.margin, alone.margin), (rep.variant, rep.eps)


def test_check_identities_builds_one_term_table(tmp_path, monkeypatch):
    builds = []

    def counted(self, *args, _init=identities.TermTable.__init__, **kwargs):
        builds.append(1)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(identities.TermTable, "__init__", counted)
    _, _, failures = cmd_check_identities(parse_scenario(barenblatt_doc()), tmp_path / "out")
    assert failures == 0
    assert len(builds) == 1


def _commutator_rows(out):
    lines = [line for line in (out / "summary.txt").read_text().splitlines()
             if "evolving-metric-commutator" in line]
    checks = [c for c in json.loads((out / "summary.json").read_text())["checks"]
              if c["name"] == "evolving-metric-commutator"]
    with open(out / "residuals.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["check"] == "evolving-metric-commutator"]
    return lines, checks, rows


@pytest.mark.parametrize("config", ["gaussian-conformal", "evolving-warp-identities"])
def test_check_identities_gates_one_commutator_convention(tmp_path, config):
    out = tmp_path / "out"
    assert main(["check-identities", "--config", str(CONFIGS / f"{config}.json"),
                 "--out", str(out)]) == EXIT_OK
    lines, checks, rows = _commutator_rows(out)
    assert len(lines) == len(checks) == len(rows) == 1
    assert lines[0].endswith("pass") and rows[0]["status"] == "pass"
    assert checks[0]["max"] <= 1e-9 and checks[0]["threshold"] == 1e-9


def test_commutator_gate_fails_on_the_reference_orientation(tmp_path, monkeypatch):
    # (+,+,+,+) misses the commutator on the conformal family by about 0.1
    monkeypatch.setattr(identities, "COMMUTATOR_SIGNS", (1, 1, 1, 1))
    out = tmp_path / "out"
    assert main(["check-identities", "--config", str(CONFIGS / "gaussian-conformal.json"),
                 "--out", str(out)]) == EXIT_VIOLATION
    lines, checks, rows = _commutator_rows(out)
    assert lines[0].endswith("FAIL") and rows[0]["status"] == "FAIL"
    assert checks[0]["max"] > 1e-3
    assert json.loads((out / "summary.json").read_text())["failed"] == 1


def test_cli_config_error_exit(tmp_path):
    doc = barenblatt_doc(harnack={"m": 2.0, "alpha": 0.5})
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_cli_io_error_exit(tmp_path):
    code = main(["check-estimate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 4


def test_cli_internal_error_exit(tmp_path, monkeypatch, capsys):
    # an unexpected exception is exit 5 with one line on stderr, not a
    # traceback; a ValueError that is none of the package's refusals included
    for exc in (RuntimeError("boom"), ValueError("boom")):
        def broken(sc, out):
            raise exc

        monkeypatch.setattr(cli, "cmd_check_harnack", broken)
        code = main(["check-harnack", "--config", write_config(tmp_path, barenblatt_doc()),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INTERNAL == 5
        assert err == f"internal error: {type(exc).__name__}: boom\n"
        assert "Traceback" not in err


def test_cli_arithmetic_error_is_numerical_failure(tmp_path, capsys):
    # p = 1e308 divides by zero in the Barenblatt support radius
    doc = barenblatt_doc()
    doc["pde"]["p"] = 1e308
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: float division by zero\n"


def test_cli_estimate_pass_and_negative_control(tmp_path):
    doc = barenblatt_doc(
        harnack={"m": 2.0, "alpha": 1.2},
        time={"t0": 1.0, "duration": 9.0},
        verification={"radius": 0.9, "variants": ["first-global"]},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["check-estimate", "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_OK
    code = main(["check-estimate", "--config", cfg, "--out", str(tmp_path / "nc"),
                 "--negative-control"])
    assert code == EXIT_VIOLATION
    payload = json.loads((tmp_path / "nc" / "summary.json").read_text())
    assert payload["violations"] > 0
    assert payload["negative_control"] is True


@pytest.mark.parametrize("case, count", [
    ("solve barenblatt", None),
    ("check-identities barenblatt", "failed"),
    ("check-estimate barenblatt", "violations"),
    ("check-estimate negative-control --negative-control", "violations"),
    ("check-harnack barenblatt", "violations"),
    ("sweep sweep-p-alpha", "violations"),
])
def test_exit_code_follows_the_summary_failure_count(tmp_path, case, count):
    # one rule for every command: exit 1 exactly when the failure count that
    # summary.json records is positive (solve counts none)
    command, config, *flags = case.split()
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), *flags]
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    payload = json.loads((out / "summary.json").read_text())
    failures = 0 if count is None else payload[count]
    assert isinstance(failures, int)
    assert code == (EXIT_VIOLATION if failures > 0 else EXIT_OK)
    if flags == ["--negative-control"]:
        assert code == EXIT_VIOLATION


def test_violation_counts_match_report_rows(tmp_path):
    # every node below -tolerance counts, not only the first 200 of a report
    cfg = CONFIGS / "negative-control.json"
    out = tmp_path / "nc"
    code = main(["check-estimate", "--config", str(cfg), "--out", str(out),
                 "--negative-control"])
    assert code == EXIT_VIOLATION
    payload = json.loads((out / "summary.json").read_text())
    counts = []
    for rep, made in zip(payload["reports"], estimates.estimate_matrix(load_scenario(cfg),
                                                                       rhs_scale=0.5),
                         strict=True):
        counts.append(int(np.count_nonzero(made.margin < -made.summary["tolerance"])))
        assert rep["violations"] == counts[-1]
    assert payload["violations"] == sum(counts) > 200 * len(counts)
    summary = (out / "summary.txt").read_text()
    assert f"total violations: {sum(counts)}" in summary


@pytest.mark.parametrize("config", ["barenblatt", "numeric-gaussian"])
def test_report_rows_are_each_reports_worst_nodes(tmp_path, config):
    # report.csv keeps, in node order, the union of each report's 8 least
    # margins and 8 largest lhs/rhs, ties broken toward the earlier node
    out = tmp_path / "out"
    cfg = CONFIGS / f"{config}.json"
    assert main(["check-estimate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "summary.json").read_text())
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fmt = cli._fmt
    seen = 0
    for rep, made in zip(payload["reports"], estimates.estimate_matrix(load_scenario(cfg)),
                         strict=True):
        key = (rep["variant"], "" if rep["eps"] is None else fmt(rep["eps"]))
        kept = [row for row in rows if (row["variant"], row["eps"]) == key]
        seen += len(kept)
        k = cli._REPORT_NODES
        worst = np.union1d(np.argsort(made.margin, kind="stable")[:k],
                           np.argsort(-made.scope.lhs / made.rhs, kind="stable")[:k])
        assert k <= len(kept) == len(worst) <= 2 * k == 16
        scope = made.scope
        assert [[row[name] for name in ("r", "t", "lhs", "rhs", "margin")] for row in kept] == \
            [[fmt(values[i]) for values in (scope.r, scope.t_abs, scope.lhs, made.rhs,
                                             made.margin)] for i in worst.tolist()]
        imin = int(np.argmin(made.margin))
        least = min(kept, key=lambda row: float(row["margin"]))
        assert (least["r"], least["margin"]) == (fmt(rep["argmin_r"]), fmt(rep["min_margin"]))
        assert (least["t"], fmt(rep["argmin_tau"])) == (fmt(scope.t_abs[imin]),
                                                        fmt(scope.tau[imin]))
    assert seen == len(rows)


def test_check_estimate_error_after_a_written_report_leaves_no_report(tmp_path, capsys):
    # report.csv is written once every report is made; the static form,
    # refused on x-dependent forcing, fails after the first report was made
    doc = json.loads((CONFIGS / "gaussian-conformal.json").read_text())
    doc["verification"]["variants"] = ["first-local", "static-first-local"]
    out = tmp_path / "out"
    code = main(["check-estimate", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "static estimate forms require x-independent forcing" in capsys.readouterr().err
    assert not (out / "report.csv").exists() and not (out / "report.csv.partial").exists()


def test_cli_identities(tmp_path):
    cfg = write_config(tmp_path, barenblatt_doc())
    out = tmp_path / "id"
    assert main(["check-identities", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "residuals.csv").exists()


def test_report_command_is_gone(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["report", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_cli_harnack(tmp_path):
    cfg = write_config(tmp_path, barenblatt_doc())
    out = tmp_path / "har"
    assert main(["check-harnack", "--config", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "pairs.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 40  # both families


@pytest.mark.parametrize("case", ["wide-domain", "shipped-seed-40"])
def test_cli_harnack_bound_overflow_exits_by_verdict(tmp_path, capsys, case):
    # exp of the bound's exponent overflows on some pairs; the margins stay
    # in log space and the command exits by its verdict, without a traceback
    if case == "wide-domain":
        doc = barenblatt_doc(geometry={"preset": "euclidean", "n": 2, "r_max": 10.0},
                             solution={"kind": "barenblatt", "mass_const": 10.0},
                             verification={"radius": 0.9, "pairs": 400})
        args = ["--config", write_config(tmp_path, doc)]
    else:
        args = ["--config", str(CONFIGS / "barenblatt.json"), "--seed", "40"]
    out = tmp_path / "har"
    assert main(["check-harnack", *args, "--out", str(out)]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "pairs.csv") as fh:
        assert any(row["bound"] == "inf" for row in csv.DictReader(fh))


@pytest.mark.parametrize("case", ["negative-seed"])
def test_cli_harnack_refuses_pairs_it_cannot_draw(tmp_path, capsys, case):
    # a negative seed picks no block of the sequence
    code = main(["check-harnack", "--config", str(CONFIGS / "barenblatt.json"),
                 "--seed", "-3", "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: --seed: ")


@pytest.mark.parametrize("case", ["short-clock", "near-gap-clock"])
def test_cli_harnack_pairs_follow_the_clock(tmp_path, case):
    # the least time gap is 1e-3 of the clock, so a clock of any length holds
    # pairs, each at least the gap apart, and none is redrawn
    doc = json.loads((CONFIGS / "barenblatt.json").read_text())
    duration = doc["time"]["duration"] = 0.001 if case == "short-clock" else 0.00102
    out = tmp_path / "out"
    started = time.perf_counter()
    code = main(["check-harnack", "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert time.perf_counter() - started < 5.0
    assert code in (EXIT_OK, EXIT_VIOLATION)
    with open(out / "pairs.csv") as fh:
        gaps = [float(row["tau2"]) - float(row["tau1"]) for row in csv.DictReader(fh)]
    assert len(gaps) == 240 and min(gaps) >= 1e-3 * duration


def test_non_finite_identity_row_exits_numerical(tmp_path, capsys, monkeypatch):
    # a NaN residual is neither a pass nor a violation, and the run says so
    # in one line, with no numpy warning
    def nan_residual(*args, _original=cli.harnack_evolution_residual, **kwargs):
        resid, table = _original(*args, **kwargs)
        return np.full_like(resid, np.nan), table

    monkeypatch.setattr(cli, "harnack_evolution_residual", nan_residual)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["check-identities", "--config", str(CONFIGS / "powerlaw-static.json"),
                     "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(
        "numerical failure: check-identities harnack-evolution-identity: value nan")
    assert not out.exists()


def _powerlaw_static(tmp_path, duration):
    doc = json.loads((CONFIGS / "powerlaw-static.json").read_text())
    doc["time"]["duration"] = duration
    return write_config(tmp_path, doc)


def _passes_clean(tmp_path, command, duration):
    """Run ``command`` on powerlaw-static at ``duration`` with numpy warnings
    as errors; it must exit 0 and write finite summaries."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", _powerlaw_static(tmp_path, duration), "--out", str(out)])
    assert code == EXIT_OK
    numbers = [float(x) for x in re.findall(r"[-+]?\d+\.\d+e[-+]\d+",
                                            (out / "summary.txt").read_text())]
    assert numbers and np.all(np.isfinite(numbers))
    json.loads((out / "summary.json").read_text(),
               parse_constant=lambda name: pytest.fail(f"summary.json holds {name}"))


@pytest.mark.parametrize("command", ["check-identities", "check-estimate", "check-harnack"])
def test_tiny_pressure_passes_with_finite_summaries(tmp_path, command):
    # at duration 1000 the pressure 2 exp(-t/2) of powerlaw-static is near
    # 1e-217 and its square underflows; no check divides by that square
    _passes_clean(tmp_path, command, 1000)


@pytest.mark.parametrize("command", ["check-identities", "check-estimate", "check-harnack"])
def test_pressure_near_the_least_normal_float_passes_clean(tmp_path, command):
    # at duration 1400 the pressure is near 1e-304, above the least normal
    # float, below which the parse refuses it
    _passes_clean(tmp_path, command, 1400)


def test_non_finite_supremum_exits_numerical(tmp_path, capsys, monkeypatch):
    # a sup bracket's maximum is checked before the clamp max(0.0, .), which
    # would read a NaN as 0.0 and pass
    def nan_at_one_node(self, t, r, v, _original=Nonlinearity.partials):
        *parts, G_vv = _original(self, t, r, v)
        G_vv = np.array(G_vv)
        G_vv.flat[0] = np.nan
        return (*parts, G_vv)

    monkeypatch.setattr(Nonlinearity, "partials", nan_at_one_node)
    code = main(["check-estimate", "--config", str(CONFIGS / "powerlaw-static.json"),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.count("\n") == 1 and err.startswith(
        "numerical failure: sup quantities of the first family at eps=")


@pytest.mark.parametrize("command", ["solve", "check-identities", "check-estimate",
                                     "check-harnack"])
@pytest.mark.parametrize("keys, code, err", [
    # the pressure 2 exp(-t/2) underflows to 0 by the last time
    ({"duration": 2000}, EXIT_NUMERICAL,
     "numerical failure: time.duration: the pressure underflows to 0 at t = 2001\n"),
    ({"duration": 2.0, "expr": "2 - t"}, EXIT_CONFIG,
     "configuration error: solution.expr: the pressure must be positive, and is not at t = 3\n"),
    # ... and is subnormal by the last time, where 2 / v overflows
    ({"duration": 1450}, EXIT_NUMERICAL,
     "numerical failure: time.duration: the pressure underflows below the least normal "
     "float at t = 1451\n"),
], ids=["underflow", "negative", "subnormal"])
def test_pressure_at_the_last_time_is_refused_at_its_key(tmp_path, capsys, command, keys,
                                                         code, err):
    doc = json.loads((CONFIGS / "powerlaw-static.json").read_text())
    doc["time"]["duration"] = keys["duration"]
    doc["solution"]["expr"] = keys.get("expr", doc["solution"]["expr"])
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check-identities", "check-estimate",
                                     "check-harnack"])
def test_sweep_document_refused_by_scenario_commands(tmp_path, capsys, command):
    code = main([command, "--config", str(CONFIGS / "sweep-p-alpha.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: template: this is a sweep "
                                       "document; run it with the sweep command\n")


def test_cli_solve_writes_solution(tmp_path):
    cfg = write_config(tmp_path, barenblatt_doc())
    out = tmp_path / "solve"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "r,t,u,v"
    payload = json.loads((out / "summary.json").read_text())
    assert float(payload["oracle_interior_error"]) < 5e-3


def test_cli_solve_neumann_zero_reports_mass_drift(tmp_path):
    doc = barenblatt_doc()
    doc["pde"]["boundary"] = "neumann-zero"
    out = tmp_path / "solve"
    assert main(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == EXIT_OK
    payload = json.loads((out / "summary.json").read_text())
    assert 0 <= float(payload["mass_drift"]) < 1e-12
    assert "weighted-mass relative drift" in (out / "summary.txt").read_text()


def test_cli_harnack_rejects_preset_alpha(tmp_path, capsys):
    # the integrated inequality is stated for constant alpha
    doc = barenblatt_doc(
        geometry={"preset": "hyperbolic", "n": 2, "r_max": 2.0},
        harnack={"m": 2.0, "alpha": {"preset": "exp", "gamma": 0.3, "clock_offset": 0.5}},
        solution={"kind": "manufactured", "catalog": "cosh-bump"},
    )
    doc["pde"].pop("nonlinearity")
    code = main(["check-harnack", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: harnack.alpha: ")


def test_cli_determinism(tmp_path):
    cfg = write_config(tmp_path, barenblatt_doc())
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["check-estimate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["check-estimate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_cli_harnack_determinism_same_seed(tmp_path):
    cfg = write_config(tmp_path, barenblatt_doc())
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    assert main(["check-harnack", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["check-harnack", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "pairs.csv").read_bytes() == (out2 / "pairs.csv").read_bytes()


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep_doc():
    template = barenblatt_doc(verification={"radius": 0.9, "variants": ["first-global"]})
    template["harnack"]["eps_fractions"] = [0.5]
    return {
        "template": template,
        "axes": {"pde.p": [1.5, 2.0, 3.0], "harnack.alpha": [1.5, 2.0, 4.0]},
        "cap": 16,
        "command": "check-estimate",
    }


def test_sweep_rows_and_determinism(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_doc()))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    lines = (out1 / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "pde.p,harnack.alpha,min_margin,violations,runtime_s"
    assert len(lines) == 1 + 9
    assert main(["sweep", "--config", str(cfg), "--out", str(out2),
                 "--workers", "3"]) == EXIT_OK
    strip = lambda text: ["," .join(l.split(",")[:-1]) for l in text.strip().splitlines()]
    # runtime column varies; the payload rows must match exactly
    assert strip((out1 / "sweep.csv").read_text()) == strip((out2 / "sweep.csv").read_text())


def test_sweep_empty_axis_rejected(tmp_path):
    doc = sweep_doc()
    doc["axes"]["pde.p"] = []
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_sweep_axis_through_a_number_rejected(tmp_path, capsys):
    # harnack.alpha is a number in the template, so it has no gamma to set
    doc = sweep_doc()
    doc["axes"] = {"harnack.alpha.gamma": [0.3, 0.5]}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "configuration error: sweep.axes.harnack.alpha.gamma: ")


def test_sweep_cap_enforced(tmp_path):
    doc = sweep_doc()
    doc["cap"] = 4
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG


def test_parameterized_geometry_presets():
    doc = barenblatt_doc(
        geometry={"preset": "euclidean", "conformal_rate": 0.1, "n": 2, "r_max": 2.0},
        solution={"kind": "manufactured", "catalog": "bump"},
        verification={"radius": 0.5},
    )
    doc["pde"].pop("nonlinearity")
    sc = parse_scenario(doc)
    assert sc.geom.family == "conformal-evolving"
    doc2 = barenblatt_doc(
        geometry={"preset": "euclidean", "warp_rate": 0.2, "n": 3, "r_max": 2.0},
        harnack={"m": 3.0, "alpha": 2.0},
        solution={"kind": "manufactured", "catalog": "bump"},
        verification={"radius": 0.4},
    )
    doc2["pde"].pop("nonlinearity")
    sc2 = parse_scenario(doc2)
    assert sc2.geom.family == "evolving-warp"
    assert sc2.geom.mode == "annulus"


@pytest.mark.parametrize("command", ["solve", "check-identities", "check-estimate",
                                     "check-harnack"])
def test_warp_evolving_under_a_moving_conformal_factor_passes_clean(tmp_path, command):
    # evolving-warp-identities under a(t) = exp(t/10), with numpy warnings as
    # errors; check-identities' commutator and evolution rows pass at roundoff
    doc = json.loads((CONFIGS / "evolving-warp-identities.json").read_text())
    doc["geometry"]["conformal_rate"] = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_overflowing_u_is_reported_by_the_solve_alone(tmp_path, capsys):
    # at n = m = 3 and p = 1.01, u = (...)^100 overflows at t0 while the
    # pressure stays finite: the parse warns nothing, and only the solve,
    # which reads u, is refused, naming the key; check-identities' exit 1 is
    # its pressure row at 3.2e-9, roundoff at a pressure near 1e8
    doc = json.loads((CONFIGS / "barenblatt.json").read_text())
    doc["geometry"]["n"], doc["harnack"]["m"], doc["pde"]["p"] = 3, 3.0, 1.01
    doc["solution"]["mass_const"] = 1e6
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = {command: main([command, "--config", cfg, "--out", str(tmp_path / command)])
                 for command in ("solve", "check-identities", "check-estimate", "check-harnack")}
    assert codes == {"solve": EXIT_NUMERICAL, "check-identities": EXIT_VIOLATION,
                     "check-estimate": EXIT_OK, "check-harnack": EXIT_OK}
    assert capsys.readouterr().err == \
        "numerical failure: solution.mass_const: u at t0 = 1 is not finite\n"


def test_barenblatt_oracle_is_not_refused_by_roundoff(tmp_path):
    # at n = 5, p = 1.5 and mass_const = 1e6 the pressure is near 3e6 and its
    # equation's residual is roundoff near 1e-9, which check-identities gates
    doc = barenblatt_doc(geometry={"preset": "euclidean", "n": 5, "r_max": 2.0},
                         harnack={"m": 5.0, "alpha": 2.0})
    doc["pde"]["p"] = 1.5
    doc["solution"]["mass_const"] = 1e6
    assert main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == EXIT_OK


def test_static_variant_guard_maps_to_config_exit(tmp_path):
    doc = barenblatt_doc(
        geometry={"preset": "hyperbolic", "n": 2, "r_max": 2.0},
        solution={"kind": "manufactured", "catalog": "cosh-bump"},
        verification={"radius": 0.9, "variants": ["static-first-global"]},
    )
    doc["pde"].pop("nonlinearity")
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["check-estimate", "check-harnack", "check-identities"])
def test_local_cylinder_that_does_not_fit_refused_at_radius(tmp_path, capsys, command):
    # a local variant samples Q_2R, which at radius 1.2 reaches past r_max = 2
    doc = json.loads((CONFIGS / "barenblatt.json").read_text())
    doc["verification"]["radius"] = 1.2
    code = main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: verification.radius: cylinder of radius 2.4 reaches "
        "coordinate radius 2.4 > r_max = 2.0\n")


def test_global_variants_need_no_doubled_cylinder(tmp_path):
    doc = barenblatt_doc(verification={"radius": 1.2, "variants": ["first-global"]})
    code = main(["check-estimate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_preset_alpha_scenario_with_clock_offset(tmp_path):
    doc = barenblatt_doc(
        geometry={"preset": "hyperbolic", "n": 2, "r_max": 2.0},
        harnack={"m": 2.0, "alpha": {"preset": "exp", "gamma": 0.3, "clock_offset": 0.5}},
        solution={"kind": "manufactured", "catalog": "cosh-bump"},
        verification={"radius": 0.9, "variants": ["first-local", "first-global"]},
    )
    doc["pde"].pop("nonlinearity")
    cfg = write_config(tmp_path, doc)
    assert main(["check-estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_preset_alpha_eps_fraction_near_one_is_admissible(tmp_path):
    # the eps scan takes its ceiling on the clock times the admissibility
    # check reads (from tau = 0, where the preset's ceiling is smallest)
    doc = json.loads((CONFIGS / "gaussian-conformal.json").read_text())
    doc["harnack"]["alpha"] = {"preset": "exp", "gamma": 1, "clock_offset": 0.5}
    doc["harnack"]["eps_fractions"] = [0.999]
    cfg = write_config(tmp_path, doc)
    assert main(["check-estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


def test_preset_alpha_without_offset_rejected_for_estimates(tmp_path, capsys):
    doc = barenblatt_doc(
        geometry={"preset": "hyperbolic", "n": 2, "r_max": 2.0},
        harnack={"m": 2.0, "alpha": {"preset": "exp", "gamma": 0.3}},
        solution={"kind": "manufactured", "catalog": "cosh-bump"},
        verification={"radius": 0.9, "variants": ["first-global"]},
    )
    doc["pde"].pop("nonlinearity")
    cfg = write_config(tmp_path, doc)
    # alpha reaches 1 at the window start, so no eps is admissible: refused
    # when the config is read, at its key
    assert main(["check-estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: harnack.alpha: alpha must exceed 1")
    assert "clock_offset" in err
    assert not (tmp_path / "out").exists()


def test_cli_numerical_failure_exit(tmp_path):
    # an oracle that overflows during the solve must map to exit code 3
    doc = barenblatt_doc(
        solution={"kind": "numeric", "base": "manufactured", "expr": "exp(500*t) + 2"},
        geometry={"preset": "euclidean", "n": 2, "r_max": 2.0},
        time={"t0": 0.0, "duration": 2.0},
    )
    doc["pde"].pop("nonlinearity")
    code = main(["solve", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_solve_and_numeric_check_never_load_scipy(tmp_path):
    # the solver's tridiagonal step is numpy and Python floats; scipy is a
    # test oracle only
    cfg = str(CONFIGS / "numeric-gaussian.json")
    code = "\n".join([
        "import sys, harnacklab.cli as cli",
        *(f"assert cli.main([{cmd!r}, '--config', {cfg!r}, '--out', {str(tmp_path / cmd)!r}]) == 0"
          for cmd in ("solve", "check-estimate")),
        "print('scipy' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "False"


def test_cli_commands_never_load_sympy(tmp_path):
    # expressions are compiled from their strings and the Harnack pairs are
    # a Kronecker design in integer arithmetic: sympy and numpy.random are
    # test oracles only.
    # The thread pool is imported by a sweep with --workers > 1 only.
    modules = ["sympy", "numpy.random", "concurrent.futures"]
    runs = [["check-estimate", "--config", str(CONFIGS / "gaussian-conformal.json")],
            ["check-identities", "--config", str(CONFIGS / "evolving-warp-identities.json")],
            ["check-harnack", "--config", str(CONFIGS / "barenblatt.json")],
            ["sweep", "--config", str(CONFIGS / "sweep-p-alpha.json")]]
    code = "\n".join([
        "import sys, harnacklab.cli as cli",
        f"loaded = lambda: [name for name in {modules!r} if name in sys.modules]",
        "runs = [(0, loaded())]",
        *(f"runs.append((cli.main({argv + ['--out', str(tmp_path / str(i))]!r}), loaded()))"
          for i, argv in enumerate(runs)),
        "print(runs)"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == repr([(EXIT_OK, [])] * (1 + len(runs)))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _traced_peak(command, *args):
    """The tracemalloc peak of ``command(*args)`` in bytes, and its result."""
    tracemalloc.start()
    try:
        result = command(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_check_estimate_memory_is_bounded(tmp_path, monkeypatch):
    # On configs/numeric-gaussian.json, after the solve, holding every sup
    # sample and every report until report.csv was written peaked at 16.1 MB
    # under tracemalloc (CPython 3.11) with a stand-in writer that formatted
    # no rows; reducing the suprema block by block and keeping only each
    # report's worst nodes peaks at 5.2 MB with the real writer.
    sc = load_scenario(CONFIGS / "numeric-gaussian.json")
    solved = sc.run_solver()
    monkeypatch.setattr(sc, "run_solver", lambda: solved)
    peak, (_, payload, failures) = _traced_peak(cmd_check_estimate, sc, tmp_path / "out")
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert failures == 0 and len(written) == 2 * cli._REPORT_NODES * len(payload["reports"])
    assert peak <= 16.1 * 2**20 / 2


def test_check_harnack_memory_is_bounded(tmp_path, monkeypatch):
    # On configs/numeric-gaussian.json, after the solve, check-harnack held
    # the global scope's sup samples whole: it peaked at 7.9 MB under
    # tracemalloc (CPython 3.11), and reducing both families' suprema in one
    # pass over the sup blocks peaks at 3.5 MB
    sc = load_scenario(CONFIGS / "numeric-gaussian.json")
    solved = sc.run_solver()
    monkeypatch.setattr(sc, "run_solver", lambda: solved)
    peak, (_, _, failures) = _traced_peak(cli.cmd_check_harnack, sc, tmp_path / "out")
    assert failures == 0
    assert peak <= 7.9 * 2**20 / 2
