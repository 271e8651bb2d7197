"""Scenario configuration: JSON documents -> validated computational setups.

A scenario bundles a geometry, a pressure field (exact oracle, manufactured
closed form, or numeric solve), the Harnack parameters and the verification
settings.  Unknown keys are rejected with the path to the offending key so
configuration typos fail loudly.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid
from .geometry import MODES, GeometryError, WarpedGeometry
from .identities import AnalyticSolution, GridSolution
from .jets import PoleEvaluationError
from .params import (AlphaBeta, HarnackParams, ParamError, constant_alpha_beta,
                     preset_alpha_beta)
from .solver import (BOUNDARY_POLICIES, Nonlinearity, PdeParams, SolveResult, SolverError,
                     barenblatt_oracle, barenblatt_pressure_profile,
                     barenblatt_support_radius, manufactured_forcing, pressure_inverse,
                     solve, validate_barenblatt)
from .symfun import ExpressionError, Profile


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _check_keys(doc: dict, allowed, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return doc[key]


def read_number(value, where: str, integer: bool = False, above=None, at_least=None,
                below=None):
    """A config value as a finite float (an int when ``integer``), range-checked.

    Strings, null, lists and booleans are rejected with the key path, so a
    bad value never reaches the numeric layers as a TypeError.
    """
    kind = int if integer else (int, float)
    # the magnitude test also rejects nan, +-inf and ints beyond float range
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(where, f"expected a finite {'integer' if integer else 'number'}, "
                                 f"got {value!r}")
    if above is not None and not value > above:
        raise ConfigError(where, f"must exceed {above:g} (got {value:g})")
    if at_least is not None and not value >= at_least:
        raise ConfigError(where, f"must be >= {at_least:g} (got {value:g})")
    if below is not None and not value < below:
        raise ConfigError(where, f"must be below {below:g} (got {value:g})")
    return value if integer else float(value)


def _read_list(value, where: str, item=None) -> list:
    """A non-empty list; ``item(x, where)`` checks each entry."""
    if not isinstance(value, list) or not value:
        raise ConfigError(where, f"expected a non-empty list, got {value!r}")
    return [item(x, where) for x in value] if item else value


def _read_density(doc: dict, key: str, path: str) -> tuple:
    value = doc.get(key, DEFAULTS[key])
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}.{key}", f"expected two integers >= 2, got {value!r}")
    return tuple(read_number(x, f"{path}.{key}", integer=True, at_least=2) for x in value)


def _expr(value, path: str, name: str) -> Profile:
    """The profile of a closed form in r and t, given as a string or a number."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(path, f"expected an expression string, got {value!r}")
    text = value if isinstance(value, str) else repr(read_number(value, path))
    try:
        return Profile(text, name)
    except ExpressionError as exc:
        raise ConfigError(path, str(exc))


def _read_choice(value, where: str, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(where, f"unknown value {value!r}; choose from {sorted(choices)}")
    return value


GEOMETRY_PRESETS = {
    "euclidean": {"warp": "r", "potential": "0"},
    "hyperbolic": {"warp": "sinh(r)", "potential": "0"},
    "sphere": {"warp": "sin(r)", "potential": "0"},
    "gaussian-weight": {"warp": "r", "potential": "r**2/2"},
}

MANUFACTURED_CATALOG = {
    # warp-adapted positive fields: radial derivative carries the warp factor
    "bump": "2 + exp(-t)*exp(-r**2/4) + r**2*exp(-2*t)/8",
    "cosh-bump": "2 + exp(-t)*(3 + cosh(r))/8",
    "cos-bump": "2 + exp(-t)*(3 + cos(r))/8",
}

DEFAULTS = {
    "grid": {"n_r": 257, "n_t": 129},
    "floor_fraction": 1e-6,
    "tolerance_factor": 1e-6,
    "harnack_tolerance_factor": 1e-8,
    "eps_fractions": [0.1, 0.5, 0.9],
    "sup_density": [129, 65],
    "eval_density": [65, 33],
    "pairs": 120,
    "variants": ["first-local", "first-global", "second-local", "second-global"],
}


def parse_geometry(doc: dict, m: float, path: str = "geometry") -> WarpedGeometry:
    allowed = {"preset", "n", "r_max", "mode", "warp", "conformal", "potential",
               "conformal_rate", "warp_rate", "potential_drift"}
    _check_keys(doc, allowed, path)
    n = read_number(_require(doc, "n", path), f"{path}.n", integer=True, at_least=2)
    r_max = read_number(_require(doc, "r_max", path), f"{path}.r_max", above=0)
    preset = doc.get("preset")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(f"{path}.preset", f"expected a string, got {preset!r}")
    # named as the config spells it, followed by each rate key that changes it
    label = " ".join([preset or "custom",
                      *(f"{key}={doc[key]:g}" for key in ("warp_rate", "conformal_rate",
                                                         "potential_drift")
                        if read_number(doc.get(key, 0.0), f"{path}.{key}"))])
    if preset is not None:
        # parameterized spellings: conformal-exp(rate), linear-warp(rate) set
        # the matching rate key on the euclidean preset
        match = re.fullmatch(r"(conformal-exp|linear-warp)\(([-+]?(?:\d+\.?\d*|\.\d+)"
                             r"(?:[eE][-+]?\d+)?)\)", preset)
        if match:
            key = {"conformal-exp": "conformal_rate", "linear-warp": "warp_rate"}[match.group(1)]
            if key in doc:
                raise ConfigError(f"{path}.{key}", f"the preset {preset} already sets it")
            # a rate such as 1e999 overflows to inf; read_number refuses it
            doc = {**doc, key: read_number(float(match.group(2)), f"{path}.preset")}
            preset = "euclidean"
        if preset not in GEOMETRY_PRESETS:
            raise ConfigError(f"{path}.preset",
                              f"unknown preset; choose from {sorted(GEOMETRY_PRESETS)} "
                              "or conformal-exp(rate) / linear-warp(rate)")
        if "warp" in doc:
            raise ConfigError(f"{path}.warp", "a preset fixes the warp; give one of them")
        warp = Profile(GEOMETRY_PRESETS[preset]["warp"], "warp")
        potential = Profile(GEOMETRY_PRESETS[preset]["potential"], "potential")
    else:
        warp = _expr(_require(doc, "warp", path), f"{path}.warp", "warp")
        potential = Profile("0", "potential")
    if "potential" in doc:
        potential = _expr(doc["potential"], f"{path}.potential", "potential")
    drift = read_number(doc.get("potential_drift", 0.0), f"{path}.potential_drift")
    if drift:
        potential = Profile(f"({potential.source})*(1 + {drift!r}*t)", "potential")
    # each rate replaces a whole expression, so that expression may not be given
    conformal = Profile("1", "conformal")
    if "conformal" in doc:
        if "conformal_rate" in doc:
            raise ConfigError(f"{path}.conformal", "an exponential rate would replace it")
        conformal = _expr(doc["conformal"], f"{path}.conformal", "conformal")
    rate = read_number(doc.get("conformal_rate", 0.0), f"{path}.conformal_rate")
    if rate:
        conformal = Profile(f"exp({rate!r}*t)", "conformal")
    if "warp_rate" in doc and (preset is None or warp.source != "r"):
        raise ConfigError(f"{path}.warp_rate", "the linear warp 1 + (1 + rate t) r replaces "
                                               "the warp; it goes only with a preset whose warp is r")
    warp_rate = read_number(doc.get("warp_rate", 0.0), f"{path}.warp_rate")
    if warp_rate:
        warp = Profile(f"1 + (1 + {warp_rate!r}*t)*r", "warp")
    family = ("evolving-warp" if not warp.time_independent
              else "conformal-evolving" if not conformal.time_independent else "static-warp")
    mode = _read_choice(doc.get("mode", "annulus" if family == "evolving-warp" else "pole"),
                        f"{path}.mode", MODES)
    try:
        return WarpedGeometry(
            n=n, m=float(m), warp=warp, conformal=conformal, potential=potential,
            r_max=r_max, family=family, mode=mode, name=label,
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def parse_alpha_beta(doc: dict, b: float, path: str) -> AlphaBeta:
    alpha = doc.get("alpha", 2.0)
    if isinstance(alpha, dict):
        _check_keys(alpha, {"preset", "gamma", "clock_offset"}, f"{path}.alpha")
        if "beta" in doc:
            raise ConfigError(f"{path}.beta", "a preset alpha fixes beta")
        which = _require(alpha, "preset", f"{path}.alpha")
        gamma = read_number(_require(alpha, "gamma", f"{path}.alpha"), f"{path}.alpha.gamma")
        # every preset starts at alpha = 1, where no eps is admissible; a
        # positive offset reads the pair further along its own clock, which
        # is still an admissible coefficient pair for the estimates
        offset = read_number(alpha.get("clock_offset", 0.0), f"{path}.alpha.clock_offset",
                             at_least=0)
        try:
            pair = preset_alpha_beta(which, gamma, b)
        except ValueError as exc:
            raise ConfigError(f"{path}.alpha", str(exc))
        return pair.shifted(-offset) if offset else pair
    alpha = read_number(alpha, f"{path}.alpha", above=1)
    return constant_alpha_beta(alpha, read_number(doc.get("beta", 0.0), f"{path}.beta"))


def parse_nonlinearity(doc, path: str) -> Nonlinearity:
    """The power-sum terms (none for form zero); the closure forcing of a
    manufactured field is attached later."""
    if doc is None:
        return Nonlinearity()
    _check_keys(doc, {"form", "A", "a", "B", "b"}, path)
    form = _require(doc, "form", path)
    if form not in ("zero", "power-sum"):
        raise ConfigError(f"{path}.form", f"unknown nonlinearity form {form!r}")
    terms = {key: doc[key] for key in ("A", "a", "B", "b") if key in doc}
    if form == "zero":
        if terms:
            raise ConfigError(f"{path}.{next(iter(terms))}", "form 'zero' takes no power-sum terms")
        return Nonlinearity()
    if not terms:
        raise ConfigError(path, "a power-sum needs at least one term")
    try:
        return Nonlinearity(**{key: _read_list(value, f"{path}.{key}", read_number)
                               for key, value in terms.items()})
    except SolverError as exc:
        raise ConfigError(path, str(exc))


@dataclass
class Scenario:
    name: str
    seed: int
    geom: WarpedGeometry
    params: HarnackParams
    nonlinearity: Nonlinearity
    grid: Grid
    solution_kind: str            # "barenblatt" | "manufactured" | "numeric"
    v_profile: Profile            # closed form of the pressure
    oracle_u: object              # u(r, t) callable
    pde: PdeParams
    verification: dict
    t0: float
    duration: float
    _solve_cache: SolveResult | None = field(default=None, repr=False)

    @property
    def t_hi(self) -> float:
        return self.t0 + self.duration

    def analytic_handle(self) -> AnalyticSolution:
        return AnalyticSolution(self.v_profile)

    def run_solver(self) -> SolveResult:
        if self._solve_cache is None:
            self._solve_cache = solve(self.oracle_u, self.geom, self.pde, self.grid)
        return self._solve_cache

    def solution_handle(self):
        if self.solution_kind == "numeric":
            return GridSolution(self.run_solver().v)
        return self.analytic_handle()


def parse_scenario(doc: dict) -> Scenario:
    allowed = {"name", "seed", "geometry", "harnack", "pde", "solution", "time",
               "verification"}
    _check_keys(doc, allowed, "")
    name = doc.get("name", "scenario")
    seed = read_number(doc.get("seed", 20260809), "seed", integer=True, at_least=0)

    harnack = doc.get("harnack", {})
    _check_keys(harnack, {"m", "alpha", "beta", "eps_fractions"}, "harnack")
    m = read_number(_require(harnack, "m", "harnack"), "harnack.m")

    geom = parse_geometry(_require(doc, "geometry", ""), m, "geometry")

    pde_doc = doc.get("pde", {})
    _check_keys(pde_doc, {"p", "nonlinearity", "grid", "boundary", "floor_fraction",
                          "substeps"}, "pde")
    p = read_number(_require(pde_doc, "p", "pde"), "pde.p", above=1)

    coeffs = parse_alpha_beta(harnack, b=m * (p - 1) / (1 + m * (p - 1)), path="harnack")
    try:
        params = HarnackParams(p=p, m=m, coeffs=coeffs)
    except ValueError as exc:
        raise ConfigError("harnack", str(exc))

    time_doc = doc.get("time", {})
    _check_keys(time_doc, {"t0", "duration"}, "time")
    duration = read_number(time_doc.get("duration", 1.0), "time.duration", above=0)
    t0 = read_number(time_doc.get("t0", 1.0), "time.t0", at_least=0)

    grid_doc = pde_doc.get("grid", {})
    _check_keys(grid_doc, {"n_r", "n_t"}, "pde.grid")
    n_r = read_number(grid_doc.get("n_r", DEFAULTS["grid"]["n_r"]), "pde.grid.n_r", integer=True)
    n_t = read_number(grid_doc.get("n_t", DEFAULTS["grid"]["n_t"]), "pde.grid.n_t", integer=True)
    try:
        grid = Grid(n_r=n_r, n_t=n_t, r_max=geom.r_max, t0=t0, duration=duration,
                    pole=(geom.mode == "pole"))
    except ValueError as exc:
        raise ConfigError("pde.grid", str(exc))

    power = parse_nonlinearity(pde_doc.get("nonlinearity"), "pde.nonlinearity")

    sol_doc = _require(doc, "solution", "")
    _check_keys(sol_doc, {"kind", "mass_const", "expr", "catalog", "base"}, "solution")
    kind = _read_choice(_require(sol_doc, "kind", "solution"), "solution.kind",
                        ("barenblatt", "manufactured", "numeric"))

    def _barenblatt():
        if power.form != "zero":
            raise ConfigError("pde.nonlinearity",
                              "the self-similar oracle requires zero forcing")
        flat = geom.is_static and geom.warp.source == "r" and geom.potential.is_constant()
        if not flat:
            raise ConfigError("solution", "the self-similar oracle needs static euclidean geometry")
        C = read_number(sol_doc.get("mass_const", 1.0), "solution.mass_const", above=0)
        if t0 <= 0:
            raise ConfigError("time.t0", "the self-similar oracle requires t0 > 0")
        support = barenblatt_support_radius(geom.n, p, C, t0)
        if support <= geom.r_max:
            raise ConfigError("solution.mass_const",
                              f"support radius {support:.4g} at t0 must exceed r_max")
        resid = validate_barenblatt(geom.n, p, C)
        if resid > 1e-9:
            raise ConfigError("solution", f"oracle failed the substitution check ({resid:.3e})")
        oracle = lambda r, t: barenblatt_oracle(geom.n, p, C, r, t)
        return barenblatt_pressure_profile(geom.n, p, C), oracle, Nonlinearity()

    def _manufactured():
        # the closure forcing makes the profile an exact solution
        path = "solution.expr" if "expr" in sol_doc else "solution.catalog"
        if "expr" in sol_doc:
            profile = _expr(sol_doc["expr"], path, "manufactured_pressure")
        else:
            key = _read_choice(sol_doc.get("catalog", "bump"), path, MANUFACTURED_CATALOG)
            profile = _expr(MANUFACTURED_CATALOG[key], path, "manufactured_pressure")
        forcing = manufactured_forcing(profile, geom, p, power)
        if geom.mode == "pole":
            _check_pole_series(profile, forcing, grid.r[:2], t0, path)
        # the oracle turns the pressure back into u, which needs it positive
        if not np.all(profile(grid.r, t0) > 0):
            raise ConfigError(path, f"the pressure must be positive, and is not at t0 = {t0:g}")
        return profile, _oracle_from_profile(profile, p), forcing

    setups = {"barenblatt": _barenblatt, "manufactured": _manufactured}
    # a numeric solve starts from the closed form of its base
    base = (_read_choice(sol_doc.get("base", "manufactured"), "solution.base", setups)
            if kind == "numeric" else kind)
    v_profile, oracle_u, nl = setups[base]()

    floor_frac = read_number(pde_doc.get("floor_fraction", DEFAULTS["floor_fraction"]),
                             "pde.floor_fraction")
    u0 = oracle_u(grid.r, t0)
    floor = max(floor_frac * float(np.max(u0)), 1e-300)
    boundary = _read_choice(pde_doc.get("boundary", "dirichlet-oracle"), "pde.boundary",
                            BOUNDARY_POLICIES)
    try:
        pde = PdeParams(p=p, nonlinearity=nl, positivity_floor=floor,
                        outer_boundary=boundary, oracle=oracle_u,
                        substeps=read_number(pde_doc.get("substeps", 1), "pde.substeps",
                                             integer=True))
    except Exception as exc:
        raise ConfigError("pde", str(exc))

    ver_doc = doc.get("verification", {})
    _check_keys(ver_doc, {"variants", "radius", "tolerance_factor", "pairs",
                          "sup_density", "eval_density", "harnack_tolerance_factor"},
                 "verification")
    variants = _read_list(ver_doc.get("variants", list(DEFAULTS["variants"])),
                          "verification.variants")
    from .estimates import VARIANTS

    for v in variants:
        if v not in VARIANTS:
            raise ConfigError("verification.variants", f"unknown variant {v!r}")
    setting = lambda key, **kw: read_number(ver_doc.get(key, DEFAULTS[key]),
                                            f"verification.{key}", **kw)
    verification = {
        "variants": variants,
        "radius": read_number(ver_doc.get("radius", 0.45 * geom.r_max),
                              "verification.radius", above=0),
        "tolerance_factor": setting("tolerance_factor", at_least=0),
        "harnack_tolerance_factor": setting("harnack_tolerance_factor", at_least=0),
        "pairs": setting("pairs", integer=True, at_least=1),
        "sup_density": _read_density(ver_doc, "sup_density", "verification"),
        "eval_density": _read_density(ver_doc, "eval_density", "verification"),
        # fractions of the eps ceiling, which is itself excluded
        "eps_fractions": tuple(_read_list(
            harnack.get("eps_fractions", DEFAULTS["eps_fractions"]), "harnack.eps_fractions",
            lambda x, where: read_number(x, where, above=0, below=1))),
    }

    try:
        geom.validate_on(t0, t0 + duration)
    except GeometryError as exc:
        raise ConfigError(f"geometry.{exc.key}" if exc.key else "geometry", str(exc))
    sc = Scenario(
        name=name, seed=seed, geom=geom, params=params, nonlinearity=nl,
        grid=grid, solution_kind=kind, v_profile=v_profile, oracle_u=oracle_u,
        pde=pde, verification=verification, t0=t0, duration=duration,
    )
    # the estimates read the pair from tau = 0, the first sup-sample time
    try:
        coeffs.check_admissible(np.linspace(0.0, duration, 65))
    except ParamError as exc:
        raise ConfigError("harnack.alpha", f"{exc}, tau in [0, {duration:g}] on the estimate "
                                           "clock; a preset starts at alpha = 1, or is "
                                           "singular, at tau = 0 unless its clock_offset "
                                           "is positive")
    return sc


def _check_pole_series(v: Profile, nl: Nonlinearity, r, t0: float, path: str):
    """Take at the pole node r[0] = 0 and its neighbour r[1], at t0, the
    partials the checks take there: the (2, 1) table of v and the forcing
    with its r-partials.  A field with no series at the pole is refused at
    parse time under its key; one that is not finite off the pole (an
    overflow) still raises its FloatingPointError."""
    try:
        v.table(2, 1, r, t0)
        nl.G_x_partials(t0, r, v(r, t0))
    except PoleEvaluationError as exc:
        raise ConfigError(path, f"no series at the pole r = 0: {exc}")


def _oracle_from_profile(v_profile: Profile, p: float):
    def oracle(r, t):
        v = v_profile(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
        return pressure_inverse(v, p)

    return oracle


def read_config(path):
    """The JSON document in the file ``path``; invalid JSON is a
    configuration error naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}")


def load_scenario(path) -> Scenario:
    return parse_scenario(read_config(path))
