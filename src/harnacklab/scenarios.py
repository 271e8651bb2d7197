"""Scenario configuration: JSON documents -> validated computational setups.

A scenario bundles a geometry, a pressure field (exact oracle, manufactured
closed form, or numeric solve), the Harnack parameters and the verification
settings.  Each key is read, with its default, where the parse uses it, and
every key no read asked for is refused with its path, so a typo or a key
the rest of the document leaves unread fails loudly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .estimates import VARIANTS, variant_kind
from .fields import Grid
from .geometry import MODES, Cylinder, GeometryError, WarpedGeometry
from .identities import AnalyticSolution, GridSolution
from .jets import PoleEvaluationError
from .params import (AlphaBeta, HarnackParams, ParamError, constant_alpha_beta,
                     preset_alpha_beta)
from .solver import (BOUNDARY_POLICIES, Nonlinearity, PdeParams, SolveResult, SolverError,
                     barenblatt_oracle, barenblatt_pressure_profile,
                     barenblatt_support_radius, manufactured_forcing, pressure_inverse,
                     solve)
from .symfun import ExpressionError, Profile


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


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


REQUIRED = object()


class Section:
    """One object of a config document, read key by key.

    Each read names its key and default once, where the parse uses it.
    ``close`` refuses every key of this object, and of each object opened
    from it, that no read asked for.
    """

    def __init__(self, doc, path: str, opened: list | None = None):
        if not isinstance(doc, dict):
            raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
        self.doc, self.path, self.read = doc, path, set()
        self.opened = [] if opened is None else opened
        self.opened.append(self)

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def __contains__(self, key: str) -> bool:
        return key in self.doc

    def get(self, key: str, default=REQUIRED):
        self.read.add(key)
        if key not in self.doc and default is REQUIRED:
            raise ConfigError(self.where(key), "missing required key")
        return self.doc.get(key, default)

    def number(self, key: str, default=REQUIRED, **checks):
        return read_number(self.get(key, default), self.where(key), **checks)

    def choice(self, key: str, choices, default=REQUIRED) -> str:
        value = self.get(key, default)
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(self.where(key),
                              f"unknown value {value!r}; choose from {sorted(choices)}")
        return value

    def list(self, key: str, default=REQUIRED, item=None) -> list:
        """A non-empty list; ``item(x, where)`` checks each entry."""
        value, where = self.get(key, default), self.where(key)
        if not isinstance(value, list) or not value:
            raise ConfigError(where, f"expected a non-empty list, got {value!r}")
        return [item(x, where) for x in value] if item else value

    def expr(self, key: str, name: str) -> Profile:
        """The profile of a closed form in r and t, given as a string or a number."""
        value, where = self.get(key), self.where(key)
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(where, f"expected an expression string, got {value!r}")
        text = value if isinstance(value, str) else repr(read_number(value, where))
        try:
            return Profile(text, name)
        except ExpressionError as exc:
            raise ConfigError(where, str(exc))

    def section(self, key: str, default=REQUIRED) -> Section:
        return Section(self.get(key, default), self.where(key), self.opened)

    def close(self):
        for section in self.opened:
            for key in section.doc:
                if key not in section.read:
                    raise ConfigError(section.where(key),
                                      "unknown key, or one the other keys leave unused")


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


def parse_geometry(doc: dict, m: float) -> WarpedGeometry:
    geo = Section(doc, "geometry")
    n = geo.number("n", integer=True, at_least=2)
    if m < n:
        raise ConfigError("harnack.m", f"the synthetic dimension must be >= geometry.n = {n} "
                                       f"(got {m:g})")
    r_max = geo.number("r_max", above=0)
    preset = geo.get("preset", None)
    if preset is not None and not isinstance(preset, str):
        raise ConfigError(geo.where("preset"), f"expected a string, got {preset!r}")
    rates = {key: geo.number(key) for key in ("warp_rate", "conformal_rate", "potential_drift")
             if key in geo}
    # named as the config spells it, followed by each rate key that changes it
    label = " ".join([preset or "custom", *(f"{key}={rate:g}" for key, rate in rates.items()
                                            if rate)])
    if preset is not None:
        if preset not in GEOMETRY_PRESETS:
            raise ConfigError(geo.where("preset"),
                              f"unknown preset; choose from {sorted(GEOMETRY_PRESETS)}")
        if "warp" in geo:
            raise ConfigError(geo.where("warp"), "a preset fixes the warp; give one of them")
        warp = Profile(GEOMETRY_PRESETS[preset]["warp"], "warp")
        potential = Profile(GEOMETRY_PRESETS[preset]["potential"], "potential")
    else:
        warp = geo.expr("warp", "warp")
        potential = Profile("0", "potential")
    if "potential" in geo:
        potential = geo.expr("potential", "potential")
    if drift := rates.get("potential_drift"):
        potential = Profile(f"({potential.source})*(1 + {drift!r}*t)", "potential")
    # each rate replaces a whole expression, so that expression may not be given
    conformal = Profile("1", "conformal")
    if "conformal" in geo:
        if "conformal_rate" in rates:
            raise ConfigError(geo.where("conformal"), "an exponential rate would replace it")
        conformal = geo.expr("conformal", "conformal")
    if rate := rates.get("conformal_rate"):
        conformal = Profile(f"exp({rate!r}*t)", "conformal")
    if "warp_rate" in rates and (preset is None or warp.source != "r"):
        raise ConfigError(geo.where("warp_rate"), "the linear warp 1 + (1 + rate t) r replaces "
                          "the warp; it goes only with a preset whose warp is r")
    if rate := rates.get("warp_rate"):
        warp = Profile(f"1 + (1 + {rate!r}*t)*r", "warp")
    mode = geo.choice("mode", MODES) if "mode" in geo else None
    geo.close()
    try:
        return WarpedGeometry(
            n=n, m=float(m), warp=warp, conformal=conformal, potential=potential,
            r_max=r_max, mode=mode, name=label,
        )
    except GeometryError as exc:
        raise ConfigError("geometry", str(exc))


def parse_alpha_beta(harnack: Section, b: float) -> AlphaBeta:
    alpha = harnack.get("alpha", 2.0)
    if not isinstance(alpha, dict):
        return constant_alpha_beta(read_number(alpha, harnack.where("alpha"), above=1),
                                   harnack.number("beta", 0.0))
    if "beta" in harnack:
        raise ConfigError(harnack.where("beta"), "a preset alpha fixes beta")
    preset = harnack.section("alpha")
    which = preset.get("preset")
    gamma = preset.number("gamma")
    # every preset starts at alpha = 1, where no eps is admissible; a
    # positive offset reads the pair further along its own clock, which
    # is still an admissible coefficient pair for the estimates
    offset = preset.number("clock_offset", 0.0, at_least=0)
    try:
        pair = preset_alpha_beta(which, gamma, b)
    except (ParamError, ExpressionError) as exc:
        raise ConfigError(preset.path, str(exc))
    return pair.shifted(-offset) if offset else pair


def parse_nonlinearity(pde: Section) -> Nonlinearity:
    """The power-sum terms (none for form zero); the closure forcing of a
    manufactured field is attached later."""
    if pde.get("nonlinearity", None) is None:
        return Nonlinearity()
    doc = pde.section("nonlinearity")
    form = doc.get("form")
    if form not in ("zero", "power-sum"):
        raise ConfigError(doc.where("form"), f"unknown nonlinearity form {form!r}")
    terms = [key for key in ("A", "a", "B", "b") if key in doc]
    if form == "zero":
        if terms:
            raise ConfigError(doc.where(terms[0]), "form 'zero' takes no power-sum terms")
        return Nonlinearity()
    if not terms:
        raise ConfigError(doc.path, "a power-sum needs at least one term")
    try:
        return Nonlinearity(**{key: doc.list(key, item=read_number) for key in terms})
    except SolverError as exc:
        raise ConfigError(doc.path, str(exc))


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
    u_key: str                    # the key whose value sets u, named where u overflows
    pde: PdeParams
    verification: dict
    t0: float
    duration: float

    @property
    def t_hi(self) -> float:
        return self.t0 + self.duration

    def analytic_handle(self) -> AnalyticSolution:
        return AnalyticSolution(self.v_profile)

    def run_solver(self) -> SolveResult:
        if not np.isfinite(self.pde.positivity_floor):
            raise FloatingPointError(f"{self.u_key}: u at t0 = {self.t0:g} is not finite")
        return solve(self.oracle_u, self.geom, self.pde, self.grid)

    def solution_handle(self):
        if self.solution_kind == "numeric":
            return GridSolution(self.run_solver().v)
        return self.analytic_handle()


def parse_scenario(doc: dict) -> Scenario:
    top = Section(doc, "")
    name = top.get("name", "scenario")
    if not isinstance(name, str):
        raise ConfigError("name", f"expected a string, got {name!r}")
    seed = top.number("seed", 20260809, integer=True, at_least=0)

    harnack = top.section("harnack", {})
    m = harnack.number("m")

    geom = parse_geometry(top.get("geometry"), m)

    pde_doc = top.section("pde", {})
    p = pde_doc.number("p", above=1)

    coeffs = parse_alpha_beta(harnack, b=m * (p - 1) / (1 + m * (p - 1)))
    params = HarnackParams(p=p, m=m, coeffs=coeffs)

    time_doc = top.section("time", {})
    duration = time_doc.number("duration", 1.0, above=0)
    t0 = time_doc.number("t0", 1.0, at_least=0)

    grid_doc = pde_doc.section("grid", {})
    grid = Grid(n_r=grid_doc.number("n_r", 257, integer=True, at_least=8),
                n_t=grid_doc.number("n_t", 129, integer=True, at_least=4),
                r_max=geom.r_max, t0=t0, duration=duration, pole=(geom.mode == "pole"))

    power = parse_nonlinearity(pde_doc)

    sol_doc = top.section("solution")
    kind = sol_doc.choice("kind", ("barenblatt", "manufactured", "numeric"))

    def _barenblatt():
        if power.form != "zero":
            raise ConfigError("pde.nonlinearity",
                              "the self-similar oracle requires zero forcing")
        flat = geom.metric_static and geom.warp.source == "r" and geom.potential.is_constant()
        if not flat:
            raise ConfigError("solution", "the self-similar oracle needs static euclidean geometry")
        C = sol_doc.number("mass_const", 1.0, above=0)
        if t0 <= 0:
            raise ConfigError("time.t0", "the self-similar oracle requires t0 > 0")
        support = barenblatt_support_radius(geom.n, p, C, t0)
        if support <= geom.r_max:
            raise ConfigError("solution.mass_const",
                              f"support radius {support:.4g} at t0 must exceed r_max")
        oracle = lambda r, t: barenblatt_oracle(geom.n, p, C, r, t)
        return (barenblatt_pressure_profile(geom.n, p, C), oracle, Nonlinearity(),
                sol_doc.where("mass_const"))

    def _manufactured():
        # the closure forcing makes the profile an exact solution; a given
        # expr leaves the catalog unread
        if "expr" in sol_doc:
            path, profile = sol_doc.where("expr"), sol_doc.expr("expr", "manufactured_pressure")
        else:
            path = sol_doc.where("catalog")
            profile = Profile(MANUFACTURED_CATALOG[sol_doc.choice(
                "catalog", MANUFACTURED_CATALOG, "bump")], "manufactured_pressure")
        forcing = manufactured_forcing(profile, geom, p, power)
        if geom.mode == "pole":
            _check_pole_series(profile, forcing, grid.r[:2], t0, path)
        # the oracle turns the pressure back into u, which needs it positive
        if not np.all(profile(grid.r, t0) > 0):
            raise ConfigError(path, f"the pressure must be positive, and is not at t0 = {t0:g}")
        # positive at t0, the pressure may turn negative or underflow to 0 later
        v_end = profile(grid.r, end := grid.t[-1])
        if np.any(v_end < 0):
            raise ConfigError(path, f"the pressure must be positive, and is not at t = {end:g}")
        if np.any(v_end < np.finfo(float).tiny):
            below = "to 0" if np.any(v_end == 0) else "below the least normal float"
            raise FloatingPointError(f"time.duration: the pressure underflows {below} "
                                     f"at t = {end:g}")
        oracle = lambda r, t: pressure_inverse(profile(np.asarray(r, dtype=float),
                                                       np.asarray(t, dtype=float)), p)
        return profile, oracle, forcing, path

    setups = {"barenblatt": _barenblatt, "manufactured": _manufactured}
    # a numeric solve starts from the closed form of its base
    base = sol_doc.choice("base", setups, "manufactured") if kind == "numeric" else kind
    v_profile, oracle_u, nl, u_key = setups[base]()

    # the solver's positivity floor: a millionth of the initial peak of u; a
    # peak that overflows is refused by the solve, the checks read only v
    with np.errstate(over="ignore"):
        floor = max(1e-6 * float(np.max(oracle_u(grid.r, t0))), 1e-300)
    boundary = pde_doc.choice("boundary", BOUNDARY_POLICIES, "dirichlet-oracle")
    substeps = pde_doc.number("substeps", 1, integer=True, at_least=1)
    pde = PdeParams(p=p, nonlinearity=nl, positivity_floor=floor, outer_boundary=boundary,
                    oracle=oracle_u, substeps=substeps)

    ver_doc = top.section("verification", {})
    variants = ver_doc.list("variants", ["first-local", "first-global", "second-local",
                                         "second-global"])
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(ver_doc.where("variants"), f"unknown variant {v!r}")
    verification = {
        "variants": variants,
        "radius": ver_doc.number("radius", 0.45 * geom.r_max, above=0),
        "pairs": ver_doc.number("pairs", 120, integer=True, at_least=1),
        "sup_density": _read_density(ver_doc, "sup_density", [129, 65]),
        "eval_density": _read_density(ver_doc, "eval_density", [65, 33]),
        # fractions of the eps ceiling, which is itself excluded
        "eps_fractions": tuple(harnack.list("eps_fractions", [0.1, 0.5, 0.9],
                                            lambda x, where: read_number(x, where, above=0,
                                                                         below=1))),
    }
    top.close()

    try:
        geom.validate_on(t0, t0 + duration)
    except GeometryError as exc:
        raise ConfigError(f"geometry.{exc.key}" if exc.key else "geometry", str(exc))
    # a local variant samples its constants on the cylinder of twice the radius
    if any(variant_kind(v)[1] == "local" for v in variants):
        try:
            Cylinder(verification["radius"], t0, t0 + duration).require_inside(geom, 2.0)
        except GeometryError as exc:
            raise ConfigError(ver_doc.where("radius"), str(exc))
    # the estimates read the pair from tau = 0, the first sup-sample time
    try:
        coeffs.check_admissible(np.linspace(0.0, duration, 65))
    except ParamError as exc:
        raise ConfigError("harnack.alpha", f"{exc}, tau in [0, {duration:g}] on the estimate "
                                           "clock; a preset starts at alpha = 1, or is "
                                           "singular, at tau = 0 unless its clock_offset "
                                           "is positive")
    return Scenario(
        name=name, seed=seed, geom=geom, params=params, nonlinearity=nl,
        grid=grid, solution_kind=kind, v_profile=v_profile, oracle_u=oracle_u, u_key=u_key,
        pde=pde, verification=verification, t0=t0, duration=duration,
    )


def _read_density(ver: Section, key: str, default: list) -> tuple:
    value, where = ver.get(key, default), ver.where(key)
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(where, f"expected two integers >= 2, got {value!r}")
    return tuple(read_number(x, where, integer=True, at_least=2) for x in value)


def _check_pole_series(v: Profile, nl: Nonlinearity, r, t0: float, path: str):
    """Take at the pole node r[0] = 0 and its neighbour r[1], at t0, the
    partials the checks take there: the (2, 1) table of v and the forcing
    with its r-partials.  A field with no series at the pole is refused at
    parse time under its key; one that is not finite off the pole (an
    overflow) still raises its FloatingPointError."""
    try:
        v.table(2, 1, r, t0)
        nl.partials(t0, r, v(r, t0))
    except PoleEvaluationError as exc:
        raise ConfigError(path, f"no series at the pole r = 0: {exc}")


def read_config(path):
    """The JSON document in the file ``path``; a file that is not UTF-8 JSON
    is a configuration error naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}")


def load_scenario(path) -> Scenario:
    doc = read_config(path)
    if not isinstance(doc, dict):
        raise ConfigError(str(path), f"expected a JSON object, got {type(doc).__name__}")
    if "template" in doc:
        raise ConfigError("template", "this is a sweep document; run it with the sweep command")
    return parse_scenario(doc)
