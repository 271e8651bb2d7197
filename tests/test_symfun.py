import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp

from harnacklab.params import preset_alpha_beta
from harnacklab.scenarios import MANUFACTURED_CATALOG, load_scenario
from harnacklab.solver import manufactured_forcing
from harnacklab import symfun
from harnacklab.symfun import (ExpressionError, PoleEvaluationError, Profile,
                               compile_expression, constant_profile)

from conftest import R, T, make_geometry, profile_of, sym, symbolic_closure, symbolic_phi_laplacian


def test_profile_basic_evaluation():
    prof = Profile("r**2*t + 3", "f")
    assert prof(2.0, 1.0) == pytest.approx(7.0)
    r = np.linspace(0, 1, 5)[:, None]
    t = np.linspace(0, 2, 3)[None, :]
    vals = prof(r, t)
    assert vals.shape == (5, 3)
    assert np.allclose(vals, r**2 * t + 3)


def test_profile_derivative_table():
    prof = Profile("sin(r)*exp(-t)")
    r, t = 0.7, 0.4
    assert prof.at(1, 0, r, t) == pytest.approx(np.cos(r) * np.exp(-t), rel=1e-14)
    assert prof.at(2, 1, r, t) == pytest.approx(np.sin(r) * np.exp(-t), rel=1e-13)


def test_profile_string_parsing_and_helpers():
    prof = Profile("2 + r**2/4")
    assert prof(2.0, 0.0) == pytest.approx(3.0)
    assert constant_profile(5).is_constant()
    assert Profile("t**2").coords == {"t"}
    assert Profile("r**2").time_independent


def test_profile_rejects_stray_symbols():
    with pytest.raises(ValueError):
        Profile("x + 1")


def test_pole_limit_evaluation():
    # sin(r)/r extends to 1 at the pole
    prof = Profile("sin(r)/r*exp(-t)", "sinc")
    vals = prof(np.array([0.0, 0.5]), np.array([0.0, 0.0]))
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == pytest.approx(np.sin(0.5) / 0.5, rel=1e-12)


def test_pole_limit_failure():
    prof = Profile("1/r", "bad")
    with pytest.raises(PoleEvaluationError):
        prof(np.array([0.0]), np.array([0.0]))


def test_broadcasting_constant_expression():
    prof = constant_profile(2.5)
    vals = prof(np.zeros((3, 4)), np.ones((3, 4)))
    assert vals.shape == (3, 4)
    assert np.all(vals == 2.5)


# (field, geometry kind, geometry keywords) of the three closure forcings
_FORCING_CASES = [
    ("cosh-bump", "hyperbolic", {}),
    ("cos-bump", "warp", {"n": 3, "m": 4, "potential": "r**2*(1 + t/9)/2"}),
    ("cosh-bump", "gaussian", {"m": 4, "conformal": "exp(t/10)",
                               "potential": "r**2*(1 + t/9)/2"}),
]


def _catalog():
    return {name: Profile(expr, name) for name, expr in MANUFACTURED_CATALOG.items()}


def _oracle_profiles():
    """The closed-form profiles a scenario builds: catalog fields, warps, the
    coth coefficient pair, and the closure forcings of three geometries in
    closed form (by the symbolic route)."""
    fields = _catalog()
    pair = preset_alpha_beta("coth", 0.7, 2 / 3)
    forcings = {
        f"forcing({field}, {kind})": profile_of(
            symbolic_closure(sym(fields[field]), make_geometry(kind, **kw), 2.5))
        for field, kind, kw in _FORCING_CASES
    }
    return {**fields, "sinh": Profile("sinh(r)"), "sin": Profile("sin(r)"),
            "warp(t)": Profile("1 + r*(1 + t/5)"), "alpha(coth)": pair.alpha,
            "beta(coth)": pair.beta, **forcings}


# each function the oracle profiles apply, with its derivative
_DERIVATIVES = {sp.exp: sp.exp, sp.sin: sp.cos, sp.cos: lambda u: -sp.sin(u),
                sp.sinh: sp.cosh, sp.cosh: sp.sinh}


def _ring_partials(expr, nr, nt, r, t):
    """Every (i <= nr, j <= nt) partial of the sympy expression ``expr`` at
    arrays r, t, of shape (nr + 1, nt + 1, r.size), by exact differentiation
    in a sparse polynomial ring over the rationals.

    The ring's generators are R, T, every function application (with the one
    its derivative brings in) and the reciprocal of every base of a negative
    power.  A derivation acts on a generator by the chain rule: sympy.diff
    of the argument times the function's derivative, and (1/b)' = -b'/b**2.
    Unlike sympy.diff on the whole expression, it builds no expression
    trees, whose construction (assumption queries) took seconds."""
    expr = expr.replace(sp.coth, lambda u: sp.cosh(u) / sp.sinh(u))
    expr = expr.xreplace({x: sp.Rational(float(x)) for x in expr.atoms(sp.Float)})
    funcs = expr.atoms(sp.Function)
    funcs |= {_DERIVATIVES[f.func](*f.args).atoms(sp.Function).pop() for f in funcs}
    bases = {p.base for p in expr.atoms(sp.Pow) if p.exp.is_negative and not p.base.is_number}
    # a fixed generator order, so the terms sum in the same order every run
    funcs, bases = (sorted(atoms, key=sp.default_sort_key) for atoms in (funcs, bases))
    f_names, w_names = {f: sp.Dummy() for f in funcs}, {b: sp.Dummy() for b in bases}
    ring, *gens = sp.ring([R, T, *f_names.values(), *w_names.values()], sp.QQ)
    f_gens, w_gens = gens[2:2 + len(funcs)], gens[2 + len(funcs):]

    def to_ring(e):
        e = e.xreplace({p: w_names[p.base] ** -p.exp for p in e.atoms(sp.Pow)
                        if p.base in w_names})
        return ring(e.xreplace(f_names))

    def derive(poly, rule):
        return sum((poly.diff(g) * rule[g] for g in gens if rule[g]), ring(0))

    rules = {}
    for x in (R, T):
        rule = {gens[0]: ring(int(x == R)), gens[1]: ring(int(x == T))}
        rule.update({g: to_ring(sp.diff(f.args[0], x) * _DERIVATIVES[f.func](f.args[0]))
                     for f, g in zip(funcs, f_gens)})
        rule.update(dict.fromkeys(w_gens, ring(0)))
        rule.update({g: -derive(to_ring(b), rule) * g**2 for b, g in zip(bases, w_gens)})
        rules[x] = rule
    values = [r, t, *[sp.lambdify((R, T), f, modules="numpy")(r, t) for f in funcs],
              *[1.0 / sp.lambdify((R, T), b, modules="numpy")(r, t) for b in bases]]
    table = np.empty((nr + 1, nt + 1, r.size))
    poly_t = to_ring(expr)
    for j in range(nt + 1):
        poly = poly_t
        for i in range(nr + 1):
            table[i, j] = sum(float(c) * math.prod(v**k for v, k in zip(values, m) if k)
                              for m, c in poly.terms())
            if i < nr:
                poly = derive(poly, rules[R])
        if j < nt:
            poly_t = derive(poly_t, rules[T])
    return table


def test_r_partials_match_symbolic_differentiation():
    # exact differentiation in a polynomial ring, not the series, as the
    # oracle.  The nodes stay at r >= 0.5, away from the pole, where the
    # forcings' 1/r terms cancel; there the routes differ by under 2e-14
    # on the forcings and by 4.4e-13 on alpha(coth), whose numerator cancels
    # at small t
    rng = np.random.default_rng(5)
    r = rng.uniform(0.5, 3.0, 400)
    t = rng.uniform(0.2, 1.5, 400)
    for name, prof in _oracle_profiles().items():
        ref = _ring_partials(sym(prof), 4, 2, r, t)
        err = np.max(np.abs(prof.table(4, 2, r, t) - ref) / np.maximum(1.0, np.abs(ref)), axis=2)
        assert np.all(err <= 1e-12), (name, np.unravel_index(np.argmax(err), err.shape), err.max())


def test_one_compile_serves_every_partial(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return compile_expression(text)

    monkeypatch.setattr(symfun, "compile_expression", counted)
    # sinh(r)/r is 0/0 at the pole, so r = 0 takes the series about r = 0
    prof = Profile("sinh(r)/r + cos(r)*exp(-t)", "sinhc")
    r, t = np.array([0.0, 0.5]), np.array([0.5, 0.5])
    for nr in range(4):
        for nt in range(3):
            assert np.all(np.isfinite(prof.at(nr, nt, r, t)))
    assert len(calls) == 1


# r-nodes of the derived-field comparisons: the eval grids' range, pole excluded
_DERIVED_R = (0.05, 1.9)
_DERIVED_KEYS = [(0, 0), (1, 0), (2, 0), (0, 1)]


def _symbolic_partials(expr, modules="numpy"):
    """The _DERIVED_KEYS partials of ``expr`` by sympy.diff, lambdified."""
    return {(nr, nt): sp.lambdify((R, T), sp.diff(expr, R, nr, T, nt) if nr or nt else expr,
                                  modules=modules)
            for nr, nt in _DERIVED_KEYS}


@pytest.mark.parametrize("field, kind, kw", _FORCING_CASES,
                         ids=[f"{field}-{kind}" for field, kind, _ in _FORCING_CASES])
def test_derived_fields_match_the_symbolic_route(field, kind, kw):
    # the closure forcing and Delta_phi, by jet arithmetic, against sympy.diff
    # (plus cancel) of the closed forms and a numpy lambdify
    geom = make_geometry(kind, **kw)
    v = _catalog()[field]
    rng = np.random.default_rng(11)
    r = rng.uniform(*_DERIVED_R, 400)
    t = rng.uniform(0.2, 1.5, 400)
    derived = {"closure": (manufactured_forcing(v, geom, 2.5).forcing,
                           symbolic_closure(sym(v), geom, 2.5)),
               "lap_phi": (geom.phi_laplacian(v), symbolic_phi_laplacian(geom, sym(v)))}
    for name, (prof, expr) in derived.items():
        for (nr, nt), fun in _symbolic_partials(expr).items():
            ref = fun(r, t) * np.ones_like(r)
            err = np.abs(prof.at(nr, nt, r, t) - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-12, (name, nr, nt, err.max())


@pytest.mark.parametrize("r0", [0.03, 0.05])
def test_closure_near_the_pole_against_40_digits(r0):
    # the hyperbolic closure of the bump field at the eval grids' smallest
    # radii, against its symbolic partials evaluated in 40-digit arithmetic
    geom = make_geometry("hyperbolic")
    v = Profile(MANUFACTURED_CATALOG["bump"], "bump")
    ts = np.array([0.5, 1.0, 1.5])
    funs = _symbolic_partials(symbolic_closure(sym(v), geom, 2.5), modules="mpmath")
    forcing = manufactured_forcing(v, geom, 2.5).forcing
    with mpmath.workdps(40):
        for key, fun in funs.items():
            ref = np.array([float(fun(mpmath.mpf(r0), mpmath.mpf(float(t)))) for t in ts])
            got = forcing.at(*key, np.full(ts.shape, r0), ts)
            err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
            assert err.max() <= 1e-12, (key, err.max())


# ---------------------------------------------------------------------------
# the expression grammar
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, value, coords", [
    ("2 + r**2/4", 2.0625, {"r"}),
    ("pi*r + E", np.pi / 2 + np.e, {"r"}),
    ("-(1 + t)**2 + +r", -3.5, {"r", "t"}),
    # constant subtrees fold to one float
    ("exp(2)*sinh(1/2) + 3", np.exp(2) * np.sinh(0.5) + 3, set()),
    # a zero factor makes a product zero, whatever the other factor reads
    ("0*(1 + 0.3*t)", 0.0, set()),
    ("(1 + r)*0.0", 0.0, set()),
])
def test_expression_grammar(text, value, coords):
    prof = Profile(text)
    assert prof.coords == coords
    assert prof(0.5, 1.0) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("text, message", [
    ("__import__('os').getcwd()", "is not allowed"), ("r.real", "is not allowed"),
    ("tan(r)", "is not allowed"), ("x + 1", "is not allowed"), ("exp", "is not allowed"),
    ("exp(r, t)", "is not allowed"), ("exp(x=r)", "is not allowed"),
    ("lambda: 1", "is not allowed"), ("[r][0]", "is not allowed"), ("'r'", "is not allowed"),
    ("True + r", "is not allowed"), ("2 + 1j*r", "is not allowed"), ("r < 1", "is not allowed"),
    # Python reads ^ as exclusive or, which binds looser than +
    ("r^2 + 1", r"use '\*\*'"),
    ("1e400*r + 2", "overflows"), ("10**400 + r", "no finite value"),
    ("2**2**2**2**2", "no finite value"), ("1/0 + r", "no finite value"),
    ("exp(1000)*r", "not a finite real"), ("log(-1) + r", "not a finite real"),
    ("(-8)**(1/3) + r", "not a finite real"),
    ("r +", "cannot parse"), pytest.param("+".join(["r"] * 5000), "cannot parse", id="deep-sum"),
])
def test_strings_outside_the_grammar_are_refused(text, message):
    with pytest.raises(ExpressionError, match=message):
        Profile(text)


def test_compiled_expressions_see_no_builtins():
    fun, coords = compile_expression("r*t")
    assert fun.__globals__["__builtins__"] == {} and coords == {"r", "t"}


def test_sqrt_of_a_square_is_read_and_refused_only_at_the_pole():
    # sympy rewrote sqrt(r**2) as Abs(r), which the parser refused; the string
    # now means |r|, smooth off the pole, and only its series at r = 0 fails
    prof = Profile("2 + sqrt(r**2)", "v")
    r, t = np.array([0.3, 1.2]), np.ones(2)
    assert prof(r, t) == pytest.approx(2 + r, rel=1e-15)
    assert prof.at(1, 0, r, t) == pytest.approx(np.ones(2), rel=1e-15)
    with pytest.raises(PoleEvaluationError, match="singular at r = 0"):
        prof.at(1, 0, np.zeros(1), np.ones(1))


# ---------------------------------------------------------------------------
# blocked evaluation
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
BLOCK_SCENARIOS = [path for path in sorted((ROOT / "configs").glob("*.json"))
                   if "template" not in json.loads(path.read_text())]
BLOCK_SCENARIOS.append(ROOT / "perfbench" / "inputs" / "hyperbolic-bump.json")


def _block_cases():
    """(id, profile, r, t): every scenario's closure forcing, and on pole
    geometries the weighted Laplacian of its pressure field, on a grid whose
    first row is the pole."""
    cases = []
    for path in BLOCK_SCENARIOS:
        sc = load_scenario(path)
        geom = sc.geom
        r_lo = 0.0 if geom.mode == "pole" else geom.r_max / 64
        r = np.linspace(r_lo, 0.95 * geom.r_max, 9)[:, None]
        t = np.linspace(sc.t0 + sc.duration / 64, sc.t_hi, 5)
        if sc.nonlinearity.forcing is not None:
            cases.append(pytest.param(sc.nonlinearity.forcing, r, t, id=f"{path.stem}-forcing"))
        if geom.mode == "pole":
            cases.append(pytest.param(geom.phi_laplacian(sc.v_profile), r, t,
                                      id=f"{path.stem}-lap_phi"))
    return cases


def _block_sizes(monkeypatch, prof):
    """The list that collects the node count of each block ``prof.table``
    evaluates, the second pass over pole nodes (at the scalar r = 0) left out."""
    sizes, partials = [], prof._partials

    def recording(nr, nt, r, t, into, extra=0):
        if np.ndim(r):
            sizes.append(np.broadcast(r, t).size)
        return partials(nr, nt, r, t, into, extra)

    monkeypatch.setattr(prof, "_partials", recording)
    return sizes


@pytest.mark.parametrize("prof, r, t", _block_cases())
def test_table_is_bit_equal_under_any_block_partition(monkeypatch, prof, r, t):
    # one node per block (each pole node alone), 4 nodes (blocks that split
    # the pole row from the next), one t-row per block (the first block holds
    # exactly the r = 0 nodes of a pole grid) and every node in one block; a
    # (2, 1) table holds (3 + kr) x (2 + kt) coefficient arrays a node
    kr, kt = prof.orders
    arrays, size = (3 + kr) * (2 + kt), r.size * t.size
    sizes = _block_sizes(monkeypatch, prof)
    tables = {}
    for nodes in (1, 4, t.size, size):
        monkeypatch.setattr(symfun, "_BLOCK_COEFFS", nodes * arrays)
        sizes.clear()
        tables[nodes] = prof.table(2, 1, r, t)
        assert sum(sizes) == size and len(sizes) == -(-size // nodes), (nodes, sizes)
    whole = tables.pop(size)
    assert whole.shape == (3, 2, r.size, t.size) and np.all(np.isfinite(whole))
    for nodes, table in tables.items():
        assert np.array_equal(table, whole, equal_nan=True), nodes


def test_table_evaluates_blocks_of_bounded_size(monkeypatch):
    # the nodes of a (3, 10) grid under a budget of 48 coefficients: blocks
    # of the raveled (r, t), in order, the last one short, with fewer nodes
    # the more coefficient arrays the table's series holds
    prof = Profile("r**2*t + sin(r)")
    seen = []
    jet = prof.jet

    def recording(r, t):
        seen.append(np.array(r.c[0] if hasattr(r, "c") else r))
        return jet(r, t)

    monkeypatch.setattr(symfun, "_BLOCK_COEFFS", 48)
    monkeypatch.setattr(prof, "jet", recording)
    r, t = np.linspace(0.1, 1.0, 3)[:, None], np.linspace(0.0, 1.0, 10)
    for nr, nt, blocks in [(1, 1, [12, 12, 6]),  # 4 arrays: 48 // 4 = 12 nodes a block
                           (1, 0, [24, 6]),  # 2 arrays
                           (0, 1, [24, 6]),
                           (2, 1, [8, 8, 8, 6])]:  # 6 arrays
        seen.clear()
        table = prof.table(nr, nt, r, t)
        assert [block.size for block in seen] == blocks, (nr, nt)
        assert np.array_equal(np.concatenate(seen), np.broadcast_to(r, (3, 10)).ravel())
        assert table.shape == (nr + 1, nt + 1, 3, 10)
        assert np.array_equal(table[0, 0], r**2 * t + np.sin(r))


def test_forcing_table_memory_is_bounded(monkeypatch):
    # forcing.table(2, 0) on the solve grid of configs/numeric-gaussian.json
    # (257 x 128 nodes): evaluated in one piece its series peaked 16.6 MB
    # above the start under tracemalloc (CPython 3.11), and the forcing's
    # value alone 9.1 MB; in 4096-node blocks the (2, 0) table peaked at
    # 2.9 MB, and under the coefficient budget (10 arrays a node, so 2048-node
    # blocks) it peaks at 1.8 MB, the 0.8 MB table included
    sc = load_scenario(ROOT / "configs" / "numeric-gaussian.json")
    forcing, grid = sc.nonlinearity.forcing, sc.grid
    r, t = grid.r[:, None], grid.t[:-1]
    forcing.table(2, 0, r[:2], t[:2])  # compile and warm the code paths
    sizes = _block_sizes(monkeypatch, forcing)
    tracemalloc.start()
    try:
        table = forcing.table(2, 0, r, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forcing.orders == (2, 1) and sizes == [2048] * 16 + [128]
    assert table.shape == (3, 1, 257, 128) and np.all(np.isfinite(table))
    assert peak <= 2.0 * 2**20
