"""Command-line interface: scenario commands and parameter sweeps.

Each command writes its CSV file and returns its summary lines, its summary
payload and its failure count; :func:`main` writes ``summary.txt`` and
``summary.json`` from them.  Exit codes: 0 all checks passed, 1 the failure
count is positive (at least one inequality violation or failed gate),
2 configuration error (one of the package's refusals of an input), 3 numerical
failure (including arithmetic errors), 4 I/O failure, 5 internal error (any
other exception, a bare ValueError included, reported in one line).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .estimates import EstimateError, EstimateScope, estimate_matrix
from .fields import FieldError
from .geometry import Cylinder, GeometryError, extract_bounds
from .harnack import HarnackError, sample_pairs, verify_harnack
from .identities import (IdentityError, bochner_residual, commutator_residual,
                         harnack_evolution_residual, inequality_rhs,
                         pressure_equation_residual, quotient_rule_residual)
from .jets import PoleEvaluationError
from .params import ParamError
from .scenarios import ConfigError, Scenario, Section, load_scenario, read_config, read_number
from .solver import SolverError, weighted_mass
from .symfun import ExpressionError, Profile

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

# report.csv keeps, per report, this many least-margin and largest-lhs/rhs nodes
_REPORT_NODES = 8


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _write_summary(out: Path, lines, payload):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
        fh.write("\n")


# rows formatted per write: bounds the row text held in memory at once
_CSV_CHUNK_ROWS = 1024


def _objects(values) -> np.ndarray:
    """An object array holding each of ``values`` as it is, a list included."""
    return np.fromiter(values, dtype=object)


def _csv_text(value) -> str:
    """The csv text of one cell: ``_fmt(value)``, quoted where csv needs it."""
    buf = io.StringIO()
    csv.writer(buf).writerow((_fmt(value), ""))
    return buf.getvalue()[:-3]  # less the empty field's "," and "\r\n"


def _write_csv(path: Path, rows):
    """Write ``rows``, a numpy record array, as CSV under its field names.

    A float64 field prints as ``%.12g``, which is what ``_fmt`` gives a float;
    any other field's cells are ``_fmt``-ed and quoted by :func:`_csv_text`.
    Rows are formatted and written ``_CSV_CHUNK_ROWS`` at a time, so the text
    held at once does not grow with the row count.  They go to a ``.partial``
    file that becomes ``path`` only once all are written, so an error during
    the write leaves no truncated file behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    names = rows.dtype.names
    floats = [rows.dtype[name] == np.float64 for name in names]
    row_format = ",".join("%.12g" if is_float else "%s" for is_float in floats) + "\r\n"
    try:
        with open(partial, "w", newline="") as fh:
            csv.writer(fh).writerow(names)
            for start in range(0, len(rows), _CSV_CHUNK_ROWS):
                chunk = rows[start:start + _CSV_CHUNK_ROWS]
                cells = [chunk[name].tolist() if is_float
                         else list(map(_csv_text, chunk[name].tolist()))
                         for name, is_float in zip(names, floats)]
                fh.write("".join(map(row_format.__mod__, zip(*cells))))
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(sc: Scenario, out: Path):
    result = sc.run_solver()
    grid = sc.grid
    rr, tt = grid.mesh()
    columns = [values.ravel() for values in (rr, tt, result.u.values, result.v.values)]
    _write_csv(out / "solution.csv", np.rec.fromarrays(columns, names=("r", "t", "u", "v")))

    lines = [f"scenario: {sc.name}", "command: solve",
             f"grid: {grid.n_r} x {grid.n_t}  dr={grid.dr:.6g}  dt={grid.dt:.6g}",
             f"scheme: {result.meta['scheme']}",
             f"clamp events: {result.clamp_events} (fraction {result.clamp_fraction:.3e})"]
    payload = {"scenario": sc.name, "command": "solve", "meta": result.meta}
    if result.meta.get("clamp_warning"):
        lines.append("WARNING: clamp fraction above threshold")
    exact = sc.oracle_u(rr, tt)
    interior = grid.r <= 0.8 * grid.r_max
    err = float(np.max(np.abs(result.u.values[interior] - exact[interior])))
    lines.append(f"interior max error vs oracle: {err:.6e}")
    payload["oracle_interior_error"] = err
    if sc.pde.outer_boundary == "neumann-zero" and sc.nonlinearity.form == "zero":
        m0 = weighted_mass(result.u.values[:, 0], sc.geom, grid, grid.t[0])
        m1 = weighted_mass(result.u.values[:, -1], sc.geom, grid, grid.t[-1])
        drift = abs(m1 - m0) / max(abs(m0), 1e-300)
        lines.append(f"weighted-mass relative drift: {drift:.3e}")
        payload["mass_drift"] = drift
    return lines, payload, 0


def _identity_sample(sc: Scenario):
    geom = sc.geom
    n_r, n_t = 33, 17
    r_lo = 0.0 if geom.mode == "pole" else geom.r_max / 64
    r = np.linspace(r_lo, 0.95 * geom.r_max, n_r)[:, None]
    t = np.linspace(sc.t0 + sc.duration / 64, sc.t_hi, n_t)[None, :]
    return r, t


def cmd_check_identities(sc: Scenario, out: Path):
    if sc.solution_kind == "numeric":
        raise ConfigError("solution.kind", "identity checks need a closed-form pressure field")
    sol = sc.analytic_handle()
    geom, params, nl = sc.geom, sc.params, sc.nonlinearity
    r, t = _identity_sample(sc)
    # (name, value, mean, scale, threshold): a residual row gates its max
    # from above at 1e-9 and carries its mean, a margin row its min from
    # below and ""
    rows = []

    def residual_row(name, res, scale=1.0):
        res = np.abs(np.asarray(res))
        rows.append((name, float(np.max(res)), float(np.mean(res)), scale, 1e-9))

    residual_row("pressure-equation",
                 pressure_equation_residual(sc.v_profile, geom, params.p, nl, r, t))

    f = Profile("1 + r**2/3 + t/2", "f")
    g = Profile("2 + r**2*t/5", "g")
    residual_row("operator-quotient-rule",
                 quotient_rule_residual(f, g, sc.v_profile, geom, params.p, r, t))

    # one term table serves the identity and every inequality stage
    resid, table = harnack_evolution_residual(sol, geom, params, nl, r=r, t=t)
    lpv_scale = max(1.0, float(np.max(np.abs(table.LpvF))))
    residual_row("harnack-evolution-identity", resid, scale=lpv_scale)
    residual_row("weighted-bochner", bochner_residual(sc.v_profile, geom, r, t))
    if not geom.metric_static:
        residual_row("evolving-metric-commutator",
                     commutator_residual(sc.v_profile, geom, r, t))

    bounds = extract_bounds(geom, Cylinder.whole_domain(sc.t0, sc.t_hi))
    stages = [(f"evolution-inequality[{stage}]", stage, False)
              for stage in ("pointwise", "quadratic", "bounded")]
    if geom.metric_static:
        stages.append(("evolution-inequality[pointwise,sharp-static]", "pointwise", True))
    for name, stage, sharp in stages:
        marg = inequality_rhs(stage, table, bounds=bounds, sharper_static=sharp) - table.LpvF
        rows.append((name, float(np.min(marg)), "", lpv_scale, -1e-6))

    lines = [f"scenario: {sc.name}", "command: check-identities",
             f"geometry: {geom.name} ({geom.family}, n={geom.n}, m={geom.m:g})"]
    checks, status = [], []
    for name, value, mean, scale, thresh in rows:
        # a value that is not finite is neither a pass nor a violation
        if not np.isfinite([value, scale]).all():
            raise FloatingPointError(f"check-identities {name}: value {value}, scale {scale}")
        residual = mean != ""
        passed = value <= thresh * scale if residual else value >= thresh * scale
        status.append("pass" if passed else "FAIL")
        measured = {"max": value, "mean": mean} if residual else {"min_margin": value}
        text = (f"max residual {value:.3e} (mean {mean:.3e}, " if residual
                else f"min margin {value:+.3e} (")
        lines.append(f"  {name:42s} {text}scale {scale:.3g})  {status[-1]}")
        checks.append({"name": name, **measured, "scale": scale, "threshold": thresh})
    failed = status.count("FAIL")

    names, values, means, scales, thresholds = zip(*rows)
    columns = (_objects(names), np.array(values, dtype=float), _objects(means),
               np.array(scales, dtype=float), np.array(thresholds, dtype=float),
               _objects(status))
    _write_csv(out / "residuals.csv", np.rec.fromarrays(
        columns, names=("check", "max", "mean", "scale", "threshold", "status")))
    return lines, {"scenario": sc.name, "command": "check-identities", "checks": checks,
                   "failed": failed}, failed


def cmd_check_estimate(sc: Scenario, out: Path, negative_control: bool = False):
    ver = sc.verification
    reports, kept = [], []
    for rep in estimate_matrix(sc, rhs_scale=0.5 if negative_control else 1.0):
        reports.append(rep.summary)
        # the report's least margins and largest lhs/rhs, in node order
        keep = np.zeros(rep.margin.size, dtype=bool)
        for order in (rep.margin, -rep.scope.lhs / rep.rhs):
            keep[np.argsort(order, kind="stable")[:_REPORT_NODES]] = True
        n, eps = np.count_nonzero(keep), "" if rep.eps is None else rep.eps
        kept.append((_objects([rep.variant] * n), _objects([eps] * n),
                     *(values[keep] for values in (rep.scope.r, rep.scope.t_abs, rep.scope.lhs,
                                                   rep.rhs, rep.margin))))
    _write_csv(out / "report.csv", np.rec.fromarrays(
        [np.concatenate(column) for column in zip(*kept)],
        names=("variant", "eps", "r", "t", "lhs", "rhs", "margin")))

    total_violations = sum(rep["violations"] for rep in reports)
    lines = [f"scenario: {sc.name}", "command: check-estimate",
             f"verification cylinder: radius {ver['radius']:g}, "
             f"t in [{sc.t0:g}, {sc.t_hi:g}] (clock starts at t0)",
             f"sup sampling density: {ver['sup_density']}"]
    if negative_control:
        lines.append("NEGATIVE CONTROL: right-hand sides scaled by 0.5")
    eps_text = lambda eps: "limit" if eps is None else f"{eps:.5g}"
    for rep in reports:
        tag = f"{rep['variant']:22s} eps={eps_text(rep['eps'])}"
        lines.append(f"  {tag:44s} min margin {rep['min_margin']:+.6e} at "
                     f"(r={rep['argmin_r']:.4g}, tau={rep['argmin_tau']:.4g})  "
                     f"violations {rep['violations']}")
    for variant in dict.fromkeys(rep["variant"] for rep in reports):
        rep = max((rep for rep in reports if rep["variant"] == variant),
                  key=lambda rep: rep["min_margin"])
        lines.append(f"  best eps for {variant}: {eps_text(rep['eps'])} "
                     f"(min margin {rep['min_margin']:+.6e})")
    lines.append(f"total violations: {total_violations}")
    payload = {
        "scenario": sc.name, "command": "check-estimate",
        "negative_control": negative_control,
        "reports": reports,
        "violations": total_violations,
    }
    return lines, payload, total_violations


def cmd_check_harnack(sc: Scenario, out: Path):
    sol = sc.solution_handle()
    geom, params = sc.geom, sc.params
    if not params.coeffs.alpha.time_independent:
        raise ConfigError("harnack.alpha", "the integrated inequality needs constant alpha")
    ver = sc.verification
    # check-estimate's global scope, without its verification nodes
    scope = EstimateScope(sol, geom, params, sc.nonlinearity,
                          Cylinder(ver["radius"], sc.t0, sc.t_hi), sc.t0, "global",
                          ver["sup_density"])
    v_inf = scope.samples.v_inf
    quantities = scope.quantities([(family, 0.5 * params.eps_ceiling(scope.samples.tau, family))
                                   for family in ("first", "second")])
    pairs = sample_pairs(sc.seed, ver["pairs"], geom.r_max, sc.duration / 64, sc.duration)

    lines = [f"scenario: {sc.name}", "command: check-harnack",
             f"pairs: {len(pairs)} (seed {sc.seed})", f"inf v: {v_inf:.6g}"]
    payload = {"scenario": sc.name, "command": "check-harnack", "seed": sc.seed,
               "pairs": len(pairs), "v_inf": v_inf, "families": {}}
    header = ("family", "r1", "tau1", "r2", "tau2", "energy", "ratio", "bound",
              "margin", "log_integral_margin", "status")
    columns = []
    violations = 0
    for q in quantities:
        family = q["family"]
        rep = verify_harnack(sol, geom, params, q, pairs, sc.t0, v_inf)
        entry = payload["families"][family] = {
            "H": rep["H"], "violations": rep["violations"],
            "worst_margin": float(np.min(rep["margin"])),
            "worst_log_integral_margin": float(np.min(rep["log_integral_margin"])),
            "log_integral_violations": rep["log_integral_violations"],
        }
        violations += entry["violations"] + entry["log_integral_violations"]
        lines.append("  family {family:6s}: H = {H:.6g}, violations {violations}, "
                     "worst margin {worst_margin:+.6e}, worst log-integral margin "
                     "{worst_log_integral_margin:+.6e}".format(family=family, **entry))
        columns.append((_objects([family] * len(pairs)), *(rep[name] for name in header[1:-1]),
                        np.where(rep["passed"], "pass", "FAIL").astype(object)))
    _write_csv(out / "pairs.csv", np.rec.fromarrays(
        [np.concatenate(column) for column in zip(*columns)], names=header))
    lines.append(f"total violations: {violations}")
    payload["violations"] = violations
    return lines, payload, violations


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _set_path(doc: dict, dotted: str, value):
    parts = dotted.split(".")
    node = doc
    for key in parts[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"sweep.axes.{dotted}",
                              f"the template's {key!r} is not an object")
    node[parts[-1]] = value


def run_sweep(sweep_doc: dict, out: Path, workers: int = 1):
    sweep = Section(sweep_doc, "sweep")
    template = sweep.get("template", None)
    if not isinstance(template, dict):
        raise ConfigError("sweep.template", "missing scenario template")
    command = sweep.get("command", "check-estimate")
    if command != "check-estimate":
        raise ConfigError("sweep.command", f"sweeps only drive check-estimate, got {command!r}")
    axes = sweep.get("axes", {})
    if not isinstance(axes, dict) or not axes:
        raise ConfigError("sweep.axes", f"need an object of at least one axis, got {axes!r}")
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.axes.{name}", "axis must be a non-empty list")
    cap = sweep.number("cap", 64, integer=True, at_least=1)
    sweep.close()
    names = list(axes.keys())
    combos = list(itertools.product(*(axes[n] for n in names)))
    if len(combos) > cap:
        raise ConfigError("sweep.axes", f"{len(combos)} combinations exceed the cap {cap}")

    from .scenarios import parse_scenario

    def one(combo):
        doc = json.loads(json.dumps(template))
        for name, value in zip(names, combo):
            _set_path(doc, name, value)
        started = time.time()
        counts = [(rep.min_margin, rep.violations) for rep in estimate_matrix(parse_scenario(doc))]
        min_margin = min((margin for margin, _ in counts), default=np.inf)
        return combo, min_margin, sum(n for _, n in counts), time.time() - started

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, combos))
    else:
        results = [one(c) for c in combos]

    header = tuple(names) + ("min_margin", "violations", "runtime_s")
    combo_rows, margins, viols, runtimes = zip(*results)
    columns = (*map(_objects, zip(*combo_rows)), np.array(margins, dtype=float),
               _objects(viols), _objects(f"{runtime:.3f}" for runtime in runtimes))
    _write_csv(out / "sweep.csv", np.rec.fromarrays(columns, names=header))
    total_violations = sum(viols)
    lines = ["command: sweep", f"axes: {names}", f"combinations: {len(combos)}",
             f"total violations: {total_violations}"]
    payload = {"command": "sweep", "axes": names,
               "combinations": len(combos), "violations": total_violations,
               "rows": [{"combo": list(c), "min_margin": m, "violations": v}
                        for c, m, v, _ in results]}
    return lines, payload, total_violations


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harnacklab",
        description="Verification laboratory for gradient estimates and Harnack "
                    "inequalities for weighted slow diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "check-identities", "check-estimate", "check-harnack", "sweep"):
        cp = sub.add_parser(name)
        cp.add_argument("--config", required=True, help="scenario JSON path")
        cp.add_argument("--out", required=True, help="output directory")
        cp.add_argument("--seed", type=int, default=None, help="override scenario seed")
        if name == "sweep":
            cp.add_argument("--workers", type=int, default=1)
        if name == "check-estimate":
            cp.add_argument("--negative-control", action="store_true",
                            help="scale right-hand sides by 0.5; the check must fail")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = Path(args.out)
        if args.seed is not None:
            read_number(args.seed, "--seed", integer=True, at_least=0)
        if args.command == "sweep":
            config = read_config(args.config)
        else:
            config = load_scenario(args.config)
            if args.seed is not None:
                config.seed = args.seed
        # built per call, so a command replaced on this module is the one run
        command = {"solve": cmd_solve, "check-identities": cmd_check_identities,
                   "check-estimate": cmd_check_estimate, "check-harnack": cmd_check_harnack,
                   "sweep": run_sweep}[args.command]
        options = {name: value for name, value in vars(args).items()
                   if name in ("negative_control", "workers")}
        lines, payload, failures = command(config, out, **options)
        _write_summary(out, lines, payload)
        return EXIT_VIOLATION if failures > 0 else EXIT_OK
    except (SolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ParamError, GeometryError, EstimateError, IdentityError, HarnackError,
            FieldError, ExpressionError, PoleEvaluationError) as exc:
        # the package's refusals of an input, in any layer, are configuration
        # problems at the CLI surface; any other ValueError is internal
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
