"""Run one harnacklab CLI command with per-layer spans recorded.

Usage::

    python perfbench/shim.py SPANS.npz -- <harnacklab.cli arguments>

The shim imports ``harnacklab.cli`` (timed as the ``cli.import`` span),
wraps the public functions of each module from outside the package, runs
``cli.main`` and, when the command exits, writes every span and counter to
SPANS.npz.  A span is (name, start, end, parent, thread); parents are tracked
per thread, so the sweep's worker threads get their own span trees.  The
exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from array import array

_clock = time.perf_counter


class Recorder:
    """Spans in per-thread buffers, plus counters; nothing leaves memory
    until :meth:`dump`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self._keepalive: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self):
        local = self._local
        try:
            return local.buf
        except AttributeError:
            # (name, parent, start, end, open-span stack)
            local.buf = (array("i"), array("i"), array("d"), array("d"), [])
            self._buffers.append(local.buf)
            return local.buf

    def begin(self, nid: int) -> tuple:
        names, parents, starts, ends, stack = buf = self._buffer()
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        ends.append(0.0)
        stack.append(idx)
        starts.append(_clock())
        return buf, idx

    @staticmethod
    def end(token: tuple):
        t = _clock()
        buf, idx = token
        buf[3][idx] = t
        buf[4].pop()

    def add_span(self, name: str, start: float, end: float):
        names, parents, starts, ends, stack = self._buffer()
        names.append(self.name_id(name))
        parents.append(stack[-1] if stack else -1)
        starts.append(start)
        ends.append(end)

    def count(self, name: str, amount: float = 1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def distinct(self, name: str, key, *alive):
        """Count a call and remember its input key; ``alive`` holds objects
        whose ``id`` is part of the key, so the ids stay unique."""
        with self._lock:
            self._distinct.setdefault(name, set()).add(key)
            self._keepalive.append(alive)

    def dump(self, path: str):
        import numpy as np

        now = _clock()
        cols = [[], [], [], [], []]
        offset = 0
        for thread, (names, parents, starts, ends, _) in enumerate(self._buffers):
            par = np.frombuffer(parents, dtype=np.int32).astype(np.int64)
            cols[0].append(np.frombuffer(names, dtype=np.int32))
            cols[1].append(np.where(par >= 0, par + offset, -1))
            cols[2].append(np.frombuffer(starts, dtype=float))
            end = np.frombuffer(ends, dtype=float).copy()
            end[end == 0.0] = now          # spans still open at exit
            cols[3].append(end)
            cols[4].append(np.full(len(starts), thread, dtype=np.int32))
            offset += len(starts)
        arrays = [np.concatenate(c) if c else np.zeros(0) for c in cols]
        counters = dict(self.counters)
        for name, keys in self._distinct.items():
            counters[name] = len(keys)
        tmp = path + ".tmp.npz"
        np.savez(tmp, name=arrays[0], parent=arrays[1], start=arrays[2],
                 end=arrays[3], thread=arrays[4], names=np.array(self.names),
                 counters=np.array(json.dumps(counters, sort_keys=True)))
        os.replace(tmp, path)


REC = Recorder()


def _wrap(fn, span: str | None, before=None, after=None):
    """Wrap ``fn`` in a span named ``span`` (None: no span, hooks only).

    ``before(arguments)`` runs before the span opens and ``after(arguments,
    result)`` after it closes, so their cost stays out of the layer's time.
    """
    sig = inspect.signature(fn) if (before or after) else None
    nid = REC.name_id(span) if span else None

    def wrapper(*args, **kwargs):
        arguments = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            if before:
                before(arguments)
        if nid is None:
            result = fn(*args, **kwargs)
        else:
            token = REC.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                REC.end(token)
        if after:
            after(arguments, result)
        return result

    return functools.wraps(fn)(wrapper)


def _patch_function(module, attr: str, span: str | None, before=None, after=None):
    """Replace ``module.attr`` in every harnacklab module that binds it.

    A target the program no longer has is counted as ``trace.missing`` and
    left out, so its metrics read 0 and the run says why.
    """
    if not hasattr(module, attr):
        REC.count(f"trace.missing:{module.__name__}.{attr}")
        return
    original = getattr(module, attr)
    wrapped = _wrap(original, span, before, after)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "harnacklab" or name.startswith("harnacklab.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
    if getattr(module, attr) is original:      # e.g. sympy, outside the package
        setattr(module, attr, wrapped)


def _patch_method(cls, attr: str, span: str):
    if not hasattr(cls, attr):
        REC.count(f"trace.missing:{cls.__module__}.{cls.__qualname__}.{attr}")
        return
    setattr(cls, attr, _wrap(getattr(cls, attr), span))


def _cylinder_key(cyl):
    return (cyl.radius, cyl.t_lo, cyl.t_hi)


def _density_key(density):
    return tuple(density) if isinstance(density, (tuple, list)) else (density, density)


def install():
    import sympy

    import harnacklab.cli as cli
    from harnacklab import (estimates, fields, geometry, harnack, identities,
                            scenarios, solver, symfun)

    # cli
    for name in ("cmd_solve", "cmd_check_identities", "cmd_check_estimate",
                 "cmd_check_harnack", "cmd_report"):
        _patch_function(cli, name, "cli.command")
    _patch_function(cli, "run_sweep", "cli.sweep")

    def csv_written(args, _result):
        REC.count("cli.csv_rows", len(args["rows"]))
        REC.count("cli.csv_bytes", os.path.getsize(args["path"]))

    _patch_function(cli, "_write_csv", "cli.write_csv", after=csv_written)

    # scenarios: parse_scenario does the work; load_scenario adds the file read
    _patch_function(scenarios, "load_scenario", "scenarios.load")
    _patch_function(scenarios, "parse_scenario", "scenarios.load",
                    before=lambda a: REC.count("scenarios.load_calls"))

    # symfun, including the sympy entry points it uses
    _patch_method(symfun.Profile, "__call__", "symfun.eval")
    _patch_method(symfun.Profile, "at", "symfun.eval")
    _patch_method(symfun.Profile, "deriv_expr", "symfun.diff")
    _patch_function(sympy, "lambdify", "symfun.lambdify")
    _patch_function(sympy, "limit", "symfun.limit")

    # solver and fields
    _patch_function(solver, "solve", "solver.solve")
    _patch_function(solver, "step", "solver.step")
    _patch_function(fields, "diff", "fields.diff")

    # geometry
    def bounds_input(a):
        REC.distinct("geometry.extract_bounds_distinct",
                     (id(a["geom"]), _cylinder_key(a["cyl"]),
                      _density_key(a["grid_density"])), a["geom"])

    _patch_function(geometry, "extract_bounds", "geometry.extract_bounds",
                    before=bounds_input)

    # estimates (params work is counted inside these spans)
    def samples_input(a):
        REC.distinct("estimates.collect_sup_samples_distinct",
                     (id(a["solution"]), id(a["geom"]), id(a["params"]), id(a["nl"]),
                      _cylinder_key(a["cyl"]), a["t0_clock"], _density_key(a["density"])),
                     a["solution"], a["geom"], a["params"], a["nl"])

    _patch_function(estimates, "collect_sup_samples", "estimates.collect_sup_samples",
                    before=samples_input)
    _patch_function(estimates, "verify_estimate", "estimates.verify_estimate",
                    after=lambda a, rep: REC.count("estimates.nodes_checked",
                                                   int(rep.margin.size)))
    _patch_function(estimates, "sup_quantities", None,
                    before=lambda a: REC.count("estimates.sup_quantities_calls"))

    # identities
    _patch_method(identities.TermTable, "__init__", "identities.termtable")
    for name in ("pressure_equation_residual", "quotient_rule_residual",
                 "harnack_evolution_residual", "commutator_residual",
                 "bochner_residual", "inequality_margin"):
        _patch_function(identities, name, "identities.residual")

    # harnack
    _patch_function(harnack, "verify_harnack", "harnack.verify_harnack",
                    before=lambda a: REC.count("harnack.pairs_checked", len(a["pairs"])))
    _patch_function(harnack, "path_energy", None,
                    before=lambda a: REC.count("harnack.path_energy_calls"))
    _patch_function(harnack, "log_integral_margin", "harnack.log_integral")
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: shim.py SPANS.npz -- <cli arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    start = _clock()
    import harnacklab.cli  # noqa: F401  (timed: the import every invocation pays)
    REC.add_span("cli.import", start, _clock())
    cli = install()
    try:
        return cli.main(cli_args)
    finally:
        REC.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
