"""Benchmark for the harnacklab CLI.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

The benchmark drives the CLI the way a user does: ``python -m
harnacklab.cli <command>``, one command at a time, each in a fresh
interpreter.  That is a closed loop with one client.  A *pass* is the
workload's whole command sequence; passes repeat until ``--seconds`` of
pass time has gone by (at least one pass).  The seed is passed to every
command as ``--seed``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` runs untraced passes, then the same passes through
``perfbench/shim.py``, which records spans around each module's public
functions, and reports the per-layer metrics: self times summed over a
pass, exact call counts and useful-work ratios.

Every command's outputs are checked (exit code, verdict counts, tracebacks,
expected files, solver accuracy, byte identity for the same seed); a
command failing any check counts in ``failed``.  The last line of standard
output is the JSON result; a fuller record with provenance and per-command
digests is written under ``.perfbench/results/``.  See perfbench/README.md
for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INPUTS = BENCH / "inputs"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".perfbench"

# Every child gets the same hash seed: sympy's set ordering can change its
# algorithm path (and so its timing, not its output) from one seed to the next.
CHILD_HASH_SEED = "0"
# numpy and scipy each start an OpenBLAS thread pool at import; on a shared
# 2-core host those threads contend with other tenants and add run-to-run
# noise.  The CLI's work is single-threaded, so one BLAS thread per child.
CHILD_BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
# A numeric solve must match its oracle this closely on the interior
# (the seed's solver gives 2.1e-4 to 3.1e-4 on the three solved configs).
ORACLE_ERROR_BOUND = 5e-4
# Set-up probes per run are spread over the workload's configs, at least one
# per config and at least this many in all; each config reports its median.
MIN_SETUP_PROBES = 3

OUTPUT_FILES = {
    "solve": "solution.csv",
    "check-identities": "residuals.csv",
    "check-estimate": "report.csv",
    "check-harnack": "pairs.csv",
    "sweep": "sweep.csv",
}
VERDICT_KEY = {
    "check-identities": "failed",
    "check-estimate": "violations",
    "check-harnack": "violations",
    "sweep": "violations",
}

PROBE = """\
import json, sys
import harnacklab.cli
from harnacklab import scenarios
path, kind = sys.argv[1:3]
if kind == "sweep":
    with open(path) as fh:
        scenarios.parse_scenario(json.load(fh)["template"])
else:
    scenarios.load_scenario(path)
"""


@dataclass(frozen=True)
class Command:
    sub: str
    config: Path
    flags: tuple[str, ...] = ()
    expect_rc: int = 0

    @property
    def label(self) -> str:
        return " ".join((f"{self.sub}:{self.config.stem}",) + self.flags)

    def cli_args(self, out: Path, seed: int) -> list[str]:
        return [self.sub, "--config", str(self.config), "--out", str(out),
                "--seed", str(seed), *self.flags]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    # traced runs only: extra commands reported on their own
    traced_extra: tuple[Command, ...] = ()

    def setup_configs(self) -> list[tuple[Path, str]]:
        seen = {}
        for cmd in self.commands:
            seen.setdefault(cmd.config, "sweep" if cmd.sub == "sweep" else "scenario")
        return list(seen.items())


def _shipped(name: str) -> Path:
    return CONFIGS / f"{name}.json"


_ANALYTIC = ("gaussian-conformal", "hyperbolic-manufactured", "evolving-warp-identities",
             "powerlaw-static", "barenblatt")
_WIDE_SWEEP = INPUTS / "sweep-p-alpha-wide.json"
_POLE = INPUTS / "hyperbolic-bump.json"
_NUMERIC = _shipped("numeric-gaussian")

WORKLOADS = {
    # analytic scenarios users run: import, symbolic prep, sampled-node
    # estimates and per-eps recomputation; no solver
    "closed-form": Workload(
        commands=(
            *(Command("check-identities", _shipped(c)) for c in _ANALYTIC),
            *(Command("check-estimate", _shipped(c)) for c in _ANALYTIC),
            Command("check-estimate", _shipped("negative-control"),
                    ("--negative-control",), expect_rc=1),
            *(Command("check-harnack", _shipped(c)) for c in
              ("barenblatt", "gaussian-conformal", "hyperbolic-manufactured",
               "evolving-warp-identities")),
            # default worker count: no --workers flag
            Command("sweep", _WIDE_SWEEP),
        ),
        traced_extra=(Command("sweep", _WIDE_SWEEP, ("--workers", "2")),),
    ),
    # warp-adapted field on a curved warp: pole values go through sympy.limit,
    # which no shipped config spends much time in
    # check-identities on the same scenario (9 more limit calls, ~20 s) is left
    # out so that 22 runs of every workload fit the benchmark's time budget
    "pole-limit": Workload(
        commands=(Command("check-estimate", _POLE),),
    ),
    # finite-volume solver, grid-mode stencils and the 20 MB report.csv; the
    # solves cover a static volume density (barenblatt) and one depending on
    # both r and t (evolving warp)
    "numeric": Workload(
        commands=(
            Command("solve", _NUMERIC),
            Command("check-estimate", _NUMERIC),
            Command("check-harnack", _NUMERIC),
            Command("solve", _shipped("barenblatt")),
            Command("solve", _shipped("evolving-warp-identities")),
        ),
    ),
}

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but left out of the JSON result.  The
# median of one pass's few, unlike commands is about as noisy as a single
# command on a shared host (IQR/median 0.17 over ten seeds on numeric), too
# noisy to hold to a regression bound.
PRINTED_ONLY = (("cmd_p50_s", "s"),)

# (metric, unit, how it is read from a pass summary)
PER_LAYER = (
    ("cli.import_s", "s", ("self", "cli.import")),
    ("cli.command_self_s", "s", ("self", "cli.command")),
    ("cli.write_csv_s", "s", ("self", "cli.write_csv")),
    ("cli.csv_rows", "count", ("counter", "cli.csv_rows")),
    ("cli.csv_mb", "MB", ("counter_mb", "cli.csv_bytes")),
    ("cli.sweep_s", "s", ("inclusive", "cli.sweep")),
    ("cli.sweep_workers2_s", "s", ("extra_inclusive", "cli.sweep")),
    ("scenarios.load_calls", "count", ("counter", "scenarios.load_calls")),
    ("scenarios.load_s", "s", ("self", "scenarios.load")),
    ("symfun.limit_calls", "count", ("calls", "symfun.limit")),
    ("symfun.limit_s", "s", ("self", "symfun.limit")),
    ("symfun.eval_calls", "count", ("calls", "symfun.eval")),
    ("symfun.eval_s", "s", ("self", "symfun.eval")),
    ("symfun.lambdify_calls", "count", ("calls", "symfun.lambdify")),
    ("symfun.lambdify_s", "s", ("self", "symfun.lambdify")),
    ("symfun.diff_s", "s", ("self", "symfun.diff")),
    ("solver.solve_calls", "count", ("calls", "solver.solve")),
    ("solver.solve_s", "s", ("self", "solver.solve")),
    ("solver.step_calls", "count", ("calls", "solver.step")),
    ("solver.step_ms", "ms", ("per_call_ms", "solver.step")),
    ("fields.diff_calls", "count", ("calls", "fields.diff")),
    ("fields.diff_s", "s", ("self", "fields.diff")),
    ("geometry.extract_bounds_calls", "count", ("calls", "geometry.extract_bounds")),
    ("geometry.extract_bounds_s", "s", ("self", "geometry.extract_bounds")),
    ("geometry.extract_bounds_unique_ratio", "ratio",
     ("distinct_ratio", "geometry.extract_bounds")),
    ("estimates.verify_estimate_calls", "count", ("calls", "estimates.verify_estimate")),
    ("estimates.verify_estimate_s", "s", ("self", "estimates.verify_estimate")),
    ("estimates.collect_sup_samples_calls", "count",
     ("calls", "estimates.collect_sup_samples")),
    ("estimates.collect_sup_samples_s", "s", ("self", "estimates.collect_sup_samples")),
    ("estimates.sup_samples_unique_ratio", "ratio",
     ("distinct_ratio", "estimates.collect_sup_samples")),
    ("estimates.sup_quantities_calls", "count",
     ("counter", "estimates.sup_quantities_calls")),
    ("estimates.nodes_checked", "count", ("counter", "estimates.nodes_checked")),
    ("identities.termtable_builds", "count", ("calls", "identities.termtable")),
    ("identities.termtable_s", "s", ("self", "identities.termtable")),
    ("identities.residual_s", "s", ("self", "identities.residual")),
    ("harnack.verify_harnack_s", "s", ("self", "harnack.verify_harnack")),
    ("harnack.path_energy_calls", "count", ("counter", "harnack.path_energy_calls")),
    ("harnack.log_integral_s", "s", ("self", "harnack.log_integral")),
    ("harnack.pairs_checked", "count", ("counter", "harnack.pairs_checked")),
    ("trace.overhead_frac", "ratio", ("overhead", None)),
)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = CHILD_HASH_SEED
    env.update(CHILD_BLAS_THREADS)
    return env


def run_child(argv: list[str], log: Path) -> Child:
    """Run one child to completion; its rusage comes from ``os.wait4``, which
    (unlike RUSAGE_CHILDREN) is this child's own, including its peak RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(rc=proc.returncode, wall_s=wall,
                 cpu_s=usage.ru_utime + usage.ru_stime,
                 rss_mb=usage.ru_maxrss / 1024.0,
                 stderr=log.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _file_digest(path: Path) -> str:
    if path.name != "sweep.csv":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    # runtime_s holds wall time by design; mask it before hashing
    rows = list(csv.reader(io.StringIO(path.read_text(), newline="")))
    col = rows[0].index("runtime_s") if rows and "runtime_s" in rows[0] else None
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, row in enumerate(rows):
        if col is not None and i > 0 and col < len(row):
            row[col] = "*"
        writer.writerow(row)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def output_digest(out: Path) -> str:
    lines = [f"{p.name} {_file_digest(p)}\n" for p in sorted(out.iterdir()) if p.is_file()]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def check_outputs(cmd: Command, child: Child, out: Path) -> list[str]:
    """Problems with one command's run; empty when it passed every check."""
    problems = []
    if child.rc != cmd.expect_rc:
        problems.append(f"exit code {child.rc}, expected {cmd.expect_rc}")
    if "Traceback (most recent call last)" in child.stderr:
        problems.append("printed a traceback")
    missing = [name for name in ("summary.json", "summary.txt", OUTPUT_FILES[cmd.sub])
               if not (out / name).is_file()]
    if missing:
        problems.append(f"missing output {missing}")
    if (out / "summary.json").is_file():
        try:
            summary = json.loads((out / "summary.json").read_text())
        except json.JSONDecodeError as exc:
            return problems + [f"summary.json unreadable: {exc}"]
        key = VERDICT_KEY.get(cmd.sub)
        if key is not None:
            found = summary.get(key)
            ok = (isinstance(found, int) and found >= 1) if cmd.expect_rc else found == 0
            if not ok:
                want = ">= 1" if cmd.expect_rc else "0"
                problems.append(f"summary {key} = {found!r}, expected {want}")
        if cmd.sub == "solve":
            err = summary.get("oracle_interior_error")
            if not isinstance(err, (int, float)) or not err <= ORACLE_ERROR_BOUND:
                problems.append(f"oracle_interior_error {err!r} above {ORACLE_ERROR_BOUND:g}")
    return problems


class DigestStore:
    """Output digests per (workload, seed, command), kept across runs in the
    checkout so that any two runs of the same seed are compared."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.known = {}

    def check(self, key: str, digest: str) -> str | None:
        first = self.known.setdefault(key, digest)
        return None if first == digest else f"output digest {digest[:12]} differs from {first[:12]} for the same seed"

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class CommandRun:
    label: str
    child: Child
    problems: list[str]
    digest: str | None
    spans: Path | None


@dataclass
class Pass:
    runs: list[CommandRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.child.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.child.cpu_s for r in self.runs)


class Runner:
    def __init__(self, workload: str, seed: int, scratch: Path, digests: DigestStore):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.scratch = scratch
        self.digests = digests
        self._n = 0

    def _slot(self, stem: str) -> Path:
        self._n += 1
        return self.scratch / f"{self._n:03d}-{stem}"

    def run_command(self, cmd: Command, traced: bool) -> CommandRun:
        slot = self._slot(cmd.sub)
        out = slot / "out"
        spans = slot / "spans.npz" if traced else None
        cli = cmd.cli_args(out, self.seed)
        if traced:
            argv = [sys.executable, str(BENCH / "shim.py"), str(spans), "--", *cli]
        else:
            argv = [sys.executable, "-m", "harnacklab.cli", *cli]
        slot.mkdir(parents=True)
        child = run_child(argv, slot / "stderr.txt")
        problems = check_outputs(cmd, child, out)
        digest = output_digest(out) if out.is_dir() else None
        if digest is not None:
            key = f"{self.name}|{self.seed}|{cmd.label}"
            mismatch = self.digests.check(key, digest)
            if mismatch:
                problems.append(mismatch)
        if spans is not None and not spans.is_file():
            problems.append("the trace shim wrote no spans")
            spans = None
        shutil.rmtree(out, ignore_errors=True)      # report.csv is 20 MB
        return CommandRun(cmd.label, child, problems, digest, spans)

    def run_passes(self, seconds: float, traced: bool) -> list[Pass]:
        passes = []
        while not passes or sum(p.wall_s for p in passes) < seconds:
            passes.append(Pass([self.run_command(c, traced) for c in self.workload.commands]))
        return passes

    def probe_setup(self) -> tuple[float, list[CommandRun]]:
        """Set-up time: per config, a fresh interpreter imports harnacklab.cli
        and loads the scenario (a sweep parses its template); the per-config
        medians are summed."""
        configs = self.workload.setup_configs()
        repeats = max(1, math.ceil(MIN_SETUP_PROBES / len(configs)))
        total, runs = 0.0, []
        for config, kind in configs:
            walls = []
            for _ in range(repeats):
                slot = self._slot("probe")
                slot.mkdir(parents=True)
                child = run_child([sys.executable, "-c", PROBE, str(config), kind],
                                  slot / "stderr.txt")
                problems = [] if child.rc == 0 else [f"set-up probe exit code {child.rc}"]
                runs.append(CommandRun(f"setup:{config.stem}", child, problems, None, None))
                walls.append(child.wall_s)
            total += statistics.median(walls)
        return total, runs

    def warm_up(self):
        """Import the CLI once, untimed: it compiles bytecode on the first run
        in a checkout and loads the libraries into the page cache, which users
        do not pay for on every invocation."""
        slot = self._slot("warmup")
        slot.mkdir(parents=True)
        child = run_child([sys.executable, "-c", "import harnacklab.cli"], slot / "stderr.txt")
        if child.rc != 0:
            raise SystemExit(f"cannot import harnacklab.cli:\n{child.stderr}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(passes: list[Pass], setup_s: float) -> tuple[dict, dict]:
    runs = [r for p in passes for r in p.runs]
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "cmd_p50_s": statistics.median(r.child.wall_s for r in runs),
        "setup_s": setup_s,
        "peak_rss_mb": max(r.child.rss_mb for r in runs),
    }
    samples = {"wall_s": len(passes), "cpu_s": len(passes), "cmd_p50_s": len(runs)}
    return values, samples


def summarize_spans(files: list[Path]) -> dict:
    """Per span name: calls, self and inclusive seconds; plus counters."""
    import numpy as np

    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for path in files:
        with np.load(path, allow_pickle=False) as data:
            names = [str(n) for n in data["names"]]
            name_idx, parent = data["name"], data["parent"]
            dur = data["end"] - data["start"]
            has_parent = parent >= 0
            child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                     minlength=len(dur))
            self_time = dur - child_time
            for i, name in enumerate(names):
                sel = name_idx == i
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += int(np.count_nonzero(sel))
                acc[1] += float(self_time[sel].sum())
                acc[2] += float(dur[sel].sum())
            for key, value in json.loads(str(data["counters"])).items():
                counters[key] = counters.get(key, 0) + value
    return {"spans": spans, "counters": counters}


def layer_values(summary: dict, extra: dict | None, overhead: float) -> dict:
    spans, counters = summary["spans"], summary["counters"]

    def span(name, col):
        return spans.get(name, [0, 0.0, 0.0])[col]

    values = {}
    for metric, _unit, (kind, key) in PER_LAYER:
        if kind == "self":
            value = span(key, 1)
        elif kind == "inclusive":
            value = span(key, 2)
        elif kind == "calls":
            value = span(key, 0)
        elif kind == "counter":
            value = counters.get(key, 0)
        elif kind == "counter_mb":
            value = counters.get(key, 0) / 1e6
        elif kind == "per_call_ms":
            calls = span(key, 0)
            value = 1000.0 * span(key, 1) / calls if calls else 0.0
        elif kind == "distinct_ratio":
            calls = span(key, 0)
            value = counters.get(f"{key}_distinct", 0) / calls if calls else 0.0
        elif kind == "extra_inclusive":
            value = extra["spans"].get(key, [0, 0.0, 0.0])[2] if extra else 0.0
        else:
            value = overhead
        values[metric] = value
    return values


# ---------------------------------------------------------------------------
# provenance and entry point
# ---------------------------------------------------------------------------

def _tree_digest(base: Path, suffixes: tuple[str, ...]) -> str:
    tree = hashlib.sha256()
    for path in sorted(base.rglob("*")):
        if path.suffix not in suffixes or "__pycache__" in path.parts:
            continue
        tree.update(f"{path.relative_to(base)}\n".encode() + path.read_bytes())
    return tree.hexdigest()


def provenance(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git_sha = res.stdout.strip() or None
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha, "seed": seed,
            "source_sha256": _tree_digest(ROOT / "src" / "harnacklab", (".py",)),
            "bench_sha256": _tree_digest(BENCH, (".py", ".json")),
            "child_pythonhashseed": CHILD_HASH_SEED}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def _missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "harnacklab" / "cli.py", BENCH / "shim.py"]
    needed += [c.config for w in WORKLOADS.values() for c in w.commands]
    return [str(p) for p in dict.fromkeys(needed) if not p.is_file()]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = _missing_inputs()
    if missing:
        print(f"benchmark inputs missing (not a harnacklab checkout?): {missing}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    digests = DigestStore(WORK / "digests.json")
    prov = provenance(args.seed)
    runner = Runner(args.workload, args.seed, scratch, digests)
    metrics: dict[str, tuple[float, str]] = {}
    printed: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    probes: list[CommandRun] = []
    try:
        runner.warm_up()
        if args.trace == 0:
            setup_s, probes = runner.probe_setup()
            plain = runner.run_passes(args.seconds, traced=False)
            commands = [r for p in plain for r in p.runs]
            values, samples = end_to_end_metrics(plain, setup_s)
            for name, unit in END_TO_END:
                metrics[name] = (values[name], unit)
            for name, unit in PRINTED_ONLY:
                printed[name] = (values[name], unit)
            for name, n in samples.items():
                notes[name] = f"median of {n}"
            notes["setup_s"] = (f"{len(probes)} probes over "
                                f"{len(runner.workload.setup_configs())} configs")
            notes["peak_rss_mb"] = f"max of {len(commands)} commands"
        else:
            plain = runner.run_passes(args.seconds, traced=False)
            traced = runner.run_passes(args.seconds, traced=True)
            extra = [runner.run_command(c, traced=True) for c in runner.workload.traced_extra]
            commands = [r for p in plain + traced for r in p.runs] + extra
            overhead = (statistics.median(p.wall_s for p in traced)
                        / statistics.median(p.wall_s for p in plain) - 1.0)
            notes["trace.overhead_frac"] = (f"{len(traced)} traced vs {len(plain)} "
                                            "untraced passes")
            extra_summary = summarize_spans([r.spans for r in extra if r.spans]) if extra else None
            summaries = [summarize_spans([r.spans for r in p.runs if r.spans]) for p in traced]
            per_pass = [layer_values(s, extra_summary, overhead) for s in summaries]
            for name, unit, _ in PER_LAYER:
                metrics[name] = (statistics.median(v[name] for v in per_pass), unit)
            missing = {k.split(":", 1)[1] for s in summaries + [extra_summary] if s
                       for k in s["counters"] if k.startswith("trace.missing:")}
            for target in sorted(missing):
                print(f"warning: trace target not found: {target}", file=sys.stderr)
    finally:
        digests.save()
        shutil.rmtree(scratch, ignore_errors=True)

    all_runs = probes + commands
    failed = [r for r in all_runs if r.problems]
    failed_commands = sum(1 for r in commands if r.problems)
    failed_frac = failed_commands / len(commands)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(all_runs)}")
    for name, (value, unit) in {**metrics, **printed}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} ratio  "
          f"({failed_commands}/{len(commands)} commands)")
    for r in failed:
        print(f"  FAILED {r.label}: {'; '.join(r.problems)}")

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "printed_only": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()},
        "failed_frac": failed_frac,
        "commands": [{"label": r.label, "rc": r.child.rc, "wall_s": r.child.wall_s,
                      "cpu_s": r.child.cpu_s, "rss_mb": r.child.rss_mb,
                      "sha256": r.digest, "problems": r.problems} for r in all_runs],
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"record: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
