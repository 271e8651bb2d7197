"""Write the golden record of every shipped CLI output, ``tests/golden/``.

Usage (from anywhere): ``python3 tools/output_manifest.py``

Runs each line of :func:`commands` through ``harnacklab.cli.main`` in this
interpreter, from the repository root, and rewrites ``tests/golden/`` with one
directory per line: the line's ``exit_code``, ``stdout`` and ``stderr``; every
output file of 256 KB or less, verbatim but for the sweep's ``runtime_s``
column (wall time by design), which reads ``*``; and for each larger output
file ``<name>.digest.json``: its row count, header, least and greatest cell
of each column, and sha256.  Only the ``solution.csv`` files are that large;
``report.csv`` keeps at most 16 rows per report and is kept verbatim.

The lines are the four scenario commands on every config in ``configs/``, the
sweep on ``configs/sweep-p-alpha.json``, and: the negative control under
``--negative-control``; barenblatt's check-harnack at ``--seed 40``, whose
block of the pair design holds one pair, 1.5e-3 apart in time and 1.81 in
r, whose Harnack bound overflows ``exp`` and reads ``inf`` in each family's
rows of ``pairs.csv``; check-estimate and
check-identities on ``perfbench/inputs/hyperbolic-bump.json``, the pole values
of a curved warp under the identity residual gates; the wide sweep, serial and
with ``--workers 2``, both held to the serial line's entry; and the lines of
:data:`DERIVED`: check-estimate and check-harnack on gaussian-conformal at
alpha = 3, where the second family's weight w = alpha does not scale exactly
in floating point, as it does at every shipped config's alpha = 2;
check-identities on powerlaw-static at duration 1000, where the pressure is
near 1e-217 and its square underflows; check-identities on powerlaw-static at
duration 1450, where the pressure is subnormal by the last time;
check-estimate on powerlaw-static at duration 2000, where the pressure
underflows to 0 (the configs at 1450 and 2000 are refused as numerical
failures naming ``time.duration``); and the four scenario commands on
evolving-warp-pole at conformal_rate 0.1, whose warp evolves under a moving
conformal factor.

``tests/test_golden.py`` runs the same lines and compares them with the record
exactly.  A change meant to move an output reruns this script; the diff of
``tests/golden/`` is then the declared change.  The record is for one machine
type (x86-64 Linux, CPython 3.11, numpy 2.4, with numpy dispatching its
AVX-512 kernels): outputs print ``%.12g``, and a libm or SIMD kernel that
differs in the last ulp can move a printed digit.  Without AVX-512
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``) numpy's exp,
log, power and hyperbolic functions give other bits, and the record's test
fails on last-digit moves.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
VERBATIM_BYTES = 256 * 1024
DIGEST = ".digest.json"
sys.path.insert(0, str(ROOT / "src"))

from harnacklab import cli  # noqa: E402

SCENARIO_COMMANDS = ("solve", "check-identities", "check-estimate", "check-harnack")


# each derived document: its label, the config it copies, the key path and
# value it replaces, and the commands run on it
DERIVED = (
    ("gaussian-conformal alpha=3", "gaussian-conformal", ("harnack", "alpha"), 3.0,
     ("check-estimate", "check-harnack")),
    ("powerlaw-static duration=1000", "powerlaw-static", ("time", "duration"), 1000,
     ("check-identities",)),
    ("powerlaw-static duration=1450", "powerlaw-static", ("time", "duration"), 1450,
     ("check-identities",)),
    ("powerlaw-static duration=2000", "powerlaw-static", ("time", "duration"), 2000,
     ("check-estimate",)),
    ("evolving-warp-pole conformal_rate=0.1", "evolving-warp-pole",
     ("geometry", "conformal_rate"), 0.1, SCENARIO_COMMANDS),
)


def derived_configs(base: Path) -> dict[str, Path]:
    """Write each :data:`DERIVED` document under ``base``; its label -> its path."""
    paths = {}
    for label, stem, (*parents, key), value, _ in DERIVED:
        doc = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        path = paths[label] = base / f"{label.replace(' ', '_')}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
    return paths


def commands(derived: dict[str, Path]):
    """(label, cli arguments) of every command, config paths relative to ROOT
    but for the derived documents, at the paths ``derived`` gives."""
    out = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        rel = str(path.relative_to(ROOT))
        if "template" in json.loads(path.read_text()):
            out.append((f"sweep:{path.stem}", ["sweep", "--config", rel]))
            continue
        for sub in SCENARIO_COMMANDS:
            out.append((f"{sub}:{path.stem}", [sub, "--config", rel]))
    out.append(("check-estimate:negative-control --negative-control",
                ["check-estimate", "--config", "configs/negative-control.json",
                 "--negative-control"]))
    out.append(("check-harnack:barenblatt --seed 40",
                ["check-harnack", "--config", "configs/barenblatt.json", "--seed", "40"]))
    for sub in ("check-estimate", "check-identities"):
        out.append((f"{sub}:hyperbolic-bump",
                    [sub, "--config", "perfbench/inputs/hyperbolic-bump.json"]))
    out.append(("sweep:sweep-p-alpha-wide",
                ["sweep", "--config", "perfbench/inputs/sweep-p-alpha-wide.json"]))
    out.append(("sweep:sweep-p-alpha-wide --workers 2",
                ["sweep", "--config", "perfbench/inputs/sweep-p-alpha-wide.json",
                 "--workers", "2"]))
    for label, *_, subs in DERIVED:
        for sub in subs:
            out.append((f"{sub}:{label}", [sub, "--config", str(derived[label])]))
    return out


def entry_name(label: str) -> str:
    """The record directory of a line; the thread pool must not change an
    output, so the ``--workers 2`` sweep shares the serial line's."""
    return label.removesuffix(" --workers 2").replace(":", ".").replace(" ", "_")


def _masked(path: Path) -> bytes:
    if path.name != "sweep.csv":
        return path.read_bytes()
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    col = header.index("runtime_s")
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + [row[:col] + ["*"] + row[col + 1:] for row in rows])
    return buf.getvalue().encode()


def record(args: list[str], out: Path) -> dict:
    """Run one command line in this interpreter, writing into ``out``, and
    return its record: file name -> bytes, or -> the path of an output file
    larger than VERBATIM_BYTES, whose recorded bytes are its :func:`digest`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([*args, "--out", str(out)])
    entry = {"exit_code": f"{rc}\n".encode(), "stdout": stdout.getvalue().encode(),
             "stderr": stderr.getvalue().encode()}
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        if path.stat().st_size > VERBATIM_BYTES:
            entry[path.name + DIGEST] = path
        else:
            entry[path.name] = _masked(path)
    return entry


def _key(cell: str):
    try:
        return 0, float(cell), cell
    except ValueError:
        return 1, 0.0, cell


def digest(path: Path) -> bytes:
    """A large CSV's record: its row count, header, the least and greatest
    cell of each column (numbers by value, before any text) and sha256."""
    rows, low, high = 0, None, None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for rows, row in enumerate(reader, start=1):
            keys = list(map(_key, row))
            low = keys if low is None else list(map(min, low, keys))
            high = keys if high is None else list(map(max, high, keys))
    doc = {"rows": rows, "header": header,
           "min": {name: key[2] for name, key in zip(header, low)},
           "max": {name: key[2] for name, key in zip(header, high)},
           "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    return (json.dumps(doc, indent=1) + "\n").encode()


def main(argv: list[str]) -> int:
    if argv:
        print("usage: output_manifest.py", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for i, (label, args) in enumerate(commands(derived_configs(base))):
            entry = GOLDEN / entry_name(label)
            if entry.exists():
                continue
            entry.mkdir(parents=True)
            for name, value in record(args, base / str(i)).items():
                (entry / name).write_bytes(value if isinstance(value, bytes) else digest(value))
            print(entry.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
