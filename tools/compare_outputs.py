"""Compare two output trees and measure how far their numbers moved.

Usage (from anywhere)::

    python3 tools/compare_outputs.py DIR_A DIR_B

DIR_A and DIR_B are two CLI out dirs, or two OUT_DIRs of
``tools/output_manifest.py``.  Every file under either tree is paired by its
relative path; a file present on one side only is a difference.  For a pair
whose bytes differ:

* ``*.csv``: the headers and the row counts must match.  Cells that parse as
  numbers on both sides are compared numerically; every other cell must be
  equal.  The sweep's ``runtime_s`` column holds wall time by design and is
  skipped.
* ``summary.json``: the key paths must match.  Numeric leaves (not booleans)
  are compared numerically; every other leaf must be equal.
* ``manifest.txt`` (written by ``output_manifest.py``): the labels and each
  command's exit code must match, and so must the sha256 of its stdout and
  stderr, which are not kept.  The out-dir digests are not compared here;
  the files behind them are.
* any other file (``summary.txt``): the line counts must match, and each
  line must read the same once its numbers are masked.  The numbers are
  compared numerically, so a residual printed as ``1.117e-16`` on one side
  and ``1.114e-16`` on the other is a numeric move; ``inf`` and ``nan`` are
  text.

A line is printed for each differing file, giving the number of numeric
cells that moved and the largest absolute and relative change (relative to
the larger magnitude of the pair), or the first non-numeric difference.

Exit status: 0 when the two trees hold the same files and differ in numeric
values only (or not at all), 1 when anything else differs, 2 on bad usage.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

TIMING_COLUMNS = {"runtime_s"}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Diff:
    """Numeric moves and non-numeric differences found in one file pair."""

    def __init__(self):
        self.moved = 0
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.problems: list[str] = []

    def number(self, a: float, b: float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.moved += 1
        delta = abs(a - b)
        if not math.isfinite(delta):  # nan or inf against a finite value
            self.max_abs = self.max_rel = math.inf
            return
        self.max_abs = max(self.max_abs, delta)
        self.max_rel = max(self.max_rel, delta / max(abs(a), abs(b)))

    def other(self, where: str, a, b):
        if a != b:
            self.problems.append(f"{where}: {a!r} != {b!r}")


def _as_number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(text_a: str, text_b: str, diff: Diff):
    rows_a = list(csv.reader(io.StringIO(text_a, newline="")))
    rows_b = list(csv.reader(io.StringIO(text_b, newline="")))
    header = rows_a[0] if rows_a else []
    diff.other("header", header, rows_b[0] if rows_b else [])
    diff.other("row count", len(rows_a), len(rows_b))
    if diff.problems:
        return
    skip = {i for i, name in enumerate(header) if name in TIMING_COLUMNS}
    for k, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        diff.other(f"row {k} width", len(row_a), len(row_b))
        for i, (a, b) in enumerate(zip(row_a, row_b)):
            if i in skip or a == b:
                continue
            x, y = _as_number(a), _as_number(b)
            if x is None or y is None:
                diff.other(f"row {k} column {header[i] if i < len(header) else i}", a, b)
            else:
                diff.number(x, y)


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(text_a: str, text_b: str, diff: Diff):
    leaves_a = dict(_leaves(json.loads(text_a)))
    leaves_b = dict(_leaves(json.loads(text_b)))
    diff.other("key paths", sorted(leaves_a.keys() - leaves_b.keys()),
               sorted(leaves_b.keys() - leaves_a.keys()))
    for key in sorted(leaves_a.keys() & leaves_b.keys()):
        a, b = leaves_a[key], leaves_b[key]
        if _is_number(a) and _is_number(b):
            diff.number(float(a), float(b))
        else:
            diff.other(key, a, b)


def _manifest(text: str) -> dict:
    """label -> {field: value} for each ``label  rc=..  stdout=..`` line."""
    out = {}
    for line in text.splitlines():
        label, *fields = line.split("  ")
        out[label] = dict(field.split("=", 1) for field in fields)
    return out


def compare_manifest(text_a: str, text_b: str, diff: Diff):
    runs_a, runs_b = _manifest(text_a), _manifest(text_b)
    diff.other("labels", sorted(runs_a.keys() - runs_b.keys()),
               sorted(runs_b.keys() - runs_a.keys()))
    for label in runs_a.keys() & runs_b.keys():
        for name in ("rc", "stdout", "stderr"):
            diff.other(f"{label} {name}", runs_a[label].get(name), runs_b[label].get(name))


def compare_text(text_a: str, text_b: str, diff: Diff):
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    diff.other("line count", len(lines_a), len(lines_b))
    for k, (a, b) in enumerate(zip(lines_a, lines_b), start=1):
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            diff.problems.append(f"text differs from line {k}")
            return
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            diff.number(float(x), float(y))


def compare_file(name: str, text_a: str, text_b: str) -> Diff:
    diff = Diff()
    if name.endswith(".csv"):
        compare_csv(text_a, text_b, diff)
    elif name == "summary.json":
        compare_json(text_a, text_b, diff)
    elif name == "manifest.txt":
        compare_manifest(text_a, text_b, diff)
    else:
        compare_text(text_a, text_b, diff)
    return diff


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    root_a, root_b = (Path(d) for d in argv)
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    failed = False
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {root_a if rel in files_a else root_b}")
        failed = True
    same = 0
    for rel in sorted(files_a & files_b):
        data_a, data_b = (root_a / rel).read_bytes(), (root_b / rel).read_bytes()
        if data_a == data_b:
            same += 1
            continue
        diff = compare_file(rel.name, data_a.decode(errors="replace"),
                            data_b.decode(errors="replace"))
        if diff.problems:
            failed = True
            print(f"{rel}: differs beyond numbers: {diff.problems[0]}"
                  + (f" (+{len(diff.problems) - 1} more)" if len(diff.problems) > 1 else ""))
        if diff.moved:
            print(f"{rel}: {diff.moved} numeric values moved, max abs {diff.max_abs:.3e}, "
                  f"max rel {diff.max_rel:.3e}")
        elif not diff.problems:
            same += 1
    print(f"{same} of {len(files_a | files_b)} files equal in content; "
          + ("non-numeric differences found" if failed else "differences are numeric only"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
