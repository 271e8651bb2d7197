"""Every shipped CLI output against the golden record, ``tests/golden/``.

``tools/output_manifest.py`` lists the command lines and writes the record.
A change meant to move an output reruns it; the diff of ``tests/golden/`` is
then the declared change.
"""

import csv
import hashlib
import importlib.util
import io
import json
import re
from itertools import zip_longest
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "output_manifest", Path(__file__).resolve().parent.parent / "tools" / "output_manifest.py")
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)

TOKEN = re.compile(r"[^\s(),:;=\[\]{}]+")
ABSENT = "<absent>"


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, doc


def _first_pair(a, b):
    """The index and the two items where sequences ``a`` and ``b`` first differ."""
    return next(((i, x, y) for i, (x, y) in enumerate(zip_longest(a, b, fillvalue=ABSENT))
                 if x != y), None)


def first_move(name: str, old: bytes, new: bytes) -> str:
    """Where ``new`` first differs from ``old``, the recorded bytes of file
    ``name``: a summary.json key, a CSV row and column, or a line and the
    first token on it that moved, with the old and the new value."""
    a, b = old.decode(), new.decode()
    if name.endswith(".json"):
        old_leaves, new_leaves = (dict(_leaves(json.loads(text))) for text in (a, b))
        for key in dict.fromkeys([*old_leaves, *new_leaves]):
            p, q = old_leaves.get(key, ABSENT), new_leaves.get(key, ABSENT)
            if p != q:
                return f"{name} key {key}: {p!r} -> {q!r}"
    elif name.endswith(".csv"):
        rows = [list(csv.reader(io.StringIO(text, newline=""))) for text in (a, b)]
        if len(rows[0]) != len(rows[1]):
            return f"{name}: {len(rows[0]) - 1} -> {len(rows[1]) - 1} rows"
        for k, (x, y) in enumerate(zip(*rows)):
            if x != y:
                i, p, q = _first_pair(x, y)
                column = rows[0][0][i] if i < len(rows[0][0]) else i
                return f"{name} {f'row {k}' if k else 'header'} column {column}: {p!r} -> {q!r}"
    lines = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip_longest(*lines, fillvalue=ABSENT), start=1):
        if x != y:
            if ABSENT not in (x, y):
                _, x, y = _first_pair(TOKEN.findall(x), TOKEN.findall(y)) or (0, x, y)
            return f"{name} line {k}: {x!r} -> {y!r}"
    return f"{name}: {len(old)} -> {len(new)} bytes"


def differences(entry: Path, new: dict) -> list[str]:
    """One message per file where the record ``entry`` and a fresh record
    (:func:`output_manifest.record`) differ.  A large output file is hashed,
    and its digest recomputed only when the hash moved."""
    old = {path.name: path.read_bytes() for path in entry.iterdir()} if entry.is_dir() else {}
    found = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            found.append(f"{name}: {'only in' if name in old else 'not in'} the record")
            continue
        value = new[name]
        if isinstance(value, Path):
            if hashlib.sha256(value.read_bytes()).hexdigest() == json.loads(old[name])["sha256"]:
                continue
            value = manifest.digest(value)
        if value != old[name]:
            found.append(first_move(name, old[name], value))
    return found


def test_every_output_matches_the_record(tmp_path, monkeypatch):
    """Each line, run in this interpreter, writes exactly its record; the
    ``--workers 2`` sweep is held to the serial line's entry."""
    monkeypatch.chdir(manifest.ROOT)
    lines = manifest.commands(manifest.derived_configs(tmp_path))
    assert {p.name for p in manifest.GOLDEN.iterdir()} == {
        manifest.entry_name(label) for label, _ in lines}
    moved = [f"{label}: {m}" for i, (label, args) in enumerate(lines)
             for m in differences(manifest.GOLDEN / manifest.entry_name(label),
                                  manifest.record(args, tmp_path / str(i)))]
    assert not moved, "outputs differ from tests/golden/:\n" + "\n".join(moved)


CSV = b"r,t,u,runtime_s\r\n0,0.5,1.25,*\r\n0.5,0.5,2.5,*\r\n"
SUMMARY_JSON = b'{"scenario": "x", "clamp_warning": false, "error": 0.00025, "grid": [257, 129]}\n'
SUMMARY_TXT = b"scenario: x\n  pressure-equation  max residual 6.661e-16 (mean 1.117e-16)  pass\n"
RECORD = {"exit_code": b"0\n", "stdout": b"", "stderr": b"", "sweep.csv": CSV,
          "summary.json": SUMMARY_JSON, "summary.txt": SUMMARY_TXT}


@pytest.mark.parametrize("name, new, message", [
    ("sweep.csv", CSV.replace(b"2.5,*", b"2.0,*"), "sweep.csv row 2 column u: '2.5' -> '2.0'"),
    ("sweep.csv", CSV.replace(b"r,t,u", b"r,t,v"), "sweep.csv header column u: 'u' -> 'v'"),
    ("sweep.csv", CSV + b"1,0.5,3,*\r\n", "sweep.csv: 2 -> 3 rows"),
    ("summary.json", SUMMARY_JSON.replace(b"0.00025", b"0.0002"),
     "summary.json key error: 0.00025 -> 0.0002"),
    ("summary.json", SUMMARY_JSON.replace(b"false", b"true"),
     "summary.json key clamp_warning: False -> True"),
    ("summary.json", SUMMARY_JSON.replace(b"129]", b"129, 3]"),
     "summary.json key grid[2]: '<absent>' -> 3"),
    ("summary.txt", SUMMARY_TXT.replace(b"1.117e-16", b"1.114e-16"),
     "summary.txt line 2: '1.117e-16' -> '1.114e-16'"),
    ("summary.txt", SUMMARY_TXT.replace(b"pass", b"FAIL"), "summary.txt line 2: 'pass' -> 'FAIL'"),
    ("summary.txt", SUMMARY_TXT + b"\n", "summary.txt line 3: '<absent>' -> ''"),
    ("exit_code", b"1\n", "exit_code line 1: '0' -> '1'"),
    ("stderr", b"numerical failure: x\n", "stderr line 1: '<absent>' -> 'numerical failure: x'"),
    ("stdout", None, "stdout: only in the record"),
    ("solution.csv", b"r\r\n", "solution.csv: not in the record"),
    ("report.csv.digest.json", CSV.replace(b"2.5,*", b"3,*"),
     "report.csv.digest.json key max.u: '2.5' -> '3'"),
    ("report.csv.digest.json", b"r,t,u,runtime_s\r\n0.5,0.5,2.5,*\r\n0,0.5,1.25,*\r\n",
     "report.csv.digest.json key sha256: '"),
], ids=["csv-cell", "csv-header", "csv-rows", "json-number", "json-bool", "json-key",
        "txt-number", "txt-verdict", "txt-lines", "exit-code", "stderr", "file-dropped",
        "file-added", "digest-max", "digest-hash"])
def test_differences_name_the_file_and_the_moved_value(tmp_path, name, new, message):
    large, entry = tmp_path / "report.csv", tmp_path / "entry"
    large.write_bytes(CSV)
    entry.mkdir()
    fresh = dict(RECORD, **{"report.csv" + manifest.DIGEST: large})
    for key, value in fresh.items():
        (entry / key).write_bytes(manifest.digest(value) if value is large else value)
    assert differences(entry, fresh) == []
    if new is None:
        del fresh[name]
    elif fresh.get(name) is large:
        large.write_bytes(new)
    else:
        fresh[name] = new
    found, = differences(entry, fresh)
    assert found.startswith(message)
