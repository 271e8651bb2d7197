import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CSV = "r,t,u,runtime_s\n0.0,0.5,1.25,0.31\n0.5,0.5,2.5,0.30\n"
SUMMARY = {"scenario": "x", "clamp_warning": False, "error": 2.5e-4, "grid": [257, 129]}
MANIFEST = "solve:x  rc=0  stdout=aa  stderr=bb  out=cc\n"


SUMMARY_TXT = "scenario: x\n  pressure-equation  max residual 6.661e-16 (mean 1.117e-16)  pass\n"


def _tree(root: Path, csv_text=CSV, summary=SUMMARY, manifest=MANIFEST, extra=None,
          summary_txt=SUMMARY_TXT):
    (root / "solve.x").mkdir(parents=True)
    (root / "solve.x" / "solution.csv").write_text(csv_text)
    (root / "solve.x" / "summary.json").write_text(json.dumps(summary))
    (root / "solve.x" / "summary.txt").write_text(summary_txt)
    (root / "manifest.txt").write_text(manifest)
    if extra:
        (root / extra).write_text("")
    return str(root)


def _run(tmp_path, capsys, **changes):
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", **changes)
    rc = compare_outputs.main([a, b])
    return rc, capsys.readouterr().out


def test_compare_outputs_equal_and_numeric_only(tmp_path, capsys):
    rc, out = _run(tmp_path, capsys)
    assert rc == 0 and "4 of 4 files equal" in out
    # the wall-time column is skipped; u moves from 2.5 to 2.0
    rc, out = _run(tmp_path / "2", capsys,
                   csv_text=CSV.replace("2.5,0.30", "2.0,0.9"),
                   summary=dict(SUMMARY, error=2e-4),
                   manifest=MANIFEST.replace("out=cc", "out=dd"),
                   summary_txt=SUMMARY_TXT.replace("1.117e-16", "1.114e-16"))
    assert rc == 0
    assert "solution.csv: 1 numeric values moved, max abs 5.000e-01, max rel 2.000e-01" in out
    assert "summary.json: 1 numeric values moved, max abs 5.000e-05, max rel 2.000e-01" in out
    assert "summary.txt: 1 numeric values moved, max abs 3.000e-19, max rel 2.686e-03" in out
    assert "differences are numeric only" in out


@pytest.mark.parametrize("changes", [
    {"csv_text": CSV.replace("r,t,u", "r,t,v")},                      # header
    {"csv_text": CSV + "1.0,0.5,3.0,0.3\n"},                          # row count
    {"csv_text": CSV.replace("1.25", "abc")},                         # non-numeric cell
    {"summary": dict(SUMMARY, extra=1)},                              # key
    {"summary": dict(SUMMARY, clamp_warning=True)},                   # boolean leaf
    {"summary": dict(SUMMARY, scenario="y")},                         # string leaf
    {"summary_txt": SUMMARY_TXT.replace("pass", "FAIL")},             # verdict word
    {"summary_txt": SUMMARY_TXT.replace("e-16 (", "e-16 inf (")},     # inf is text
    {"summary_txt": SUMMARY_TXT + "\n"},                              # line count
    {"manifest": MANIFEST.replace("rc=0", "rc=1")},                   # exit code
    {"manifest": MANIFEST.replace("stderr=bb", "stderr=ee")},         # stderr
    {"extra": "solve.x/report.csv"},                                  # file on one side
])
def test_compare_outputs_flags_non_numeric_differences(tmp_path, capsys, changes):
    rc, out = _run(tmp_path, capsys, **changes)
    assert rc == 1
    assert "non-numeric differences found" in out


def test_compare_outputs_usage(tmp_path, capsys):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert compare_outputs.main([str(tmp_path), str(tmp_path / "missing")]) == 2
