"""Fingerprint every shipped CLI output of a checkout, one line per command.

Usage (from anywhere)::

    python3 tools/output_manifest.py OUT_DIR > manifest.txt

Runs, each in a fresh interpreter with ``PYTHONPATH=src``,
``PYTHONHASHSEED=0`` and one BLAS thread:

* ``solve``, ``check-identities``, ``check-estimate`` and ``check-harnack``
  on every scenario in ``configs/``;
* ``check-estimate --negative-control`` on ``configs/negative-control.json``;
* ``check-harnack --seed 40`` on ``configs/barenblatt.json``, a seed whose
  Harnack bound overflows ``exp`` on some pairs;
* ``sweep`` on ``configs/sweep-p-alpha.json``;
* ``check-estimate`` and ``check-identities`` on
  ``perfbench/inputs/hyperbolic-bump.json``, the pole values of a curved warp
  under the identity residual gates;
* ``sweep`` on ``perfbench/inputs/sweep-p-alpha-wide.json``, once serial and
  once with ``--workers 2`` (the thread-pool path; its out-dir digest must
  equal the serial line's);
* ``check-estimate`` and ``check-harnack`` on ``configs/gaussian-conformal.json``
  with ``harnack.alpha`` set to 3.  Every shipped config has alpha = 2, where
  the second estimate family's weight w = alpha scales exactly in floating
  point; at alpha = 3 it does not.  The derived config is written to
  ``OUT_DIR/gaussian-conformal-alpha3.json``.

Each command writes into its own directory under OUT_DIR.  The printed line
holds the command's label, its exit code, the sha256 of its stdout and of its
stderr, and the digest of its out dir (``perfbench/run.py``'s
``output_digest``, which masks the sweep's ``runtime_s`` column).  The same
lines are written to ``OUT_DIR/manifest.txt``.

To check that a change keeps every output byte-identical, run the script in
a second checkout of the parent commit and in the change, then ``diff`` the
two manifests.  Where a change is meant to move numbers only,
``tools/compare_outputs.py`` on the two OUT_DIRs measures by how much.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import CHILD_BLAS_THREADS, CHILD_HASH_SEED, output_digest  # noqa: E402

SCENARIO_COMMANDS = ("solve", "check-identities", "check-estimate", "check-harnack")


def derived_config(base: Path) -> Path:
    """Write gaussian-conformal at alpha = 3 under ``base`` and return its path."""
    doc = json.loads((ROOT / "configs" / "gaussian-conformal.json").read_text())
    doc["harnack"]["alpha"] = 3.0
    path = base / "gaussian-conformal-alpha3.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def commands(alpha3: Path):
    """(label, cli arguments) of every command, config paths relative to ROOT
    but for ``alpha3``, the path of the derived alpha = 3 config."""
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
    for sub in ("check-estimate", "check-harnack"):
        out.append((f"{sub}:gaussian-conformal alpha=3", [sub, "--config", str(alpha3)]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_manifest.py OUT_DIR", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    base.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=CHILD_HASH_SEED,
               **CHILD_BLAS_THREADS)
    lines = []
    for label, args in commands(derived_config(base)):
        out = base / label.replace(":", ".").replace(" ", "_")
        out.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "harnacklab.cli", *args,
                               "--out", str(out)],
                              cwd=ROOT, env=env, capture_output=True)
        lines.append(f"{label}  rc={proc.returncode}  stdout={_sha(proc.stdout)}  "
                     f"stderr={_sha(proc.stderr)}  out={output_digest(out)}")
        print(lines[-1], flush=True)
    (base / "manifest.txt").write_text("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
