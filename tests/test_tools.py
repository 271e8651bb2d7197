import ast
import re
import shutil
from collections import defaultdict
from pathlib import Path

# ---------------------------------------------------------------------------
# dead-API guard
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "harnacklab"

# definitions in src/ that nothing else in src/ reads, each with its reason
UNREAD_ALLOWED = {
    "estimates.nonlinearity_conditions": "the hypotheses ledger's structure-condition line",
    "estimates.NonlinearityConditions.consistent": "the same ledger line reads it",
    "estimates.CutoffProfile.certify": "the hypotheses ledger's cutoff line",
    "params.preset_ode_residuals": "the hypotheses ledger's preset line",
    "estimates.SupNodes.whole": "test seam: the blocks' one-piece reference",
}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def unread_definitions(src: Path) -> set:
    """The qualified names (module.Class.name) of the non-dunder ``def`` and
    ``class`` statements in ``src/*.py`` whose name is read nowhere else in
    those files, as a ``Name``, an ``Attribute`` or an import alias.  A read
    inside the definition itself (a recursive call) does not count."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    defs = []                       # (qualified name, name, module, first line, last line)

    def collect(node, module, prefix):
        # definitions are statements, so only statement blocks are searched
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defs.append((f"{prefix}.{child.name}", child.name, module,
                                 child.lineno, child.end_lineno))
                collect(child, module, f"{prefix}.{child.name}")
            elif isinstance(child, _BLOCKS):
                collect(child, module, prefix)

    for module, tree in trees.items():
        collect(tree, module, module)
    names = {name for _, name, *_ in defs}
    reads = defaultdict(list)       # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            kind = type(node)
            if kind is ast.Name:
                name = node.id
            elif kind is ast.Attribute:
                name = node.attr
            elif kind is ast.alias:
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in names:
                reads[name].append((module, node.lineno))
    return {qualified for qualified, name, module, first, last in defs
            if all(where == module and first <= line <= last for where, line in reads[name])}


def test_src_has_no_unread_definitions():
    unread = unread_definitions(SRC)
    assert unread - set(UNREAD_ALLOWED) == set(), "defined in src/ but read nowhere there"
    assert set(UNREAD_ALLOWED) - unread == set(), "allowed as unread but read in src/"


def test_unread_definition_guard_flags_an_added_def(tmp_path):
    copy = tmp_path / "harnacklab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "estimates.py", "a") as fh:
        fh.write("\n\ndef _never_read(x):\n    return _never_read(x - 1) if x else 0\n")
    assert unread_definitions(copy) == set(UNREAD_ALLOWED) | {"estimates._never_read"}


# ---------------------------------------------------------------------------
# unused-import guard
# ---------------------------------------------------------------------------

ROOT = SRC.parent.parent
IMPORT_DIRS = (SRC, ROOT / "tests", ROOT / "tools")


def unused_imports(dirs) -> set:
    """(file name, line, name) of each name an import statement binds in
    ``dirs/*.py`` that its own file never reads as a ``Name``.  An
    ``__init__.py`` (its imports are re-exports), ``from __future__`` and a
    statement marked ``# noqa: F401`` are exempt."""
    found = set()
    for path in sorted(p for d in dirs for p in d.glob("*.py") if p.name != "__init__.py"):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, str(path))
        reads = {node.id for node in ast.walk(tree) if type(node) is ast.Name}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in reads:
                    found.add((path.name, node.lineno, name))
    return found


def test_no_unused_imports():
    assert unused_imports(IMPORT_DIRS) == set()


def test_unused_import_guard_flags_an_added_import(tmp_path):
    for d in IMPORT_DIRS:
        shutil.copytree(d, tmp_path / d.name, ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "tests" / "test_params.py", "a") as fh:
        fh.write("\nfrom harnacklab.harnack import sample_pairs as _never_read\n")
    line = len((tmp_path / "tests" / "test_params.py").read_text().splitlines())
    assert unused_imports(tmp_path / d.name for d in IMPORT_DIRS) == {
        ("test_params.py", line, "_never_read")}


# ---------------------------------------------------------------------------
# declared dependencies
# ---------------------------------------------------------------------------

def test_declared_numpy_floor_has_trapezoid():
    # harnack.log_integral_margin calls np.trapezoid, which numpy 2.0 added
    floor = re.search(r'"numpy>=(\d+)', (ROOT / "pyproject.toml").read_text())
    assert floor and int(floor.group(1)) >= 2
