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
}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_BLOCKS = (ast.stmt, ast.excepthandler, ast.match_case)


def unread_definitions(src: Path) -> set:
    """The qualified names (module.Class.name) of the non-dunder ``def`` and
    ``class`` statements in ``src/*.py`` whose name is read nowhere else in
    those files, as a ``Name``, an ``Attribute`` or an import alias.  A read
    inside the definition itself (a recursive call) does not count, nor does a
    re-export from ``__init__.py``, which only tests and users read."""
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
            elif kind is ast.alias and module != "__init__":
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
    # a recursive call and a re-export from __init__.py are no reads
    with open(copy / "estimates.py", "a") as fh:
        fh.write("\n\ndef _never_read(x):\n    return _never_read(x - 1) if x else 0\n"
                 "\n\ndef exported(x):\n    return x\n")
    with open(copy / "__init__.py", "a") as fh:
        fh.write("from .estimates import exported\n")
    assert unread_definitions(copy) == set(UNREAD_ALLOWED) | {"estimates._never_read",
                                                               "estimates.exported"}


# ---------------------------------------------------------------------------
# unset-parameter guard
# ---------------------------------------------------------------------------

ROOT = SRC.parent.parent
IMPORT_DIRS = (SRC, ROOT / "tests", ROOT / "tools")

# defaulted parameters of src/ functions that no call in src/, tests/ or
# tools/ sets, each with its reason
UNSET_ALLOWED = {
    "cli.cmd_check_estimate(negative_control)": "main sets it from --negative-control "
                                                "through **options",
    "cli.run_sweep(workers)": "main sets it from --workers through **options",
}


def _defaulted(fn, method: bool) -> dict:
    """Each defaulted parameter of ``fn`` -> its position in a call's
    arguments (past ``self`` for a method), or None when keyword-only."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    skip = 1 if method else 0
    first = len(positional) - len(args.defaults)
    out = {name: i - skip for i, name in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None)
    return out


def unset_parameters(src: Path, dirs) -> set:
    """``module.qualname(param)`` of each defaulted parameter of a ``def`` in
    ``src/*.py`` that no call in ``dirs/*.py`` sets.  A call is matched to
    every ``def`` of its callee's name (a class name reaches ``__init__``), and
    sets a parameter by keyword, by position, through ``*args`` (every
    positional one) or through ``**kwargs`` (every one)."""
    defs = []                       # (qualified name, call name, defaulted)

    def collect(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                collect(child, f"{prefix}.{child.name}", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                call = cls if child.name == "__init__" else child.name
                defs.append((f"{prefix}.{child.name}", call,
                             _defaulted(child, cls is not None and not static)))
                collect(child, f"{prefix}.{child.name}", None)
            elif isinstance(child, _BLOCKS):
                collect(child, prefix, cls)

    for path in sorted(src.glob("*.py")):
        collect(ast.parse(path.read_text(), str(path)), path.stem, None)
    by_call = defaultdict(list)
    for qualified, call, defaulted in defs:
        by_call[call].append((qualified, defaulted))
        if qualified.endswith(".__init__"):
            by_call["__init__"].append((qualified, defaulted))
    unset = {f"{qualified}({name})" for qualified, _, defaulted in defs for name in defaulted}
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if type(node) is not ast.Call:
                continue
            func = node.func
            call = (func.id if type(func) is ast.Name
                    else func.attr if type(func) is ast.Attribute else None)
            keywords = {k.arg for k in node.keywords}
            starred = any(type(a) is ast.Starred for a in node.args)
            for qualified, defaulted in by_call.get(call, ()):
                for name, position in defaulted.items():
                    if (name in keywords or None in keywords or position is not None
                            and (starred or position < len(node.args))):
                        unset.discard(f"{qualified}({name})")
    return unset


def test_src_has_no_unset_parameters():
    unset = unset_parameters(SRC, IMPORT_DIRS)
    assert unset - set(UNSET_ALLOWED) == set(), "a default no call in src/, tests/ or tools/ sets"
    assert set(UNSET_ALLOWED) - unset == set(), "allowed as unset but set by some call"


def test_unset_parameter_guard_flags_an_added_default(tmp_path):
    # by is set by position, plus through *, again by keyword, y through **
    # and the class's own scale by its name; shift by nothing
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "def _scaled(x, by=2.0, plus=0.0, *, shift=0.0, again=1.0):\n"
        "    return by * x + plus + shift + again\n\n\n"
        "def _kw(x, y=1.0):\n    return x + y\n\n\n"
        "class Box:\n    def __init__(self, scale=1.0):\n        self.scale = scale\n")
    (tmp_path / "use.py").write_text(
        "def uses(args, kwargs):\n"
        "    return _scaled(1.0, 2.0, again=3.0) + _scaled(*args) + _kw(1.0, **kwargs)\n\n\n"
        "box = Box(2.0)\n")
    assert unset_parameters(tmp_path / "src", [tmp_path]) == {"mod._scaled(shift)"}
    (tmp_path / "use.py").write_text("box = Box()\n")
    assert unset_parameters(tmp_path / "src", [tmp_path]) == {
        f"mod.{name}" for name in ("_scaled(by)", "_scaled(plus)", "_scaled(shift)",
                                   "_scaled(again)", "_kw(y)", "Box.__init__(scale)")}


# ---------------------------------------------------------------------------
# unread-attribute guard
# ---------------------------------------------------------------------------

# attributes src/ assigns on self that nothing reads, each with its reason
UNREAD_ATTRIBUTES_ALLOWED = {}


def unread_attributes(src: Path, dirs) -> dict:
    """``module.name`` -> first line of each ``self.<name> = ...`` in
    ``src/*.py`` (a target of a tuple or augmented assignment included) whose
    name no file in ``dirs/*.py`` reads, as an attribute in any context but a
    store, or as a string constant (``getattr``)."""
    assigned = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (type(node) is ast.Attribute and type(node.ctx) is ast.Store
                    and type(node.value) is ast.Name and node.value.id == "self"):
                assigned.setdefault(f"{path.stem}.{node.attr}", node.lineno)
    reads = set()
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if type(node) is ast.Attribute and type(node.ctx) is not ast.Store:
                reads.add(node.attr)
            elif type(node) is ast.Constant and type(node.value) is str:
                reads.add(node.value)
    return {name: line for name, line in assigned.items()
            if name.partition(".")[2] not in reads}


def test_src_has_no_unread_attributes():
    unread = unread_attributes(SRC, IMPORT_DIRS)
    assert set(unread) - set(UNREAD_ATTRIBUTES_ALLOWED) == set(), f"never read: {unread}"
    assert set(UNREAD_ATTRIBUTES_ALLOWED) - set(unread) == set(), "allowed as unread but read"


def test_unread_attribute_guard_flags_an_added_attribute(tmp_path):
    copy = tmp_path / "harnacklab"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    # stores, plain or augmented, are no reads; an attribute read and a
    # getattr by name are
    with open(copy / "estimates.py", "a") as fh:
        fh.write("\n\nclass _Box:\n    def __init__(self):\n"
                 "        self._assigned_only = self._read = self._by_name = 1\n"
                 "        self._assigned_only += self._read + getattr(self, '_by_name')\n")
    line = len((copy / "estimates.py").read_text().splitlines()) - 1
    dirs = [copy, *IMPORT_DIRS[1:]]
    assert unread_attributes(copy, dirs) == {"estimates._assigned_only": line}


# ---------------------------------------------------------------------------
# unused-import guard
# ---------------------------------------------------------------------------


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
