"""Every module-level import in the package is read somewhere in its
module, the command line loads the layers it reports on and no more, and
per-structure tables live on their structure."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orderbench"


def unread_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never loads; a
    name listed in a literal `__all__` counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_detects_unread_import():
    assert unread_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]
    assert unread_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []


def test_cli_import_contract():
    # every cache layer loads with the CLI, so a process can report each
    # layer's cache counters; lab, suites and morphisms wait for the verbs
    # that use them, so the other verbs do not pay for importing them
    code = "import sys, orderbench.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    ).stdout.split()
    loaded = {m.split(".")[1] for m in out if m.startswith("orderbench.")}
    assert {"core", "axioms", "stone", "saturation", "tight", "spectrum"} <= loaded
    assert not loaded & {"lab", "suites", "morphisms"}


#: The lru_caches that may key on a structure: the sharing index itself, a
#: cache keyed on (structure, relation) that decomposition and
#: vee-interpolation share, and two that serve psi_holds at the cap.
STRUCTURE_CACHES = {
    ("core", "_first_equal"),
    ("axioms", "_join_reach"),
    ("axioms", "_psi_covers"),
    ("axioms", "_psi_support"),
}


def decorated(source: str, decorators: set[str]) -> list[tuple[str, bool]]:
    """(name, first parameter annotated P0Set) for every function with one
    of these decorators, called or not, bare or as a module attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        names = set()
        for d in node.decorator_list:
            d = d.func if isinstance(d, ast.Call) else d
            names.add(d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None))
        if names & decorators:
            params = node.args.posonlyargs + node.args.args
            ann = params[0].annotation if params else None
            on_structure = isinstance(ann, ast.Name) and ann.id == "P0Set" or (
                isinstance(ann, ast.Constant) and ann.value == "P0Set")
            out.append((node.name, on_structure))
    return out


def test_detects_structure_caches():
    source = (
        "@lru_cache(maxsize=3)\ndef f(B: P0Set, x): ...\n"
        "@functools.cache\ndef g(A: 'P0Set'): ...\n"
        "@lru_cache\ndef h(n: int): ...\n"
    )
    assert decorated(source, {"lru_cache", "cache"}) == [("f", True), ("g", True), ("h", False)]


def test_no_lru_cache_keyed_on_a_structure():
    # a per-structure table is a structure_table, kept on the structure
    found = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name, on_structure in decorated(path.read_text(), {"lru_cache", "cache"})
        if on_structure
    }
    assert sorted(found - STRUCTURE_CACHES) == []


def test_every_structure_table_reports_its_layer():
    # perfbench counts a layer's cache statistics from the functions whose
    # __module__ is the layer's own module
    layers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, _ in decorated(path.read_text(), {"structure_table"}):
            module = importlib.import_module(f"orderbench.{path.stem}")
            fn = getattr(module, name)
            assert fn.__module__ == module.__name__, name
            info = fn.cache_info()
            assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0, name
            layers.add(path.stem)
    assert layers == {"core", "axioms", "stone", "saturation", "tight", "spectrum"}
