"""Every module-level import in the package is read somewhere in its
module, and the command line loads the layers it reports on and no more."""

import ast
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
