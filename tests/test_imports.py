"""Every module-level import in the package is read somewhere in its
module, every public function has a caller outside the tests, every
error type is caught by name, a command-line verb executes only the
layers it uses, and per-structure tables live on their structure."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orderbench
from orderbench import lab
from orderbench.core import dump_structure

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orderbench"
PERFBENCH = PACKAGE.parent.parent / "perfbench"


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


def named(node) -> set[str]:
    """The identifiers a piece of code names: the names it reads, its
    attributes and imported names, and the last part of a dotted string
    such as "tight.map_properties", which is how perfbench binds its
    calls."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and re.fullmatch(
                r"\w+(\.\w+)+", n.value):
            out.add(n.value.rpartition(".")[2])
    return out


def uncalled(sources: dict[str, str], package: set[str]) -> list[str]:
    """`module.name` of every public top-level function or class in the
    `package` modules that no other top-level statement of `sources`
    names."""
    trees = {module: ast.parse(text).body for module, text in sources.items()}
    names = {id(node): named(node) for body in trees.values() for node in body}
    out = []
    for module in sorted(package):
        for node in trees[module]:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if not any(node.name in names[id(other)] for body in trees.values()
                           for other in body if other is not node):
                    out.append(f"{module}.{node.name}")
    return out


def test_detects_uncalled_definitions():
    sources = {
        "m": "def f():\n    return f()\ndef g(): ...\ndef h(): ...\nclass C: ...\nalias = g\n",
        "bench": "CALLS = ('m.h',)\n",
    }
    assert uncalled(sources, {"m"}) == ["m.f", "m.C"]


#: Public functions whose caller is a planned morphism suite and the verb
#: that reads the interpolator format; until they land only the tests
#: call them.
PENDING_CALLERS = {"load_topology", "dump_topology", "compose_interpolators",
                   "identity_interpolator", "load_interpolator"}


def test_every_public_definition_has_a_caller():
    # a public function or class is named elsewhere in the package or in
    # perfbench, or is exported; a route that only the tests call lives
    # in tests/oracles.py
    sources = {f"orderbench.{p.stem}": p.read_text() for p in PACKAGE.glob("*.py")}
    sources.update({f"perfbench.{p.stem}": p.read_text() for p in PERFBENCH.glob("*.py")})
    found = {q.rpartition(".")[2]: q for q in uncalled(
        sources, {m for m in sources if m.startswith("orderbench.")})}
    assert sorted(q for name, q in found.items()
                  if name not in set(orderbench.__all__) | PENDING_CALLERS) == []
    assert sorted(PENDING_CALLERS - set(found)) == []


def error_uses(sources) -> tuple[set[str], set[str]]:
    """The names that `raise` statements and `except` clauses of the
    sources name: (raised, caught)."""
    raised, caught = set(), set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {t.id for t in types if isinstance(t, ast.Name)}
    return raised, caught


def test_detects_raised_and_caught_errors():
    source = "try:\n    raise A('x')\nexcept (B, C):\n    raise D\nexcept E as e:\n    pass\n"
    assert error_uses([source]) == ({"A", "D"}, {"B", "C", "E"})


def test_every_error_class_is_raised_and_caught():
    # an error type earns its place by being caught by name in the package
    # (the command line's exit rule reads the type), and is raised by name
    # unless it is only a base; a type raised at one site and caught
    # nowhere says no more than its message
    from orderbench import errors

    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.__name__ for name in classes for base in getattr(errors, name).__bases__}
    raised, caught = error_uses(p.read_text() for p in PACKAGE.glob("*.py"))
    assert [c for c in classes if c not in caught] == []
    assert [c for c in classes if c not in raised | bases] == []


#: The layers registered with the package and executed on first use.
LAZY_LAYERS = ("axioms", "saturation", "spectrum", "stone", "tight")

#: What a process prints after its work: the lazy layers it executed,
#: the other orderbench modules it imported, and which of the modules
#: that `dataclasses` drags in it loaded.
LOADED = (
    "import json, sys, types; print(json.dumps({"
    f"'executed': [n for n in {LAZY_LAYERS!r}"
    " if type(sys.modules['orderbench.' + n]) is types.ModuleType],"
    " 'others': [n for n in ('lab', 'morphisms', 'suites') if 'orderbench.' + n in sys.modules],"
    " 'stdlib': [m for m in ('dataclasses', 'inspect') if m in sys.modules]}))"
)


def run_python(code: str) -> str:
    """The last line a fresh interpreter, without site packages, prints
    running `code`."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    ).stdout.splitlines()[-1]


def test_cli_import_contract():
    # importing the CLI registers every layer but executes none of them,
    # so a verb pays only for the layers it uses; lab, suites and
    # morphisms wait for the verbs that use them
    registered = f"all('orderbench.' + n in sys.modules for n in {LAZY_LAYERS!r})"
    code = f"import sys, orderbench.cli; assert {registered}; {LOADED}"
    assert json.loads(run_python(code)) == {"executed": [], "others": [], "stdlib": []}


#: The layers each structure verb executes, on a basic lattice, where
#: every verb runs all of its checks.
VERB_LAYERS = {
    "check": ["axioms"],
    "stone": ["axioms", "stone"],
    "spectrum": ["spectrum", "stone", "tight"],
    "envelope": ["tight"],
    "saturate": ["axioms", "saturation"],
}


@pytest.mark.parametrize("verb", sorted(VERB_LAYERS))
def test_verb_executes_only_its_layers(verb, tmp_path):
    path = tmp_path / "B.json"
    path.write_text(dump_structure(lab.make_family("powerset", 2)))
    code = f"from orderbench import cli; assert cli.run([{verb!r}, {str(path)!r}]) == 0; {LOADED}"
    want = {"executed": VERB_LAYERS[verb], "others": [], "stdlib": []}
    assert json.loads(run_python(code)) == want


#: Calls on other inputs: (arguments, the lazy layers executed, the other
#: orderbench modules loaded).  `gen` builds its structure in `lab` alone;
#: on a chain of 10 elements, which no frame cap limits, `saturate` reads
#: the characters from `core` and the subset laws' gates from `axioms`;
#: a suite result is a named tuple, so `verify` loads no `dataclasses`.
PARTIAL_CALLS = {
    "gen": (["gen", "powerset", "5", "--out", "{tmp}/P.json"], [], ["lab"]),
    "saturate-chain-9": (["saturate", "{tmp}/C.json"], ["axioms", "saturation"], []),
    "verify-type-witness": (["verify", "type_witness"], ["axioms"], ["lab", "suites"]),
}


@pytest.mark.parametrize("call", sorted(PARTIAL_CALLS))
def test_partial_call_executes_only_its_layers(call, tmp_path):
    (tmp_path / "C.json").write_text(dump_structure(lab.make_family("chain", 9)))
    args, executed, others = PARTIAL_CALLS[call]
    argv = [a.format(tmp=tmp_path) for a in args]
    code = f"from orderbench import cli; assert cli.run({argv!r}) == 0; {LOADED}"
    want = {"executed": executed, "others": others, "stdlib": []}
    assert json.loads(run_python(code)) == want


def test_morphisms_import_executes_no_layer():
    # morphisms reads axioms and stone through their lazy modules, so a
    # caller that never builds a Stone space executes neither
    code = f"import orderbench.morphisms; {LOADED}"
    assert json.loads(run_python(code)) == {"executed": [], "others": ["morphisms"], "stdlib": []}


def test_cache_counters_see_every_layer():
    # perfbench reads the counters by scanning sys.modules, which executes
    # a layer still waiting, so a CLI process reports all six cache layers
    perfbench = PACKAGE.parent.parent / "perfbench"
    code = (f"import sys; sys.path.insert(0, {str(perfbench)!r}); import orderbench.cli, tracing; "
            "print(sorted({k.split('.')[0] for k in tracing.cache_counters()}))")
    assert run_python(code) == str(sorted(["core", *LAZY_LAYERS]))


#: The lru_caches that may key on a structure: the sharing index itself,
#: a cache keyed on (structure, relation) that decomposition and
#: vee-interpolation share, and the last interpolator's report, which
#: `induced_stone_map` reads as its guard.
STRUCTURE_CACHES = {
    ("core", "_first_equal"),
    ("axioms", "_join_reach"),
    ("morphisms", "is_interpolator"),
}

#: Annotations of a value that is or holds a structure.
HOLDS_A_STRUCTURE = {"P0Set", "Interpolator"}


def decorated(source: str, decorators: set[str]) -> list[tuple[str, bool]]:
    """(name, first parameter annotated with a type that holds a structure)
    for every function with one of these decorators, called or not, bare
    or as a module attribute."""
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
            on_structure = isinstance(ann, ast.Name) and ann.id in HOLDS_A_STRUCTURE or (
                isinstance(ann, ast.Constant) and ann.value in HOLDS_A_STRUCTURE)
            out.append((node.name, on_structure))
    return out


def test_detects_structure_caches():
    source = (
        "@lru_cache(maxsize=3)\ndef f(B: P0Set, x): ...\n"
        "@functools.cache\ndef g(A: 'P0Set'): ...\n"
        "@lru_cache\ndef h(n: int): ...\n"
        "@lru_cache(maxsize=1)\ndef i(R: Interpolator): ...\n"
    )
    assert decorated(source, {"lru_cache", "cache"}) == [
        ("f", True), ("g", True), ("h", False), ("i", True)]


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
    # perfbench counts a layer's cache statistics from the cache-bearing
    # functions whose __module__ is the layer's own module: the structure
    # tables, and in `spectrum`, which keeps none, the lru cache `_index_masks`.
    # `report` and `morphisms` keep one lru cache each and no structure table;
    # perfbench reports neither layer.
    layers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, _ in decorated(path.read_text(), {"structure_table", "lru_cache"}):
            module = importlib.import_module(f"orderbench.{path.stem}")
            fn = getattr(module, name)
            assert fn.__module__ == module.__name__, name
            info = fn.cache_info()
            assert info.hits >= 0 and info.misses >= 0 and info.currsize >= 0, name
            layers.add(path.stem)
    assert layers == {"core", "axioms", "stone", "saturation", "tight", "spectrum",
                      "report", "morphisms"}
