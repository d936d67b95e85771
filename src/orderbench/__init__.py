"""Verification workbench for finite order structures.

Finite transitive relations with a minimum element, their Stone-style
duality with finite spaces, interpolator morphisms, saturation frames,
regular-open enveloping algebras, and tight character spectra, all
checked exhaustively at desk scale.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

from .core import (
    MAX_SIZE,
    DerivedRels,
    P0Set,
    SubsetMask,
    derived_relations,
    dump_structure,
    join,
    load_structure,
    meet,
    order_predicates,
    p0set,
    relative_complement,
)
from .report import Check, Report

__version__ = "0.1.0"


def _lazy(name: str):
    """Register the layer `name` in sys.modules unexecuted; it executes on
    the first access to one of its attributes.  A process without bytecode
    caches compiles every module it executes, so a CLI verb pays only for
    the layers it uses, while a scan of sys.modules (perfbench's cache
    counters) executes and sees every layer.  Not safe to race before
    Python 3.12: see the README."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The layers that keep tables.  `lab`, `morphisms` and `suites` keep none;
# `__getattr__` below imports them, so that such a scan skips them.
axioms, saturation, spectrum, stone, tight = map(
    _lazy, ("axioms", "saturation", "spectrum", "stone", "tight"))


def __getattr__(name: str):
    """Import `lab`, `morphisms` or `suites` on first access, so that the
    structure verbs do not pay for them."""
    if name in ("lab", "morphisms", "suites"):
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MAX_SIZE",
    "Check",
    "DerivedRels",
    "P0Set",
    "Report",
    "SubsetMask",
    "axioms",
    "derived_relations",
    "dump_structure",
    "join",
    "lab",
    "load_structure",
    "meet",
    "morphisms",
    "order_predicates",
    "p0set",
    "relative_complement",
    "saturation",
    "spectrum",
    "stone",
    "suites",
    "tight",
    "__version__",
]
