"""Verification workbench for finite order structures.

Finite transitive relations with a minimum element, their Stone-style
duality with finite spaces, interpolator morphisms, saturation frames,
regular-open enveloping algebras, and tight character spectra, all
checked exhaustively at desk scale.
"""

from importlib import import_module

# The layers that keep caches load with the package, so that any process
# can report the cache statistics of every layer (perfbench reads them
# from sys.modules).  `lab`, `morphisms` and `suites` load on first use.
from . import axioms, saturation, spectrum, stone, tight
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
