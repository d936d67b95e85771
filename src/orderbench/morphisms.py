"""Interpolators between basic lattices and their induced Stone maps.

An interpolator is a relation between two basic lattices playing the role
of a continuous map: it satisfies the minimum axiom and the lattice axioms
from cofinality through decomposition, with interpolation split into a
target-side and a source-side half.  Relations are dense boolean matrices
stored as bitmask rows over the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import xor
from pathlib import Path

from . import axioms
from .core import (
    P0Set,
    derived_relations,
    first_pair,
    load_linked,
    transpose,
    union_rows,
)
from .errors import (
    DimensionMismatch,
    FormatError,
    NotContinuous,
    NotInterpolator,
    NotUltrafilter,
    PreconditionFailed,
)
from .report import Check, Report, report
from .stone import (
    FiniteTopology,
    basis_to_structure,
    closure_rows,
    enumerate_ultrafilters,
    stone_space,
)


@dataclass(frozen=True)
class Interpolator:
    """Relation from source to target; rel[x] masks {y in target : x R y}."""

    source: P0Set
    target: P0Set
    rel: tuple[int, ...]

    def has(self, x: int, y: int) -> bool:
        return self.rel[x] >> y & 1 == 1


def interpolator(source: P0Set, target: P0Set, pairs) -> Interpolator:
    rows = [0] * source.size
    for x, y in pairs:
        if not (0 <= x < source.size and 0 <= y < target.size):
            raise FormatError(f"pair ({x}, {y}) outside the carriers")
        rows[x] |= 1 << y
    return Interpolator(source, target, tuple(rows))


def is_interpolator(R: Interpolator) -> Report:
    """Per-axiom verdicts; passes on the defining axioms, with the two
    derived auxiliarity laws reported alongside.

    The laws an interpolator shares with the identity interpolator are the
    basic-lattice sweeps of `axioms`, run on this relation; target
    interpolation and source auxiliarity are the lattice's interpolation
    and right auxiliarity.  Zero reflection (nothing nonzero sits below
    the target's zero) is part of the defining list: relation-of-a-map
    interpolators always satisfy it, and without it the complete relation
    would count as a morphism while pushing ultrafilters onto improper
    filters, breaking the correspondence with continuous maps on one-point
    instances.
    """
    if not (axioms.is_basic_lattice(R.source) and axioms.is_basic_lattice(R.target)):
        raise PreconditionFailed("interpolators live between basic lattices")
    B, C, rel = R.source, R.target, R.rel
    I = (B, C, rel, tuple(transpose(rel, C.size)))

    zr_w = next((x for x, row in enumerate(rel) if x != B.zero and row >> C.zero & 1), None)
    zero_reflection = Check("zero_reflection", zr_w is None, None if zr_w is None else (zr_w,))
    # x R y gives some z with x < z and z R y
    pr_w = first_pair(row & ~union_rows(rel, B.prec[x]) for x, row in enumerate(rel))
    # x R z and z <= y in the target give x R y
    preceq = derived_relations(C).preceq
    leq_w = first_pair(union_rows(preceq, row) & ~row for row in rel)

    defining = [axioms.minimum(*I), zero_reflection, axioms.cofinality(*I),
                axioms.interpolation(*I)._replace(name="target_interpolation"),
                Check("source_interpolation", pr_w is None, pr_w),
                axioms.multiplicativity(*I), axioms.additivity(*I), axioms.decomposition(*I)]
    checks = defining + [Check("target_auxiliarity", leq_w is None, leq_w),
                         axioms.auxiliarity(*I)._replace(name="source_auxiliarity")]
    return report("interpolator", checks, passed=all(c.holds for c in defining))


def compose_interpolators(R: Interpolator, S: Interpolator) -> Interpolator:
    """Relational composition: x (R;S) y iff x R z S y for some z."""
    if R.target != S.source:
        raise DimensionMismatch("inner carriers differ")
    return Interpolator(R.source, S.target, tuple(union_rows(S.rel, row) for row in R.rel))


def identity_interpolator(B: P0Set) -> Interpolator:
    """The strict relation of a basic lattice, as a self-interpolator."""
    return Interpolator(B, B, B.prec)


@dataclass(frozen=True)
class StoneMap:
    """A verified point map between two Stone spaces."""

    source_space: FiniteTopology
    target_space: FiniteTopology
    mapping: tuple[int, ...]
    report: Report


def induced_stone_map(R: Interpolator) -> StoneMap:
    """Push each ultrafilter U forward to {y : some x in U has x R y} and
    verify the result is an ultrafilter, the map is continuous, and the
    relation is recovered by closure containment."""
    if not is_interpolator(R).passed:
        raise NotInterpolator("relation fails the interpolator axioms")
    B, C = R.source, R.target
    X, Y = stone_space(B), stone_space(C)
    index_c = {U: i for i, U in enumerate(enumerate_ultrafilters(C))}
    mapping = []
    for U in enumerate_ultrafilters(B):
        img = union_rows(R.rel, U)
        if img not in index_c:
            raise NotUltrafilter(f"pushforward {img:#b} is not an ultrafilter")
        mapping.append(index_c[img])
    mapping = tuple(mapping)

    fibres = transpose((1 << t for t in mapping), Y.points)
    cont_w = next(((y,) for y, o in enumerate(Y.basis)
                   if not X.is_open(union_rows(fibres, o))), None)
    continuous = Check("continuous", cont_w is None, cont_w)
    char_w = first_pair(map(xor, closure_rows(X, X.basis, mapping, Y.basis), R.rel))
    characterization = Check("closure_characterization", char_w is None, char_w)

    rep = report("induced_stone_map", [continuous, characterization])
    return StoneMap(X, Y, mapping, rep)


def interpolator_from_map(
    X: FiniteTopology, Y: FiniteTopology, f, BX, BY
) -> Interpolator:
    """Relation O R N iff f[closure(O)] lies inside N, for O in BX, N in BY.

    `f` is a point map given as a sequence of Y-point indices; continuity
    is checked, not assumed.
    """
    f = tuple(f)
    if len(f) != X.points or any(not 0 <= t < Y.points for t in f):
        raise FormatError("point map has wrong shape")
    # opens are unions of minimal neighbourhoods and preimages keep unions,
    # so the smallest open with a preimage that is not open is one of them;
    # the preimage of o is the union of the fibres over its points
    fibres = transpose((1 << t for t in f), Y.points)
    for u in sorted(set(Y.nbhd)):
        if not X.is_open(union_rows(fibres, u)):
            raise NotContinuous(f"preimage of {u:#b} is not open")
    source = basis_to_structure(X, BX)
    target = basis_to_structure(Y, BY)
    return Interpolator(source, target, tuple(closure_rows(X, BX, f, BY)))


# ---------------------------------------------------------------------------
# file format


def load_interpolator(text: str, base_dir: str | Path = ".") -> Interpolator:
    """Parse {"from": path, "to": path, "pairs": [[int, int], ...]}."""
    source, target, pairs = load_linked(text, base_dir, "pairs")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(v, int) for v in p)
        for p in pairs
    ):
        raise FormatError("pairs must be a list of [int, int]")
    return interpolator(source, target, [tuple(p) for p in pairs])
