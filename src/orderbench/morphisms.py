"""Interpolators between basic lattices and their induced Stone maps.

An interpolator is a relation between two basic lattices playing the role
of a continuous map: it satisfies the minimum axiom and the lattice axioms
from cofinality through decomposition, with interpolation split into a
target-side and a source-side half.  Relations are dense boolean matrices
stored as bitmask rows over the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import (
    P0Set,
    bits,
    derived_relations,
    full_mask,
    lattice_tables,
    load_linked,
    mask_from,
    prec_down,
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
from .stone import FiniteTopology, basis_to_structure, stone_space


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

    Zero reflection (nothing nonzero sits below the target's zero) is part
    of the defining list: relation-of-a-map interpolators always satisfy
    it, and without it the complete relation would count as a morphism
    while pushing ultrafilters onto improper filters, breaking the
    correspondence with continuous maps on one-point instances.
    """
    from .axioms import is_basic_lattice

    if not (is_basic_lattice(R.source) and is_basic_lattice(R.target)):
        raise PreconditionFailed("interpolators live between basic lattices")
    B, C, rel = R.source, R.target, R.rel
    derB = derived_relations(B)
    derC = derived_relations(C)
    downC = prec_down(C)
    mtB, jtB = lattice_tables(B)
    mtC, jtC = lattice_tables(C)

    minimum = Check(
        "minimum",
        rel[B.zero] == full_mask(C.size),
        None
        if rel[B.zero] == full_mask(C.size)
        else (next(bits(full_mask(C.size) & ~rel[B.zero])),),
    )

    zr_w = next(
        (x for x in range(B.size) if x != B.zero and rel[x] >> C.zero & 1), None
    )
    zero_reflection = Check(
        "zero_reflection", zr_w is None, (zr_w,) if zr_w is not None else None
    )

    cof_w = next((x for x in range(B.size) if rel[x] == 0), None)
    cofinality = Check("cofinality", cof_w is None, (cof_w,) if cof_w is not None else None)

    lt_w = None
    for x in range(B.size):
        for y in bits(rel[x]):
            if rel[x] & downC[y] == 0:
                lt_w = (x, y)
                break
        if lt_w:
            break
    lt_interp = Check("target_interpolation", lt_w is None, lt_w)

    pr_w = None
    for x in range(B.size):
        for y in bits(rel[x]):
            if not any(rel[z] >> y & 1 for z in bits(B.prec[x])):
                pr_w = (x, y)
                break
        if pr_w:
            break
    pr_interp = Check("source_interpolation", pr_w is None, pr_w)

    edges = [(x, y) for x in range(B.size) for y in bits(rel[x])]
    mult_w = None
    add_w = None
    for x, x2 in edges:
        for y, y2 in edges:
            if mult_w is None and not rel[mtB[x][y]] >> mtC[x2][y2] & 1:
                mult_w = (x, x2, y, y2)
            if add_w is None and not rel[jtB[x][y]] >> jtC[x2][y2] & 1:
                add_w = (x, x2, y, y2)
        if mult_w and add_w:
            break
    mult = Check("multiplicativity", mult_w is None, mult_w)
    add = Check("additivity", add_w is None, add_w)

    dec_w = None
    for x in range(C.size):
        relx = [a for a in range(B.size) if rel[a] >> x & 1]
        for y in range(C.size):
            rely = [b for b in range(B.size) if rel[b] >> y & 1]
            target = jtC[x][y]
            reach = 0
            for a in relx:
                for b in rely:
                    reach |= 1 << jtB[a][b]
            bad = (
                mask_of_rel_column(rel, B.size, target) & ~reach
            )
            if bad:
                dec_w = (next(bits(bad)), x, y)
                break
        if dec_w:
            break
    decomposition = Check("decomposition", dec_w is None, dec_w)

    leq_w = None
    for x in range(B.size):
        spread = 0
        for z in bits(rel[x]):
            spread |= derC.preceq[z]
        if spread & ~rel[x]:
            leq_w = (x, next(bits(spread & ~rel[x])))
            break
    leq_aux = Check("target_auxiliarity", leq_w is None, leq_w)

    peq_w = None
    for z in range(B.size):
        for x in bits(derB.preceq_down[z]):
            if rel[z] & ~rel[x]:
                peq_w = (x, z, next(bits(rel[z] & ~rel[x])))
                break
        if peq_w:
            break
    peq_aux = Check("source_auxiliarity", peq_w is None, peq_w)

    defining = [minimum, zero_reflection, cofinality, lt_interp, pr_interp, mult,
                add, decomposition]
    checks = defining + [leq_aux, peq_aux]
    return report(
        "interpolator", checks, passed=all(c.holds for c in defining)
    )


def mask_of_rel_column(rel, size_b: int, y: int) -> int:
    """Mask over the source of {x : x R y}."""
    m = 0
    for x in range(size_b):
        if rel[x] >> y & 1:
            m |= 1 << x
    return m


def compose_interpolators(R: Interpolator, S: Interpolator) -> Interpolator:
    """Relational composition: x (R;S) y iff x R z S y for some z."""
    if R.target != S.source:
        raise DimensionMismatch("inner carriers differ")
    rows = []
    for x in range(R.source.size):
        acc = 0
        for z in bits(R.rel[x]):
            acc |= S.rel[z]
        rows.append(acc)
    return Interpolator(R.source, S.target, tuple(rows))


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
    from .stone import enumerate_ultrafilters

    if not is_interpolator(R).passed:
        raise NotInterpolator("relation fails the interpolator axioms")
    B, C = R.source, R.target
    X, Y = stone_space(B), stone_space(C)
    ults_b = enumerate_ultrafilters(B)
    ults_c = enumerate_ultrafilters(C)
    index_c = {U: i for i, U in enumerate(ults_c)}
    mapping = []
    for U in ults_b:
        img = 0
        for x in bits(U):
            img |= R.rel[x]
        if img not in index_c:
            raise NotUltrafilter(f"pushforward {img:#b} is not an ultrafilter")
        mapping.append(index_c[img])
    mapping = tuple(mapping)

    cont_w = None
    for y in range(C.size):
        pre = 0
        for i, t in enumerate(mapping):
            if Y.basis[y] >> t & 1:
                pre |= 1 << i
        if not X.is_open(pre):
            cont_w = (y,)
            break
    continuous = Check("continuous", cont_w is None, cont_w)

    char_w = None
    for x in range(B.size):
        cl = X.closure(X.basis[x])
        img = 0
        for i in bits(cl):
            img |= 1 << mapping[i]
        for y in range(C.size):
            sends = img & ~Y.basis[y] == 0
            if sends != R.has(x, y):
                char_w = (x, y)
                break
        if char_w:
            break
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
    # so the smallest open with a preimage that is not open is one of them
    for u in sorted(set(Y.nbhd)):
        if not X.is_open(mask_from(p for p, t in enumerate(f) if u >> t & 1)):
            raise NotContinuous(f"preimage of {u:#b} is not open")
    source = basis_to_structure(X, BX)
    target = basis_to_structure(Y, BY)
    rows = []
    for o in BX:
        img = 0
        for p in bits(X.closure(o)):
            img |= 1 << f[p]
        row = 0
        for j, nbh in enumerate(BY):
            if img & ~nbh == 0:
                row |= 1 << j
        rows.append(row)
    return Interpolator(source, target, tuple(rows))


# ---------------------------------------------------------------------------
# file format


def load_interpolator(text: str, base_dir: str | Path = ".") -> Interpolator:
    """Parse {"from": path, "to": path, "pairs": [[int, int], ...]}."""
    source, target, pairs = load_linked(text, base_dir, "pairs")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise FormatError("pairs must be a list of [int, int]")
    return interpolator(source, target, [tuple(p) for p in pairs])
