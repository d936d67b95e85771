"""Covering relation, tight maps, the regular-open enveloping algebra, and
universal factoring.

This module treats any structure as a p0set through its reflexivization:
all bounds, meet-relations and covers below are computed from the derived
order.  On a reflexive structure they coincide with the strict-relation
versions.

The carrier minus zero carries the topology whose closed sets are the
up-closed sets; regular opens of that space form a Boolean algebra, and
the subalgebra generated by the principal regularizations is the
enveloping generalized Boolean algebra.  Element identity in the algebra
is mask equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import and_, or_
from pathlib import Path

from .core import (
    P0Set,
    SubsetMask,
    bits,
    derived_relations,
    full_mask,
    lattice_tables,
    lower_bound_table,
    meets_preceq,
    meets_preceq_table,
    order_predicates,
    p0set,
    preceq_down_table,
    relative_complement,
    subset_fold,
)
from .errors import (
    CapExceeded,
    ConstructionIncomplete,
    FormatError,
    NotTightish,
    PreconditionFailed,
    ZeroNotPreserved,
)
from .report import Check, Report, report

ENVELOPE_CAP = 14
MAP_CAP = 10
FGRHO_CAP = 8


# ---------------------------------------------------------------------------
# covers


def lower_bounds(B: P0Set, C: SubsetMask) -> SubsetMask:
    """Common lower bounds of C under the derived order; the empty set's
    bounds are the whole carrier."""
    der = derived_relations(B)
    acc = full_mask(B.size)
    for c in bits(C):
        acc &= der.preceq_down[c]
    return acc


def covers(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    """Every common lower bound of C is zero or meets a member of D."""
    mp = meets_preceq(B)
    target = 1 << B.zero
    for d in bits(D):
        target |= mp[d]
    return lower_bounds(B, C) & ~target == 0


def _covers_fast(B: P0Set):
    lbt, mut = lower_bound_table(B), meets_preceq_table(B)
    zb = 1 << B.zero

    def fast(C: int, D: int) -> bool:
        return lbt[C] & ~(mut[D] | zb) == 0

    return fast


# ---------------------------------------------------------------------------
# structure maps


@dataclass(frozen=True)
class StructMapTotal:
    """A total map between carriers; assignment[x] is the target index."""

    source: P0Set
    target: P0Set
    assignment: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.assignment[x]


def struct_map(source: P0Set, target: P0Set, assignment) -> StructMapTotal:
    assignment = tuple(assignment)
    if len(assignment) != source.size or any(
        not 0 <= t < target.size for t in assignment
    ):
        raise FormatError("assignment has wrong shape")
    return StructMapTotal(source, target, assignment)


def zero_preserving_maps(B: P0Set, A: P0Set):
    """Every map from B to A that sends zero to zero, in lexicographic
    order of the values on the other elements."""
    z = B.zero
    for vals in product(range(A.size), repeat=B.size - 1):
        yield StructMapTotal(B, A, vals[:z] + (A.zero,) + vals[z:])


def identity_map(B: P0Set) -> StructMapTotal:
    return StructMapTotal(B, B, tuple(range(B.size)))


def compose_maps(first: StructMapTotal, then: StructMapTotal) -> StructMapTotal:
    if first.target != then.source:
        raise FormatError("inner carriers differ")
    return StructMapTotal(
        first.source,
        then.target,
        tuple(then.assignment[t] for t in first.assignment),
    )


def load_struct_map(text: str, base_dir: str | Path = ".") -> StructMapTotal:
    """Parse {"from": path, "to": path, "map": [int, ...]}."""
    from .core import load_structure

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"from", "to", "map"}:
        raise FormatError("map document needs exactly from/to/map")
    base = Path(base_dir)
    source = load_structure((base / doc["from"]).read_text())
    target = load_structure((base / doc["to"]).read_text())
    if not isinstance(doc["map"], list) or not all(isinstance(t, int) for t in doc["map"]):
        raise FormatError("map must be a list of target indices")
    return struct_map(source, target, doc["map"])


@lru_cache(maxsize=1024)
def _minimal_covers(B: P0Set):
    """The source's minimal covering pairs, one row (F, members, entries)
    per F in ascending order, entries being (G, members) ascending.

    Covering is upward closed in F and in G, so a covering pair is minimal
    exactly when dropping any one member of F or of G breaks it.  Row 0
    holds the minimal G covered by F = 0; a nonzero row holds the G for
    which (F, G) is minimal among the covering pairs with F nonzero: G is
    minimal in F's row, and no nonzero F minus one member still covers G.
    A row's minimal Gs depend only on the nonzero lower bounds of F, so
    they are computed once per distinct bound set.
    """
    lbt, mut = lower_bound_table(B), meets_preceq_table(B)
    zb = 1 << B.zero
    nsub = 1 << B.size
    by_need: dict[int, tuple[int, ...]] = {}

    def minimal_gs(need: int) -> tuple[int, ...]:
        gs = by_need.get(need)
        if gs is None:
            covered = [need & ~m == 0 for m in mut]
            gs = by_need[need] = tuple(
                G
                for G in range(nsub)
                if covered[G] and not any(covered[G ^ 1 << g] for g in bits(G))
            )
        return gs

    rows = []
    for F in range(nsub):
        smaller = [lbt[F ^ 1 << x] for x in bits(F) if F ^ 1 << x]
        entries = tuple(
            (G, tuple(bits(G)))
            for G in minimal_gs(lbt[F] & ~zb)
            if all(lb & ~(mut[G] | zb) for lb in smaller)
        )
        if entries:
            rows.append((F, tuple(bits(F)), entries))
    return tuple(rows)


@lru_cache(maxsize=1024)
def _target_rows(A: P0Set):
    """What map classification reads of a target, in one lookup:
    (preceq_down, meets_preceq, carrier minus zero, algebra flag)."""
    return (
        derived_relations(A).preceq_down,
        meets_preceq(A),
        full_mask(A.size) & ~(1 << A.zero),
        order_predicates(A).holds("generalized_boolean"),
    )


def map_properties(beta: StructMapTotal) -> Report:
    """Tight / tightish / coinitial / representation / character flags.

    A source pair (F, G) fails when F covers G in the source but beta[F]
    does not cover beta[G] in the target.  Covering is upward closed in
    both arguments on either side, so every failing pair lies above a
    failing minimal covering pair, and only the source's minimal covering
    pairs (`_minimal_covers`, one table per source) get a target test.
    The witnesses are those of the sweep over all pairs in ascending
    (F, G) order: a subset of F is a smaller integer, so the first failing
    pair with F nonzero is itself minimal, and tight's witness is the
    first failing G of row 0, or else tightish's.  The target side is a
    fold over the assignment, so its cost does not depend on the target's
    size; the source carrier is capped.
    """
    B, A = beta.source, beta.target
    img = beta.assignment
    if img[B.zero] != A.zero:
        raise ZeroNotPreserved(f"zero maps to {img[B.zero]}")
    if B.size > MAP_CAP:
        raise CapExceeded(f"map classification capped at source carrier {MAP_CAP}")
    downA, mpA, primeA, rep = _target_rows(A)

    tight_w = tightish_w = None
    for F, fs, entries in _minimal_covers(B):
        low = primeA
        for x in fs:
            low &= downA[img[x]]
        if not low:
            continue
        for G, gs in entries:
            up = 0
            for g in gs:
                up |= mpA[img[g]]
            if low & ~up:
                if F:
                    tightish_w = (F, G)
                else:
                    tight_w = (F, G)
                break
        if tightish_w:
            break
    if tight_w is None:
        tight_w = tightish_w

    nonzero_img = 0
    for t in img:
        if t != A.zero:
            nonzero_img |= 1 << t
    coin_w = None
    for a in range(A.size):
        if a != A.zero and downA[a] & nonzero_img == 0:
            coin_w = (a,)
            break

    character = rep and A.size == 2

    checks = [
        Check("tight", tight_w is None, tight_w),
        Check("tightish", tightish_w is None, tightish_w),
        Check("coinitial", coin_w is None, coin_w),
        Check("representation", rep),
        Check("character", character),
    ]
    return Report("map_properties", tuple(checks), passed=tight_w is None)


@lru_cache(maxsize=256)
def _gba_relcomp_table(A: P0Set):
    n = A.size
    return tuple(
        tuple(relative_complement(A, x, y) for y in range(n)) for x in range(n)
    )


def _join_fold(A: P0Set, items) -> int:
    _, jt = lattice_tables(A)
    acc = A.zero
    for t in items:
        acc = jt[acc][t]
    return acc


def verify_tight_equivalences(beta: StructMapTotal) -> Report:
    """The four reformulation clauses around tightness.

    (a) tightish plus one matched total cover implies tight.
    (b) on a meet-semilattice source with algebra target, tightish is
        meet preservation plus join domination, and tight adds the
        total-cover-to-maximum rule.
    (c) between algebras, tightish = lattice homomorphism with zero kept
        = homomorphism also preserving relative complements.
    (d) the bounded-cover reformulation agrees with covers on all triples.
    Clauses whose structural preconditions fail are reported as skipped.
    """
    B, A = beta.source, beta.target
    props = map_properties(beta)
    tight = props.holds("tight")
    tightish = props.holds("tightish")
    fast_s = _covers_fast(B)
    predsB = order_predicates(B)
    predsA = order_predicates(A)

    # (a) covering the empty set is upward closed in G on both sides, so
    # some G is a matched total cover iff the whole carrier is one
    _, mpA, primeA, _ = _target_rows(A)
    up = 0
    for t in beta.assignment:
        up |= mpA[t]
    matched = fast_s(0, full_mask(B.size)) and primeA & ~up == 0
    a_holds = not (tightish and matched) or tight
    a_check = Check("tightish_matched_cover_tight", a_holds)

    # (b)
    if predsB.holds("meet_semilattice") and predsA.holds("generalized_boolean"):
        mtB, _ = lattice_tables(B)
        mtA, jtA = lattice_tables(A)
        derB = derived_relations(B)
        derA = derived_relations(A)
        mpB = meets_preceq(B)
        meets_ok = all(
            beta.assignment[mtB[x][y]] == mtA[beta.assignment[x]][beta.assignment[y]]
            for x in range(B.size)
            for y in range(B.size)
        )
        dom_ok = True
        for x in range(B.size):
            downx = derB.preceq_down[x]
            for G in range(1 << B.size):
                # need G below x and x covered by G
                if any(not derB.preceq[g] >> x & 1 for g in bits(G)):
                    continue
                target = 1 << B.zero
                for g in bits(G):
                    target |= mpB[g]
                if downx & ~target:
                    continue
                jv = _join_fold(A, (beta.assignment[g] for g in bits(G)))
                if not derA.preceq[beta.assignment[x]] >> jv & 1:
                    dom_ok = False
                    break
            if not dom_ok:
                break
        restricted = meets_ok and dom_ok
        one_a = True
        for G in range(1 << B.size):
            if fast_s(0, G):
                jv = _join_fold(A, (beta.assignment[g] for g in bits(G)))
                if any(not derA.preceq[a] >> jv & 1 for a in range(A.size)):
                    one_a = False
                    break
        b_holds = (tightish == restricted) and (tight == (restricted and one_a))
        b_check = Check("semilattice_reformulation", b_holds)
    else:
        b_check = Check("semilattice_reformulation", None)

    # (c)
    if predsB.holds("generalized_boolean") and predsA.holds("generalized_boolean"):
        mtB, jtB = lattice_tables(B)
        mtA, jtA = lattice_tables(A)
        rcB = _gba_relcomp_table(B)
        rcA = _gba_relcomp_table(A)
        bmap = beta.assignment
        lat_hom = bmap[B.zero] == A.zero and all(
            bmap[mtB[x][y]] == mtA[bmap[x]][bmap[y]]
            and bmap[jtB[x][y]] == jtA[bmap[x]][bmap[y]]
            for x in range(B.size)
            for y in range(B.size)
        )
        gba_hom = lat_hom and all(
            bmap[rcB[x][y]] == rcA[bmap[x]][bmap[y]]
            for x in range(B.size)
            for y in range(B.size)
        )
        c_holds = tightish == lat_hom == gba_hom
        c_check = Check("algebra_homomorphism", c_holds)
    else:
        c_check = Check("algebra_homomorphism", None)

    # (d) source-side identity between the bounded-cover form and covers
    if B.size > 8:
        d_check = Check("bounded_cover_form", None)
    else:
        lbt = lower_bound_table(B)
        mut = meets_preceq_table(B)
        dct = preceq_down_table(B)
        fm = full_mask(B.size)
        pt = subset_fold([fm & ~m for m in meets_preceq(B)], and_, fm)
        zb = 1 << B.zero
        d_w = None
        for F in range(1 << B.size):
            lf = lbt[F]
            for G in range(1 << B.size):
                bfg = lf & pt[G]
                a = dct[bfg] & ~zb
                b = lf & ~zb
                if a == b:
                    continue
                for H in range(1 << B.size):
                    t = mut[G | H]
                    if (a & ~t == 0) != (b & ~t == 0):
                        d_w = (F, G, H)
                        break
                if d_w:
                    break
            if d_w:
                break
        d_check = Check("bounded_cover_form", d_w is None, d_w)

    checks = [a_check, b_check, c_check, d_check]
    return report("tight_equivalences", checks)


# ---------------------------------------------------------------------------
# the punctured carrier and its regular opens


@dataclass(frozen=True)
class AlexandroffOps:
    closure: SubsetMask
    interior: SubsetMask
    regularize: SubsetMask


def _prime_mask(B: P0Set) -> int:
    return full_mask(B.size) & ~(1 << B.zero)


def alexandroff_ops(B: P0Set, Y: SubsetMask) -> AlexandroffOps:
    """Closure, interior and regularization of Y inside the punctured
    carrier whose closed sets are the up-closed sets."""
    prime = _prime_mask(B)
    if Y & ~prime:
        raise PreconditionFailed("subset must avoid the zero element")
    cl = _alex_closure(B, Y)
    inte = _alex_interior(B, Y)
    return AlexandroffOps(cl, inte, _alex_interior(B, cl))


def _alex_closure(B: P0Set, Y: SubsetMask) -> SubsetMask:
    der = derived_relations(B)
    acc = 0
    for y in bits(Y):
        acc |= der.preceq[y]
    return acc & _prime_mask(B)


def _alex_interior(B: P0Set, Y: SubsetMask) -> SubsetMask:
    der = derived_relations(B)
    prime = _prime_mask(B)
    acc = 0
    for v in bits(prime):
        if der.preceq_down[v] & prime & ~Y == 0:
            acc |= 1 << v
    return acc


def _regularize(B: P0Set, Y: SubsetMask) -> SubsetMask:
    return _alex_interior(B, _alex_closure(B, Y))


@lru_cache(maxsize=None)
def rho(B: P0Set, x: int) -> SubsetMask:
    """Regularization of the punctured principal down-set of x."""
    der = derived_relations(B)
    return _regularize(B, der.preceq_down[x] & _prime_mask(B))


@dataclass(frozen=True)
class RegularOpenAlgebra:
    """The generalized Boolean subalgebra of the regular opens generated by
    the principal regularizations, with explicit operation tables.

    `elements` is sorted by mask; entry 0 is the empty set.  The op tables
    are total: meets are intersections, joins regularized unions, diff the
    relative complement a minus b.  `rho_index[x]` locates the image of
    carrier element x.
    """

    base: P0Set
    elements: tuple[SubsetMask, ...]
    meet_t: tuple[tuple[int, ...], ...]
    join_t: tuple[tuple[int, ...], ...]
    diff_t: tuple[tuple[int, ...], ...]
    rho_index: tuple[int, ...]

    def index(self, mask: SubsetMask) -> int:
        return self.elements.index(mask)

    def atoms(self) -> list[int]:
        nonzero = [i for i in range(len(self.elements)) if i != 0]
        return [
            i
            for i in nonzero
            if not any(
                j != i and self.elements[j] and self.elements[j] & ~self.elements[i] == 0
                for j in nonzero
            )
        ]

    def top_index(self) -> int:
        acc = 0
        for i in range(len(self.elements)):
            acc = self.join_t[acc][i]
        return acc

    def as_p0set(self) -> P0Set:
        els = self.elements
        pairs = [
            (i, j)
            for i in range(len(els))
            for j in range(len(els))
            if els[i] & ~els[j] == 0
        ]
        return p0set(len(els), 0, pairs)


@lru_cache(maxsize=None)
def enveloping_algebra(B: P0Set) -> RegularOpenAlgebra:
    """Worklist closure of the principal regularizations and the empty set
    under intersection, regularized union, and relative complement."""
    if B.size > ENVELOPE_CAP:
        raise CapExceeded(f"enveloping algebra capped at carrier {ENVELOPE_CAP}")
    prime = _prime_mask(B)
    rhos = [rho(B, x) for x in range(B.size)]
    elements = {0} | set(rhos)
    frontier = set(elements)
    while frontier:
        new = set()
        current = list(elements)
        for a in frontier:
            nega = _alex_interior(B, prime & ~a)
            for b in current:
                for c in (a & b, _regularize(B, a | b), a & _alex_interior(B, prime & ~b), b & nega):
                    if c not in elements and c not in new:
                        new.add(c)
        elements |= new
        frontier = new
    els = tuple(sorted(elements))
    index = {m: i for i, m in enumerate(els)}
    k = len(els)
    meet_t = [[0] * k for _ in range(k)]
    join_t = [[0] * k for _ in range(k)]
    diff_t = [[0] * k for _ in range(k)]
    negs = [_alex_interior(B, prime & ~m) for m in els]
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            meet_t[i][j] = index[a & b]
            join_t[i][j] = index[_regularize(B, a | b)]
            diff_t[i][j] = index[a & negs[j]]
    return RegularOpenAlgebra(
        B,
        els,
        tuple(tuple(r) for r in meet_t),
        tuple(tuple(r) for r in join_t),
        tuple(tuple(r) for r in diff_t),
        tuple(index[r] for r in rhos),
    )


def verify_fgrho(B: P0Set) -> Report:
    """Exhaustive check that covering between finite subsets matches meet
    versus regularized-join containment of their principal images."""
    if B.size > FGRHO_CAP:
        raise CapExceeded(f"image cover equivalence capped at carrier {FGRHO_CAP}")
    n = B.size
    prime = _prime_mask(B)
    rhos = [rho(B, x) for x in range(n)]
    cap = subset_fold(rhos, and_, prime)
    vee = [_regularize(B, c) for c in subset_fold(rhos, or_, 0)]
    fast = _covers_fast(B)
    w = None
    for F in range(1 << n):
        for G in range(1 << n):
            if fast(F, G) != (cap[F] & ~vee[G] == 0):
                w = (F, G)
                break
        if w:
            break
    return report("image_cover_equivalence", [Check("equivalence", w is None, w)])


# ---------------------------------------------------------------------------
# universal factoring


def factor_tight(beta: StructMapTotal, extension_order: str = "asc") -> StructMapTotal:
    """Factor a tightish representation through the enveloping algebra.

    Values are forced in three stages: on the principal images, on their
    finite meets, then finite joins, and finally through repeated
    complement extensions of the current sublattice until it covers the
    algebra.  Every forced value is consistency-checked; a clash raises
    ConstructionIncomplete, which the factoring theorem rules out.  The
    extension picks the lowest-index base point each round (highest with
    extension_order="desc"; the result is order independent and the suite
    compares both).
    """
    B, A = beta.source, beta.target
    props = map_properties(beta)
    if not props.holds("tightish"):
        raise NotTightish("factoring needs a tightish map")
    if not props.holds("representation"):
        raise PreconditionFailed("factoring needs an algebra target")
    S = enveloping_algebra(B)
    mtA, jtA = lattice_tables(A)
    rcA = _gba_relcomp_table(A)
    k = len(S.elements)
    values: dict[int, int] = {}

    def assign(i: int, v: int):
        old = values.get(i)
        if old is None:
            values[i] = v
        elif old != v:
            raise ConstructionIncomplete(
                f"element {S.elements[i]:#b} forced to both {old} and {v}"
            )

    assign(0, A.zero)
    for x in range(B.size):
        assign(S.rho_index[x], beta.assignment[x])

    def close(table, op):
        changed = True
        while changed:
            changed = False
            known = list(values.items())
            for i, vi in known:
                for j, vj in known:
                    t = table[i][j]
                    v = op(vi, vj)
                    if t not in values:
                        assign(t, v)
                        changed = True
                    else:
                        assign(t, v)

    close(S.meet_t, lambda a, b: mtA[a][b])
    close(S.join_t, lambda a, b: jtA[a][b])

    while len(values) < k:
        grown = False
        domain = sorted(values)
        if extension_order == "desc":
            domain = domain[::-1]
        for x in domain:
            adds = [
                (S.join_t[y][S.diff_t[z][x]], y, z)
                for y in sorted(values)
                for z in sorted(values)
                if S.join_t[y][S.diff_t[z][x]] not in values
            ]
            if not adds:
                continue
            vx = values[x]
            for w, y, z in adds:
                assign(w, jtA[values[y]][rcA[values[z]][vx]])
            close(S.meet_t, lambda a, b: mtA[a][b])
            close(S.join_t, lambda a, b: jtA[a][b])
            grown = True
            break
        if not grown:
            raise ConstructionIncomplete(
                f"extension stalled with {len(values)} of {k} elements"
            )
    # re-derive every extension value once more for consistency
    for x in list(values):
        vx = values[x]
        for y in list(values):
            for z in list(values):
                w = S.join_t[y][S.diff_t[z][x]]
                assign(w, jtA[values[y]][rcA[values[z]][vx]])

    pi = StructMapTotal(
        S.as_p0set(), A, tuple(values[i] for i in range(k))
    )
    for x in range(B.size):
        if pi.assignment[S.rho_index[x]] != beta.assignment[x]:
            raise ConstructionIncomplete("factored map disagrees with the input")
    # homomorphism property, forced by the construction
    for i in range(k):
        for j in range(k):
            if (
                pi.assignment[S.meet_t[i][j]] != mtA[pi.assignment[i]][pi.assignment[j]]
                or pi.assignment[S.join_t[i][j]] != jtA[pi.assignment[i]][pi.assignment[j]]
                or pi.assignment[S.diff_t[i][j]] != rcA[pi.assignment[i]][pi.assignment[j]]
            ):
                raise ConstructionIncomplete("factored map is not a homomorphism")
    return pi


def naturality_square(beta: StructMapTotal) -> tuple[StructMapTotal, Report]:
    """Factor the composite of beta with the target's principal embedding
    and verify the resulting square commutes."""
    B, A = beta.source, beta.target
    props = map_properties(beta)
    if not props.holds("tightish"):
        raise NotTightish("naturality needs a tightish map")
    SA = enveloping_algebra(A)
    SB = enveloping_algebra(B)
    rho_beta = StructMapTotal(
        B, SA.as_p0set(), tuple(SA.rho_index[beta.assignment[x]] for x in range(B.size))
    )
    pi = factor_tight(rho_beta)
    w = None
    for x in range(B.size):
        if pi.assignment[SB.rho_index[x]] != SA.rho_index[beta.assignment[x]]:
            w = (x,)
            break
    rep = report("naturality_square", [Check("square_commutes", w is None, w)])
    return pi, rep


def functor_identity(B: P0Set) -> Report:
    """The factored identity map is the identity on the algebra."""
    pi, rep = naturality_square(identity_map(B))
    ident = pi.assignment == tuple(range(len(pi.assignment)))
    return report(
        "functor_identity",
        list(rep.checks) + [Check("identity_preserved", ident)],
    )


def functor_composition(beta: StructMapTotal, beta2: StructMapTotal) -> Report:
    """Factoring a composite equals composing the factored maps."""
    if beta.target != beta2.source:
        raise FormatError("maps do not compose")
    pi1, r1 = naturality_square(beta)
    pi2, r2 = naturality_square(beta2)
    pic, rc = naturality_square(compose_maps(beta, beta2))
    law = pic.assignment == compose_maps(pi1, pi2).assignment
    checks = [
        Check("first_square", r1.passed),
        Check("second_square", r2.passed),
        Check("composite_square", rc.passed),
        Check("composition_law", law),
    ]
    return report("functor_composition", checks)
