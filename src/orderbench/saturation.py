"""Subset relations, the saturation operator, and frame verification.

Subsets C, D of a carrier are compared by three relations: pointwise
strict domination (every element of C strictly below some element of D),
the cover-like relation (everything strictly below C meets D), and the
way-below relation (the cover-like relation through a finite interpolant).
Saturating a set collects every element whose singleton is way below it.

In a finite carrier the maximal admissible interpolant is the strict
down-closure of D itself, which gives an O(1) evaluation of way-below
after table setup; `wayb_exhaustive` keeps the literal search over all
finite interpolants so the two routes can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import and_, or_

from .core import (
    P0Set,
    SubsetMask,
    bits,
    full_mask,
    lattice_tables,
    meets_table,
    prec_down,
    prec_down_table,
    preceq_down_table,
    submasks,
    subset_fold,
)
from .errors import CapExceeded, OrderbenchError, PreconditionFailed
from .report import Check, Report, report

SUBSET_CAP = 12
FAMILY_CAP = 10
FRAME_CAP = 8


@dataclass(frozen=True)
class SubsetRels:
    prec: bool
    precsim: bool
    wayb: bool


def _check_cap(B: P0Set):
    if B.size > SUBSET_CAP:
        raise CapExceeded(f"subset relations capped at carrier {SUBSET_CAP}")


def subset_prec(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    return C & ~prec_down_table(B)[D] == 0


def subset_precsim(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    dc = prec_down_table(B)
    return dc[C] & ~(meets_table(B)[D] | 1 << B.zero) == 0


def subset_wayb(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    """Way-below via the maximal interpolant: the down-closure of D always
    dominates D pointwise, and the cover-like relation is monotone in its
    interpolant, so it suffices as the witness."""
    dc = prec_down_table(B)
    return dc[C] & ~(meets_table(B)[dc[D]] | 1 << B.zero) == 0


def wayb_exhaustive(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    """Literal search over every finite interpolant."""
    _check_cap(B)
    return any(
        subset_precsim(B, C, F) and subset_prec(B, F, D)
        for F in range(1 << B.size)
    )


def subset_relations(B: P0Set, C: SubsetMask, D: SubsetMask) -> SubsetRels:
    _check_cap(B)
    return SubsetRels(
        prec=subset_prec(B, C, D),
        precsim=subset_precsim(B, C, D),
        wayb=subset_wayb(B, C, D),
    )


def saturate(B: P0Set, A: SubsetMask) -> SubsetMask:
    """Elements whose singleton is way below A."""
    _check_cap(B)
    down = prec_down(B)
    target = meets_table(B)[prec_down_table(B)[A]] | 1 << B.zero
    out = 0
    for y in range(B.size):
        if down[y] & ~target == 0:
            out |= 1 << y
    return out


@lru_cache(maxsize=512)
def saturation_table(B: P0Set) -> tuple[SubsetMask, ...]:
    """[A] = the saturation of A, for every subset A of the carrier."""
    return tuple(saturate(B, A) for A in range(1 << B.size))


def _wedge_table(B: P0Set) -> tuple[list[SubsetMask], ...]:
    """W[C][D] = {c meet d : c in C, d in D}; requires a meet semilattice.

    Two subset folds: first the row of each element c over every D, then
    the union of those rows over the members of C.
    """
    mt, _ = lattice_tables(B)
    if any(m is None for row in mt for m in row):
        raise PreconditionFailed("pairwise meets must exist")
    single = [subset_fold([1 << m for m in row], or_, 0) for row in mt]
    return subset_fold(single, lambda a, b: [*map(or_, a, b)], [0] * (1 << B.size))


@dataclass(frozen=True)
class SaturatedFamily:
    """Distinct saturated sets with the join/meet rule tables.

    join_table[i][j] indexes the saturation of the union, meet_table[i][j]
    the plain intersection; an entry is None when the rule's output leaves
    the family (possible in singleton mode, or when the structure is not a
    basic semilattice).
    """

    base: P0Set
    sets: tuple[SubsetMask, ...]
    join_table: tuple[tuple[int | None, ...], ...]
    meet_table: tuple[tuple[int | None, ...], ...]


def _family_tables(B: P0Set, sets: tuple[int, ...]) -> tuple[tuple, tuple]:
    index = {s: i for i, s in enumerate(sets)}
    jt = []
    mt = []
    for s in sets:
        jrow = []
        mrow = []
        for t in sets:
            jrow.append(index.get(saturate(B, s | t)))
            mrow.append(index.get(s & t))
        jt.append(tuple(jrow))
        mt.append(tuple(mrow))
    return tuple(jt), tuple(mt)


def _sos_saturations(B: P0Set) -> dict[int, int]:
    """Saturation of every subset via the union-over-finite-parts formula,
    an independent route used to cross-check the direct sweep."""
    n = B.size
    sat = saturation_table(B)
    out = {}
    for A in range(1 << n):
        acc = 0
        for G in submasks(A):
            acc |= sat[G]
        out[A] = acc
    return out


def saturated_family(B: P0Set, generators: str = "all") -> SaturatedFamily:
    """Saturations of the chosen generator class.

    singletons: one saturation per carrier element.  finite: the direct
    saturation of every subset.  all: the same family computed through the
    finite-parts union formula; in a finite carrier the two generator
    classes coincide and the modes exist to cross-check each other.
    """
    if B.size > FAMILY_CAP:
        raise CapExceeded(f"saturated families capped at carrier {FAMILY_CAP}")
    if generators == "singletons":
        raw = {saturate(B, 1 << x) for x in range(B.size)}
    elif generators == "finite":
        raw = set(saturation_table(B))
    elif generators == "all":
        raw = set(_sos_saturations(B).values())
    else:
        raise ValueError(f"unknown generator class {generators!r}")
    sets = tuple(sorted(raw))
    jt, mt = _family_tables(B, sets)
    return SaturatedFamily(B, sets, jt, mt)


# ---------------------------------------------------------------------------
# quantified laws on relation rows
#
# rows[C] is the bitset {D : C rel D} over the subsets D of the carrier.
# Each helper decides one universally quantified law and returns its first
# witness in ascending quantifier order, the one the literal clause loops
# (kept as oracles in tests/oracles.py) return, or None when the law holds.


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _transitive_witness(rows):
    """First (C, D, E) with C rel D and D rel E but not C rel E, walking
    the middle subset D first."""
    nsub = len(rows)
    cols = [0] * nsub
    for C in range(nsub):
        for D in bits(rows[C]):
            cols[D] |= 1 << C
    for D in range(nsub):
        rd = rows[D]
        for C in bits(cols[D]):
            if rd & ~rows[C]:
                return (C, D, _low_bit(rd & ~rows[C]))
    return None


def _inclusion_witness(a_rows, b_rows):
    """First (C, D) with C a D but not C b D."""
    for C, a in enumerate(a_rows):
        bad = a & ~b_rows[C]
        if bad:
            return (C, _low_bit(bad))
    return None


def _mismatch_witness(a_rows, b_rows):
    """First (C, D) where exactly one of C a D and C b D holds."""
    for C, (a, b) in enumerate(zip(a_rows, b_rows)):
        if a != b:
            return (C, _low_bit(a ^ b))
    return None


def _composition_witness(r1_rows, r2_rows, rows):
    """First (C, G, D) with C r1 G and G r2 D but not C rel D."""
    for C, r1 in enumerate(r1_rows):
        for G in bits(r1):
            bad = r2_rows[G] & ~rows[C]
            if bad:
                return (C, G, _low_bit(bad))
    return None


def _interpolant_witness(wayb_rows, prec_rows):
    """First (C, D) with C wayb D but no G with C wayb G and G prec D."""
    reach = []
    for row in wayb_rows:
        acc = 0
        for G in bits(row):
            acc |= prec_rows[G]
        reach.append(acc)
    return _inclusion_witness(wayb_rows, reach)


def _left_union_witness(rows):
    """First (C, D) where C rel D differs from: every {c} in C has {c} rel D.

    The right side is the intersection of the singleton rows, folded over
    the subsets (the empty intersection is every D).
    """
    nsub = len(rows)
    singles = [rows[1 << c] for c in range(nsub.bit_length() - 1)]
    return _mismatch_witness(rows, subset_fold(singles, and_, (1 << nsub) - 1))


def _right_monotone_witness(rows):
    """First (C, D, b) with C rel D, b not in D, but not C rel D + {b}.

    Shifting the members of a row that lack bit b up by 2**b lands on
    their one-bit successors D + {b}; a successor missing from the row is
    a failure, and the least (D, b) over all b is the first witness.
    """
    nsub = len(rows)
    lacks = [
        sum(1 << D for D in range(nsub) if not D >> b & 1)
        for b in range(nsub.bit_length() - 1)
    ]
    for C, r in enumerate(rows):
        fails = [
            (_low_bit(bad) - (1 << b), b)
            for b, mask in enumerate(lacks)
            if (bad := (r & mask) << (1 << b) & ~r)
        ]
        if fails:
            return (C,) + min(fails)
    return None


def _multiplicative_witness(rows, wedge, dc):
    """First (C, D) where wedge(dc C, dc D) rel wedge(C, D) fails."""
    for C, wc in enumerate(wedge):
        big = wedge[dc[C]]
        for D, w in enumerate(wc):
            if not rows[big[dc[D]]] >> w & 1:
                return (C, D)
    return None


def verify_subset_laws(B: P0Set) -> Report:
    """Clause-by-clause laws of the subset relations and saturation.

    Each clause is checked exactly on the structures where its proof's
    hypotheses hold and reported as not-applicable otherwise.  Gates, from
    weakest to strongest: none; coinitiality; coinitiality plus a meet
    semilattice with multiplicativity; the full basic-semilattice check
    (the clauses marked with it lean on type omission).

    Universally quantified union/multiplicativity clauses are decided
    through their largest instances: the relations decompose over unions
    in the left argument and are monotone in the right one, and the
    pointwise wedge is monotone in both, so the extreme instance implies
    the rest (each reduction is itself among the checks).

    The three relations are tabulated once as rows over all subsets, and
    every clause quantifying over subsets is decided by bitset operations
    on those rows (the helpers above), walking its quantifiers in the same
    ascending order as a literal loop, so it reports the same witness.

    Saturation is deliberately not asserted to be extensive: sets need
    not be contained in their saturations.
    """
    from .axioms import (
        _sweep_coinitiality,
        _sweep_multiplicativity,
        is_basic_semilattice,
    )
    from .core import order_predicates

    if B.size > FRAME_CAP:
        raise CapExceeded(f"subset-law verification capped at carrier {FRAME_CAP}")
    n = B.size
    nsub = 1 << n
    zb = 1 << B.zero
    dc = prec_down_table(B)
    mu = meets_table(B)
    dcp = preceq_down_table(B)

    g1 = bool(_sweep_coinitiality(B).holds)
    msl = bool(order_predicates(B).holds("meet_semilattice"))
    g2 = g1 and msl and bool(_sweep_multiplicativity(B).holds)
    g3 = is_basic_semilattice(B)

    def prec(C, D):
        return C & ~dc[D] == 0

    def sim(C, D):
        return dc[C] & ~(mu[D] | zb) == 0

    def wayb(C, D):
        return dc[C] & ~(mu[dc[D]] | zb) == 0

    def sim_refl(C, D):
        return dcp[C] & ~(mu[D] | zb) == 0

    def below(C, D):
        return C & ~dcp[D] == 0

    sat = saturation_table(B)

    def in_sat(F, A):
        return F & ~sat[A] == 0

    def rows_of(rel):
        return [
            sum(1 << D for D in range(nsub) if rel(C, D)) for C in range(nsub)
        ]

    checks = []

    def clause(name, gate, fn):
        if not gate:
            checks.append(Check(name, None))
            return
        w = fn()
        checks.append(Check(name, w is None, w))

    prec_rows = rows_of(prec)
    sim_rows = rows_of(sim)
    wayb_rows = rows_of(wayb)
    wedge = None

    def multiplicative(rows):
        # extreme-instance reduction: the wedge of the full down-closures
        # is the largest left side, and rel shrinks as its left grows
        nonlocal wedge
        if wedge is None:
            wedge = _wedge_table(B)
        return _multiplicative_witness(rows, wedge, dc)

    clause("prec_transitive", True, lambda: _transitive_witness(prec_rows))
    clause("precsim_transitive", g2, lambda: _transitive_witness(sim_rows))
    clause("prec_left_union", True, lambda: _left_union_witness(prec_rows))
    clause("precsim_left_union", True, lambda: _left_union_witness(sim_rows))
    clause("wayb_left_union", True, lambda: _left_union_witness(wayb_rows))
    clause("prec_right_monotone", True, lambda: _right_monotone_witness(prec_rows))
    clause("precsim_right_monotone", True, lambda: _right_monotone_witness(sim_rows))
    clause("wayb_right_monotone", True, lambda: _right_monotone_witness(wayb_rows))
    clause("prec_multiplicative", g2, lambda: multiplicative(prec_rows))
    clause("precsim_multiplicative", g2, lambda: multiplicative(sim_rows))
    clause("wayb_multiplicative", g2, lambda: multiplicative(wayb_rows))

    clause(
        "below_implies_precsim",
        g1,
        lambda: _inclusion_witness(rows_of(below), sim_rows),
    )
    clause(
        "precsim_reflexivized_form",
        g1,
        lambda: _mismatch_witness(sim_rows, rows_of(sim_refl)),
    )

    clause("wayb_transitive", g2, lambda: _transitive_witness(wayb_rows))
    clause(
        "finite_prec_implies_wayb",
        g1,
        lambda: _inclusion_witness(prec_rows, wayb_rows),
    )
    clause(
        "wayb_through_interpolant_back",
        True,
        lambda: _composition_witness(wayb_rows, prec_rows, wayb_rows),
    )
    clause(
        "wayb_through_interpolant",
        g3,
        lambda: _interpolant_witness(wayb_rows, prec_rows),
    )
    clause(
        "precsim_wayb_absorb",
        g2,
        lambda: _composition_witness(sim_rows, wayb_rows, wayb_rows),
    )
    clause(
        "wayb_implies_precsim",
        g2,
        lambda: _inclusion_witness(wayb_rows, sim_rows),
    )

    clause(
        "saturation_members",
        True,
        lambda: _mismatch_witness(rows_of(in_sat), wayb_rows),
    )

    def strict_down_in_sat():
        for A in range(nsub):
            if dc[A] & ~sat[A]:
                return (A,)
        return None

    clause("strict_down_in_saturation", g1, strict_down_in_sat)

    def sat_down_closed():
        for A in range(nsub):
            if dcp[sat[A]] != sat[A]:
                return (A,)
        return None

    clause("saturation_down_closed", g2, sat_down_closed)

    def sat_of_down_closure():
        for A in range(nsub):
            if sat[dcp[A]] != sat[A]:
                return (A,)
        return None

    clause("saturation_of_down_closure", True, sat_of_down_closure)

    def sat_of_strict_down():
        for A in range(nsub):
            if sat[dc[A]] != sat[A]:
                return (A,)
        return None

    clause("saturation_of_strict_down", g3, sat_of_strict_down)

    def sat_idempotent():
        for A in range(nsub):
            if sat[sat[A]] != sat[A]:
                return (A,)
        return None

    clause("saturation_idempotent", g3, sat_idempotent)

    def sat_monotone():
        for A in range(nsub):
            for b in bits(full_mask(n) & ~A):
                if sat[A] & ~sat[A | 1 << b]:
                    return (A, b)
        return None

    clause("saturation_monotone", True, sat_monotone)

    def sat_covers_source():
        for A in range(nsub):
            if not sim(sat[A], A):
                return (A,)
        return None

    clause("saturation_precsim_source", g2, sat_covers_source)

    def cppa():
        for C in range(nsub):
            for A in range(nsub):
                lhs = wayb(C, sat[A])
                mid = wayb(C, A)
                rhs = wayb(sat[C], A)
                if not (lhs == mid == rhs):
                    return (C, A)
        return None

    clause("wayb_saturation_invariant", g3, cppa)

    return report("subset_laws", checks)


def verify_frame(B: P0Set) -> Report:
    """Frame laws of the saturated family, the way-below comparison, and
    the density/isomorphism corollaries.

    The laws are theorems for basic semilattices; the semilattice verdict
    leads the report so a structure outside that class shows its frame
    verdicts but cannot pass overall.  Checks needing pairwise meets are
    not applicable without a meet semilattice.
    """
    from .axioms import is_basic_lattice, is_basic_semilattice
    from .core import order_predicates

    if B.size > FRAME_CAP:
        raise CapExceeded(f"frame verification capped at carrier {FRAME_CAP}")
    if not order_predicates(B).holds("meet_semilattice"):
        raise PreconditionFailed("frame verification needs pairwise meets")
    cbs_ok = is_basic_semilattice(B)

    n = B.size
    famF = saturated_family(B, "finite")
    famP = saturated_family(B, "all")
    coincide = famF.sets == famP.sets

    sets = famF.sets
    index = {s: i for i, s in enumerate(sets)}
    sat = saturation_table(B)

    # join rule: the saturated union is the least family member above both
    sup_w = None
    for A in range(1 << n):
        for C in range(1 << n):
            j = sat[A | C]
            sa, sc = sat[A], sat[C]
            if sa & ~j or sc & ~j:
                sup_w = (A, C)
                break
            if not all(j & ~m == 0 for m in sets if sa & ~m == 0 and sc & ~m == 0):
                sup_w = (A, C)
                break
        if sup_w:
            break
    sup_ok = sup_w is None

    # meet rule: saturation of the pointwise meets is the intersection
    wedge = _wedge_table(B)
    meet_w = None
    for A in range(1 << n):
        for C in range(1 << n):
            if sat[wedge[A][C]] != sat[A] & sat[C]:
                meet_w = (A, C)
                break
        if meet_w:
            break
    meet_ok = meet_w is None

    # intersections stay in the family (meets are total)
    closed_w = None
    for s in sets:
        for t in sets:
            if s & t not in index:
                closed_w = (s, t)
                break
        if closed_w:
            break

    dist_w = None
    for s in sets:
        for t in sets:
            for u in sets:
                if s & sat[t | u] != sat[(s & t) | (s & u)]:
                    dist_w = (s, t, u)
                    break
            if dist_w:
                break
        if dist_w:
            break

    # way-below in the finite complete lattice: every directed subfamily has
    # a greatest member, so the directed-join definition collapses to plain
    # containment; compare that against the relation computed from covers.
    wb_w = None
    for s in sets:
        for t in sets:
            order_wb = all(s & ~m == 0 for m in sets if t & ~m == 0)
            if order_wb != subset_wayb(B, s, t):
                wb_w = (s, t)
                break
        if wb_w:
            break

    sing = [sat[1 << x] for x in range(n)]
    iso_w = None
    if len(set(sing)) != n:
        dup = [x for x in range(n) if sing.index(sat[1 << x]) != x]
        iso_w = (dup[0],)
    else:
        for x in range(n):
            for y in range(n):
                if B.has(x, y) != subset_wayb(B, sing[x], sing[y]):
                    iso_w = (x, y)
                    break
            if iso_w:
                break

    from .core import p0set

    prec_pairs = [
        (i, j)
        for i, s in enumerate(sets)
        for j, t in enumerate(sets)
        if subset_wayb(B, s, t)
    ]
    fbl_ok = None
    try:
        fam_struct = p0set(len(sets), index[sat[0]], prec_pairs)
        fbl_ok = is_basic_lattice(fam_struct)
    except OrderbenchError:  # e.g. NotTransitive: the family is no structure
        fbl_ok = False

    dense_w = None
    for m in sets:
        gens = 0
        for x in range(n):
            if sing[x] & ~m == 0:
                gens |= 1 << x
        if sat[gens] != m:
            dense_w = (m,)
            break

    checks = [
        Check("basic_semilattice", cbs_ok),
        Check("families_coincide", coincide),
        Check("join_rule", sup_ok, sup_w),
        Check("meet_rule", meet_ok, meet_w),
        Check("intersection_closed", closed_w is None, closed_w),
        Check("frame_distributivity", dist_w is None, dist_w),
        Check("waybelow_matches", wb_w is None, wb_w),
        Check("singleton_isomorphism", iso_w is None, iso_w),
        Check("finite_family_basic_lattice", fbl_ok),
        Check("singletons_join_dense", dense_w is None, dense_w),
        Check("finite_sup_dense", coincide),
    ]
    return report("frame", checks)
