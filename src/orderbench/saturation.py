"""Subset relations, the saturation operator, and frame verification.

Subsets C, D of a carrier are compared by three relations: pointwise
strict domination (every element of C strictly below some element of D),
the cover-like relation (everything strictly below C meets D), and the
way-below relation (the cover-like relation through a finite interpolant).
Saturating a set collects every element whose singleton is way below it.
A set enters its saturation only through the union of zero and one
generator row per member a, the meet rows of the elements below a, so the
saturated family is read from the unions of at most n generator rows
instead of from all 2**n subsets.

In a finite carrier the maximal admissible interpolant is the strict
down-closure of D itself, which gives an O(1) evaluation of way-below
after table setup; the literal search over all finite interpolants is
kept as a test oracle so the two routes can be cross-checked.

Each relation says that a set built from C lies inside a value built
from D, so its table of rows {D : C rel D}, one per C, comes from one
superset fold over the subset lattice (the fast zeta transform): each D
is set at its own value and carried down to every subset of it, and row
C is read at C's set.  The subset laws are then decided on the classes
of subsets that share a row, and the frame laws on whole rows of the
saturation table.
"""

from __future__ import annotations

from functools import reduce
from itertools import product, repeat
from operator import and_, invert, ne, or_, rshift, xor
from typing import NamedTuple

from . import axioms
from .core import (
    FAMILY_BOUND,
    P0Set,
    SubsetMask,
    bits,
    derived_relations,
    first_pair,
    full_mask,
    lattice_tables,
    meets_table,
    order_predicates,
    p0set,
    prec_down,
    prec_down_table,
    preceq_down_table,
    structure_table,
    subset_fold,
    superset_fold,
)
from .errors import CapExceeded, OrderbenchError, PreconditionFailed
from .report import Check, Report, report

SUBSET_CAP = 12
FRAME_CAP = 8
#: The laws of `verify_subset_laws` and `verify_frame`, in report order:
#: past FRAME_CAP, `saturate` prints them as skipped.
SUBSET_LAWS = (
    "prec_transitive", "precsim_transitive", "prec_left_union", "precsim_left_union",
    "wayb_left_union", "prec_right_monotone", "precsim_right_monotone", "wayb_right_monotone",
    "prec_multiplicative", "precsim_multiplicative", "wayb_multiplicative",
    "below_implies_precsim", "precsim_reflexivized_form", "wayb_transitive",
    "finite_prec_implies_wayb", "wayb_through_interpolant_back", "wayb_through_interpolant",
    "precsim_wayb_absorb", "wayb_implies_precsim", "saturation_members",
    "strict_down_in_saturation", "saturation_down_closed", "saturation_of_down_closure",
    "saturation_of_strict_down", "saturation_idempotent", "saturation_monotone",
    "saturation_precsim_source", "wayb_saturation_invariant",
)
FRAME_LAWS = (
    "basic_semilattice", "families_coincide", "join_rule", "meet_rule", "intersection_closed",
    "frame_distributivity", "waybelow_matches", "singleton_isomorphism",
    "finite_family_basic_lattice", "singletons_join_dense", "finite_sup_dense",
)


def subset_wayb(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    """Way-below via the maximal interpolant: the down-closure of D always
    dominates D pointwise, and the cover-like relation is monotone in its
    interpolant, so it suffices as the witness."""
    dc = prec_down_table(B)
    return dc[C] & ~(meets_table(B)[dc[D]] | 1 << B.zero) == 0


def _generator_rows(B: P0Set) -> list[SubsetMask]:
    """g[a] = zero together with the meet rows of the elements below a."""
    meets, zb = derived_relations(B).meets, 1 << B.zero
    return [reduce(or_, map(meets.__getitem__, bits(d)), zb) for d in prec_down(B)]


def _saturated_part(down, target: SubsetMask) -> SubsetMask:
    """{y : down[y] inside target}."""
    return sum(1 << y for y, d in enumerate(down) if not d & ~target)


def saturate(B: P0Set, A: SubsetMask) -> SubsetMask:
    """Elements whose singleton is way below A: those whose strict down-set
    lies inside the union of zero and the generator rows of A's members."""
    target = reduce(or_, map(_generator_rows(B).__getitem__, bits(A)), 1 << B.zero)
    return _saturated_part(prec_down(B), target)


@structure_table
def saturation_table(B: P0Set) -> tuple[SubsetMask, ...]:
    """[A] = the saturation of A, for every subset A of the carrier, read
    from the subset tables: the saturated part of the union of zero and
    the meet rows of the strict down-closure of A."""
    if B.size > SUBSET_CAP:
        raise CapExceeded(f"saturation tables capped at carrier {SUBSET_CAP}")
    zb, mu, down = 1 << B.zero, meets_table(B), prec_down(B)
    return tuple(_saturated_part(down, mu[S] | zb) for S in prec_down_table(B))


@structure_table
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


class SaturatedFamily(NamedTuple):
    """The distinct saturated sets of one generator class, ascending."""

    sets: tuple[SubsetMask, ...]


def saturated_family(B: P0Set, generators: str = "all") -> SaturatedFamily:
    """Saturations of the chosen generator class.

    singletons: one saturation per carrier element.  finite: the
    saturation of every subset, which reads the subset only through the
    union of zero and its members' generator rows, so the family is the
    saturated parts of those unions, grown one generator at a time and
    refused past `FAMILY_BOUND` of them.  all: the union of the
    saturations of the finite parts of each subset, a superset fold of the
    reversed saturation table (reversal complements the subsets); in a
    finite carrier the two generator classes coincide and the modes exist
    to cross-check each other.
    """
    if generators == "singletons":
        raw = {saturate(B, 1 << x) for x in range(B.size)}
    elif generators == "finite":
        unions = {1 << B.zero}
        for g in set(_generator_rows(B)):
            unions |= {t | g for t in unions}
            if len(unions) > FAMILY_BOUND:
                raise CapExceeded(
                    f"saturated families capped at {FAMILY_BOUND} unions of generator rows"
                )
        down = prec_down(B)
        raw = {_saturated_part(down, t) for t in unions}
    elif generators == "all":
        raw = set(superset_fold(saturation_table(B)[::-1], or_))
    else:
        raise ValueError(f"unknown generator class {generators!r}")
    return SaturatedFamily(tuple(sorted(raw)))


# ---------------------------------------------------------------------------
# quantified laws on relation rows
#
# rows[C] is the bitset {D : C rel D} over the subsets D of the carrier.
# Each helper decides one universally quantified law and returns its first
# witness in ascending quantifier order, the one the literal clause loops
# (kept as oracles in tests/oracles.py) return, or None when the law holds.
# A table has few distinct rows, so the helpers that pair rows work on the
# classes of subsets sharing a row and look for the witness in the first
# failing class.


def _rows_within(values) -> list[int]:
    """rows[S] = {D : S inside values[D]} for every subset S, as bitsets
    over the subsets D: each D is set at its own value, and the superset
    fold carries it down to every subset of that value."""
    table = [0] * len(values)
    for D, v in enumerate(values):
        table[v] |= 1 << D
    return superset_fold(table, or_)


class SubsetRows(NamedTuple):
    """The relation tables of `verify_subset_laws`, each row C the bitset
    {D : C rel D}: C prec D, C precsim D, C wayb D, precsim read from the
    down-closure of C under the reflexivization, C inside the down-closure
    of D, and C inside the saturation of D."""

    prec: list[int]
    precsim: list[int]
    wayb: list[int]
    precsim_refl: list[int]
    below: list[int]
    saturated: list[int]


def _subset_rows(B: P0Set) -> SubsetRows:
    dc = prec_down_table(B)
    mu = meets_table(B)
    dcp = preceq_down_table(B)
    zb = 1 << B.zero
    # precsim: dc[C] inside mu[D] | zero; wayb: dc[C] inside mu[dc[D]] | zero
    sim_within = _rows_within([m | zb for m in mu])
    wayb_within = _rows_within([mu[S] | zb for S in dc])
    return SubsetRows(
        prec=_rows_within(dc),
        precsim=[*map(sim_within.__getitem__, dc)],
        wayb=[*map(wayb_within.__getitem__, dc)],
        precsim_refl=[*map(sim_within.__getitem__, dcp)],
        below=_rows_within(dcp),
        saturated=_rows_within(saturation_table(B)),
    )


def _first(flags):
    """(i,) for the first true flag, or None."""
    return next(((i,) for i, f in enumerate(flags) if f), None)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _classes(rows) -> dict[int, int]:
    """{row: the bitset of the indices holding it}."""
    out = {}
    for i, r in enumerate(rows):
        out[r] = out.get(r, 0) | 1 << i
    return out


def _transitive_witness(rows):
    """First (C, D, E) with C rel D and D rel E but not C rel E, walking
    the middle subset D first.

    A D with row rd fails under each C whose row holds D but not all of
    rd, so each pair of row classes names its failing Ds at once.
    """
    classes = _classes(rows).items()
    bad = 0
    for rd, ds in classes:
        for rc, _ in classes:
            if rd & ~rc:
                bad |= ds & rc
    if not bad:
        return None
    D = _low_bit(bad)
    rd = rows[D]
    C = min(_low_bit(cs) for rc, cs in classes if rc >> D & 1 and rd & ~rc)
    return (C, D, _low_bit(rd & ~rows[C]))


def _composition_witness(r1_rows, r2_rows, rows):
    """First (C, G, D) with C r1 G and G r2 D but not C rel D.

    Whether G fails under C depends only on r2[G] and rows[C]: under a
    row r the failing Gs are the r2 classes whose row is not inside r.
    """
    r2_classes = _classes(r2_rows).items()
    failing = {}
    for C, r in enumerate(rows):
        if r not in failing:
            failing[r] = sum(gs for s, gs in r2_classes if s & ~r)
        bad = r1_rows[C] & failing[r]
        if bad:
            G = _low_bit(bad)
            return (C, G, _low_bit(r2_rows[G] & ~r))
    return None


def _interpolant_witness(wayb_rows, prec_rows):
    """First (C, D) with C wayb D but no G with C wayb G and G prec D.

    The Ds reached through some G depend only on the wayb row: the union
    of the prec rows of the classes it meets.
    """
    prec_classes = _classes(prec_rows).items()
    reach = {
        r: reduce(or_, (s for s, gs in prec_classes if r & gs), 0)
        for r in set(wayb_rows)
    }
    return first_pair(r & ~reach[r] for r in wayb_rows)


def _left_union_witness(rows):
    """First (C, D) where C rel D differs from: every {c} in C has {c} rel D.

    The right side is the intersection of the singleton rows, folded over
    the subsets (the empty intersection is every D).
    """
    nsub = len(rows)
    singles = [rows[1 << c] for c in range(nsub.bit_length() - 1)]
    return first_pair(map(xor, rows, subset_fold(singles, and_, (1 << nsub) - 1)))


def _right_monotone_witness(rows):
    """First (C, D, b) with C rel D, b not in D, but not C rel D + {b}.

    Shifting the members of a row that lack bit b up by 2**b lands on
    their one-bit successors D + {b}; a successor missing from the row is
    a failure, and the least (D, b) over all b is the first witness.
    """
    nsub = len(rows)
    # the Ds lacking bit b: the low 2**b of every 2**(b + 1) consecutive Ds
    lacks = [
        ((1 << nsub) - 1) // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1)
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


def _multiplicative_witnesses(tables, wedge, dc):
    """For each rows table, the first (C, D) where wedge(dc C, dc D) rel
    wedge(C, D) fails, or None.

    The tables are packed into one row per subset, table i at bit offset
    i * 2**n, so one shift per (C, D) reads every table's bit.  The rows
    wedge(dc C, dc D) depend on C only through dc C, so each class of
    subsets sharing dc C looks them up once, for every D; its members,
    ascending, test only the tables whose witness could still come first.
    """
    nsub = len(dc)
    out = [None] * len(tables)
    packed = [sum(r << i * nsub for i, r in enumerate(rs)) for rs in zip(*tables)]
    for k, cs in _classes(dc).items():
        need = [*map(packed.__getitem__, map(wedge[k].__getitem__, dc))]
        for C in bits(cs):
            pending = [i for i, w in enumerate(out) if w is None or C < w[0]]
            if not pending:
                break
            mask = sum(1 << i * nsub for i in pending)
            held = [*map(and_, map(rshift, need, wedge[C]), repeat(mask))]
            if held.count(mask) == nsub:
                continue
            for i in pending:
                D = next((D for D, h in enumerate(held) if not h >> i * nsub & 1), None)
                if D is not None:
                    out[i] = (C, D)
    return out


def _saturation_invariant_witness(wayb_rows, sat):
    """First (C, A) where C wayb sat(A), C wayb A and sat(C) wayb A do
    not all agree.

    The As with sat(A) in a row r are the saturation classes of the
    saturated sets r holds: one pull-back per distinct row.
    """
    sat_classes = _classes(sat).items()
    pulled = {}
    for C, r in enumerate(wayb_rows):
        if r not in pulled:
            pulled[r] = sum(As for t, As in sat_classes if r >> t & 1)
        bad = r ^ pulled[r] | r ^ wayb_rows[sat[C]]
        if bad:
            return (C, _low_bit(bad))
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

    The relations are tabulated once as rows over all subsets by superset
    folds (`_subset_rows`), and every clause quantifying over subsets is
    decided by bitset operations on those rows (the helpers above), which
    report the witness a literal loop, walking its quantifiers in
    ascending order, would report first.

    Saturation is deliberately not asserted to be extensive: sets need
    not be contained in their saturations.
    """
    if B.size > FRAME_CAP:
        raise CapExceeded(f"subset-law verification capped at carrier {FRAME_CAP}")
    n = B.size
    dc = prec_down_table(B)
    dcp = preceq_down_table(B)
    sat = saturation_table(B)
    rows = _subset_rows(B)
    prec_rows, sim_rows, wayb_rows = rows.prec, rows.precsim, rows.wayb

    g1 = bool(axioms._sweep_coinitiality(B).holds)
    msl = bool(order_predicates(B).holds("meet_semilattice"))
    g2 = g1 and msl and bool(axioms._sweep_multiplicativity(B).holds)
    g3 = axioms.is_basic_semilattice(B)

    checks = []

    def clause(name, gate, fn):
        if not gate:
            checks.append(Check(name, None))
            return
        w = fn()
        checks.append(Check(name, w is None, w))

    mult = None

    def multiplicative(i):
        # extreme-instance reduction: the wedge of the full down-closures
        # is the largest left side, and rel shrinks as its left grows
        nonlocal mult
        if mult is None:
            tables = (prec_rows, sim_rows, wayb_rows)
            mult = _multiplicative_witnesses(tables, _wedge_table(B), dc)
        return mult[i]

    clause("prec_transitive", True, lambda: _transitive_witness(prec_rows))
    clause("precsim_transitive", g2, lambda: _transitive_witness(sim_rows))
    clause("prec_left_union", True, lambda: _left_union_witness(prec_rows))
    clause("precsim_left_union", True, lambda: _left_union_witness(sim_rows))
    clause("wayb_left_union", True, lambda: _left_union_witness(wayb_rows))
    clause("prec_right_monotone", True, lambda: _right_monotone_witness(prec_rows))
    clause("precsim_right_monotone", True, lambda: _right_monotone_witness(sim_rows))
    clause("wayb_right_monotone", True, lambda: _right_monotone_witness(wayb_rows))
    clause("prec_multiplicative", g2, lambda: multiplicative(0))
    clause("precsim_multiplicative", g2, lambda: multiplicative(1))
    clause("wayb_multiplicative", g2, lambda: multiplicative(2))

    clause("below_implies_precsim", g1,
           lambda: first_pair(a & ~b for a, b in zip(rows.below, sim_rows)))
    clause("precsim_reflexivized_form", g1,
           lambda: first_pair(map(xor, sim_rows, rows.precsim_refl)))

    clause("wayb_transitive", g2, lambda: _transitive_witness(wayb_rows))
    clause("finite_prec_implies_wayb", g1,
           lambda: first_pair(a & ~b for a, b in zip(prec_rows, wayb_rows)))
    clause("wayb_through_interpolant_back", True,
           lambda: _composition_witness(wayb_rows, prec_rows, wayb_rows))
    clause("wayb_through_interpolant", g3,
           lambda: _interpolant_witness(wayb_rows, prec_rows))
    clause("precsim_wayb_absorb", g2,
           lambda: _composition_witness(sim_rows, wayb_rows, wayb_rows))
    clause("wayb_implies_precsim", g2,
           lambda: first_pair(a & ~b for a, b in zip(wayb_rows, sim_rows)))

    clause("saturation_members", True,
           lambda: first_pair(map(xor, rows.saturated, wayb_rows)))
    clause("strict_down_in_saturation", g1,
           lambda: _first(map(and_, dc, map(invert, sat))))
    # each of these compares outer[inner[A]] with sat[A] for every A
    for name, gate, outer, inner in (
        ("saturation_down_closed", g2, dcp, sat),
        ("saturation_of_down_closure", True, sat, dcp),
        ("saturation_of_strict_down", g3, sat, dc),
        ("saturation_idempotent", g3, sat, sat),
    ):
        clause(name, gate,
               lambda o=outer, i=inner: _first(map(ne, map(o.__getitem__, i), sat)))

    def sat_monotone():
        for A in range(1 << n):
            for b in bits(full_mask(n) & ~A):
                if sat[A] & ~sat[A | 1 << b]:
                    return (A, b)
        return None

    clause("saturation_monotone", True, sat_monotone)
    clause("saturation_precsim_source", g2,
           lambda: _first(not sim_rows[S] >> A & 1 for A, S in enumerate(sat)))
    clause("wayb_saturation_invariant", g3,
           lambda: _saturation_invariant_witness(wayb_rows, sat))

    return report("subset_laws", checks)


def _lookup(table, op, x, ys) -> list:
    """[table[op(x, y)] for y in ys]."""
    return [*map(table.__getitem__, map(op, repeat(x), ys))]


def _first_mismatch(pairs):
    """First (i, j) such that the i-th pair of lists is the first to
    differ, first at index j."""
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return (i, next(j for j, (x, y) in enumerate(zip(a, b)) if x != y))
    return None


def verify_frame(B: P0Set) -> Report:
    """Frame laws of the saturated family, the way-below comparison, and
    the density/isomorphism corollaries.

    The laws are theorems for basic semilattices; the semilattice verdict
    leads the report so a structure outside that class shows its frame
    verdicts but cannot pass overall.  Checks needing pairwise meets are
    not applicable without a meet semilattice.
    """
    if B.size > FRAME_CAP:
        raise CapExceeded(f"frame verification capped at carrier {FRAME_CAP}")
    if not order_predicates(B).holds("meet_semilattice"):
        raise PreconditionFailed("frame verification needs pairwise meets")
    cbs_ok = axioms.is_basic_semilattice(B)

    n = B.size
    # the laws read the saturation table and its distinct values; the
    # union route and the finite-parts formula must give the same family
    sat = saturation_table(B)
    sets = tuple(sorted(set(sat)))
    coincide = (
        saturated_family(B, "finite").sets == sets == saturated_family(B, "all").sets
    )
    index = {s: i for i, s in enumerate(sets)}

    nsub = 1 << n
    # lub[X] = the intersection of the members containing X, the carrier
    # when none does: each member stands at its own index, and the
    # superset fold meets it into every subset below
    lub = superset_fold([S if S in index else full_mask(n) for S in range(nsub)], and_)

    # join rule: the saturated union is the least member above both
    # saturations.  It is itself a member, so it is above both and below
    # every member above both exactly when it equals lub of their union.
    sup_w = _first_mismatch(
        (_lookup(sat, or_, A, range(nsub)), _lookup(lub, or_, sat[A], sat))
        for A in range(nsub)
    )
    sup_ok = sup_w is None

    # meet rule: saturation of the pointwise meets is the intersection
    wedge = _wedge_table(B)
    meet_w = _first_mismatch(
        ([*map(sat.__getitem__, wedge[A])], [*map(and_, sat, repeat(sat[A]))])
        for A in range(nsub)
    )
    meet_ok = meet_w is None

    # intersections stay in the family (meets are total)
    closed_w = next(
        ((s, t) for s, t in product(sets, repeat=2) if s & t not in index), None
    )

    k = len(sets)
    w = _first_mismatch(
        (
            [*map(and_, repeat(s), _lookup(sat, or_, t, sets))],
            _lookup(sat, or_, s & t, [*map(and_, repeat(s), sets)]),
        )
        for s, t in product(sets, repeat=2)
    )
    dist_w = None if w is None else (sets[w[0] // k], sets[w[0] % k], sets[w[1]])

    # way-below in the finite complete lattice: every directed subfamily has
    # a greatest member, so the directed-join definition collapses to plain
    # containment; compare that against the relation computed from covers.
    wb_w = next(
        ((s, t) for s, t in product(sets, repeat=2)
         if (s & ~t == 0) != subset_wayb(B, s, t)),
        None,
    )

    sing = [sat[1 << x] for x in range(n)]
    iso_w = None
    if len(set(sing)) != n:
        dup = [x for x in range(n) if sing.index(sat[1 << x]) != x]
        iso_w = (dup[0],)
    else:
        iso_w = next(
            ((x, y) for x, y in product(range(n), repeat=2)
             if B.has(x, y) != subset_wayb(B, sing[x], sing[y])),
            None,
        )

    prec_pairs = [
        (i, j)
        for i, s in enumerate(sets)
        for j, t in enumerate(sets)
        if subset_wayb(B, s, t)
    ]
    fbl_ok = None
    try:
        fam_struct = p0set(len(sets), index[sat[0]], prec_pairs)
        fbl_ok = axioms.is_basic_lattice(fam_struct)
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
