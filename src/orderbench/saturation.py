"""Subset relations, the saturation operator, and frame verification.

Subsets C, D of a carrier are compared by three relations: pointwise
strict domination (every element of C strictly below some element of D),
the cover-like relation (everything strictly below C meets D), and the
way-below relation (the cover-like relation through a finite interpolant).
Saturating a set collects every element whose singleton is way below it.
A set A enters its saturation only through T_A, the union of zero and one
generator row per member a, the meet rows of the elements below a, so the
saturated family is read from the unions of at most n generator rows
instead of from all 2**n subsets.

In a finite carrier the maximal admissible interpolant is the strict
down-closure of D itself, which gives way-below from two unions of rows;
the literal search over all finite interpolants is kept as a test oracle
so the two routes can be cross-checked.

Each relation says that the union of the rows of C's members lies inside
a value of D that grows with D, so a quantified subset law fails, if at
all, at singletons C and at the largest sets D that keep one element out
of a value: `verify_subset_laws` decides every clause on those
polynomially many instances.  On a meet semilattice the saturated family
is the powerset of the characters, the maximal centred sets, and
`verify_frame` reads the frame laws through them, at every size.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, reduce
from itertools import product
from operator import or_
from typing import NamedTuple

from . import axioms
from .core import (
    P0Set,
    SubsetMask,
    bits,
    derived_relations,
    full_mask,
    lattice_tables,
    maximal_centred_sets,
    order_predicates,
    prec_down,
    structure_table,
    transpose,
    union_rows,
)
from .errors import CapExceeded, PreconditionFailed
from .report import Check, Report, report

FAMILY_BOUND = 1 << 12  # unions of generator rows before `saturated_family` refuses

FRAME_LAWS = (
    "basic_semilattice", "character_representation", "families_coincide", "join_rule",
    "meet_rule", "intersection_closed", "frame_distributivity", "waybelow_matches",
    "singleton_isomorphism", "finite_family_basic_lattice", "singletons_join_dense",
    "finite_sup_dense",
)


@structure_table
def _generator_rows(B: P0Set) -> tuple[SubsetMask, ...]:
    """g[a] = zero together with the meet rows of the elements below a."""
    meets, zb = derived_relations(B).meets, 1 << B.zero
    return tuple(union_rows(meets, d, zb) for d in prec_down(B))


def _inside(rows, target: SubsetMask) -> SubsetMask:
    """{y : rows[y] inside target}."""
    return sum(1 << y for y, r in enumerate(rows) if not r & ~target)


def subset_wayb(B: P0Set, C: SubsetMask, D: SubsetMask) -> bool:
    """Way-below via the maximal interpolant: the down-closure of D always
    dominates D pointwise, and the cover-like relation is monotone in its
    interpolant, so it suffices as the witness.  So C is way below D when
    the strict down-closure of C lies inside T_D."""
    zb = 1 << B.zero
    return union_rows(prec_down(B), C) & ~union_rows(_generator_rows(B), D, zb) == 0


def saturate(B: P0Set, A: SubsetMask) -> SubsetMask:
    """Elements whose singleton is way below A: those whose strict down-set
    lies inside T_A, the union of zero and the generator rows of A's
    members."""
    return _inside(prec_down(B), union_rows(_generator_rows(B), A, 1 << B.zero))


def saturated_family(B: P0Set) -> tuple[SubsetMask, ...]:
    """The distinct saturations of the subsets, ascending.  A subset
    enters its saturation only through the union of zero and its members'
    generator rows, so the family is the saturated parts of those unions,
    grown one generator at a time and refused past `FAMILY_BOUND` of them."""
    unions = {1 << B.zero}
    for g in set(_generator_rows(B)):
        unions |= {t | g for t in unions}
        if len(unions) > FAMILY_BOUND:
            raise CapExceeded(
                f"saturated families capped at {FAMILY_BOUND} unions of generator rows"
            )
    down = prec_down(B)
    return tuple(sorted({_inside(down, t) for t in unions}))


# ---------------------------------------------------------------------------
# subset laws by reduction
#
# Every relation below has the form: C rel D iff the union of rows left[c]
# over C lies inside value(D) = base | the union of rows r[d] over D.  Two
# facts follow, and every reduction rests on them alone:
#
# (U) C rel D iff {c} rel D for every c in C: a union lies inside a set
#     iff each part does.  So C rel D iff C lies inside good(D) = {c :
#     {c} rel D}, and good grows with D, as value does.
# (K) An element x outside base is outside value(D) iff D lies inside the
#     key of x, {d : x not in r[d]}, the largest set that keeps x out.  So
#     {c} rel D fails iff D lies inside some key M with c outside good(M).
#
# Saturation is good(A) of the way-below relation, whose value is T_A.
# Each decider returns the witness of a failing instance, in the format of
# the literal clause loop (kept with the 2**n table route in
# tests/oracles.py), or None when the clause holds.


class _Relation(NamedTuple):
    """C rel D iff the union of left[c] over C lies inside value(D);
    good(D) = {c : {c} rel D}, and keys are the keys of (K) that some
    left row needs."""

    left: tuple[SubsetMask, ...]
    value: Callable[[SubsetMask], SubsetMask]
    good: Callable[[SubsetMask], SubsetMask]
    keys: tuple[SubsetMask, ...]


def _relation(left, rows, base: SubsetMask) -> _Relation:
    """The relation of `left` rows and value base | the union of `rows`."""
    n = len(left)
    cols = transpose(rows, n)  # cols[x] = {d : x in rows[d]}
    keys = dict.fromkeys(full_mask(n) & ~cols[x] for x in bits(reduce(or_, left, 0) & ~base))
    cache = {}

    def value(D: SubsetMask) -> SubsetMask:
        return union_rows(rows, D, base)

    def good(D: SubsetMask) -> SubsetMask:
        g = cache.get(D)
        if g is None:
            g = cache[D] = _inside(left, union_rows(rows, D, base))
        return g

    return _Relation(left, value, good, tuple(keys))


def _composition(r1: _Relation, r2: _Relation, r3: _Relation):
    """(C, G, D) with C r1 G and G r2 D but not C r3 D, or None.

    Say such (C, G, D) exists.  By (U) some c in C has {c} r1 G and not
    {c} r3 D, so by (K) D lies in a key M of r3 with c outside good3(M).
    G r2 M since values grow, so G lies inside good2(M), and c is in
    good1(good2(M)).  Conversely each such c fails at ({c}, good2(M), M),
    since good2(M) r2 M by (U).  So the keys of r3 are the instances.
    """
    for M in r3.keys:
        G = r2.good(M)
        bad = r1.good(G) & ~r3.good(M)
        if bad:
            return (bad & -bad, G, M)
    return None


def _inclusion(r1: _Relation, r2: _Relation):
    """(C, D) with C r1 D but not C r2 D, or None.  If C r1 D fails r2,
    some c in C fails it at D (U), so at a key M of r2 holding D (K),
    while {c} r1 M still holds, since values grow."""
    for M in r2.keys:
        bad = r1.good(M) & ~r2.good(M)
        if bad:
            return (bad & -bad, M)
    return None


def _left_union(r: _Relation):
    """(C, D) where C rel D differs from: {c} rel D for every c in C, or
    None.  By (U) the two agree on every instance; the check reads, at
    each key and at the carrier, the largest C the singletons allow,
    good(D), through the union of its rows."""
    for D in r.keys + (full_mask(len(r.left)),):
        C = r.good(D)
        if union_rows(r.left, C) & ~r.value(D):
            return (C, D)
    return None


def _least_outside(M: SubsetMask) -> int:
    return (~M & (M + 1)).bit_length() - 1


def _right_monotone(r: _Relation):
    """(C, D, b) with C rel D, b not in D, but not C rel D + {b}, or None.
    Values are unions of rows, so they grow with D and the clause holds;
    the check reads the largest C at each key and its least one-element
    extension."""
    full = full_mask(len(r.left))
    for M in r.keys:
        if M != full:
            b = _least_outside(M)
            C = r.good(M)
            if C & ~r.good(M | 1 << b):
                return (C, M, b)
    return None


def _multiplicative(B: P0Set, r: _Relation):
    """(C, D) where wedge(dc C, dc D) rel wedge(C, D) fails, or None;
    requires pairwise meets.

    A wedge is the union of the meets c ^ d of members, and dc(C) the
    union of the down[c].  So by (U), and as values grow, the clause
    fails exactly when some {x ^ y} rel {c ^ d} fails with x < c and
    y < d, and then it fails at ({c}, {d}): the pair law of the strict
    relation with conclusion rows {m : {w} rel {m}}, O(n^3).  For prec it
    is the multiplicativity axiom.  That axiom puts wedge(dc C, dc D)
    inside dc(wedge(C, D)), so when down[e] rel {e} for every e too, which
    gives dc(E) rel E, the clause holds without the pair law.
    """
    dn = prec_down(B)
    if axioms._sweep_multiplicativity(B).holds and not any(
        d & ~r.good(1 << e) for e, d in enumerate(dn)
    ):
        return None
    meet, n = lattice_tables(B)[0], B.size
    concl = transpose([r.good(1 << m) for m in range(n)], n)
    check = axioms._pair_law("multiplicativity", meet, meet, B.prec, concl)
    return None if check.holds else (1 << check.witness[1], 1 << check.witness[3])


def _interpolant(wayb: _Relation, down):
    """(C, D) with C wayb D but no G with C wayb G and G prec D, or None.

    The largest G prec D is dc(D), and wayb grows with G, so the clause
    fails exactly when C wayb D but not C wayb dc(D).  Then by (U) and (K)
    some c in C fails at a key M holding dc(D), so D lies inside N =
    {d : down[d] inside M}; c is still in good(N), and dc(N) lies inside
    M.  So the instances are ({c}, N), one per key.
    """
    for M in wayb.keys:
        N = _inside(down, M)
        bad = wayb.good(N) & ~wayb.good(M)
        if bad:
            return (bad & -bad, N)
    return None


def _first_changed(candidates, sat, f):
    """(A,) for the first candidate A with f(A) != sat(A), or None."""
    return next(((A,) for A in candidates if f(A) != sat(A)), None)


def _saturation_invariant(wayb: _Relation, n: int):
    """(C, A) where C wayb sat(A), C wayb A and sat(C) wayb A do not all
    agree, or None.

    As sat is good of wayb, the three say: C inside sat(sat(A)), C
    inside sat(A), and sat(C) inside sat(A).  The first two agree for
    every C exactly when sat(sat(A)) = sat(A), that is when sat(sat(A))
    lies inside sat(A), which can fail only at keys (idempotence in
    `_subset_clauses`).  The last two differ when C
    lies inside sat(A) but sat(C) does not, so sat(sat(A)) is not inside
    sat(A) either; or when sat(C) lies inside sat(A) but C does not.  Then
    some c in C is outside sat(A) with sat({c}) inside it, and by (K), as
    sat grows, the same holds at a key holding A.
    """
    sat = wayb.good
    singles = [sat(1 << c) for c in range(n)]
    for M in wayb.keys:
        S = sat(M)
        moved = sat(S) & ~S
        if moved:
            return (moved & -moved, M)
        bad = sum(1 << c for c, s in enumerate(singles) if not (S >> c & 1 or s & ~S))
        if bad:
            return (bad & -bad, M)
    return None


def _subset_clauses(B: P0Set):
    """(name, gate, decide) for each clause of `verify_subset_laws`, in
    report order.  decide() gives the clause's witness, or None when it
    holds, on any structure; the multiplicative clauses need pairwise
    meets.  Gates: 0 none, 1 coinitiality, 2 coinitiality, pairwise meets
    and multiplicativity, 3 the basic-semilattice check.

    The saturation clauses compare sat(X(A)) with sat(A).  If y is in
    one and not the other, then y is outside sat(S) for S = A or X(A):
    some z < y is outside T_S, so S lies in the key M of z, and sat(M)
    misses y too.  When S = A, the clause fails at A = M, as the other
    side grows with A; when S = X(A) and X is a union of rows x[a], it
    fails at {a : x[a] inside M}.  Three more facts:
    - saturation_down_closed and saturation_of_down_closure: every x has
      x <= x, so the down-closure of a set holds it, the down-closure of
      sat(A) holds sat(A), sat(dcp(A)) holds sat(A), and only the keys
      can show a difference.
    - saturation_idempotent: sat(A) lies inside sat(sat(A)) on every
      structure, so the check is sat(sat(A)) inside sat(A), at the keys.
      An element z of T_A other than zero meets some d, so it has a
      nonzero element below it and lies in its own meet row.  So if y is
      in sat(A), every z < y lies in g[y], and y is in sat({y}), inside
      sat(sat(A)).
    The other four read keys or singletons too: monotonicity at each key
    and its least extension, dc(A) inside sat(A) at singletons (a union
    on the left), sat(A) precsim A at the keys of precsim (K), and
    membership, F inside sat(A) against F wayb A, which are one test by
    (U), at the keys of way-below.
    """
    n, zb = B.size, 1 << B.zero
    full = full_mask(n)
    down = prec_down(B)
    der = derived_relations(B)
    ident = tuple(1 << x for x in range(n))
    prec = _relation(ident, down, 0)
    sim = _relation(down, der.meets, zb)
    refl = _relation(der.preceq_down, der.meets, zb)
    below = _relation(ident, der.preceq_down, 0)
    wayb = _relation(down, _generator_rows(B), zb)
    sat, keys = wayb.good, wayb.keys
    saturated = _Relation(ident, sat, sat, keys)

    def equal(r1, r2):
        return lambda: _inclusion(r1, r2) or _inclusion(r2, r1)

    def dc(A):
        return union_rows(down, A)

    def dcp(A):
        return union_rows(der.preceq_down, A)

    def sat_monotone():
        return next(((M, b) for M in keys if M != full
                     for b in [_least_outside(M)] if sat(M) & ~sat(M | 1 << b)), None)

    return (
        ("prec_transitive", 0, lambda: _composition(prec, prec, prec)),
        ("precsim_transitive", 2, lambda: _composition(sim, sim, sim)),
        ("prec_left_union", 0, lambda: _left_union(prec)),
        ("precsim_left_union", 0, lambda: _left_union(sim)),
        ("wayb_left_union", 0, lambda: _left_union(wayb)),
        ("prec_right_monotone", 0, lambda: _right_monotone(prec)),
        ("precsim_right_monotone", 0, lambda: _right_monotone(sim)),
        ("wayb_right_monotone", 0, lambda: _right_monotone(wayb)),
        ("prec_multiplicative", 2, lambda: _multiplicative(B, prec)),
        ("precsim_multiplicative", 2, lambda: _multiplicative(B, sim)),
        ("wayb_multiplicative", 2, lambda: _multiplicative(B, wayb)),
        ("below_implies_precsim", 1, lambda: _inclusion(below, sim)),
        ("precsim_reflexivized_form", 1, equal(sim, refl)),
        ("wayb_transitive", 2, lambda: _composition(wayb, wayb, wayb)),
        ("finite_prec_implies_wayb", 1, lambda: _inclusion(prec, wayb)),
        ("wayb_through_interpolant_back", 0, lambda: _composition(wayb, prec, wayb)),
        ("wayb_through_interpolant", 3, lambda: _interpolant(wayb, down)),
        ("precsim_wayb_absorb", 2, lambda: _composition(sim, wayb, wayb)),
        ("wayb_implies_precsim", 2, lambda: _inclusion(wayb, sim)),
        ("saturation_members", 0, equal(saturated, wayb)),
        ("strict_down_in_saturation", 1,
         lambda: next(((1 << a,) for a in range(n) if down[a] & ~sat(1 << a)), None)),
        ("saturation_down_closed", 2, lambda: _first_changed(keys, sat, lambda A: dcp(sat(A)))),
        ("saturation_of_down_closure", 0,
         lambda: _first_changed(keys, sat, lambda A: sat(dcp(A)))),
        ("saturation_of_strict_down", 3, lambda: _first_changed(
            keys + tuple(_inside(down, M) for M in keys), sat, lambda A: sat(dc(A)))),
        ("saturation_idempotent", 3,
         lambda: next(((M,) for M in keys if sat(sat(M)) & ~sat(M)), None)),
        ("saturation_monotone", 0, sat_monotone),
        ("saturation_precsim_source", 2,
         lambda: next(((M,) for M in sim.keys if sat(M) & ~sim.good(M)), None)),
        ("wayb_saturation_invariant", 3, lambda: _saturation_invariant(wayb, n)),
    )


def verify_subset_laws(B: P0Set) -> Report:
    """Clause-by-clause laws of the subset relations and saturation.

    Each clause is checked exactly on the structures where its proof's
    hypotheses hold and reported as not-applicable otherwise.  Gates, from
    weakest to strongest: none; coinitiality; coinitiality plus a meet
    semilattice with multiplicativity; the full basic-semilattice check
    (the clauses marked with it lean on type omission).

    Each clause is decided on polynomially many instances, singletons and
    the keys of the relations, by the reductions proved in the deciders'
    docstrings (see `_subset_clauses`), at every carrier size; the 2**n
    table route is the test oracle.

    Saturation is deliberately not asserted to be extensive: sets need
    not be contained in their saturations.
    """
    g1 = bool(axioms._sweep_coinitiality(B).holds)
    g2 = g1 and bool(order_predicates(B).holds("meet_semilattice")) and bool(
        axioms._sweep_multiplicativity(B).holds)
    gates = (True, g1, g2, axioms.is_basic_semilattice(B))
    checks = []
    for name, gate, decide in _subset_clauses(B):
        if not gates[gate]:
            checks.append(Check(name, None))
            continue
        w = decide()
        checks.append(Check(name, w is None, w))
    return report("subset_laws", checks)


# ---------------------------------------------------------------------------
# frame laws through the characters
#
# The characters are the maximal centred sets.  Write a(y) for the mask
# of characters holding y, a(A) for its union over A, and R(K) = {y :
# a(y) inside K}.  When the reflexivization is a partial order, the
# characters are the up-sets of the atoms (minimal nonzero elements), and:
# (I) sat(A) = R(a(A)).  An atom z has z < z, or it would equal zero, so
#     the atoms below a nonzero x are those of a(x), and every nonzero
#     element has one.  So a nonzero x is in T_A (some nonzero e < d < a
#     in A has e < x) iff a(x) meets a(A), and y is in sat(A) iff every
#     nonzero x < y has a(x) meeting a(A), that is iff a(y) is inside a(A).
# (P) Each character holds an element no other holds: its atom.
# (M) a(x ^ y) = a(x) & a(y): an atom is below the meet iff below both.
# Consequences: (R1) a(R(K)) = K, as R(K) holds the private element of
# each character in K.  (R2) So K -> R(K) is an order isomorphism from the
# sets of characters onto the saturated family, inverse a, and R(K) =
# sat(P_K) for P_K the private elements of K: 2**k members.  (R3) For any
# S, sat(S) = R(a(S)) holds S and lies inside each member R(K) holding S,
# as a(S) is inside K; so the members are the S with sat(S) = S.


def _private_witness(held, k: int):
    """("private", i) for the first of the k characters holding no
    element that no other holds, or None; held[y] = a(y)."""
    private = reduce(or_, (h for h in held if not h & (h - 1)), 0)
    missing = full_mask(k) & ~private
    return ("private", (missing & -missing).bit_length() - 1) if missing else None


def _representation_witness(B: P0Set, held, k: int):
    """The first of (I) and (P) to fail, as ("identity", A) or ("private",
    i), or None.  Both sides of (I) are good of a relation of the subset
    laws' form, way-below and the relation with rows a(y) on both sides,
    so (I) holds for all A iff each relation is included in the other,
    which `_inclusion` decides at the keys: at most n of way-below and the
    complements of the k characters.

    (M) needs no check: on a meet semilattice, a partial order, the
    characters a satisfy (I), (P) and (M), and rows `held` satisfying (I)
    and (P) are a relabelled.  By (I) for both, held[y] lies inside
    held[x] iff y is in sat({x}) iff a(y) lies inside a(x); by (P),
    held[x] = {i : p_i in sat({x})}, p_i the private element of i.  As
    held[p_i] = {i} is minimal among nonempty rows, so is a(p_i), which is
    then a singleton {s(i)}: a nonempty a(y) holds the {j} of an atom.  s
    is one-to-one, as rows equal in one table are equal in the other, and
    onto, as the atom of j has a minimal nonempty row holding some i.  So
    held[x] = {i : s(i) in a(x)}, and (M) carries over."""
    wayb = _relation(prec_down(B), _generator_rows(B), 1 << B.zero)
    chars = _relation(held, held, 0)
    w = _inclusion(wayb, chars) or _inclusion(chars, wayb)
    return ("identity", w[1]) if w else _private_witness(held, k)


class _Frame(NamedTuple):
    """What the deciders read: sat, the library's `saturate` on B kept per
    set; sing[x] = sat({x}); members, the distinct saturations of the
    singletons and the carrier; atoms[i] = R({i}), the saturation of the
    first element y with a(y) = {i}; held[y] = a(y)."""

    B: P0Set
    sat: Callable[[SubsetMask], SubsetMask]
    sing: list[SubsetMask]
    members: tuple[SubsetMask, ...]
    atoms: tuple[SubsetMask, ...]
    held: tuple[SubsetMask, ...]


def _families_coincide(f: _Frame):
    """(A,) where sat(A) is not the union of sat(U) over U inside A, the
    member the finite parts of A give, or None.  sat = R o a is monotone
    by (I), so the union is sat(A).  Read at A = {x}, against sat({}), and
    at the carrier X, against each sat({x})."""
    full = full_mask(f.B.size)
    return next(((1 << x,) for x, s in enumerate(f.sing) if f.sat(0) & ~s), None) or next(
        ((full,) for s in f.sing if s & ~f.sat(full)), None)


def _join_rule(f: _Frame):
    """(A, C) where sat(A | C) is not the least member holding sat(A) and
    sat(C), or None.  By (I) and (R1) sat(A | C) = R(a(A) | a(C)) =
    R(a(sat(A) | sat(C))), the least member holding both by (R3).  Read at
    each pair of singletons: sat({x, y}) holds sat({x}) and sat({y}) and
    lies inside m = sat(sat({x}) | sat({y})) when m holds them."""
    n, sing, sat = f.B.size, f.sing, f.sat
    return next(((1 << x, 1 << y) for x in range(n) for y in range(x + 1, n)
                 for both, j in [(sing[x] | sing[y], sat(1 << x | 1 << y))]
                 if both & ~j or not both & ~sat(both) and j & ~sat(both)), None)


def _meet_rule(f: _Frame):
    """(A, C) where sat(wedge(A, C)) is not sat(A) & sat(C), or None.  By
    (M) a(wedge(A, C)), the union of the a(c ^ d), is a(A) & a(C), and R
    turns & into &, so by (I) both sides are R(a(A) & a(C)).  Read at each
    pair of singletons, whose wedge is their meet."""
    n, sing, meet = f.B.size, f.sing, lattice_tables(f.B)[0]
    return next(((1 << x, 1 << y) for x in range(n) for y in range(x, n)
                 if sing[meet[x][y]] != sing[x] & sing[y]), None)


def _intersection_closed(f: _Frame):
    """(s, t) for saturated sets, each its own saturation, whose
    intersection is not, or None.  By (R3) these are the members, and
    R(K) & R(L) = R(K & L) is one.  Read at each pair of members held."""
    ms = [m for m in f.members if f.sat(m) == m]
    return next(((s, t) for i, s in enumerate(ms) for t in ms[i + 1:]
                 if f.sat(s & t) != s & t), None)


def _frame_distributivity(f: _Frame):
    """(s, t, u) for members with s & sat(t | u) != sat(s & t | s & u), or
    None.  For s = R(K), t = R(L), u = R(M), the join rule and R(K) & R(L)
    = R(K & L) make the sides R(K & (L | M)) and R((K & L) | (K & M)).
    Read at each member held against each pair of atoms, of which every
    member is the join."""
    atoms, sat = f.atoms, f.sat
    return next(((s, t, u) for j, t in enumerate(atoms) for u in atoms[j + 1:]
                 for tu in [sat(t | u)] for s in f.members
                 if s & tu != sat(s & t | s & u)), None)


def _waybelow_matches(f: _Frame):
    """(s, t) for members where s inside t and s way below t disagree, or
    None.  s is way below t iff s lies inside sat(t), by (U), and sat(t)
    = t (R3).  Read with `subset_wayb` at each pair of members held."""
    return next(((s, t) for s, t in product(f.members, repeat=2)
                 if (s & ~t == 0) != subset_wayb(f.B, s, t)), None)


def _family_basic_lattice(f: _Frame) -> bool:
    """Whether the family under way-below is a basic lattice.  Way-below
    is inclusion on members and K -> R(K) is an order isomorphism (R2), so
    the family is the powerset of the characters, a basic lattice by
    theorem 1.  Read with `subset_wayb`: the atoms way below each member
    held are those of its characters."""
    return all(subset_wayb(f.B, s, m) == bool(chars >> i & 1)
               for m in f.members for chars in [union_rows(f.held, m)]
               for i, s in enumerate(f.atoms))


def _singletons_join_dense(f: _Frame):
    """(m,) for a member that is not the saturation of the union of the
    singletons whose saturations it holds, or None.  For m = R(K),
    sat({x}) = R(a(x)) is inside m iff a(x) is inside K (R1), so those x
    make up m, and sat(m) = m (R3).  Read at each member held."""
    return next(((m,) for m in f.members
                 if f.sat(sum(1 << x for x, s in enumerate(f.sing) if not s & ~m)) != m), None)


def _finite_sup_dense(f: _Frame):
    """(m,) for a member that is not the join of the saturations of
    finite sets inside it, or None.  In a finite carrier those are the
    members inside m, m among them, so the join is sat(m) = m (R3).  Read
    at each member held."""
    return next(((m,) for m in f.members if f.sat(m) != m), None)


_FRAME_DECIDERS = (
    ("families_coincide", _families_coincide), ("join_rule", _join_rule),
    ("meet_rule", _meet_rule), ("intersection_closed", _intersection_closed),
    ("frame_distributivity", _frame_distributivity), ("waybelow_matches", _waybelow_matches),
    ("singletons_join_dense", _singletons_join_dense), ("finite_sup_dense", _finite_sup_dense),
)


def verify_frame(B: P0Set) -> Report:
    """Frame laws of the saturated family, the way-below comparison, and
    the density/isomorphism corollaries.

    The laws are theorems for basic semilattices; the semilattice verdict
    leads the report so a structure outside that class shows its frame
    verdicts but cannot pass overall.  Checks needing pairwise meets are
    not applicable without a meet semilattice.

    Every check is decided at every carrier size.  The singleton
    isomorphism reads n**2 way-below tests, `character_representation` the
    facts (I) and (P) of the section comment, true on meet semilattices,
    which give (M).
    Given them each other law is read through `saturate` and `subset_wayb`
    at the polynomially many instances its decider's proof names; where
    they fail, those laws hold None.
    """
    if not order_predicates(B).holds("meet_semilattice"):
        raise PreconditionFailed("frame verification needs pairwise meets")
    n = B.size
    sing = [saturate(B, 1 << x) for x in range(n)]
    iso_w = next(((x,) for x in range(n) if sing.index(sing[x]) != x), None) or next(
        ((x, y) for x, y in product(range(n), repeat=2)
         if B.has(x, y) != subset_wayb(B, sing[x], sing[y])), None)
    chars = maximal_centred_sets(B)
    k, held = len(chars), tuple(transpose(chars, n))
    rep_w = _representation_witness(B, held, k)
    checks = {
        "basic_semilattice": Check("basic_semilattice", axioms.is_basic_semilattice(B)),
        "character_representation": Check("character_representation", rep_w is None, rep_w),
        "singleton_isomorphism": Check("singleton_isomorphism", iso_w is None, iso_w),
    }
    if rep_w is None:
        sat = cache(lambda A: saturate(B, A))
        f = _Frame(B, sat, sing, tuple(sorted({*sing, sat(full_mask(n))})),
                   tuple(sing[held.index(1 << i)] for i in range(k)), held)
        checks["finite_family_basic_lattice"] = Check(
            "finite_family_basic_lattice", _family_basic_lattice(f))
        for name, decide in _FRAME_DECIDERS:
            w = decide(f)
            checks[name] = Check(name, w is None, w)
    return report("frame", [checks.get(name) or Check(name, None) for name in FRAME_LAWS])
