"""Independent reference implementations used to freeze expected values.

Everything here works with plain sets and literal quantifier loops, no
bitmasks and no shared code with the package, so agreement is a real
cross-check rather than a tautology.  The last section is the exception,
and the only reader of the package imports below: views of the package's
own results, and routes of the package that only the tests call.
"""

from functools import lru_cache, reduce
from itertools import chain, combinations, product, repeat
from operator import and_, invert, ne, or_, rshift, xor
from typing import NamedTuple

from orderbench import axioms, saturation, spectrum
from orderbench import tight as ti
from orderbench.core import (
    MAX_SIZE,
    P0Set,
    SubsetMask,
    bits,
    derived_relations,
    first_pair,
    full_mask,
    lattice_tables,
    lower_bound_table,
    maximal_centred_sets,
    meets_preceq,
    meets_preceq_table,
    order_predicates,
    p0set,
    prec_down,
    relative_complement,
    structure_table,
    submasks,
    subset_fold,
    transpose,
    union_rows,
)
from orderbench.errors import CapExceeded, InputError, PreconditionFailed
from orderbench.report import Check, Report, report


def elements(B):
    return list(range(B.size))


def pairs(B):
    return {(x, y) for x in range(B.size) for y in range(B.size) if B.has(x, y)}


def down(B, x):
    return {z for z in range(B.size) if B.has(z, x)}


def up(B, x):
    return {z for z in range(B.size) if B.has(x, z)}


def preceq(B):
    rel = set()
    for x in range(B.size):
        for y in range(B.size):
            if down(B, x) <= down(B, y):
                rel.add((x, y))
    return rel


@lru_cache(maxsize=None)
def _down_sets(B):
    """down(B, x) for every x, built once per structure."""
    return tuple(frozenset(down(B, x)) for x in range(B.size))


def le(B, x, y):
    downs = _down_sets(B)
    return downs[x] <= downs[y]


def meets(B, x, y):
    return any(z != B.zero and B.has(z, x) and B.has(z, y) for z in range(B.size))


def meets_refl(B, x, y):
    return any(z != B.zero and le(B, z, x) and le(B, z, y) for z in range(B.size))


def subsets(pool):
    pool = list(pool)
    return chain.from_iterable(combinations(pool, r) for r in range(len(pool) + 1))


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_filters(B):
    """All filters as frozensets, by definition."""
    out = []
    for U in subsets(range(B.size)):
        U = frozenset(U)
        closed = all(x in U for y in U for x in up(B, y))
        directed = all(
            any(z in U and B.has(z, x) and B.has(z, y) for z in range(B.size))
            for x in U
            for y in U
        )
        if closed and directed:
            out.append(U)
    return out


def naive_ultrafilters(B, filters=None):
    """The maximal nonempty proper filters among `filters` (frozensets),
    by default every filter `naive_filters` finds."""
    full = frozenset(range(B.size))
    proper = [U for U in (naive_filters(B) if filters is None else filters) if U != full and U]
    return [U for U in proper if not any(V > U for V in proper)]


def loop_is_filter(B, U):
    """Whether the mask U is a filter: up-closed under the strict relation,
    then downward directed by a loop over every pair of members (the
    O(|U|^2) route that the principal-row test replaced)."""
    up_needed = 0
    for y in _members(U):
        up_needed |= B.prec[y]
    if up_needed & ~U:
        return False
    down = [sum(1 << x for x in range(B.size) if B.has(x, y)) for y in range(B.size)]
    members = _members(U)
    for i, x in enumerate(members):
        dx = down[x]
        for y in members[i:]:
            if dx & down[y] & U == 0:
                return False
    return True


def naive_lower_bounds(B, C):
    return {z for z in range(B.size) if all(le(B, z, c) for c in C)}


def naive_covers(B, C, D):
    lb = naive_lower_bounds(B, C)
    return all(z == B.zero or any(meets_refl(B, z, d) for d in D) for z in lb)


def naive_subset_prec(B, C, D):
    return all(any(B.has(x, y) for y in D) for x in C)


def naive_subset_precsim(B, C, D):
    below = {z for x in C for z in down(B, x)}
    return all(z == B.zero or any(meets(B, z, d) for d in D) for z in below)


def naive_wayb(B, C, D):
    return any(
        naive_subset_precsim(B, C, F) and naive_subset_prec(B, F, D)
        for F in subsets(range(B.size))
    )


def naive_saturate(B, A):
    return {y for y in range(B.size) if naive_wayb(B, {y}, set(A))}


# ---------------------------------------------------------------------------
# the subset relations on bitmasks, by their definitions
#
# Subsets are bitmasks; the strict down-sets and the meet relation are
# tabulated as rows from the set functions above.


@lru_cache(maxsize=None)
def _order_rows(B):
    """(down rows, meet rows): down[x] masks the z < x, meet[x] the y that
    share a nonzero strict lower bound with x."""
    n = B.size
    lower = [sum(1 << z for z in down(B, x)) for x in range(n)]
    meet = [sum(1 << y for y in range(n) if meets(B, x, y)) for x in range(n)]
    return lower, meet


def _strict_below(B, C):
    lower, _ = _order_rows(B)
    acc = 0
    for c in _members(C):
        acc |= lower[c]
    return acc


def mask_prec(B, C, D):
    """Every element of C is strictly below some element of D."""
    return C & ~_strict_below(B, D) == 0


def mask_precsim(B, C, D):
    """Everything strictly below a member of C is zero or meets D."""
    _, meet = _order_rows(B)
    return all(z == B.zero or meet[z] & D for z in _members(_strict_below(B, C)))


def wayb_exhaustive(B, C, D):
    """C precsim F and F prec D for some F: the literal search over every
    finite interpolant."""
    _, meet = _order_rows(B)
    below_d = _strict_below(B, D)
    below_c = [meet[z] for z in _members(_strict_below(B, C)) if z != B.zero]
    return any(
        F & ~below_d == 0 and all(m & F for m in below_c) for F in range(1 << B.size)
    )


class SubsetRels(NamedTuple):
    prec: bool
    precsim: bool
    wayb: bool


def subset_relations(B, C, D):
    return SubsetRels(mask_prec(B, C, D), mask_precsim(B, C, D), wayb_exhaustive(B, C, D))


def table_saturated_family(B):
    """The finite saturated family by the table route: the saturation of
    every subset A of the carrier, each y tested for {y} precsim the strict
    down-closure of A (its maximal interpolant), as distinct masks,
    ascending."""
    sat = {}
    for A in range(1 << B.size):
        below = _strict_below(B, A)
        if below not in sat:
            sat[below] = sum(1 << y for y in range(B.size) if mask_precsim(B, 1 << y, below))
    return tuple(sorted(set(sat.values())))


def naive_phi(B, x, y, n):
    """Literal tuple quantification; exponential, for tiny n only."""
    if not B.has(x, y):
        return False
    choice_pairs = [
        (w, v) for w in down(B, y) for v in down(B, w)
    ]
    for tup in product(choice_pairs, repeat=n):
        vs = [v for _, v in tup]
        if not any(
            xp != B.zero
            and B.has(xp, x)
            and all(not meets(B, xp, v) for v in vs)
            for xp in range(B.size)
        ):
            return False
    return True


def naive_theta(B, n):
    for x in range(B.size):
        for y in range(B.size):
            antecedent = any(
                not any(
                    v != B.zero
                    and B.has(v, x)
                    and all(not meets(B, v, w) for w in ws)
                    for v in range(B.size)
                )
                for ws in product(down(B, y), repeat=n)
            )
            if antecedent and not B.has(x, y):
                return False
    return True


# ---------------------------------------------------------------------------
# the type sentences, by the level sweep
#
# The route the full-support tests replaced: every set of min(n, |pool|)
# chosen elements is tried, and the report's theta level is found by
# sweeping the levels upwards.


@lru_cache(maxsize=256)
def _type_relations(B):
    n = B.size
    low = [sorted(down(B, y)) for y in range(n)]
    meet = [[meets(B, a, b) for b in range(n)] for a in range(n)]
    return low, meet


def sweep_theta_witness(B, n):
    low, meet = _type_relations(B)
    for x in range(B.size):
        lows = [v for v in low[x] if v != B.zero]
        for y in range(B.size):
            if B.has(x, y):
                continue
            for ws in combinations(low[y], min(n, len(low[y]))):
                if all(any(meet[v][w] for w in ws) for v in lows):
                    return (x, y)
    return None


def sweep_phi(B, x, y, n):
    if not B.has(x, y):
        return False
    low, meet = _type_relations(B)
    d2 = sorted({v for w in low[y] for v in low[w]})
    lows = [xp for xp in low[x] if xp != B.zero]
    return all(
        any(not any(meet[xp][v] for v in vs) for xp in lows)
        for vs in combinations(d2, min(n, len(d2)))
    )


def sweep_psi(B, x, y, z, n):
    if not B.has(x, y):
        return False
    low, meet = _type_relations(B)
    wpool = [w for w in range(B.size) if not meet[x][w]]
    if not wpool:
        return True
    dpsi = sorted({v for w in wpool for v in low[w]})
    lows = [zp for zp in low[z] if zp != B.zero]
    return all(
        any(not meet[zp][yp] and not any(meet[zp][v] for v in vs) for zp in lows)
        for yp in low[y]
        for vs in combinations(dpsi, min(n, len(dpsi)))
    )


def sweep_type_witnesses(B):
    """(theta, phi, psi) witnesses of the basic-semilattice report: theta
    as (level, x, y) at the first failing level, phi and psi at the bound
    size**2, each the first in ascending order, or None."""
    n = B.size
    theta = None
    for lev in range(1, n + 1):
        w = sweep_theta_witness(B, lev)
        if w is not None:
            theta = (lev,) + w
            break
    bound = n * n
    phi = next(((x, y) for x in range(n) for y in range(n)
                if sweep_phi(B, x, y, bound)), None)
    return theta, phi, sweep_psi_witness(B)


def sweep_psi_witness(B):
    """psi's first (x, y, z) in ascending order at the bound size**2."""
    n = B.size
    return next(((x, y, z) for x in range(n) for y in range(n) if B.has(x, y)
                 for z in range(n) if sweep_psi(B, x, y, z, n * n)), None)


def naive_tight_characters(B):
    """One-sets of tight characters by the literal cover-preservation
    definition against the two-element algebra."""
    out = []
    for M in subsets(range(B.size)):
        M = set(M)
        if not M or B.zero in M:
            continue
        ok = True
        for F in subsets(range(B.size)):
            for G in subsets(range(B.size)):
                if not naive_covers(B, set(F), set(G)):
                    continue
                img_has_one = any(f in M for f in G)
                img_has_zero = any(f not in M for f in F)
                # target cover holds iff 1 in the image of G or 0 in the image of F
                if not (img_has_one or img_has_zero):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(M))
    return out


def naive_alexandroff(B, Y):
    """(closure, interior) of Y in the punctured up-closed-sets topology."""
    prime = {x for x in range(B.size) if x != B.zero}
    cl = {z for z in prime if any(le(B, y, z) for y in Y)}
    inte = {z for z in prime if {v for v in prime if le(B, v, z)} <= set(Y)}
    return cl, inte


def naive_regularize(B, Y):
    cl, _ = naive_alexandroff(B, Y)
    _, inte = naive_alexandroff(B, cl)
    return inte


def naive_meet(B, x, y):
    """Greatest lower bound under the reflexivization, or None."""
    lower = [z for z in range(B.size) if le(B, z, x) and le(B, z, y)]
    top = [m for m in lower if all(le(B, z, m) for z in lower)]
    return top[0] if len(top) == 1 else None


def _bound_rel(B, upper):
    """le as a matrix, transposed for upper bounds."""
    le_, _ = _matrices(B)
    return [list(col) for col in zip(*le_)] if upper else le_


def _candidates(rel, x, y):
    pool = [z for z in range(len(rel)) if rel[z][x] and rel[z][y]]
    return [m for m in pool if all(rel[z][m] for z in pool)]


def bound_candidates(B, x, y, upper=False):
    """The common lower bounds of x and y (upper bounds when `upper`) that
    lie above (below) all the others, in ascending order."""
    return _candidates(_bound_rel(B, upper), x, y)


def candidate_lattice_tables(B):
    """(meet_table, join_table) by candidate scans: an entry is the only
    candidate of its pair, or None when there is none or several."""
    def table(rel):
        return tuple(
            tuple(
                cands[0] if len(cands := _candidates(rel, x, y)) == 1 else None
                for y in range(B.size)
            )
            for x in range(B.size)
        )

    return table(_bound_rel(B, False)), table(_bound_rel(B, True))


# ---------------------------------------------------------------------------
# subset-law clauses, quantified literally
#
# Subsets are bitmasks 0..nsub-1 and rel(C, D) decides a relation on them.
# Each function walks its quantifiers in ascending order and returns the
# first failing instance, or None when the law holds.


def transitive_witness(rel, nsub):
    for D in range(nsub):
        for C in range(nsub):
            if not rel(C, D):
                continue
            for E in range(nsub):
                if rel(D, E) and not rel(C, E):
                    return (C, D, E)
    return None


def inclusion_witness(rel_a, rel_b, nsub):
    for C in range(nsub):
        for D in range(nsub):
            if rel_a(C, D) and not rel_b(C, D):
                return (C, D)
    return None


def mismatch_witness(rel_a, rel_b, nsub):
    for C in range(nsub):
        for D in range(nsub):
            if rel_a(C, D) != rel_b(C, D):
                return (C, D)
    return None


def left_union_witness(rel, nsub):
    for C in range(nsub):
        for D in range(nsub):
            whole = rel(C, D)
            parts = all(rel(1 << c, D) for c in _members(C))
            if whole != parts:
                return (C, D)
    return None


def right_monotone_witness(rel, nsub):
    n = nsub.bit_length() - 1
    for C in range(nsub):
        for D in range(nsub):
            if rel(C, D):
                for b in range(n):
                    if not D >> b & 1 and not rel(C, D | 1 << b):
                        return (C, D, b)
    return None


def multiplicative_witness(rel, wedge, dc, nsub):
    for C in range(nsub):
        for D in range(nsub):
            if not rel(wedge(dc[C], dc[D]), wedge(C, D)):
                return (C, D)
    return None


def pairwise_multiplicative_witness(rows, wedge, dc):
    """multiplicative_witness on relation rows and a wedge table: for each
    C the rows wedge(dc C, dc D) are looked up for every D at once, and
    bit wedge(C, D) is read from each, 4**n pair tests in all."""
    for C, wc in enumerate(wedge):
        need = [rows[wedge[dc[C]][e]] for e in dc]
        held = [need[D] >> w & 1 for D, w in enumerate(wc)]
        if not all(held):
            return (C, held.index(0))
    return None


def relation_rows(rel, nsub):
    """rows[C] = the bitset {D : rel(C, D)}, one predicate call per pair."""
    return [sum(1 << D for D in range(nsub) if rel(C, D)) for C in range(nsub)]


def saturation_invariant_witness(wayb, sat, nsub):
    for C in range(nsub):
        for A in range(nsub):
            if not wayb(C, sat[A]) == wayb(C, A) == wayb(sat[C], A):
                return (C, A)
    return None


def interpolant_back_witness(wayb, prec, nsub):
    for C in range(nsub):
        for G in range(nsub):
            if not wayb(C, G):
                continue
            for D in range(nsub):
                if prec(G, D) and not wayb(C, D):
                    return (C, G, D)
    return None


def interpolant_witness(wayb, prec, nsub):
    for C in range(nsub):
        for D in range(nsub):
            if wayb(C, D) and not any(
                wayb(C, G) and prec(G, D) for G in range(nsub)
            ):
                return (C, D)
    return None


def absorb_witness(sim, wayb, nsub):
    for C in range(nsub):
        for E in range(nsub):
            if not sim(C, E):
                continue
            for D in range(nsub):
                if wayb(E, D) and not wayb(C, D):
                    return (C, E, D)
    return None


# ---------------------------------------------------------------------------
# frame laws of a saturated family, by literal loops
#
# sat is the saturation table over the subsets, sets the family (its
# distinct values, ascending), wedge(A, C) the pointwise meet and
# wayb(C, D) the way-below relation.


def frame_witnesses(sat, sets, wedge, wayb, nsub):
    """Witnesses of the join rule, meet rule, intersection closure,
    distributivity and way-below comparison, each the first in ascending
    order, or None."""
    join = next(
        ((A, C) for A in range(nsub) for C in range(nsub)
         if sat[A] & ~sat[A | C] or sat[C] & ~sat[A | C]
         or not all(sat[A | C] & ~m == 0 for m in sets
                    if sat[A] & ~m == 0 and sat[C] & ~m == 0)),
        None,
    )
    meet = next(
        ((A, C) for A in range(nsub) for C in range(nsub)
         if sat[wedge(A, C)] != sat[A] & sat[C]),
        None,
    )
    closed = next(((s, t) for s in sets for t in sets if s & t not in sets), None)
    dist = next(
        ((s, t, u) for s in sets for t in sets for u in sets
         if s & sat[t | u] != sat[(s & t) | (s & u)]),
        None,
    )
    wb = next(
        ((s, t) for s in sets for t in sets
         if all(s & ~m == 0 for m in sets if t & ~m == 0) != wayb(s, t)),
        None,
    )
    return {"join_rule": join, "meet_rule": meet, "intersection_closed": closed,
            "frame_distributivity": dist, "waybelow_matches": wb}


def family_tables(B, sets):
    """(join, meet): join[i][j] indexes the saturation of the union of the
    i-th and j-th sets, meet[i][j] their intersection, None when it is not
    in `sets`."""
    index = {s: i for i, s in enumerate(sets)}
    join = [[index.get(sum(1 << y for y in naive_saturate(B, _members(s | t))))
             for t in sets] for s in sets]
    meet = [[index.get(s & t) for t in sets] for s in sets]
    return join, meet


# ---------------------------------------------------------------------------
# map classification, by the sweep over all source subset pairs
#
# Subsets of the source are bitmasks again.  For each side, a subset's
# nonzero lower bounds and the elements meeting one of its members are
# tabulated as masks over that side's carrier (the target side through the
# map), and every pair (F, G) is tested.


@lru_cache(maxsize=None)
def _element_masks(S):
    """Per element t of S: (the nonzero elements below t, the elements
    meeting t), read from `le` and `meets_refl`."""
    return tuple(
        (
            sum(1 << z for z in range(S.size) if z != S.zero and le(S, z, t)),
            sum(1 << z for z in range(S.size) if meets_refl(S, z, t)),
        )
        for t in range(S.size)
    )


def _cover_masks(S, images, nsub):
    """(lower[C], meeting[D]) over source subsets C, D whose members are
    sent to `images` in S: the nonzero common lower bounds of the image of
    C, and the elements meeting some member of the image of D."""
    rows = _element_masks(S)
    nonzero = (1 << S.size) - 1 & ~(1 << S.zero)
    lower, meeting = [], []
    for members in _subset_members(nsub):
        lo, me = nonzero, 0
        for c in members:
            lo &= rows[images[c]][0]
            me |= rows[images[c]][1]
        lower.append(lo)
        meeting.append(me)
    return tuple(lower), tuple(meeting)


@lru_cache(maxsize=None)
def _subset_members(nsub):
    return tuple(_members(C) for C in range(nsub))


@lru_cache(maxsize=None)
def _source_cover_masks(B):
    return _cover_masks(B, range(B.size), 1 << B.size)


def sweep_map_witnesses(beta):
    """(tight witness, tightish witness) of a map, or None for each.

    A pair (F, G) fails when F covers G in the source but the image of F
    does not cover the image of G in the target.  The tightish witness is
    the first failing pair with F nonzero, in ascending (F, G) order; the
    tight witness is the first failing pair with F = 0, or else the
    tightish one.
    """
    B, A = beta.source, beta.target
    return _sweep_pairs(
        *_source_cover_masks(B), *_cover_masks(A, beta.assignment, 1 << B.size)
    )


@lru_cache(maxsize=None)
def _sweep_pairs(lowB, meetB, lowA, meetA):
    """The sweep of `sweep_map_witnesses` over every pair, on the masks of
    both sides; maps with the same masks share it."""
    nsub = len(lowB)
    tight_w = tightish_w = None
    for F in range(nsub):
        for G in range(nsub):
            if lowB[F] & ~meetB[G] == 0 and lowA[F] & ~meetA[G]:
                if F == 0:
                    if tight_w is None:
                        tight_w = (F, G)
                else:
                    tightish_w = (F, G)
                    break
        if tightish_w:
            break
    return tight_w or tightish_w, tightish_w


def pointwise_map_witnesses(beta):
    """(tight witness, tightish witness) of a map, or None for each, with
    one candidate pair per nonzero target element, in polynomial time.

    A pair (F, G) fails through a nonzero target element a when a lies
    below the image of every member of F and meets the image of no member
    of G.  Covering is upward closed in F and in G, so a failing pair
    through a exists exactly when F_a = {x : a <= beta(x)} covers
    G_a = {g : beta(g) does not meet a}, and one with F nonempty exactly
    when F_a is also nonempty.  Every nonzero a is tried, in ascending
    order, with no reduction to minimal ones; the witness is the first
    failing (F_a, G_a).  `le` and `meets_refl` are read from their tables
    in `_matrices`, and `_fast_covers` is `naive_covers` on them, so a
    63-element source takes a fraction of a second.
    """
    B, A = beta.source, beta.target
    le_, mr = _matrices(A)
    tight_w = tightish_w = None
    for a in range(A.size):
        if a == A.zero:
            continue
        F = {x for x, t in enumerate(beta.assignment) if le_[a][t]}
        G = {g for g, t in enumerate(beta.assignment) if not mr[t][a]}
        if _fast_covers(B, F, G):
            w = (sum(1 << x for x in F), sum(1 << g for g in G))
            tight_w = tight_w or w
            if F:
                tightish_w = w
                break
    return tight_w, tightish_w


def coinitial_witness(beta):
    """The first nonzero target element with no nonzero image below it."""
    A = beta.target
    image = {t for t in beta.assignment if t != A.zero}
    le_, _ = _matrices(A)
    for a in range(A.size):
        if a != A.zero and not any(le_[t][a] for t in image):
            return (a,)
    return None


# ---------------------------------------------------------------------------
# the tight spectrum and the enveloping algebra, by enumeration
#
# These are the routes the closed forms replaced: a submask scan for
# characters, a pairwise scan for centred sets, and the worklist closure
# of the principal regularizations.  Subsets are frozensets; the order and
# meet relations are tabulated once per structure as plain matrices.


@lru_cache(maxsize=None)
def _matrices(B):
    """le(B, z, c) and meets_refl(B, z, d) as nested lists."""
    downs = [down(B, x) for x in range(B.size)]
    le_ = [[downs[z] <= downs[c] for c in range(B.size)] for z in range(B.size)]
    nonzero = [z for z in range(B.size) if z != B.zero]
    return (
        le_,
        [[any(le_[z][x] and le_[z][y] for z in nonzero) for y in range(B.size)]
         for x in range(B.size)],
    )


def _fast_covers(B, C, D):
    le_, mr = _matrices(B)
    return all(
        z == B.zero or any(mr[z][d] for d in D)
        for z in range(B.size)
        if all(le_[z][c] for c in C)
    )


def scan_characters(B, require_empty_cover=True):
    """One-sets M of the zero-preserving two-valued maps that violate no
    cover: no subset F of M covers the complement of M.  The empty F is
    skipped for tightish characters."""
    nonzero = [x for x in range(B.size) if x != B.zero]
    out = []
    for M in subsets(nonzero):
        if not M:
            continue
        comp = set(range(B.size)) - set(M)
        if not any(
            (F or require_empty_cover) and _fast_covers(B, F, comp) for F in subsets(M)
        ):
            out.append(frozenset(M))
    return out


def scan_maximal_centred(B):
    """Maximal sets with a common nonzero lower bound, compared pairwise."""
    le_, _ = _matrices(B)
    centred = [
        frozenset(C)
        for C in subsets(range(B.size))
        if any(z != B.zero and all(le_[z][c] for c in C) for z in range(B.size))
    ]
    return [C for C in centred if not any(C < D for D in centred)]


# ---------------------------------------------------------------------------
# separation and the spectrum checks, by the per-element walks
#
# The routes the separation table replaced, on bitmask rows tabulated from
# `_matrices`: the closure and interior of the punctured carrier whose
# closed sets are the up-closed sets, and the regularization through them;
# the literal loops of the order flags; and the ultrafilter loops over an
# algebra's index space.


def _mask_rows(matrix):
    return tuple(sum(1 << y for y, v in enumerate(row) if v) for row in matrix)


@lru_cache(maxsize=None)
def _refl_rows(B):
    """(preceq, preceq_down, meets_preceq) as bitmask rows."""
    le_, mr = _matrices(B)
    return _mask_rows(le_), _mask_rows(zip(*le_)), _mask_rows(mr)


def alex_closure(B, Y):
    """The nonzero elements above some member of Y."""
    up, _, _ = _refl_rows(B)
    acc = 0
    for y in _members(Y):
        acc |= up[y]
    return acc & ~(1 << B.zero)


def alex_interior(B, Y):
    """The nonzero v whose nonzero elements below all lie in Y."""
    _, dn, _ = _refl_rows(B)
    prime = ((1 << B.size) - 1) & ~(1 << B.zero)
    return sum(1 << v for v in _members(prime) if dn[v] & prime & ~Y == 0)


def regularize(B, Y):
    return alex_interior(B, alex_closure(B, Y))


def regularized_rows(B):
    """rho(x) for each x: the regularized punctured down-set of x."""
    _, dn, _ = _refl_rows(B)
    return tuple(regularize(B, d & ~(1 << B.zero)) for d in dn)


def algebra_mask(B, S, T):
    """The regular open of the atom mask T of B's enveloping algebra S: the
    regularized union of its atoms' open points."""
    acc = 0
    for i in _members(T):
        acc |= S.opens[i]
    return regularize(B, acc)


def literal_order_checks(B):
    """The (name, verdict, witness) triples of the order flags and their
    overall verdict, by the literal loops, with the meets and joins of
    `candidate_lattice_tables`."""
    n, zero = B.size, B.zero
    up, dn, mp = _refl_rows(B)
    mt, jt = candidate_lattice_tables(B)
    anti = next(((x, y) for x in range(n) for y in range(n)
                 if y != x and up[x] >> y & 1 and dn[x] >> y & 1), None)
    meet_w = next(((x, y) for x in range(n) for y in range(x, n) if mt[x][y] is None), None)
    join_w = next(((x, y) for x in range(n) for y in range(x, n) if jt[x][y] is None), None)
    is_msl = anti is None and meet_w is None
    msl_w = anti if anti is not None else meet_w
    is_lat = is_msl and join_w is None
    lat_w = msl_w if not is_msl else join_w
    dist = dist_w = seccomp = seccomp_w = None
    if is_lat:
        dist_w = next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                       if mt[x][jt[y][z]] != jt[mt[x][y]][mt[x][z]]), None)
        dist = dist_w is None
        seccomp_w = next(
            ((y, z) for z in range(n) for y in _members(dn[z])
             if not any(mt[w][y] == zero and jt[w][y] == z for w in range(n))),
            None,
        )
        seccomp = seccomp_w is None
    gba = bool(is_lat and dist and seccomp)

    def separates(x, y):
        # some nonzero v <= x does not meet y
        return any(v != zero and not mp[v] >> y & 1 for v in _members(dn[x]))

    sep_w = anti
    if anti is None:
        sep_w = next(((x, y) for x in range(n) for y in range(n)
                      if not up[x] >> y & 1 and not separates(x, y)), None)
    ssc_w = next(((x, y) for x in range(n) for y in _members(dn[x])
                  if y != x and not separates(x, y)), None)
    checks = (
        ("meet_semilattice", is_msl, None if is_msl else msl_w),
        ("lattice", is_lat, None if is_lat else lat_w),
        ("distributive", dist, dist_w),
        ("section_complemented", seccomp, seccomp_w),
        ("generalized_boolean", gba, None),
        ("separative", sep_w is None, sep_w),
        ("ssc", ssc_w is None, ssc_w),
    )
    return checks, all(c[1] for c in checks)


def loop_ultrafilter_witness(ults, k):
    """The first U, as a bitset over the atom masks of k atoms, that is not
    a proper up-set, closed under meets, holding exactly one of each
    complement pair."""
    size = 1 << k
    top = size - 1
    for i, U in enumerate(ults):
        members = _members(U)
        up_ok = all(T & ~V or U >> V & 1 for T in members for V in range(size))
        directed = all(U >> (T & V) & 1 for T in members for V in members)
        proper = not U & 1
        decides = all((U >> T & 1) != (U >> (top & ~T) & 1) for T in range(size))
        if not (up_ok and directed and proper and decides):
            return (i,)
    return None


def _regular_ops(B):
    """(regularize, negate) on subsets of the punctured carrier."""
    le_, _ = _matrices(B)
    prime = [v for v in range(B.size) if v != B.zero]

    def interior(Y):
        return frozenset(v for v in prime if all(u in Y for u in prime if le_[u][v]))

    def regularize(Y):
        return interior({z for z in prime if any(le_[y][z] for y in Y)})

    return regularize, lambda Y: interior(set(prime) - Y)


@lru_cache(maxsize=None)
def worklist_algebra(B):
    """(elements, rho): the closure of the empty set and the principal
    regularizations under intersection, regularized union and relative
    complement, as a set of frozensets, and rho(x) for each x."""
    le_, _ = _matrices(B)
    regularize, negate = _regular_ops(B)
    rho = [
        regularize({v for v in range(B.size) if v != B.zero and le_[v][x]})
        for x in range(B.size)
    ]
    elements = {frozenset()} | set(rho)
    frontier = set(elements)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(elements):
                for c in (a & b, regularize(a | b), a & negate(b), b & negate(a)):
                    if c not in elements:
                        new.add(c)
        elements |= new
        frontier = new
    return elements, rho


@lru_cache(maxsize=None)
def _lattice_ops(A):
    """Meet and join of the reflexivization, as dicts on index pairs."""
    le_, _ = _matrices(A)

    def extreme(cands, below):
        return next(m for m in cands if all(le_[z][m] if below else le_[m][z] for z in cands))

    pairs = [(a, b) for a in range(A.size) for b in range(A.size)]
    meet = {
        (a, b): extreme([z for z in range(A.size) if le_[z][a] and le_[z][b]], True)
        for a, b in pairs
    }
    join = {
        (a, b): extreme([z for z in range(A.size) if le_[a][z] and le_[b][z]], False)
        for a, b in pairs
    }
    return meet, join


def enumerate_factors(B, A, assignment):
    """Every homomorphism from the worklist algebra of B to the algebra A
    that sends each rho(x) to assignment[x], found by trying all values on
    the atoms; each is a dict from element to value."""
    elements, rho = worklist_algebra(B)
    regularize, _ = _regular_ops(B)
    atoms = [a for a in elements if a and not any(b and b < a for b in elements)]
    meet, join = _lattice_ops(A)
    below = [[i for i, a in enumerate(atoms) if a <= m] for m in rho]
    out = []
    for vals in product(range(A.size), repeat=len(atoms)):

        def value(indices):
            acc = A.zero
            for i in indices:
                acc = join[acc, vals[i]]
            return acc

        if any(value(below[x]) != assignment[x] for x in range(B.size)):
            continue
        pi = {m: value([i for i, a in enumerate(atoms) if a <= m]) for m in elements}
        if all(
            pi[m & n] == meet[pi[m], pi[n]]
            and pi[regularize(m | n)] == join[pi[m], pi[n]]
            for m in elements
            for n in elements
        ):
            out.append(pi)
    return out


# ---------------------------------------------------------------------------
# finite topologies as lists of opens
#
# The representation minimal neighbourhoods replaced: every open is stored,
# generated from a basis by closing under unions, and closure, interior,
# continuity, separation and coinitiality quantify over the opens.  Sets of
# points are bitmasks.


def opens_generated(basis):
    """Every union of members of `basis`, the empty one included, sorted."""
    opens = {0}
    frontier = set(basis)
    while frontier:
        opens |= frontier
        frontier = {a | b for a in frontier for b in opens} - opens
    return sorted(opens)


class OpensTopology:
    def __init__(self, points, opens):
        self.points = points
        self.full = (1 << points) - 1
        self.opens = sorted(opens)
        self._lookup = set(self.opens)

    def is_open(self, mask):
        return mask in self._lookup

    def closure(self, mask):
        away = 0
        for o in self.opens:
            if o & mask == 0:
                away |= o
        return self.full & ~away

    def interior(self, mask):
        inside = 0
        for o in self.opens:
            if o & ~mask == 0:
                inside |= o
        return inside


def every_topology(points):
    """Every topology on `points` points as its sorted opens: the down-sets
    of each preorder (reflexive, transitive relation) on the points."""
    cells = [(p, q) for p in range(points) for q in range(points) if p != q]
    out = []
    for choice in product((False, True), repeat=len(cells)):
        rel = {c for c, on in zip(cells, choice) if on}
        if any((p, r) not in rel for p, q in rel for q2, r in rel if q == q2 and p != r):
            continue
        out.append([
            m for m in range(1 << points)
            if all(m >> p & 1 for p, q in rel if m >> q & 1)
        ])
    return out


def every_family(k):
    """Every family of subsets of a k-set, members ascending: all 2**(2**k)
    of them."""
    for code in range(1 << (1 << k)):
        yield [s for s in range(1 << k) if code >> s & 1]


def closed_hausdorff_families(k):
    """The families of `every_family(k)` that hold the empty set, cover the
    k points, are closed under union and intersection, and put any two
    distinct points in disjoint members."""
    full = (1 << k) - 1
    out = []
    for fam in every_family(k):
        members = set(fam)
        if 0 not in members or reduce(or_, fam, 0) != full:
            continue
        if any(a | b not in members or a & b not in members for a in fam for b in fam):
            continue
        if all(any(a >> p & 1 and b >> q & 1 and a & b == 0 for a in fam for b in fam)
               for p in range(k) for q in range(k) if p != q):
            out.append(fam)
    return out


def sweep_continuity(X, Y, f):
    """The first open of Y, ascending, whose preimage under f is not open."""
    for o in Y.opens:
        pre = sum(1 << p for p, t in enumerate(f) if o >> t & 1)
        if not X.is_open(pre):
            return o
    return None


def sweep_pseudobasis(X, family):
    """(minimum, cover, coinitiality witness, t0 witness, clopen flags)."""
    cover = 0
    for o in family:
        cover |= o
    coin = next(
        ((o,) for o in X.opens if o and not any(m and m & ~o == 0 for m in family)),
        None,
    )
    t0 = next(
        ((p, q) for p in range(X.points) for q in range(p + 1, X.points)
         if all((o >> p & 1) == (o >> q & 1) for o in family)),
        None,
    )
    clopen = tuple(X.is_open(X.full & ~o) for o in family)
    return 0 in family, cover == X.full, coin, t0, clopen


def walk_pseudobasis(X, family):
    """sweep_pseudobasis's tuple on a space given by its minimal
    neighbourhoods: openness through the interior of every point, and the
    point filter of each point by a walk over the family."""
    def is_open(mask):
        return sum(1 << p for p, u in enumerate(X.nbhd) if u & ~mask == 0) == mask

    assert all(is_open(o) for o in family)
    full = (1 << X.points) - 1
    cover = 0
    for o in family:
        cover |= o
    coin = min(((u,) for u in set(X.nbhd) if not any(m and m & ~u == 0 for m in family)),
               default=None)
    sig = [sum(1 << i for i, o in enumerate(family) if o >> p & 1) for p in range(X.points)]
    t0 = next(((p, q) for p in range(X.points) for q in range(p + 1, X.points)
               if sig[p] == sig[q]), None)
    clopen = tuple(is_open(full & ~o) for o in family)
    return 0 in family, cover == full, coin, t0, clopen


def sweep_duality_topology(B, X, basis):
    """(sub_prec, ox_closure, hausdorff) witnesses of the duality report on
    the space X with basic opens `basis`, or None for each."""
    n = B.size
    cl = [X.closure(o) for o in basis]
    sub = next(((x, y) for x in range(n) for y in range(n)
                if (cl[x] & ~basis[y] == 0) != B.has(x, y)), None)

    def meet_above(x):
        inter = X.full
        for y in range(n):
            if B.has(x, y):
                inter &= basis[y]
        return inter

    ox = next(((x,) for x in range(n) if cl[x] != meet_above(x)), None)
    haus = next(
        ((p, q) for p in range(X.points) for q in range(p + 1, X.points)
         if not any(a >> p & 1 and b >> q & 1 and a & b == 0
                    for a in X.opens for b in X.opens)),
        None,
    )
    return sub, ox, haus


# ---------------------------------------------------------------------------
# the relation of a point map and the induced Stone map, by literal loops
#
# The routes `stone.closure_rows` and the fibre preimages replaced: an image
# built point by point and tested against each target, and each preimage
# built by a scan of the map.  Spaces need only `closure` and `is_open`.


def loop_closure_rows(X, f, BX, BY):
    """Row i is {j : f[closure(BX[i])] lies inside BY[j]}."""
    rows = []
    for o in BX:
        img = 0
        for p in _members(X.closure(o)):
            img |= 1 << f[p]
        row = 0
        for j, nbh in enumerate(BY):
            if img & ~nbh == 0:
                row |= 1 << j
        rows.append(row)
    return rows


def loop_stone_map_witnesses(X, basis_x, Y, basis_y, mapping, rel):
    """(continuous, closure_characterization) witnesses of the point map
    `mapping` from X to Y against the relation `rel` between the two
    bases: the first basic open of Y, by index, whose preimage is not
    open, and the first (x, y) at which "mapping sends the closure of
    basis_x[x] into basis_y[y]" differs from x rel y."""
    cont = None
    for y in range(len(basis_y)):
        pre = 0
        for i, t in enumerate(mapping):
            if basis_y[y] >> t & 1:
                pre |= 1 << i
        if not X.is_open(pre):
            cont = (y,)
            break
    char = None
    for x in range(len(basis_x)):
        cl = X.closure(basis_x[x])
        img = 0
        for i in _members(cl):
            img |= 1 << mapping[i]
        for y in range(len(basis_y)):
            sends = img & ~basis_y[y] == 0
            if sends != (rel[x] >> y & 1 == 1):
                char = (x, y)
                break
        if char:
            break
    return cont, char


# ---------------------------------------------------------------------------
# the lattice and interpolator axioms, by the loops the shared laws replaced
#
# The basic-lattice axioms that are interpolator axioms read on the strict
# relation have one implementation in the package, over a relation's rows.
# Kept here: the literal instance predicate of every lattice axiom, the
# interpolator sweep with its own decomposition loop, the three "covered by
# joins" loops of rather-below, prec-below and the recovered relation, and
# the edge-pair loops of the pair laws and the join reach, which take the
# place of the package's row folds in a test.  The bitmask rows come from the set-based definitions above.


@lru_cache(maxsize=None)
def _axiom_tables(B):
    """(down, preceq, preceq_down, perp, meet table, join table): bitmask
    rows of the strict down-sets, the reflexivization both ways and
    disjointness, and the candidate bound tables."""
    preceq_rows, preceq_down_rows, _ = _refl_rows(B)
    down_rows = tuple(sum(1 << z for z in down(B, y)) for y in range(B.size))
    perp = tuple(sum(1 << y for y in range(B.size) if not meets(B, x, y))
                 for x in range(B.size))
    mt, jt = candidate_lattice_tables(B)
    return down_rows, preceq_rows, preceq_down_rows, perp, mt, jt


def axiom_instance(B, name, tup):
    """Evaluate one lattice-axiom instance at the tuple `tup`: a reported
    witness makes its axiom's instance predicate False."""
    down_rows, preceq_rows, _, perp, mt, jt = _axiom_tables(B)
    zero = B.zero
    n = B.size
    prec = B.prec

    def le(a, b):
        return preceq_rows[a] >> b & 1 == 1

    def lt(a, b):
        return prec[a] >> b & 1 == 1

    if name == "minimum":
        (x,) = tup
        return lt(zero, x)
    if name == "transitivity":
        x, y, z = tup
        return not (lt(x, y) and lt(y, z)) or lt(x, z)
    if name == "coinitiality":
        (x,) = tup
        return x == zero or meets(B, x, x)
    if name == "cofinality":
        (x,) = tup
        return prec[x] != 0
    if name == "interpolation":
        x, y = tup
        return not lt(x, y) or bool(prec[x] & down_rows[y])
    if name == "right_auxiliarity":
        x, z, y = tup
        return not (le(x, z) and lt(z, y)) or lt(x, y)
    if name == "riesz_interpolation":
        x, x2, y, y2 = tup
        if not (lt(x, y) and lt(x, y2) and lt(x2, y) and lt(x2, y2)):
            return True
        return bool(prec[x] & prec[x2] & down_rows[y] & down_rows[y2])
    if name == "multiplicativity":
        x, x2, y, y2 = tup
        return not (lt(x, x2) and lt(y, y2)) or lt(mt[x][y], mt[x2][y2])
    if name == "additivity":
        x, x2, y, y2 = tup
        return not (lt(x, x2) and lt(y, y2)) or lt(jt[x][y], jt[x2][y2])
    if name == "decomposition":
        z, x, y = tup
        if not lt(z, jt[x][y]):
            return True
        return any(jt[a][b] == z for a in _members(down_rows[x]) for b in _members(down_rows[y]))
    if name == "vee_interpolation":
        z, x, y = tup
        if not lt(z, jt[x][y]):
            return True
        return any(lt(z, jt[a][b]) for a in _members(down_rows[x]) for b in _members(down_rows[y]))
    if name == "complementation":
        x, y, z = tup
        if not (lt(x, y) and lt(y, z)):
            return True
        return any(jt[w][y] == z for w in _members(perp[x]))
    if name == "distributivity":
        z, x, y = tup
        return le(z, jt[x][y]) == le(z, jt[mt[x][z]][mt[y][z]])
    if name == "rather_below":
        x, y = tup
        rb = all(
            any(le(z, jt[w][y]) for w in _members(perp[x])) for z in range(n)
        )
        return lt(x, y) == rb
    if name == "prec_below":
        x, y = tup
        if not lt(x, y):
            return True
        return all(
            any(lt(z, jt[w][y]) for w in _members(perp[x])) for z in range(n)
        )
    raise KeyError(name)


def _complete(table):
    return all(v is not None for row in table for v in row)


def literal_interpolator_checks(B, C, rel):
    """The (name, verdict, witness) triples of the interpolator axioms of
    the relation with rows `rel` from B to C, and the verdict on the
    defining ones, by the interpolator sweep's own loops.  Source
    auxiliarity walks (z, x, y).  The laws that need meets and joins are
    None unless both bound tables are complete."""
    _, _, preceq_down_b, _, mtB, jtB = _axiom_tables(B)
    downC, preceq_c, _, _, mtC, jtC = _axiom_tables(C)
    full_c = (1 << C.size) - 1

    def mask_of_rel_column(y):
        m = 0
        for x in range(B.size):
            if rel[x] >> y & 1:
                m |= 1 << x
        return m

    minimum = ("minimum", rel[B.zero] == full_c,
               None if rel[B.zero] == full_c else (_members(full_c & ~rel[B.zero])[0],))

    zr_w = next((x for x in range(B.size) if x != B.zero and rel[x] >> C.zero & 1), None)
    zero_reflection = ("zero_reflection", zr_w is None, (zr_w,) if zr_w is not None else None)

    cof_w = next((x for x in range(B.size) if rel[x] == 0), None)
    cofinality = ("cofinality", cof_w is None, (cof_w,) if cof_w is not None else None)

    lt_w = None
    for x in range(B.size):
        for y in _members(rel[x]):
            if rel[x] & downC[y] == 0:
                lt_w = (x, y)
                break
        if lt_w:
            break
    lt_interp = ("target_interpolation", lt_w is None, lt_w)

    pr_w = None
    for x in range(B.size):
        for y in _members(rel[x]):
            if not any(rel[z] >> y & 1 for z in _members(B.prec[x])):
                pr_w = (x, y)
                break
        if pr_w:
            break
    pr_interp = ("source_interpolation", pr_w is None, pr_w)

    mult = ("multiplicativity", None, None)
    add = ("additivity", None, None)
    decomposition = ("decomposition", None, None)
    if all(map(_complete, (mtB, jtB, mtC, jtC))):
        edges = [(x, y) for x in range(B.size) for y in _members(rel[x])]
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
        mult = ("multiplicativity", mult_w is None, mult_w)
        add = ("additivity", add_w is None, add_w)

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
                bad = mask_of_rel_column(target) & ~reach
                if bad:
                    dec_w = (_members(bad)[0], x, y)
                    break
            if dec_w:
                break
        decomposition = ("decomposition", dec_w is None, dec_w)

    leq_w = None
    for x in range(B.size):
        spread = 0
        for z in _members(rel[x]):
            spread |= preceq_c[z]
        if spread & ~rel[x]:
            leq_w = (x, _members(spread & ~rel[x])[0])
            break
    leq_aux = ("target_auxiliarity", leq_w is None, leq_w)

    peq_w = None
    for z in range(B.size):
        for x in _members(preceq_down_b[z]):
            if rel[z] & ~rel[x]:
                peq_w = (x, z, _members(rel[z] & ~rel[x])[0])
                break
        if peq_w:
            break
    peq_aux = ("source_auxiliarity", peq_w is None, peq_w)

    defining = [minimum, zero_reflection, cofinality, lt_interp, pr_interp, mult,
                add, decomposition]
    return defining + [leq_aux, peq_aux], all(c[1] for c in defining)


def auxiliarity_witness_zyx(B, rel):
    """The first (x, z, y) with x <= z in B, z R y and not x R y, walking z,
    then y, then x; None when source auxiliarity holds."""
    _, _, preceq_down_b, _, _, _ = _axiom_tables(B)
    return next(((x, z, y) for z in range(B.size) for y in _members(rel[z])
                 for x in _members(preceq_down_b[z]) if not rel[x] >> y & 1), None)


def _covered(B, rows, x, y):
    """The loop: the rows of the joins of y with the elements disjoint from
    x cover the carrier."""
    _, _, _, perp, _, jt = _axiom_tables(B)
    fm = (1 << B.size) - 1
    covered = 0
    for w in _members(perp[x]):
        covered |= rows[jt[w][y]]
        if covered == fm:
            break
    return covered == fm


def loop_rather_below(B):
    """First (x, y) at which x < y differs from y being covered with the
    `preceq_down` rows, or None."""
    _, _, preceq_down_rows, _, _, _ = _axiom_tables(B)
    return next(((x, y) for x in range(B.size) for y in range(B.size)
                 if _covered(B, preceq_down_rows, x, y) != B.has(x, y)), None)


def loop_prec_below(B):
    """First (x, y), x < y, at which y is not covered with the strict
    down rows, or None."""
    down_rows = _axiom_tables(B)[0]
    return next(((x, y) for x in range(B.size) for y in _members(B.prec[x])
                 if not _covered(B, down_rows, x, y)), None)


def loop_recover_prec(B):
    """The relation recovered from the order: row x holds the y covered
    with the `preceq_down` rows."""
    _, _, preceq_down_rows, _, _, _ = _axiom_tables(B)
    return tuple(sum(1 << y for y in range(B.size) if _covered(B, preceq_down_rows, x, y))
                 for x in range(B.size))


def loop_pair_law(name, tB, tC, rel, concl=None):
    """The pair law as the edge-pair loop the fold replaced: x R x2 and
    y R y2 give tB[x][y] R tC[x2][y2] (related by `concl` when given),
    first failure in edge order, as (name, verdict, witness)."""
    concl = rel if concl is None else concl
    edges = [(x, y) for x in range(len(rel)) for y in _members(rel[x])]
    for x, x2 in edges:
        for y, y2 in edges:
            if not concl[tB[x][y]] >> tC[x2][y2] & 1:
                return name, False, (x, x2, y, y2)
    return name, True, None


def loop_riesz(B):
    """Riesz interpolation by the loop over pairs (x, x2) and pairs of
    their common upper bounds that the row grouping replaced, first
    failure in that order, as a Check."""
    down = _axiom_tables(B)[0]
    for x in range(B.size):
        for x2 in range(x, B.size):
            up = B.prec[x] & B.prec[x2]
            ups = _members(up)
            for i, y in enumerate(ups):
                for y2 in ups[i:]:
                    if up & down[y] & down[y2] == 0:
                        return Check("riesz_interpolation", False, (x, x2, y, y2))
    return Check("riesz_interpolation", True)


def loop_distributivity(B):
    """The lattice sentence z <= x v y iff z <= (x ^ z) v (y ^ z) by the
    loop over every triple (z, x, y), first failure in that order, as a
    Check; distributivity on a lattice, with the candidate bound
    tables."""
    _, preceq_rows, _, _, mt, jt = _axiom_tables(B)
    n = B.size
    for z in range(n):
        zr = preceq_rows[z]
        for x in range(n):
            for y in range(n):
                if (zr >> jt[x][y] & 1) != (zr >> jt[mt[x][z]][mt[y][z]] & 1):
                    return Check("distributivity", False, (z, x, y))
    return Check("distributivity", True)


def loop_join_reach(B, cols):
    """reach[x][y] = {a v b : a R x, b R y}, joins in B, as masks, by the
    loop over pairs (a, b) that the fold replaced."""
    jt = _axiom_tables(B)[5]
    reach = [[0] * len(cols) for _ in cols]
    for x, cx in enumerate(cols):
        for y, cy in enumerate(cols):
            acc = 0
            for a in _members(cx):
                for b in _members(cy):
                    acc |= 1 << jt[a][b]
            reach[x][y] = acc
    return reach


def scan_enumerate(n, reflexive_only):
    """Every structure on n labelled elements with zero = 0, as pair lists,
    by the row scan that the submask enumerator replaced: row k tries all
    2**n rows (for partial orders, every row holding k and not 0) and
    keeps those consistent with the decided rows."""
    fm = (1 << n) - 1
    rows = [0] * n
    rows[0] = fm

    def consistent(k: int) -> bool:
        rk = rows[k]
        for i in range(k + 1):
            ri = rows[i]
            if ri >> k & 1 and rk & ~ri:
                return False
            if rk >> i & 1 and rows[i] & ~rk:
                return False
        return True

    out = []

    def rec(k: int):
        if k == n:
            out.append([(x, y) for x in range(n) for y in _members(rows[x])])
            return
        if reflexive_only:
            base = 1 << k
            free = [j for j in range(1, n) if j != k]
            for pick in range(1 << len(free)):
                row = base
                for idx, j in enumerate(free):
                    if pick >> idx & 1:
                        row |= 1 << j
                rows[k] = row
                if _still_poset(rows, k) and consistent(k):
                    rec(k + 1)
            rows[k] = 0
        else:
            for row in range(1 << n):
                rows[k] = row
                if consistent(k):
                    rec(k + 1)
            rows[k] = 0

    def _still_poset(rows, k):
        # antisymmetry against decided rows
        for i in range(1, k):
            if rows[i] >> k & 1 and rows[k] >> i & 1:
                return False
        return True

    rec(1)
    return out


# ---------------------------------------------------------------------------
# the image-cover equivalence by a sweep over every F
#
# The route `tight.verify_fgrho` took before it compared minimal families
# per key: for each F, both sides as bitsets over every G, with the first
# mismatching (F, G) in ascending order as the witness.

SWEEP_CAP = 8


@lru_cache(maxsize=None)
def _meeting(R: SubsetMask, n: int) -> int:
    """The subsets of range(n) that meet R, as a bitset indexed by subset.
    The cache is bounded: sweep_fgrho calls it with n <= SWEEP_CAP."""
    avoiding = 1
    for b in range(n):
        if not R >> b & 1:
            avoiding |= avoiding << (1 << b)
    return full_mask(1 << n) & ~avoiding


def sweep_fgrho(B: P0Set) -> Report:
    """Check that F covers G exactly when the meet of the rho(x) over F
    lies below the join of the rho(x) over G, for all finite F, G.

    For each F, both sides are bitsets over every G.  F covers G when G
    meets, for each nonzero lower bound e of F, the elements meeting e.
    On atom masks the meet over F lies below the join over G when G
    meets the signature of each atom of the meet.  The witness is the
    first mismatching (F, G) in ascending order.
    """
    if B.size > SWEEP_CAP:
        raise CapExceeded(f"image cover equivalence capped at carrier {SWEEP_CAP}")
    n = B.size
    S = ti.enveloping_algebra(B)
    cap = subset_fold(S.rho_index, and_, full_mask(len(S.signatures)))
    lbt, mp = lower_bound_table(B), meets_preceq(B)
    zb = 1 << B.zero

    def meeting_all(rows) -> int:
        acc = full_mask(1 << n)
        for r in rows:
            acc &= _meeting(r, n)
        return acc

    # both sides depend on F only through (lbt[F], cap[F]); the distinct
    # pairs, in order of first occurrence, keep the ascending witness
    keys = list(zip(lbt, cap))
    w = None
    for lb, c in dict.fromkeys(keys):
        # meets_preceq is symmetric: its row e is {g : e meets g}
        covered = meeting_all(mp[e] for e in bits(lb & ~zb))
        below = meeting_all(S.signatures[i] for i in bits(c))
        diff = covered ^ below
        if diff:
            w = (keys.index((lb, c)), (diff & -diff).bit_length() - 1)
            break
    return report("image_cover_equivalence", [Check("equivalence", w is None, w)])


# ---------------------------------------------------------------------------
# the image-cover equivalence by a closure over keys
#
# The route `tight.verify_fgrho` took before it reduced to n + k instances:
# both sides say that G is a transversal of a family fixed by F's key
# (lower bounds, atom mask of the meet), so each key reached from the empty
# F compares two minimal families.  A crown has one key per set of its
# middle elements, so the closure is refused past KEY_CAP keys.

KEY_CAP = 1 << 12


def transversal_mismatch(one, other, universe: SubsetMask) -> SubsetMask | None:
    """None when the families of masks `one` and `other` have the same
    transversals in `universe` (the G meeting every member), or else a G
    that is a transversal of exactly one of them.

    Two families have the same transversals exactly when they have the same
    minimal members (Edmonds and Fulkerson, "Bottleneck extrema", 1970).  A
    set meets every member when it meets every minimal one.  Conversely,
    let M be the least mask in the symmetric difference of the minimal
    families, say minimal in `one`: G = universe - M misses M.  A member of
    `other` inside M would hold a minimal one M', not M, which is not
    minimal in `other`.  Either M' is not minimal in `one`, a smaller mask
    of the difference, or it is, and nested in M; both contradict the
    choice of M, so G meets all of `other`.
    """
    def minimal(rows):
        rows = set(rows)
        return {r for r in rows if not any(s != r and s & ~r == 0 for s in rows)}

    diff = minimal(one) ^ minimal(other)
    return universe & ~min(diff) if diff else None


def key_closure_fgrho(B: P0Set) -> Report:
    """The image-cover equivalence at every key reached from the empty F.

    The families are the `meets_preceq` rows of the nonzero lower bounds
    and the columns {g : bit i of `rho_index[g]`} of the meet's atoms.
    Keys are meets of the pairs (`preceq_down[x]`, `rho_index[x]`); the
    witness is the largest F of the first key found failing, and its G.
    """
    S = ti.enveloping_algebra(B)
    mp, carrier = meets_preceq(B), full_mask(B.size)
    cols = transpose(S.rho_index, len(S.signatures))
    gens = tuple(zip(derived_relations(B).preceq_down, S.rho_index))
    keys = [(carrier, full_mask(len(S.signatures)))]  # F = {}, then each new meet
    seen = set(keys)
    for lb, cap in keys:
        rows = (mp[e] for e in bits(lb & ~(1 << B.zero)))
        G = transversal_mismatch(rows, (cols[i] for i in bits(cap)), carrier)
        if G is not None:
            F = sum(1 << x for x, (d, r) in enumerate(gens) if not (lb & ~d | cap & ~r))
            return report("image_cover_equivalence", [Check("equivalence", False, (F, G))])
        for key in ((lb & d, cap & r) for d, r in gens):
            if key not in seen:
                seen.add(key)
                keys.append(key)
        if len(keys) > KEY_CAP:
            raise CapExceeded(f"image cover equivalence capped at {KEY_CAP} keys")
    return report("image_cover_equivalence", [Check("equivalence", True)])


# ---------------------------------------------------------------------------
# map classification by ascending minimal covering pairs
#
# The route `tight.map_properties` took before it read maximal centred
# sets: one table per source of its minimal covering pairs, built from two
# 2**n subset tables, and a target test of each, with the first failing
# pair in ascending (F, G) order as the witness.

ASCENDING_CAP = 10


@structure_table
def minimal_cover_pairs(B: P0Set):
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


def ascending_map_witnesses(beta):
    """(tight witness, tightish witness) of a map, or None for each, from
    the source's minimal covering pairs.

    Every failing pair lies above a failing minimal covering pair, so only
    those (`minimal_cover_pairs`, one table per source) get a target test.
    The witnesses are those of the sweep over all pairs in ascending
    (F, G) order: a subset of F is a smaller integer, so the first failing
    pair with F nonzero is itself minimal, and tight's witness is the
    first failing G of row 0, or else tightish's.  The target side is a
    fold over the assignment; the source carrier is capped.
    """
    B, A = beta.source, beta.target
    img = beta.assignment
    if B.size > ASCENDING_CAP:
        raise CapExceeded(f"map classification capped at source carrier {ASCENDING_CAP}")
    downA, mpA = derived_relations(A).preceq_down, meets_preceq(A)
    primeA = full_mask(A.size) & ~(1 << A.zero)

    tight_w = tightish_w = None
    for F, fs, entries in minimal_cover_pairs(B):
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
    return tight_w, tightish_w


# ---------------------------------------------------------------------------
# the package's own routes that only the tests call
#
# Not oracles: views of the package's results, and routes the gate and the
# command line do not need, kept beside the tests that read them.


def spectrum_space(B):
    """Discrete space on the tight characters of B with the principal opens
    as designated pseudobasis (see `spectrum._principal_opens`)."""
    return spectrum._principal_opens(B)[0]


def theta_witness(B, n):
    """First (x, y) violating the level-n sentence: whenever some n-tuple
    w_1..w_n < y leaves no nonzero v < x disjoint from all w_i, then x < y.
    Read from the package's full-support failures at level n."""
    return axioms._first_hit(axioms._theta_failures(B), axioms._level(n))


def psi_holds(B, x, y, z, n):
    """Level-n complementation-failure formula at (x, y, z).

    x < y and for every y' < y and every choice of n pairs v_i < w_i with
    w_i disjoint from x, some nonzero z' < z is disjoint from y' and all
    v_i.  When nothing at all is disjoint from x the inner quantifier is
    vacuous and the formula reduces to x < y.  Only the set V of chosen
    v_i matters, and failure is monotone under enlarging it, so V ranges
    over the n-element sets of candidates, or all of them when there are
    at most n.  The rows are the package's; the sets and their covers are
    built here.
    """
    if n < 1:
        raise ValueError("type level must be >= 1")
    if not B.has(x, y):
        return False
    perp, low = derived_relations(B).perp, prec_down(B)
    if perp[x] == 0:
        return True
    support = 0
    for w in _members(perp[x]):
        support |= low[w]
    pool = _members(support)
    return all(low[y] & ~_psi_cover(B, sum(1 << v for v in vs), z) == 0
               for vs in combinations(pool, min(n, len(pool))))


@lru_cache(maxsize=None)
def _psi_cover(B, V, z):
    """The union of the perp[z'] over the nonzero z' < z that meet no
    member of V."""
    der = derived_relations(B)
    cover = 0
    for zp in _members(prec_down(B)[z]):
        if zp != B.zero and der.meets[zp] & V == 0:
            cover |= der.perp[zp]
    return cover


def _covers_fast(B):
    lbt, mut = lower_bound_table(B), meets_preceq_table(B)
    zb = 1 << B.zero

    def fast(C: int, D: int) -> bool:
        return lbt[C] & ~(mut[D] | zb) == 0

    return fast


def _gba_relcomp_table(A):
    n = A.size
    return tuple(
        tuple(relative_complement(A, x, y) for y in range(n)) for x in range(n)
    )


def _join_fold(A, items) -> int:
    _, jt = lattice_tables(A)
    acc = A.zero
    for t in items:
        acc = jt[acc][t]
    return acc


def verify_tight_equivalences(beta):
    """The four reformulation clauses around tightness.

    (a) tightish plus one matched total cover implies tight.
    (b) on a meet-semilattice source with algebra target, tightish is
        meet preservation plus join domination, and tight adds the
        total-cover-to-maximum rule.
    (c) between algebras, tightish = lattice homomorphism with zero kept
        = homomorphism also preserving relative complements.
    (d) the bounded-cover reformulation agrees with covers on all triples.
    Clauses whose structural preconditions fail are reported as skipped.
    The map's verdicts come from `tight.map_properties`, looked up on the
    module, so that a test can plant them.
    """
    B, A = beta.source, beta.target
    props = ti.map_properties(beta)
    tight = props.holds("tight")
    tightish = props.holds("tightish")
    fast_s = _covers_fast(B)
    predsB = order_predicates(B)
    predsA = order_predicates(A)

    # (a) covering the empty set is upward closed in G on both sides, so
    # some G is a matched total cover iff the whole carrier is one
    mpA, primeA = meets_preceq(A), full_mask(A.size) & ~(1 << A.zero)
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
                if downx & ~union_rows(mpB, G, 1 << B.zero):
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
        dct = subset_fold(derived_relations(B).preceq_down, or_, 0)
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


def factoring_by_maps(structures, targets):
    """The enumeration `universal_factoring` ran before it went through
    coordinate characters: every zero-preserving map from each structure
    into each target, as (beta, its `map_properties` report, its
    `factor_tight` factor or None where it is not tightish)."""
    for B in structures:
        for A in targets:
            for beta in ti.zero_preserving_maps(B, A):
                props = ti.map_properties(beta)
                yield beta, props, ti.factor_tight(beta) if props.holds("tightish") else None


# ---------------------------------------------------------------------------
# the subset laws by the 2**n table route
#
# `saturation.verify_subset_laws` decides each clause on polynomially many
# instances.  The route it replaced tabulates each relation as rows over
# all subsets by superset folds, and decides every clause by bitset
# operations on those rows.  rows[C] is the bitset {D : C rel D} over the
# subsets D of the carrier.  Each helper decides one universally
# quantified law and returns its first witness in ascending quantifier
# order, the one the literal clause loops return, or None when the law
# holds.  A table has few distinct rows, so the helpers that pair rows
# work on the classes of subsets sharing a row and look for the witness in
# the first failing class.

TABLE_LAWS_CAP = 8


def superset_fold(table, op) -> list:
    """[S] = table[T] combined by `op` over every T containing S, for every
    subset S (bitmask indices): the fast zeta transform.

    The pass for bit b folds each block of entries holding b into the
    block just below it, the same subsets without b.  `op` must be
    commutative and associative.
    """
    t = list(table)
    b = 1
    while b < len(t):
        for lo in range(0, len(t), 2 * b):
            t[lo:lo + b] = map(op, t[lo:lo + b], t[lo + b:lo + 2 * b])
        b *= 2
    return t


def _rows_within(values) -> list[int]:
    """rows[S] = {D : S inside values[D]} for every subset S, as bitsets
    over the subsets D: each D is set at its own value, and the superset
    fold carries it down to every subset of that value."""
    table = [0] * len(values)
    for D, v in enumerate(values):
        table[v] |= 1 << D
    return superset_fold(table, or_)


class SubsetRows(NamedTuple):
    """The relation tables of the table route, each row C the bitset
    {D : C rel D}: C prec D, C precsim D, C wayb D, precsim read from the
    down-closure of C under the reflexivization, C inside the down-closure
    of D, and C inside the saturation of D."""

    prec: list[int]
    precsim: list[int]
    wayb: list[int]
    precsim_refl: list[int]
    below: list[int]
    saturated: list[int]


def _subset_tables(B: P0Set):
    """(dc, mu, dcp, sat) over every subset: the strict down-closure, the
    union of meet rows, the down-closure under the reflexivization, and
    the saturation, the saturated part of mu[dc[A]] | zero."""
    der = derived_relations(B)
    dc = subset_fold(prec_down(B), or_, 0)
    mu = subset_fold(der.meets, or_, 0)
    dcp = subset_fold(der.preceq_down, or_, 0)
    down, zb = prec_down(B), 1 << B.zero
    sat = tuple(sum(1 << y for y, d in enumerate(down) if not d & ~(mu[S] | zb)) for S in dc)
    return dc, mu, dcp, sat


def subset_rows(B: P0Set) -> SubsetRows:
    dc, mu, dcp, sat = _subset_tables(B)
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
        saturated=_rows_within(sat),
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


def table_subset_clauses(B: P0Set) -> dict:
    """{clause: first witness or None} for every clause of
    `saturation.verify_subset_laws`, ungated, by the table route; the
    multiplicative clauses only on a meet semilattice."""
    if B.size > TABLE_LAWS_CAP:
        raise CapExceeded(f"table route capped at carrier {TABLE_LAWS_CAP}")
    n = B.size
    dc, _, dcp, sat = _subset_tables(B)
    rows = subset_rows(B)
    prec_rows, sim_rows, wayb_rows = rows.prec, rows.precsim, rows.wayb
    out = {}
    for name, r in (("prec", prec_rows), ("precsim", sim_rows), ("wayb", wayb_rows)):
        out[f"{name}_transitive"] = _transitive_witness(r)
        out[f"{name}_left_union"] = _left_union_witness(r)
        out[f"{name}_right_monotone"] = _right_monotone_witness(r)
    if order_predicates(B).holds("meet_semilattice"):
        mult = _multiplicative_witnesses(
            (prec_rows, sim_rows, wayb_rows), _wedge_table(B), dc)
        for name, w in zip(("prec", "precsim", "wayb"), mult):
            out[f"{name}_multiplicative"] = w
    out["below_implies_precsim"] = first_pair(a & ~b for a, b in zip(rows.below, sim_rows))
    out["precsim_reflexivized_form"] = first_pair(map(xor, sim_rows, rows.precsim_refl))
    out["finite_prec_implies_wayb"] = first_pair(a & ~b for a, b in zip(prec_rows, wayb_rows))
    out["wayb_through_interpolant_back"] = _composition_witness(wayb_rows, prec_rows, wayb_rows)
    out["wayb_through_interpolant"] = _interpolant_witness(wayb_rows, prec_rows)
    out["precsim_wayb_absorb"] = _composition_witness(sim_rows, wayb_rows, wayb_rows)
    out["wayb_implies_precsim"] = first_pair(a & ~b for a, b in zip(wayb_rows, sim_rows))
    out["saturation_members"] = first_pair(map(xor, rows.saturated, wayb_rows))
    out["strict_down_in_saturation"] = _first(map(and_, dc, map(invert, sat)))
    # each of these compares outer[inner[A]] with sat[A] for every A
    for name, outer, inner in (
        ("saturation_down_closed", dcp, sat),
        ("saturation_of_down_closure", sat, dcp),
        ("saturation_of_strict_down", sat, dc),
        ("saturation_idempotent", sat, sat),
    ):
        out[name] = _first(map(ne, map(outer.__getitem__, inner), sat))
    out["saturation_monotone"] = next(
        ((A, b) for A in range(1 << n) for b in bits(full_mask(n) & ~A)
         if sat[A] & ~sat[A | 1 << b]),
        None,
    )
    out["saturation_precsim_source"] = _first(
        not sim_rows[S] >> A & 1 for A, S in enumerate(sat))
    out["wayb_saturation_invariant"] = _saturation_invariant_witness(wayb_rows, sat)
    return out



# ---------------------------------------------------------------------------
# the frame laws by the 2**n table route
#
# `saturation.verify_frame` decides the frame laws through the characters
# at every carrier size.  The route it replaced reads the saturation of
# every subset and the pointwise wedges of every pair of subsets, tables
# folded over the subsets, and decides each law on whole rows of them.
# The character identity is checked here over every subset too.  The
# package's generator rows and characters are read at call time, so rows
# planted in `saturation` reach both routes.

SUBSET_CAP = 12


@structure_table
def saturation_table(B: P0Set) -> tuple[SubsetMask, ...]:
    """[A] = the saturation of A, for every subset A of the carrier: the
    saturated part of T_A, folded over the generator rows."""
    if B.size > SUBSET_CAP:
        raise CapExceeded(f"saturation tables capped at carrier {SUBSET_CAP}")
    down = prec_down(B)
    rows = saturation._generator_rows(B)
    return tuple(saturation._inside(down, t) for t in subset_fold(rows, or_, 1 << B.zero))


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


def saturated_family(B: P0Set, generators: str = "finite"):
    """The distinct saturations of the chosen generator class, ascending.

    finite: the package's family, from the unions of generator rows.
    singletons: one saturation per carrier element.  all: the union of
    the saturations of the finite parts of each subset, a superset fold of
    the reversed saturation table (reversal complements the subsets).  In
    a finite carrier `finite` and `all` coincide, and the modes exist to
    cross-check each other.
    """
    if generators == "finite":
        return saturation.saturated_family(B)
    if generators == "singletons":
        raw = {saturation.saturate(B, 1 << x) for x in range(B.size)}
    elif generators == "all":
        raw = set(superset_fold(saturation_table(B)[::-1], or_))
    else:
        raise ValueError(f"unknown generator class {generators!r}")
    return tuple(sorted(raw))


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


def _family_basic_lattice(B, sets, index, zero):
    """Whether the sets ordered by way-below form a basic lattice.  The
    family structure is built only when it has at most MAX_SIZE members,
    the carrier cap: past it the verdict is None.  A relation that is not
    transitive or has no minimum makes no structure, and the verdict is
    False."""
    if len(sets) > MAX_SIZE:
        return None
    pairs = [(i, j) for i, s in enumerate(sets) for j, t in enumerate(sets)
             if saturation.subset_wayb(B, s, t)]
    try:
        return axioms.is_basic_lattice(p0set(len(sets), index[zero], pairs))
    except InputError:
        return False


def _table_laws(B: P0Set) -> dict:
    """The nine frame laws that `verify_frame` reads through the
    characters, read from the saturation table and the pointwise wedges,
    as checks by name."""
    n = B.size
    # the laws read the saturation table and its distinct values; the
    # union route and the finite-parts formula must give the same family
    sat = saturation_table(B)
    sing = [sat[1 << x] for x in range(n)]
    sets = tuple(sorted(set(sat)))
    coincide = (
        saturated_family(B, "finite") == sets == saturated_family(B, "all")
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

    # meet rule: saturation of the pointwise meets is the intersection
    wedge = _wedge_table(B)
    meet_w = _first_mismatch(
        ([*map(sat.__getitem__, wedge[A])], [*map(and_, sat, repeat(sat[A]))])
        for A in range(nsub)
    )

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
         if (s & ~t == 0) != saturation.subset_wayb(B, s, t)),
        None,
    )

    dense_w = None
    for m in sets:
        gens = sum(1 << x for x in range(n) if sing[x] & ~m == 0)
        if sat[gens] != m:
            dense_w = (m,)
            break

    checks = (
        Check("families_coincide", coincide),
        Check("join_rule", sup_w is None, sup_w),
        Check("meet_rule", meet_w is None, meet_w),
        Check("intersection_closed", closed_w is None, closed_w),
        Check("frame_distributivity", dist_w is None, dist_w),
        Check("waybelow_matches", wb_w is None, wb_w),
        Check("finite_family_basic_lattice",
              _family_basic_lattice(B, sets, index, sat[0])),
        Check("singletons_join_dense", dense_w is None, dense_w),
        Check("finite_sup_dense", coincide),
    )
    return {c.name: c for c in checks}


def _held(B):
    """[y] = the indices of the characters holding y, as a set."""
    chars = maximal_centred_sets(B)
    return [{i for i, c in enumerate(chars) if c >> y & 1} for y in range(B.size)]


def _by_characters(held, A):
    """{y : every character holding y holds a member of A}, as a mask."""
    reached = set().union(*(held[a] for a in _members(A)))
    return sum(1 << y for y, h in enumerate(held) if h <= reached)


def table_character_representation(B: P0Set):
    """The first failure of the character identity, read over every
    subset A of the saturation table, ("identity", A); of a private
    element, ("private", i) for the first character that holds no element
    alone; or of the meet rows, ("meet", x, y) for the first x <= y (by
    index) whose meet is held by other characters than both hold; or None.
    Meets are the oracle's."""
    held, sat, n = _held(B), saturation_table(B), B.size
    A = next((A for A in range(1 << n) if sat[A] != _by_characters(held, A)), None)
    if A is not None:
        return ("identity", A)
    alone = {min(h) for h in held if len(h) == 1}
    i = next((i for i in range(len(maximal_centred_sets(B))) if i not in alone), None)
    if i is not None:
        return ("private", i)
    return next((("meet", x, y) for x in range(n) for y in range(x, n)
                 if held[naive_meet(B, x, y)] != held[x] & held[y]), None)


def table_frame_checks(B: P0Set) -> dict:
    """Every check of `saturation.verify_frame` by the table route, by
    name: the semilattice check, the character identity over every
    subset, the singleton isomorphism from the table's singleton rows, and
    the nine table laws."""
    sat, n = saturation_table(B), B.size
    sing = [sat[1 << x] for x in range(n)]
    iso_w = next(((x,) for x in range(n) if sing.index(sing[x]) != x), None) or next(
        ((x, y) for x, y in product(range(n), repeat=2)
         if B.has(x, y) != saturation.subset_wayb(B, sing[x], sing[y])), None)
    rep_w = table_character_representation(B)
    checks = {
        "basic_semilattice": Check("basic_semilattice", axioms.is_basic_semilattice(B)),
        "character_representation": Check("character_representation", rep_w is None, rep_w),
        "singleton_isomorphism": Check("singleton_isomorphism", iso_w is None, iso_w),
    }
    checks.update(_table_laws(B))
    return checks


def frame_instance_fails(B: P0Set, name: str, w) -> bool:
    """Whether w is a failing instance of the frame check `name`, read
    from the law's statement with the package's `saturate` and
    `subset_wayb`; the family is the saturations of every subset, so the
    carrier must be small.  A set is saturated when it is its own
    saturation."""
    n = B.size

    def sat(A):
        return saturation.saturate(B, A)

    def wayb(s, t):
        return saturation.subset_wayb(B, s, t)

    family = {sat(A) for A in range(1 << n)}
    sing = [sat(1 << x) for x in range(n)]
    if name == "character_representation":
        held = _held(B)
        if w[0] == "identity":
            return sat(w[1]) != _by_characters(held, w[1])
        return {w[1]} not in held
    if name == "singleton_isomorphism":
        if len(w) == 1:
            return sing.index(sing[w[0]]) != w[0]
        return B.has(*w) != wayb(sing[w[0]], sing[w[1]])
    if name == "families_coincide":
        return sat(w[0]) != reduce(or_, map(sat, submasks(w[0])))
    if name == "join_rule":
        A, C = w
        j, both = sat(A | C), sat(A) | sat(C)
        return bool(both & ~j) or any(not both & ~m and j & ~m for m in family)
    if name == "meet_rule":
        A, C = w
        wedge = sum(1 << naive_meet(B, a, c) for a in _members(A) for c in _members(C))
        return sat(wedge) != sat(A) & sat(C)
    if name == "intersection_closed":
        s, t = w
        return sat(s) == s and sat(t) == t and sat(s & t) != s & t
    if name == "frame_distributivity":
        s, t, u = w
        return {s, t, u} <= family and s & sat(t | u) != sat(s & t | s & u)
    if name == "waybelow_matches":
        s, t = w
        return {s, t} <= family and (s & ~t == 0) != wayb(s, t)
    (m,) = w
    if name == "singletons_join_dense":
        return m in family and sat(sum(1 << x for x in range(n) if not sing[x] & ~m)) != m
    if name == "finite_sup_dense":
        return m in family and sat(reduce(or_, (s for s in family if not s & ~m), 0)) != m
    raise KeyError(name)
