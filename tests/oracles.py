"""Independent reference implementations used to freeze expected values.

Everything here works with plain sets and literal quantifier loops, no
bitmasks and no shared code with the package, so agreement is a real
cross-check rather than a tautology.  The last section is the exception:
accessors over the package's own results that only the tests read.
"""

from functools import lru_cache
from itertools import chain, combinations, product
from typing import NamedTuple


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


def le(B, x, y):
    return down(B, x) <= down(B, y)


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


def loop_pair_law(name, tB, tC, rel):
    """The pair law as the edge-pair loop the fold replaced: x R x2 and
    y R y2 give tB[x][y] R tC[x2][y2], first failure in edge order, as
    (name, verdict, witness)."""
    edges = [(x, y) for x in range(len(rel)) for y in _members(rel[x])]
    for x, x2 in edges:
        for y, y2 in edges:
            if not rel[tB[x][y]] >> tC[x2][y2] & 1:
                return name, False, (x, x2, y, y2)
    return name, True, None


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
# accessors over the package
#
# Not oracles: views of the package's own results that only tests read.


def spectrum_space(B):
    """Discrete space on the tight characters of B with the principal opens
    as designated pseudobasis (see `spectrum._principal_opens`)."""
    from orderbench import spectrum

    return spectrum._principal_opens(B)[0]
