"""Independent reference implementations used to freeze expected values.

Everything here works with plain sets and literal quantifier loops, no
bitmasks and no shared code with the package, so agreement is a real
cross-check rather than a tautology.
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


def naive_ultrafilters(B):
    full = frozenset(range(B.size))
    proper = [U for U in naive_filters(B) if U != full and U]
    return [U for U in proper if not any(V > U for V in proper)]


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
    psi = next(((x, y, z) for x in range(n) for y in range(n) if B.has(x, y)
                for z in range(n) if sweep_psi(B, x, y, z, bound)), None)
    return theta, phi, psi


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
def _order_matrices(S):
    """le(S, z, c) and meets_refl(S, z, d) as nested lists."""
    return (
        [[le(S, z, c) for c in range(S.size)] for z in range(S.size)],
        [[meets_refl(S, z, d) for d in range(S.size)] for z in range(S.size)],
    )


def _cover_masks(S, images, nsub):
    """(lower[C], meeting[D]) over source subsets C, D whose members are
    sent to `images` in S: the nonzero common lower bounds of the image of
    C, and the elements meeting some member of the image of D."""
    le_, mr = _order_matrices(S)
    lower, meeting = [], []
    for C in range(nsub):
        img = [images[c] for c in _members(C)]
        lower.append(sum(
            1 << z for z in range(S.size)
            if z != S.zero and all(le_[z][c] for c in img)
        ))
        meeting.append(sum(
            1 << z for z in range(S.size) if any(mr[z][d] for d in img)
        ))
    return lower, meeting


def sweep_map_witnesses(beta):
    """(tight witness, tightish witness) of a map, or None for each.

    A pair (F, G) fails when F covers G in the source but the image of F
    does not cover the image of G in the target.  The tightish witness is
    the first failing pair with F nonzero, in ascending (F, G) order; the
    tight witness is the first failing pair with F = 0, or else the
    tightish one.
    """
    B, A = beta.source, beta.target
    nsub = 1 << B.size
    lowB, meetB = _cover_masks(B, range(B.size), nsub)
    lowA, meetA = _cover_masks(A, beta.assignment, nsub)
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
    for a in range(A.size):
        if a != A.zero and not any(le(A, t, a) for t in image):
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
    return (
        [[le(B, z, c) for c in range(B.size)] for z in range(B.size)],
        [[meets_refl(B, z, d) for d in range(B.size)] for z in range(B.size)],
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
