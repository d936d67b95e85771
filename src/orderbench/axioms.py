"""Axiom-system verifiers: basic lattices, alternate axiom bundles, and the
type-omission conditions defining basic semilattices.

Every verifier returns a Report whose False entries carry a witness tuple,
the first failing instance of its quantifiers in ascending order.  The
sweeps read bitmask rows, so that whole-catalog runs stay cheap.

The strict relation of a basic lattice is its identity interpolator, and
seven of the lattice axioms are interpolator axioms read on that relation.
Each of those has one implementation below, over the rows `rel` of a
relation from a source B to a target C and their columns `cols`
(cols[y] masks {x : x R y}); the structure checks pass `_identity(B)`,
and `morphisms.is_interpolator` passes an interpolator's relation.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, count
from operator import or_

from .core import (
    P0Set,
    SubsetMask,
    bit_list,
    bits,
    derived_relations,
    first_pair,
    full_mask,
    lattice_tables,
    mask_from,
    order_predicates,
    prec_down,
    structure_table,
    union_rows,
)
from .errors import NotLattice, PreconditionFailed
from .report import Check, Report, report

#: The defining axioms beyond lattice-hood; the overall verdict is their
#: conjunction with lattice-hood.
DEFINING = ("coinitiality", "cofinality", "interpolation", "multiplicativity",
            "additivity", "decomposition", "complementation")

#: Derived properties reported alongside but not gating the verdict.
DERIVED = ("distributivity", "rather_below", "prec_below",
           "right_auxiliarity", "riesz_interpolation", "vee_interpolation")


# ---------------------------------------------------------------------------
# the laws a relation shares with the identity interpolator


def _identity(B: P0Set):
    """(source, target, rows, columns) of the strict relation of B."""
    return B, B, B.prec, prec_down(B)


def minimum(B: P0Set, C: P0Set, rel, cols) -> Check:
    """The source's zero is related to every target element."""
    gap = full_mask(C.size) & ~rel[B.zero]
    return Check("minimum", gap == 0, (next(bits(gap)),) if gap else None)


def cofinality(B: P0Set, C: P0Set, rel, cols) -> Check:
    """Every source element is related to something."""
    w = next((x for x, row in enumerate(rel) if row == 0), None)
    return Check("cofinality", w is None, None if w is None else (w,))


def interpolation(B: P0Set, C: P0Set, rel, cols) -> Check:
    """x R y gives some z with x R z and z < y in the target."""
    down = prec_down(C)
    for x, row in enumerate(rel):
        for y in bits(row):
            if row & down[y] == 0:
                return Check("interpolation", False, (x, y))
    return Check("interpolation", True)


def _pair_law(name: str, tB, tC, rel) -> Check:
    """x R x2 and y R y2 give tB[x][y] R tC[x2][y2].

    One side folds first: fold[x2][k] masks the tC[x2][y2] over y2 in the
    k-th distinct nonzero row, and the law holds at (x, y) when the
    fold[x2][k] over x R x2, k the row of y, lie inside rel[tB[x][y]].
    That union depends on x only through its row too, so each pair of
    distinct rows is folded once: O(n^3) where the pairs of edges are
    O(n^4).  The first x that fails is rescanned edge by edge, so the
    witness is the first (x, x2, y, y2) in edge order.
    """
    rows = list(dict.fromkeys(row for row in rel if row))
    kind = {row: k for k, row in enumerate(rows)}
    members = [bit_list(row) for row in rows]
    targets = bit_list(reduce(or_, rows, 0))
    fold = {}
    for x2 in targets:
        shifted, t2 = [0] * len(tC), tC[x2]
        for y2 in targets:
            shifted[y2] = 1 << t2[y2]
        fold[x2] = [reduce(or_, map(shifted.__getitem__, m)) for m in members]
    reached = {row: [reduce(or_, c) for c in zip(*(fold[x2] for x2 in bits(row)))]
               for row in rows}
    ys = [(y, kind[row]) for y, row in enumerate(rel) if row]
    for x, _ in ys:
        r, t = reached[rel[x]], tB[x]
        if any(r[k] & ~rel[t[y]] for y, k in ys):
            return Check(name, False, next(
                (x, x2, y, y2) for x2 in bits(rel[x]) for y, _ in ys for y2 in bits(rel[y])
                if not rel[t[y]] >> tC[x2][y2] & 1))
    return Check(name, True)


def multiplicativity(B: P0Set, C: P0Set, rel, cols) -> Check:
    return _pair_law("multiplicativity", lattice_tables(B)[0], lattice_tables(C)[0], rel)


def additivity(B: P0Set, C: P0Set, rel, cols) -> Check:
    return _pair_law("additivity", lattice_tables(B)[1], lattice_tables(C)[1], rel)


@lru_cache(maxsize=4096)
def _join_reach(B: P0Set, cols) -> tuple[tuple[int, ...], ...]:
    """reach[x][y] = {a v b : a R x, b R y}, joins in B, as masks; feeds
    decomposition and vee-interpolation.  One side folds first:
    fold[cy][a] masks the a v b over b in the column cy, and reach[x][y]
    joins the fold[cols[y]][a] over a R x.  Each pair of distinct columns
    is folded once: O(n^3) where the pairs (a, b) are O(n^4)."""
    _, jt = lattice_tables(B)
    related = bit_list(reduce(or_, cols, 0))
    shifted = [None] * B.size
    for a in related:
        shifted[a], ja = [0] * B.size, jt[a]
        for b in related:
            shifted[a][b] = 1 << ja[b]
    members = {c: bit_list(c) for c in cols}
    fold = {}
    for cy, m in members.items():
        fold[cy] = [0] * B.size
        for a in related:
            fold[cy][a] = reduce(or_, map(shifted[a].__getitem__, m), 0)
    reach = {cx: {cy: reduce(or_, map(fold[cy].__getitem__, mx), 0) for cy in members}
             for cx, mx in members.items()}
    return tuple(tuple(map(reach[cx].__getitem__, cols)) for cx in cols)


def decomposition(B: P0Set, C: P0Set, rel, cols) -> Check:
    """z R (x v y) in the target gives z = a v b with a R x and b R y."""
    _, jt = lattice_tables(C)
    reach = _join_reach(B, cols)
    for x in range(C.size):
        for y in range(C.size):
            bad = cols[jt[x][y]] & ~reach[x][y]
            if bad:
                return Check("decomposition", False, (next(bits(bad)), x, y))
    return Check("decomposition", True)


def auxiliarity(B: P0Set, C: P0Set, rel, cols) -> Check:
    """x <= z in the source and z R y give x R y, first failure in (z, y, x)
    order."""
    preceq_down = derived_relations(B).preceq_down
    for z, row in enumerate(rel):
        for y in bits(row):
            bad = preceq_down[z] & ~cols[y]
            if bad:
                return Check("right_auxiliarity", False, (next(bits(bad)), z, y))
    return Check("right_auxiliarity", True)


# ---------------------------------------------------------------------------
# the structure-only sweeps (bitmask rows, witness on first failure)


def _sweep_transitivity(B: P0Set) -> Check:
    for x in range(B.size):
        row = B.prec[x]
        for y in bits(row):
            gap = B.prec[y] & ~row
            if gap:
                return Check("transitivity", False, (x, y, next(bits(gap))))
    return Check("transitivity", True)


def _sweep_coinitiality(B: P0Set) -> Check:
    down = prec_down(B)
    zb = 1 << B.zero
    for x in range(B.size):
        if x != B.zero and down[x] & ~zb == 0:
            return Check("coinitiality", False, (x,))
    return Check("coinitiality", True)


def _sweep_riesz(B: P0Set) -> Check:
    down = prec_down(B)
    n = B.size
    for x in range(n):
        for x2 in range(x, n):
            up = B.prec[x] & B.prec[x2]
            if up == 0:
                continue
            ups = bit_list(up)
            for i, y in enumerate(ups):
                for y2 in ups[i:]:
                    if up & down[y] & down[y2] == 0:
                        return Check("riesz_interpolation", False, (x, x2, y, y2))
    return Check("riesz_interpolation", True)


# cached: the lattice report, the semilattice report and its fast verdict
# each ask for it
@structure_table
def _sweep_multiplicativity(B: P0Set) -> Check:
    return multiplicativity(*_identity(B))


def _sweep_vee_interpolation(B: P0Set) -> Check:
    _, jt = lattice_tables(B)
    down = prec_down(B)
    reach = _join_reach(B, down)
    for x in range(B.size):
        for y in range(B.size):
            bad = down[jt[x][y]] & ~union_rows(down, reach[x][y])
            if bad:
                return Check("vee_interpolation", False, (next(bits(bad)), x, y))
    return Check("vee_interpolation", True)


def _sweep_complementation(B: P0Set) -> Check:
    der = derived_relations(B)
    _, jt = lattice_tables(B)
    for x in range(B.size):
        perp = bit_list(der.perp[x])
        for y in bits(B.prec[x]):
            for z in bits(B.prec[y]):
                if not any(jt[w][y] == z for w in perp):
                    return Check("complementation", False, (x, y, z))
    return Check("complementation", True)


def _sweep_distributivity(B: P0Set) -> Check:
    der = derived_relations(B)
    mt, jt = lattice_tables(B)
    n = B.size
    for z in range(n):
        zr = der.preceq[z]
        for x in range(n):
            for y in range(n):
                if (zr >> jt[x][y] & 1) != (zr >> jt[mt[x][z]][mt[y][z]] & 1):
                    return Check("distributivity", False, (z, x, y))
    return Check("distributivity", True)


def _covered_rows(B: P0Set, rows) -> tuple[int, ...]:
    """[x] masks the y covered by the joins of y with the elements disjoint
    from x: the rows[w v y] over the w disjoint from x cover the carrier."""
    der = derived_relations(B)
    _, jt = lattice_tables(B)
    fm = full_mask(B.size)
    out = []
    for x in range(B.size):
        perp = bit_list(der.perp[x])
        row = 0
        for y in range(B.size):
            covered = 0
            for w in perp:
                covered |= rows[jt[w][y]]
                if covered == fm:
                    row |= 1 << y
                    break
        out.append(row)
    return tuple(out)


def _sweep_rather_below(B: P0Set) -> Check:
    w = first_pair(r ^ p for r, p in zip(recover_prec(B), B.prec))
    return Check("rather_below", w is None, w)


def _sweep_prec_below(B: P0Set) -> Check:
    covered = _covered_rows(B, prec_down(B))
    w = first_pair(p & ~c for p, c in zip(B.prec, covered))
    return Check("prec_below", w is None, w)


_LATTICE_NAMES = ("multiplicativity", "additivity", "decomposition",
                  "complementation", "distributivity", "rather_below",
                  "prec_below", "vee_interpolation")


@structure_table
def check_basic_lattice(B: P0Set) -> Report:
    """Full axiom report; passes iff the derived order is a lattice and the
    seven defining axioms hold.  Derived properties (distributivity,
    rather-below and friends) are evaluated and reported but do not gate.
    Meet/join axioms are not applicable without a lattice.
    """
    preds = order_predicates(B)
    is_lat = preds.holds("lattice")
    I = _identity(B)
    checks = [minimum(*I), _sweep_transitivity(B),
              Check("lattice", is_lat, preds["lattice"].witness),
              _sweep_coinitiality(B), cofinality(*I), interpolation(*I)]
    if is_lat:
        checks += [_sweep_multiplicativity(B), additivity(*I), decomposition(*I),
                   _sweep_complementation(B), _sweep_distributivity(B),
                   _sweep_rather_below(B), _sweep_prec_below(B),
                   _sweep_vee_interpolation(B)]
    else:
        checks.extend(Check(name, None) for name in _LATTICE_NAMES)
    checks += [auxiliarity(*I), _sweep_riesz(B)]
    by_name = {c.name: c for c in checks}
    passed = bool(is_lat) and all(by_name[name].holds for name in DEFINING)
    return report("basic_lattice", checks, passed)


@structure_table
def is_basic_lattice(B: P0Set) -> bool:
    """Fast verdict used by whole-catalog sweeps: bail out on non-lattices
    before any quantifier work, then run the defining sweeps with early
    exit."""
    if not order_predicates(B).holds("lattice"):
        return False
    I = _identity(B)
    return (_sweep_coinitiality(B).holds and cofinality(*I).holds
            and interpolation(*I).holds and _sweep_multiplicativity(B).holds
            and additivity(*I).holds and decomposition(*I).holds
            and _sweep_complementation(B).holds)


def check_alternate_axioms(B: P0Set) -> Report:
    """Compare the two axiom bundles that are equivalent on lattices with
    cofinality: {interpolation, multiplicativity, additivity} against
    {right auxiliarity, Riesz interpolation}.
    """
    if not order_predicates(B).holds("lattice"):
        raise PreconditionFailed("alternate axioms need a lattice order")
    I = _identity(B)
    cof = cofinality(*I)
    if not cof.holds:
        raise PreconditionFailed(f"cofinality fails at {cof.witness}")
    parts = [interpolation(*I), _sweep_multiplicativity(B), additivity(*I),
             auxiliarity(*I), _sweep_riesz(B)]
    first = all(c.holds for c in parts[:3])
    second = all(c.holds for c in parts[3:])
    checks = parts + [
        Check("first_bundle", first),
        Check("second_bundle", second),
        Check("equivalent", first == second),
    ]
    return report("alternate_axioms", checks, passed=first == second)


def recover_prec(B: P0Set) -> tuple[int, ...]:
    """Recover a strict relation from the order alone: R(x, y) holds iff
    every z lies below the join of y with some w disjoint from x.  On a
    basic lattice this returns the stored relation exactly.
    """
    if not order_predicates(B).holds("lattice"):
        raise NotLattice("recovery needs a lattice order")
    return _covered_rows(B, derived_relations(B).preceq_down)


# ---------------------------------------------------------------------------
# type formulas


def type_bound(B: P0Set) -> int:
    """Stabilization bound for the type formulas.

    A choice tuple contributes only its set of chosen pairs, and there are
    at most size**2 distinct pairs, so verdicts are constant from this
    bound on.  The tests re-check stability at the bound plus one.
    """
    return B.size * B.size


def _level(n: int) -> int:
    if n < 1:
        raise ValueError("type level must be >= 1")
    return n


def _supports(mask: SubsetMask, n: int):
    """The sets a level-n sentence can choose from `mask`, as masks.

    Quantified variables need not be distinct, and each formula's failure
    is monotone under enlarging the chosen set, so the n-element parts of
    `mask` suffice, or `mask` itself once it has at most n elements.
    """
    if mask.bit_count() <= n:
        return (mask,)
    return (mask_from(vs) for vs in combinations(bit_list(mask), n))


def phi_holds(B: P0Set, x: int, y: int, n: int) -> bool:
    """Level-n interpolation-failure formula at (x, y).

    Literally: x < y and every choice of n pairs v_i < w_i < y admits a
    nonzero x' < x disjoint from all v_i.  Only the set V of chosen v_i
    matters: some x' works exactly when the nonzero x' < x are not all
    among the elements meeting a member of V.
    """
    _level(n)
    if not B.has(x, y):
        return False
    down = prec_down(B)
    meets = derived_relations(B).meets
    lows = down[x] & ~(1 << B.zero)
    return all(lows & ~union_rows(meets, V) for V in _supports(union_rows(down, down[y]), n))


@lru_cache(maxsize=256)
def _psi_covers(B: P0Set, V: SubsetMask) -> tuple[SubsetMask, ...]:
    """[z] = the elements disjoint from some nonzero z' < z disjoint from
    all of V."""
    der = derived_relations(B)
    keep = ~union_rows(der.meets, V) & ~(1 << B.zero)
    return tuple(union_rows(der.perp, dz & keep) for dz in prec_down(B))


@lru_cache(maxsize=256)
def _psi_support(B: P0Set, x: int) -> SubsetMask:
    """The v with v < w for some w disjoint from x."""
    return union_rows(prec_down(B), derived_relations(B).perp[x])


def psi_holds(B: P0Set, x: int, y: int, z: int, n: int) -> bool:
    """Level-n complementation-failure formula at (x, y, z).

    x < y and for every y' < y and every choice of n pairs v_i < w_i with
    w_i disjoint from x, some nonzero z' < z is disjoint from y' and all
    v_i.  When nothing at all is disjoint from x the inner quantifier is
    vacuous and the formula reduces to x < y.
    """
    _level(n)
    if not B.has(x, y):
        return False
    if derived_relations(B).perp[x] == 0:
        return True
    dy = prec_down(B)[y]
    return all(dy & ~_psi_covers(B, V)[z] == 0 for V in _supports(_psi_support(B, x), n))


def _hits_within(rows, k: int) -> bool:
    """Whether some set of at most k elements meets every mask in `rows`."""
    if not rows:
        return True
    if k == 0:
        return False
    first = min(rows, key=int.bit_count)
    return any(_hits_within([r for r in rows if not r >> w & 1], k - 1)
               for w in bits(first))


def _theta_failures(B: P0Set) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The pairs failing the type sentence at full support, in sweep order.

    The level-n sentence fails at (x, y) when not x < y and some n-tuple
    w_i < y leaves no nonzero v < x disjoint from all w_i, that is when at
    most n elements of down[y] hit every row down[y] & meets[v], v a
    nonzero element below x.  Hitting is monotone in the chosen set, so
    the pairs failing at some level are those where W = down[y] hits every
    row.  Each comes with its rows; the smallest hitting set is its first
    failing level.
    """
    der = derived_relations(B)
    down = prec_down(B)
    zb = 1 << B.zero
    reach = [union_rows(der.meets, down[y]) for y in range(B.size)]
    out = []
    for x in range(B.size):
        lows = down[x] & ~zb
        for y in range(B.size):
            if not B.has(x, y) and lows & ~reach[y] == 0:
                out.append((x, y, tuple(down[y] & der.meets[v] for v in bits(lows))))
    return tuple(out)


def theta_witness(B: P0Set, n: int) -> tuple[int, int] | None:
    """First (x, y) violating the level-n sentence: whenever some n-tuple
    w_1..w_n < y leaves no nonzero v < x disjoint from all w_i, then x < y.
    """
    return _first_hit(_theta_failures(B), _level(n))


def _first_hit(failures, n: int) -> tuple[int, int] | None:
    return next(((x, y) for x, y, rows in failures if _hits_within(rows, n)), None)


def _psi_verdict(B: P0Set) -> tuple[bool, tuple[int, int, int] | None]:
    """psi's verdict at `type_bound` and its first (x, y, z), ascending.  At
    the bound the support is all of `_psi_support(B, x)`, so psi holds at
    (x, y, z) when x < y and down[y] lies in that support's cover row z,
    or, with nothing disjoint from x, whenever x < y."""
    down, perp = prec_down(B), derived_relations(B).perp
    for x in range(B.size):
        if B.prec[x]:
            covers = (full_mask(B.size),) if perp[x] == 0 else _psi_covers(B, _psi_support(B, x))
            w = next(((x, y, z) for y in bits(B.prec[x]) for z, cover in enumerate(covers)
                      if down[y] & ~cover == 0), None)
            if w:
                return False, w
    return True, None


@structure_table
def check_basic_semilattice(B: P0Set) -> Report:
    """Meet semilattice + the core axioms + every type sentence up to the
    stabilization bound, with both failure types omitted.

    Each type sentence is decided once, at its full support.  The theta
    check reports the first failing level and, at that level, the first
    failing pair; phi and psi report their first instance at the bound.
    """
    preds = order_predicates(B)
    msl = preds.holds("meet_semilattice")
    checks = [
        Check("meet_semilattice", msl, preds["meet_semilattice"].witness),
        minimum(*_identity(B)),
        _sweep_transitivity(B),
        _sweep_coinitiality(B),
    ]
    if msl:
        checks.append(_sweep_multiplicativity(B))
    else:
        checks.append(Check("multiplicativity", None))

    theta = Check("theta", True)
    failures = _theta_failures(B)
    if failures:
        lev = next(lev for lev in count(1) if _first_hit(failures, lev))
        theta = Check("theta", False, (lev,) + _first_hit(failures, lev))
    checks.append(theta)
    bound = type_bound(B)
    pairs = B.pairs()
    phi_w = next(((x, y) for x, y in pairs if phi_holds(B, x, y, bound)), None)
    checks.append(Check("phi_omitted", phi_w is None, phi_w))
    checks.append(Check("psi_omitted", *_psi_verdict(B)))

    passed = all(c.holds for c in checks)
    return report("basic_semilattice", checks, passed)


@structure_table
def is_basic_semilattice(B: P0Set) -> bool:
    """Fast verdict for whole-catalog sweeps, with cheap axioms first."""
    if not _sweep_coinitiality(B).holds:
        return False
    if not order_predicates(B).holds("meet_semilattice"):
        return False
    if not _sweep_multiplicativity(B).holds:
        return False
    return check_basic_semilattice(B).passed
