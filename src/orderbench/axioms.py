"""Axiom-system verifiers: basic lattices, alternate axiom bundles, and the
type-omission conditions defining basic semilattices.

Every verifier evaluates its quantifiers literally over the carrier and
returns a Report whose False entries carry a witness tuple; a witness can
be re-evaluated against the axiom's instance predicate with `recheck`.
Everything is pure and deterministic regardless of evaluation order; the
sweeps below are written with bitmask rows so that whole-catalog runs
stay cheap.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, count

from .core import (
    P0Set,
    SubsetMask,
    bit_list,
    bits,
    derived_relations,
    full_mask,
    lattice_tables,
    mask_from,
    order_predicates,
    prec_down,
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


def _axiom_instance(B: P0Set, name: str, tup: tuple[int, ...]) -> bool:
    """Evaluate one axiom instance at the tuple `tup` (slow reference path).

    Used to confirm witnesses: a reported witness makes its axiom's
    instance predicate False.
    """
    der = derived_relations(B)
    down = prec_down(B)
    zero = B.zero
    n = B.size
    prec = B.prec
    mt, jt = lattice_tables(B)

    def le(a, b):
        return der.preceq[a] >> b & 1 == 1

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
        return x == zero or der.meets[x] >> x & 1 == 1
    if name == "cofinality":
        (x,) = tup
        return prec[x] != 0
    if name == "interpolation":
        x, y = tup
        return not lt(x, y) or bool(prec[x] & down[y])
    if name == "right_auxiliarity":
        x, z, y = tup
        return not (le(x, z) and lt(z, y)) or lt(x, y)
    if name == "riesz_interpolation":
        x, x2, y, y2 = tup
        if not (lt(x, y) and lt(x, y2) and lt(x2, y) and lt(x2, y2)):
            return True
        return bool(prec[x] & prec[x2] & down[y] & down[y2])
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
        return any(jt[a][b] == z for a in bits(down[x]) for b in bits(down[y]))
    if name == "vee_interpolation":
        z, x, y = tup
        if not lt(z, jt[x][y]):
            return True
        return any(lt(z, jt[a][b]) for a in bits(down[x]) for b in bits(down[y]))
    if name == "complementation":
        x, y, z = tup
        if not (lt(x, y) and lt(y, z)):
            return True
        return any(jt[w][y] == z for w in bits(der.perp[x]))
    if name == "distributivity":
        z, x, y = tup
        return le(z, jt[x][y]) == le(z, jt[mt[x][z]][mt[y][z]])
    if name == "rather_below":
        x, y = tup
        rb = all(
            any(le(z, jt[w][y]) for w in bits(der.perp[x])) for z in range(n)
        )
        return lt(x, y) == rb
    if name == "prec_below":
        x, y = tup
        if not lt(x, y):
            return True
        return all(
            any(lt(z, jt[w][y]) for w in bits(der.perp[x])) for z in range(n)
        )
    raise KeyError(name)


def recheck(B: P0Set, name: str, witness: tuple[int, ...]) -> bool:
    return _axiom_instance(B, name, witness)


# ---------------------------------------------------------------------------
# fast sweeps (bitmask rows, witness on first failure)


def _sweep_minimum(B: P0Set) -> Check:
    gap = full_mask(B.size) & ~B.prec[B.zero]
    return Check("minimum", gap == 0, (next(bits(gap)),) if gap else None)


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


def _sweep_cofinality(B: P0Set) -> Check:
    for x in range(B.size):
        if B.prec[x] == 0:
            return Check("cofinality", False, (x,))
    return Check("cofinality", True)


def _sweep_interpolation(B: P0Set) -> Check:
    down = prec_down(B)
    for x in range(B.size):
        for y in bits(B.prec[x]):
            if B.prec[x] & down[y] == 0:
                return Check("interpolation", False, (x, y))
    return Check("interpolation", True)


def _sweep_right_auxiliarity(B: P0Set) -> Check:
    der = derived_relations(B)
    down = prec_down(B)
    for z in range(B.size):
        for y in bits(B.prec[z]):
            bad = der.preceq_down[z] & ~down[y]
            if bad:
                return Check("right_auxiliarity", False, (next(bits(bad)), z, y))
    return Check("right_auxiliarity", True)


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


def _edges(B: P0Set) -> list[tuple[int, int]]:
    return [(x, y) for x in range(B.size) for y in bits(B.prec[x])]


# cached: the lattice report, the semilattice report and its fast verdict
# each ask for it
@lru_cache(maxsize=4096)
def _sweep_multiplicativity(B: P0Set) -> Check:
    mt, _ = lattice_tables(B)
    edges = _edges(B)
    for x, x2 in edges:
        for y, y2 in edges:
            if not B.has(mt[x][y], mt[x2][y2]):
                return Check("multiplicativity", False, (x, x2, y, y2))
    return Check("multiplicativity", True)


def _sweep_additivity(B: P0Set) -> Check:
    _, jt = lattice_tables(B)
    edges = _edges(B)
    for x, x2 in edges:
        for y, y2 in edges:
            if not B.has(jt[x][y], jt[x2][y2]):
                return Check("additivity", False, (x, x2, y, y2))
    return Check("additivity", True)


@lru_cache(maxsize=4096)
def _join_reach(B: P0Set):
    """reach[x][y] = {j[a][b] : a < x, b < y} and the strict-down closure of
    those joins, as masks; feeds decomposition and vee-interpolation."""
    _, jt = lattice_tables(B)
    down = prec_down(B)
    n = B.size
    reach = [[0] * n for _ in range(n)]
    reach_down = [[0] * n for _ in range(n)]
    for x in range(n):
        dx = bit_list(down[x])
        for y in range(n):
            acc = 0
            for a in dx:
                for b in bits(down[y]):
                    acc |= 1 << jt[a][b]
            reach[x][y] = acc
            reach_down[x][y] = union_rows(down, acc)
    return reach, reach_down


def _sweep_decomposition(B: P0Set) -> Check:
    _, jt = lattice_tables(B)
    down = prec_down(B)
    reach, _ = _join_reach(B)
    for x in range(B.size):
        for y in range(B.size):
            bad = down[jt[x][y]] & ~reach[x][y]
            if bad:
                return Check("decomposition", False, (next(bits(bad)), x, y))
    return Check("decomposition", True)


def _sweep_vee_interpolation(B: P0Set) -> Check:
    _, jt = lattice_tables(B)
    down = prec_down(B)
    _, reach_down = _join_reach(B)
    for x in range(B.size):
        for y in range(B.size):
            bad = down[jt[x][y]] & ~reach_down[x][y]
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


def _sweep_rather_below(B: P0Set) -> Check:
    der = derived_relations(B)
    _, jt = lattice_tables(B)
    fm = full_mask(B.size)
    for x in range(B.size):
        perp = bit_list(der.perp[x])
        for y in range(B.size):
            covered = 0
            for w in perp:
                covered |= der.preceq_down[jt[w][y]]
                if covered == fm:
                    break
            if (covered == fm) != B.has(x, y):
                return Check("rather_below", False, (x, y))
    return Check("rather_below", True)


def _sweep_prec_below(B: P0Set) -> Check:
    der = derived_relations(B)
    down = prec_down(B)
    _, jt = lattice_tables(B)
    fm = full_mask(B.size)
    for x in range(B.size):
        perp = bit_list(der.perp[x])
        for y in bits(B.prec[x]):
            covered = 0
            for w in perp:
                covered |= down[jt[w][y]]
                if covered == fm:
                    break
            if covered != fm:
                return Check("prec_below", False, (x, y))
    return Check("prec_below", True)


_ORDER_SWEEPS = (
    _sweep_minimum,
    _sweep_transitivity,
    _sweep_coinitiality,
    _sweep_cofinality,
    _sweep_interpolation,
    _sweep_right_auxiliarity,
    _sweep_riesz,
)

_LATTICE_SWEEPS = (
    _sweep_multiplicativity,
    _sweep_additivity,
    _sweep_decomposition,
    _sweep_complementation,
    _sweep_distributivity,
    _sweep_rather_below,
    _sweep_prec_below,
    _sweep_vee_interpolation,
)

_LATTICE_NAMES = ("multiplicativity", "additivity", "decomposition",
                  "complementation", "distributivity", "rather_below",
                  "prec_below", "vee_interpolation")


@lru_cache(maxsize=None)
def check_basic_lattice(B: P0Set) -> Report:
    """Full axiom report; passes iff the derived order is a lattice and the
    seven defining axioms hold.  Derived properties (distributivity,
    rather-below and friends) are evaluated and reported but do not gate.
    Meet/join axioms are not applicable without a lattice.
    """
    preds = order_predicates(B)
    is_lat = preds.holds("lattice")
    checks = [_sweep_minimum(B), _sweep_transitivity(B),
              Check("lattice", is_lat, preds["lattice"].witness),
              _sweep_coinitiality(B), _sweep_cofinality(B),
              _sweep_interpolation(B)]
    if is_lat:
        checks.extend(sweep(B) for sweep in _LATTICE_SWEEPS)
    else:
        checks.extend(Check(name, None) for name in _LATTICE_NAMES)
    checks.append(_sweep_right_auxiliarity(B))
    checks.append(_sweep_riesz(B))
    by_name = {c.name: c for c in checks}
    passed = bool(is_lat) and all(by_name[name].holds for name in DEFINING)
    return report("basic_lattice", checks, passed)


@lru_cache(maxsize=None)
def is_basic_lattice(B: P0Set) -> bool:
    """Fast verdict used by whole-catalog sweeps: bail out on non-lattices
    before any quantifier work, then run the defining sweeps with early
    exit."""
    if not order_predicates(B).holds("lattice"):
        return False
    for sweep in (_sweep_coinitiality, _sweep_cofinality, _sweep_interpolation,
                  _sweep_multiplicativity, _sweep_additivity,
                  _sweep_decomposition, _sweep_complementation):
        if not sweep(B).holds:
            return False
    return True


def check_alternate_axioms(B: P0Set) -> Report:
    """Compare the two axiom bundles that are equivalent on lattices with
    cofinality: {interpolation, multiplicativity, additivity} against
    {right auxiliarity, Riesz interpolation}.
    """
    if not order_predicates(B).holds("lattice"):
        raise PreconditionFailed("alternate axioms need a lattice order")
    cof = _sweep_cofinality(B)
    if not cof.holds:
        raise PreconditionFailed(f"cofinality fails at {cof.witness}")
    parts = [_sweep_interpolation(B), _sweep_multiplicativity(B),
             _sweep_additivity(B), _sweep_right_auxiliarity(B), _sweep_riesz(B)]
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
    der = derived_relations(B)
    _, jt = lattice_tables(B)
    fm = full_mask(B.size)
    rows = []
    for x in range(B.size):
        perp = bit_list(der.perp[x])
        row = 0
        for y in range(B.size):
            covered = 0
            for w in perp:
                covered |= der.preceq_down[jt[w][y]]
                if covered == fm:
                    break
            if covered == fm:
                row |= 1 << y
        rows.append(row)
    return tuple(rows)


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


@lru_cache(maxsize=None)
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
        _sweep_minimum(B),
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


@lru_cache(maxsize=None)
def is_basic_semilattice(B: P0Set) -> bool:
    """Fast verdict for whole-catalog sweeps, with cheap axioms first."""
    if not _sweep_coinitiality(B).holds:
        return False
    if not order_predicates(B).holds("meet_semilattice"):
        return False
    if not _sweep_multiplicativity(B).holds:
        return False
    return check_basic_semilattice(B).passed
