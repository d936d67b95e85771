"""Filters, ultrafilters, finite Stone spaces, and the duality verifier.

The Stone space of a structure is its set of ultrafilters topologized by
the basic opens O_x = {U : x in U}.  Spaces here are finite topologies:
a point count plus each point's minimal open neighbourhood as a bitmask,
with a designated basis whose index i records provenance (basis[i] was
generated by carrier element i when the space came from a structure).

Finite filters are principal: each nonempty one is the strict up-set
prec[z] of an element z with z < z, so filters and ultrafilters are read
off the relation rows instead of found by a scan over all subsets.

Closure, interior and openness are read off the minimal neighbourhoods;
the family of all opens is listed only when a topology is written out.
Compactness is automatic in finite spaces and never computed.
"""

from __future__ import annotations

import json
from functools import cached_property, reduce
from operator import and_, xor

from . import axioms
from .core import (
    MAX_SIZE,
    P0Set,
    Record,
    SubsetMask,
    bit_list,
    bits,
    derived_relations,
    first_pair,
    full_mask,
    lattice_tables,
    mask_from,
    meet_rows,
    p0set,
    prec_down,
    structure_table,
    union_rows,
)
from .errors import CapExceeded, InputError, InternalCheckFailed, PreconditionFailed
from .report import Check, Report, report


class FiniteTopology(Record):
    """A finite point set, its topology, and a designated basis.

    `nbhd[p]` is the minimal open neighbourhood U_p of point p, the meet
    of the opens containing it.  Every open is the union of the U_p of its
    points, so a set is open exactly when it contains the U_p of each of
    its points, and the opens are never listed.  A discrete space has
    U_p = {p}.  `basis` is positional: entry i is the open generated by
    element i of the originating structure, when there is one.
    """

    _fields = ("points", "nbhd", "basis")
    points: int
    nbhd: tuple[SubsetMask, ...]
    basis: tuple[SubsetMask, ...]

    def __init__(self, points: int, nbhd: tuple[SubsetMask, ...], basis: tuple[SubsetMask, ...]):
        init = object.__setattr__
        init(self, "points", points)
        init(self, "nbhd", nbhd)
        init(self, "basis", basis)

    def closure(self, mask: SubsetMask) -> SubsetMask:
        """The points every open neighbourhood of which meets `mask`."""
        return mask_from(p for p, u in enumerate(self.nbhd) if u & mask)

    def interior(self, mask: SubsetMask) -> SubsetMask:
        return mask_from(p for p, u in enumerate(self.nbhd) if u & ~mask == 0)

    @cached_property
    def _wide(self) -> SubsetMask:
        """The points whose minimal neighbourhood is more than the point."""
        return mask_from(p for p, u in enumerate(self.nbhd) if u != 1 << p)

    def is_open(self, mask: SubsetMask) -> bool:
        """Open when it holds the minimal neighbourhood of each point in it."""
        wide = mask & self._wide
        return not mask >> self.points and (
            not wide or all(self.nbhd[p] & ~mask == 0 for p in bits(wide)))


def topology_from_basis(points: int, basis) -> FiniteTopology:
    """The topology whose opens are the unions of `basis`.

    The members must cover the points and be intersection-compatible:
    for a, b in the family and p in both, some member containing p lies
    inside a & b.  Over finitely many members that holds exactly when the
    meet of the members containing p is itself a member, which is then
    U_p.  Otherwise the family is not a basis: PreconditionFailed.
    """
    basis = tuple(basis)
    fm = full_mask(points)
    if any(b & ~fm for b in basis):
        raise PreconditionFailed("basis member outside the point set")
    members = set(basis)
    nbhd = []
    for p in range(points):
        above = [b for b in basis if b >> p & 1]
        if not above:
            raise PreconditionFailed(f"basis does not cover point {p}")
        u = reduce(and_, above)
        if u not in members:
            raise PreconditionFailed(f"family is not a basis: {u:#b} not a union of members")
        nbhd.append(u)
    return FiniteTopology(points, tuple(nbhd), basis)


def discrete_topology(points: int, basis) -> FiniteTopology:
    return FiniteTopology(points, tuple(1 << p for p in range(points)), tuple(basis))


def all_opens(X: FiniteTopology) -> list[SubsetMask]:
    """Every open set, ascending: the unions of minimal neighbourhoods."""
    opens = {0}
    for u in set(X.nbhd):
        opens |= {o | u for o in opens}
    return sorted(opens)


def load_topology(text: str) -> FiniteTopology:
    """Parse {"points": int, "opens": [[int,...],...], "basis": [[int,...],...]}.

    No Stone space or spectrum has more points than its structure's
    carrier, so past MAX_SIZE points the document is refused before any
    mask is built."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"points", "opens", "basis"}:
        raise InputError("topology document needs exactly points/opens/basis")
    points = doc["points"]
    if type(points) is not int or points < 0:
        raise InputError("points must be a nonnegative integer")
    if points > MAX_SIZE:
        raise CapExceeded(f"{points} points exceed the carrier cap {MAX_SIZE}")
    if not isinstance(doc["opens"], list) or not isinstance(doc["basis"], list):
        raise InputError("opens and basis must be lists of point lists")
    def to_mask(lst):
        if not isinstance(lst, list) or not all(
            type(p) is int and 0 <= p < points for p in lst
        ):
            raise InputError(f"bad point list {lst!r}")
        return mask_from(lst)
    opens = sorted({to_mask(o) for o in doc["opens"]})
    basis = [to_mask(b) for b in doc["basis"]]
    lookup = set(opens)
    if 0 not in lookup or full_mask(points) not in lookup:
        raise InputError("opens must contain the empty set and every point")
    for a in opens:
        for b in opens:
            if a | b not in lookup or a & b not in lookup:
                raise InputError("opens not closed under union/intersection")
    if any(b not in lookup for b in basis):
        raise InputError("basis member is not open")
    for o in opens:
        span = 0
        for b in basis:
            if b & ~o == 0:
                span |= b
        if span != o:
            raise InputError("an open is not a union of basis members")
    return topology_from_basis(points, basis)


def dump_topology(X: FiniteTopology) -> str:
    return json.dumps(
        {
            "points": X.points,
            "opens": [bit_list(o) for o in all_opens(X)],
            "basis": [bit_list(b) for b in X.basis],
        }
    )


# ---------------------------------------------------------------------------
# filters


def is_filter(B: P0Set, U: SubsetMask) -> bool:
    """Upward closed under the strict relation and downward directed.

    By the argument in `enumerate_filters`, a nonempty filter is a row
    prec[z] with z < z, and then z lies in U; any z in U with prec[z] == U
    has z < z, so the members of U are the only candidates to test.
    """
    return U == 0 or any(B.prec[z] == U for z in bits(U))


def enumerate_filters(B: P0Set) -> list[SubsetMask]:
    """All filters, the empty set and the full carrier included, sorted.

    Every nonempty filter is principal: U = prec[z] for some z with z < z.
    Downward directedness of a finite U gives, by induction over its
    members and transitivity, one z in U strictly below every member, z
    itself included; up-closure then gives prec[z] within U, and z below
    all of U gives U within prec[z].  Conversely prec[z] with z < z is
    up-closed by transitivity and directed through z.  So the filters are
    the empty set and the rows prec[z] with z < z, found in O(n) instead
    of testing all 2**n subsets (`tests/oracles.naive_filters` keeps that
    route).
    """
    return sorted({0} | {B.prec[z] for z in range(B.size) if B.has(z, z)})


def enumerate_ultrafilters(B: P0Set) -> list[SubsetMask]:
    """Maximal nonempty proper filters, sorted.

    The empty filter never counts as an ultrafilter: in the zero-only
    structure it is vacuously maximal proper, but admitting it would give
    the one-element structure a phantom Stone point (and break the match
    with its empty character spectrum), so nonemptiness is part of
    ultrafilter-hood here.
    """
    fm = full_mask(B.size)
    proper = [U for U in enumerate_filters(B) if U != fm and U != 0]
    return [
        U
        for U in proper
        if not any(V != U and V & U == U for V in proper)
    ]


def ultrafilter_properties(B: P0Set, U: SubsetMask) -> Report:
    """The three ultrafilter characterizations, plus their agreement flag
    (asserted only over basic lattices, where it is a theorem)."""
    fm = full_mask(B.size)
    if U == 0 or U == fm or not is_filter(B, U):
        raise PreconditionFailed("need a nonempty proper filter")
    der = derived_relations(B)
    down = prec_down(B)

    # no proper filter, a row prec[z] with z < z, strictly contains U
    maximal = not any(
        V >> z & 1 and V & U == U and V not in (U, fm) for z, V in enumerate(B.prec))

    comp = fm & ~U
    ideal_down = True
    id_witness = None
    for y in bits(comp):
        bad = der.preceq_down[y] & ~comp
        if bad:
            ideal_down = False
            id_witness = (next(bits(bad)), y)
            break
    ideal_dir = True
    if ideal_down:
        members = bit_list(comp)
        for i, x in enumerate(members):
            ux = der.preceq[x]
            for y in members[i:]:
                if ux & der.preceq[y] & comp == 0:
                    ideal_dir = False
                    id_witness = (x, y)
                    break
            if not ideal_dir:
                break
    is_ideal = ideal_down and ideal_dir

    perp_set = mask_from(
        y for y in range(B.size) if all(der.perp[x] & U for x in bits(down[y])))
    perp_ok = perp_set == comp

    witness_perp = None
    if not perp_ok:
        witness_perp = (next(bits(perp_set ^ comp)),)

    checks = [
        Check("maximal", maximal),
        Check("complement_ideal", is_ideal, id_witness),
        Check("perp_characterization", perp_ok, witness_perp),
    ]
    if axioms.is_basic_lattice(B):
        agree = maximal == is_ideal == perp_ok
        checks.append(Check("equivalent", agree))
        passed = agree
    else:
        checks.append(Check("equivalent", None))
        passed = True
    return report("ultrafilter_properties", checks, passed)


# ---------------------------------------------------------------------------
# Stone spaces


@structure_table
def stone_space(B: P0Set) -> FiniteTopology:
    """Points are the ultrafilters; basis entry x is {U : x in U}."""
    ults = enumerate_ultrafilters(B)
    basis = [mask_from(i for i, U in enumerate(ults) if U >> x & 1) for x in range(B.size)]
    try:
        return topology_from_basis(len(ults), basis)
    except PreconditionFailed as exc:  # directedness of filters guarantees a basis
        raise InternalCheckFailed(f"ultrafilter opens failed to form a basis: {exc}")


def verify_duality(B: P0Set) -> Report:
    """Check the five duality equations, the separation property, and that
    the basis map is an order isomorphism, on the Stone space."""
    if not axioms.is_basic_lattice(B):
        raise PreconditionFailed("duality verification needs a basic lattice")
    der = derived_relations(B)
    mt, jt = lattice_tables(B)
    X = stone_space(B)
    n = B.size
    O = X.basis

    def sweep_pairs(pred):
        for x in range(n):
            for y in range(n):
                if not pred(x, y):
                    return (x, y)
        return None

    w_cap = sweep_pairs(lambda x, y: O[x] & O[y] == O[mt[x][y]])
    w_cup = sweep_pairs(lambda x, y: O[x] | O[y] == O[jt[x][y]])
    w_perp = sweep_pairs(
        lambda x, y: (O[x] & O[y] == 0) == (der.perp[x] >> y & 1 == 1)
    )
    # the closure characterization of the identity interpolator
    w_sub = first_pair(map(xor, closure_rows(X, O, range(X.points), O), B.prec))
    fm = full_mask(X.points)
    w_cl = next(
        ((x,) for x in range(n) if X.closure(O[x]) != meet_rows(O, B.prec[x], fm)), None)

    # disjoint opens around p and q exist iff U_p and U_q are disjoint
    U = X.nbhd
    w_haus = next(
        ((p, q) for p in range(X.points) for q in range(p + 1, X.points) if U[p] & U[q]),
        None,
    )

    w_iso = sweep_pairs(lambda x, y: (O[x] & ~O[y] == 0) == (der.preceq[x] >> y & 1 == 1))
    inj = len(set(O)) == n
    iso_ok = w_iso is None and inj

    checks = [
        Check("cap_wedge", w_cap is None, w_cap),
        Check("cup_vee", w_cup is None, w_cup),
        Check("perp_perp", w_perp is None, w_perp),
        Check("sub_prec", w_sub is None, w_sub),
        Check("ox_closure", w_cl is None, w_cl),
        Check("hausdorff", w_haus is None, w_haus),
        Check("basis_isomorphism", iso_ok, w_iso),
    ]
    return report("duality", checks)


def closure_rows(X: FiniteTopology, family, f, targets) -> list[int]:
    """Row i is {j : f maps the closure of family[i] into targets[j]}.

    `f` sends each point of X to a point of the targets' space, as a
    sequence of point indices.  With f the identity on X's points and
    the family as its own targets, the rows are the strict relation of
    `basis_to_structure`.
    """
    point = [1 << t for t in f]
    images = (union_rows(point, X.closure(o)) for o in family)
    return [mask_from(j for j, n in enumerate(targets) if img & ~n == 0) for img in images]


def basis_to_structure(X: FiniteTopology, family) -> P0Set:
    """Structure on the family with x < y iff closure(family[x]) lies in
    family[y]; zero is the empty member.  Members must be distinct opens
    including the empty set."""
    family = list(family)
    for o in family:
        if not X.is_open(o):
            raise PreconditionFailed(f"family member {o:#b} is not open")
    if 0 not in family:
        raise PreconditionFailed("family must contain the empty open")
    if len(set(family)) != len(family):
        raise PreconditionFailed("family members must be distinct")
    rows = closure_rows(X, family, range(X.points), family)
    pairs = [(i, j) for i, row in enumerate(rows) for j in bits(row)]
    return p0set(len(family), family.index(0), pairs)


def point_filter(X: FiniteTopology, family, p: int) -> SubsetMask:
    """Mask of family indices whose member contains the point p."""
    return mask_from(i for i, o in enumerate(family) if o >> p & 1)
