"""Filters, ultrafilters, finite Stone spaces, and the duality verifier.

The Stone space of a structure is its set of ultrafilters topologized by
the basic opens O_x = {U : x in U}.  Spaces here are finite topologies:
a point count plus the explicit family of open sets as bitmasks, with a
designated basis whose index i records provenance (basis[i] was generated
by carrier element i when the space came from a structure).

Finite filters are principal: each nonempty one is the strict up-set
prec[z] of an element z with z < z, so filters and ultrafilters are read
off the relation rows instead of found by a scan over all subsets.

Closure of a set is computed inside the stored topology as the complement
of the union of opens disjoint from it.  Compactness is automatic in
finite spaces and never computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    P0Set,
    SubsetMask,
    bit_list,
    bits,
    derived_relations,
    full_mask,
    mask_from,
    p0set,
    prec_down,
)
from .errors import (
    CapExceeded,
    FormatError,
    InternalCheckFailed,
    NotAFilter,
    NotOpen,
    PreconditionFailed,
)
from .report import Check, Report, report

FILTER_CAP = 20


@dataclass(frozen=True)
class FiniteTopology:
    """A finite point set with its open-set family and a designated basis.

    `opens` is sorted and closed under union and intersection, contains
    the empty set, and every open is a union of basis members (checked at
    construction).  `basis` is positional: entry i is the open generated
    by element i of the originating structure, when there is one.
    """

    points: int
    opens: tuple[SubsetMask, ...]
    basis: tuple[SubsetMask, ...]

    def is_open(self, mask: SubsetMask) -> bool:
        return mask in self._open_set()

    def _open_set(self) -> frozenset:
        return _open_lookup(self)

    def closure(self, mask: SubsetMask) -> SubsetMask:
        """Complement of the union of opens disjoint from `mask`."""
        away = 0
        for o in self.opens:
            if o & mask == 0:
                away |= o
        return full_mask(self.points) & ~away

    def interior(self, mask: SubsetMask) -> SubsetMask:
        inside = 0
        for o in self.opens:
            if o & ~mask == 0:
                inside |= o
        return inside


@lru_cache(maxsize=4096)
def _open_lookup(X: FiniteTopology) -> frozenset:
    return frozenset(X.opens)


def _union_closure(points: int, seeds) -> tuple[int, ...]:
    opens = {0} | set(seeds)
    frontier = set(opens)
    while frontier:
        new = set()
        for a in frontier:
            for b in opens:
                u = a | b
                if u not in opens and u not in new:
                    new.add(u)
        opens |= new
        frontier = new
    return tuple(sorted(opens))


def topology_from_basis(points: int, basis) -> FiniteTopology:
    """Generate the topology whose opens are the unions of `basis`.

    The basis members must be pairwise intersection-compatible (every
    pairwise intersection is again a union of members); otherwise the
    family is not a basis and NotOpen is raised.
    """
    basis = tuple(basis)
    fm = full_mask(points)
    if any(b & ~fm for b in basis):
        raise NotOpen("basis member outside the point set")
    opens = _union_closure(points, basis)
    X = FiniteTopology(points, opens, basis)
    lookup = frozenset(opens)
    for a in basis:
        for b in basis:
            if a & b not in lookup:
                raise NotOpen(f"family is not a basis: {a & b:#b} not a union of members")
    return X


def discrete_topology(points: int, basis) -> FiniteTopology:
    if points > 16:
        raise CapExceeded("discrete open family beyond 2**16 sets")
    return FiniteTopology(points, tuple(range(1 << points)), tuple(basis))


def load_topology(text: str) -> FiniteTopology:
    """Parse {"points": int, "opens": [[int,...],...], "basis": [[int,...],...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"points", "opens", "basis"}:
        raise FormatError("topology document needs exactly points/opens/basis")
    points = doc["points"]
    if not isinstance(points, int) or points < 0:
        raise FormatError("points must be a nonnegative integer")
    def to_mask(lst):
        if not isinstance(lst, list) or not all(
            isinstance(p, int) and 0 <= p < points for p in lst
        ):
            raise FormatError(f"bad point list {lst!r}")
        return mask_from(lst)
    opens = sorted({to_mask(o) for o in doc["opens"]})
    basis = [to_mask(b) for b in doc["basis"]]
    lookup = set(opens)
    if 0 not in lookup:
        raise FormatError("opens must contain the empty set")
    for a in opens:
        for b in opens:
            if a | b not in lookup or a & b not in lookup:
                raise FormatError("opens not closed under union/intersection")
    if any(b not in lookup for b in basis):
        raise FormatError("basis member is not open")
    for o in opens:
        span = 0
        for b in basis:
            if b & ~o == 0:
                span |= b
        if span != o:
            raise FormatError("an open is not a union of basis members")
    return FiniteTopology(points, tuple(opens), tuple(basis))


def dump_topology(X: FiniteTopology) -> str:
    return json.dumps(
        {
            "points": X.points,
            "opens": [bit_list(o) for o in X.opens],
            "basis": [bit_list(b) for b in X.basis],
        }
    )


# ---------------------------------------------------------------------------
# filters


def is_filter(B: P0Set, U: SubsetMask) -> bool:
    """Upward closed under the strict relation and downward directed."""
    up_needed = 0
    for y in bits(U):
        up_needed |= B.prec[y]
    if up_needed & ~U:
        return False
    down = prec_down(B)
    members = bit_list(U)
    for i, x in enumerate(members):
        dx = down[x]
        for y in members[i:]:
            if dx & down[y] & U == 0:
                return False
    return True


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
    if B.size > FILTER_CAP:
        raise CapExceeded(f"filter enumeration capped at {FILTER_CAP}")
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
    from .axioms import is_basic_lattice  # local import to avoid a cycle

    fm = full_mask(B.size)
    if U == 0 or U == fm or not is_filter(B, U):
        raise NotAFilter("need a nonempty proper filter")
    der = derived_relations(B)
    down = prec_down(B)

    maximal = not any(
        V != U and V & U == U
        for V in enumerate_filters(B)
        if V != fm
    )

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

    perp_set = 0
    for y in range(B.size):
        if all(der.perp[x] & U for x in bits(down[y])):
            perp_set |= 1 << y
    perp_ok = perp_set == comp

    witness_perp = None
    if not perp_ok:
        witness_perp = (next(bits(perp_set ^ comp)),)

    checks = [
        Check("maximal", maximal),
        Check("complement_ideal", is_ideal, id_witness),
        Check("perp_characterization", perp_ok, witness_perp),
    ]
    if is_basic_lattice(B):
        agree = maximal == is_ideal == perp_ok
        checks.append(Check("equivalent", agree))
        passed = agree
    else:
        checks.append(Check("equivalent", None))
        passed = True
    return report("ultrafilter_properties", checks, passed)


# ---------------------------------------------------------------------------
# Stone spaces


@lru_cache(maxsize=None)
def stone_space(B: P0Set) -> FiniteTopology:
    """Points are the ultrafilters; basis entry x is {U : x in U}."""
    ults = enumerate_ultrafilters(B)
    if len(ults) > 16:
        raise CapExceeded("Stone space beyond 16 points")
    basis = []
    for x in range(B.size):
        o = 0
        for i, U in enumerate(ults):
            if U >> x & 1:
                o |= 1 << i
        basis.append(o)
    try:
        return topology_from_basis(len(ults), basis)
    except NotOpen as exc:  # directedness of filters guarantees a basis
        raise InternalCheckFailed(f"ultrafilter opens failed to form a basis: {exc}")


def verify_duality(B: P0Set) -> Report:
    """Check the five duality equations, the separation property, and that
    the basis map is an order isomorphism, on the Stone space."""
    from .axioms import is_basic_lattice

    if not is_basic_lattice(B):
        raise PreconditionFailed("duality verification needs a basic lattice")
    from .core import lattice_tables

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
    w_sub = sweep_pairs(
        lambda x, y: (X.closure(O[x]) & ~O[y] == 0) == B.has(x, y)
    )

    fm = full_mask(X.points)
    w_cl = None
    for x in range(n):
        inter = fm
        for y in bits(B.prec[x]):
            inter &= O[y]
        if X.closure(O[x]) != inter:
            w_cl = (x,)
            break

    w_haus = None
    for p in range(X.points):
        for q in range(p + 1, X.points):
            if not any(
                a >> p & 1 and b >> q & 1 and a & b == 0
                for a in X.opens
                for b in X.opens
            ):
                w_haus = (p, q)
                break
        if w_haus:
            break

    w_iso = None
    for x in range(n):
        for y in range(n):
            if (O[x] & ~O[y] == 0) != (der.preceq[x] >> y & 1 == 1):
                w_iso = (x, y)
                break
        if w_iso:
            break
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


def basis_to_structure(X: FiniteTopology, family) -> P0Set:
    """Structure on the family with x < y iff closure(family[x]) lies in
    family[y]; zero is the empty member.  Members must be distinct opens
    including the empty set."""
    family = list(family)
    for o in family:
        if not X.is_open(o):
            raise NotOpen(f"family member {o:#b} is not open")
    if 0 not in family:
        raise PreconditionFailed("family must contain the empty open")
    if len(set(family)) != len(family):
        raise PreconditionFailed("family members must be distinct")
    pairs = []
    for i, o in enumerate(family):
        cl = X.closure(o)
        for j, nbh in enumerate(family):
            if cl & ~nbh == 0:
                pairs.append((i, j))
    return p0set(len(family), family.index(0), pairs)


def point_filter(X: FiniteTopology, family, p: int) -> SubsetMask:
    """Mask of family indices whose member contains the point p."""
    m = 0
    for i, o in enumerate(family):
        if o >> p & 1:
            m |= 1 << i
    return m
