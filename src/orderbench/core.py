"""Finite transitive relations with a minimum element, as bitmask rows.

The carrier of a structure is the index set 0..size-1.  Subsets of the
carrier are plain ints used as bitmasks (element x is bit ``1 << x``);
this is the universal currency for filters, opens, covers and saturated
sets throughout the package.  The strict relation is primary; the
reflexivization and the meet/disjointness relations are always derived
from it.  The subset tables, one relation's rows folded over every subset
of the carrier by `subset_fold`, are cached here for every module.

Structures are immutable and every function here is pure, so values can
be shared freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import and_, or_
from pathlib import Path

from .errors import (
    FormatError,
    IndexOutOfRange,
    MissingMinimum,
    NotAntisymmetric,
    NotGBA,
    NotTransitive,
)
from .report import Check, Report, report

#: Hard carrier cap.  Bitmasks stay cheap well beyond this; the cap exists so
#: that derived families (open-set posets, enveloping algebras over carriers
#: of size <= 7) still fit while keeping everything at desk scale.
MAX_SIZE = 64

SubsetMask = int


# ---------------------------------------------------------------------------
# bitmask helpers


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int):
    """Yield set bit positions of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


def mask_from(elements) -> int:
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def submasks(mask: int):
    """Yield every subset of `mask` (descending, ending with 0)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_fold(rows, op, init) -> tuple:
    """table[S] = init combined by `op` with rows[s] for every s in S, for
    every subset S of range(len(rows)) (bitmask indices).

    Built by doubling: the subsets holding row k are those without it,
    shifted up by 2**k, each combined once more with rows[k].  `op` must be
    commutative and associative.
    """
    table = [init]
    for r in rows:
        table += list(map(op, table, repeat(r)))
    return tuple(table)


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


# ---------------------------------------------------------------------------
# structures


@dataclass(frozen=True)
class P0Set:
    """A transitive relation with minimum `zero` on 0..size-1.

    ``prec[x]`` is the bitmask of elements strictly above x, i.e. x < y
    iff bit y of prec[x] is set.  `names` are display-only labels;
    element identity is index-based.
    """

    size: int
    zero: int
    prec: tuple[int, ...]
    names: tuple[str, ...] | None = None

    def __hash__(self) -> int:
        # every cached layer keys on the structure; hash its rows once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.size, self.zero, self.prec))
            object.__setattr__(self, "_hash", h)
        return h

    def has(self, x: int, y: int) -> bool:
        return self.prec[x] >> y & 1 == 1

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.size) for y in bits(self.prec[x])]

    def name(self, x: int) -> str:
        return self.names[x] if self.names else str(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P0Set(size={self.size}, zero={self.zero}, pairs={self.pairs()})"


def p0set(size: int, zero: int, pairs, names=None) -> P0Set:
    """Validate and build a structure from an explicit pair list."""
    if not isinstance(size, int) or size < 1:
        raise IndexOutOfRange(f"size must be a positive integer, got {size!r}")
    if size > MAX_SIZE:
        raise IndexOutOfRange(f"carrier size {size} exceeds the cap {MAX_SIZE}")
    if not isinstance(zero, int) or not 0 <= zero < size:
        raise IndexOutOfRange(f"zero index {zero!r} outside carrier 0..{size - 1}")
    rows = [0] * size
    for x, y in pairs:
        if not (isinstance(x, int) and isinstance(y, int)):
            raise IndexOutOfRange(f"pair ({x!r}, {y!r}) is not an index pair")
        if not (0 <= x < size and 0 <= y < size):
            raise IndexOutOfRange(f"pair ({x}, {y}) outside carrier 0..{size - 1}")
        rows[x] |= 1 << y
    for x in range(size):
        for y in bits(rows[x]):
            gap = rows[y] & ~rows[x]
            if gap:
                z = next(bits(gap))
                raise NotTransitive((x, y, z))
    if rows[zero] != full_mask(size):
        missing = next(bits(full_mask(size) & ~rows[zero]))
        raise MissingMinimum(f"pair ({zero}, {missing}) required for the minimum is absent")
    if names is not None:
        names = tuple(str(s) for s in names)
        if len(names) != size:
            raise FormatError("names length must equal size")
    return P0Set(size, zero, tuple(rows), names)


def load_structure(text: str) -> P0Set:
    """Parse the JSON structure format.

    Expected shape: {"size": int, "zero": int, "prec": [[int, int], ...]}
    with an optional "names" list.  Unknown keys are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("structure document must be a JSON object")
    allowed = {"size", "zero", "prec", "names"}
    unknown = set(doc) - allowed
    if unknown:
        raise FormatError(f"unknown keys {sorted(unknown)}")
    for key in ("size", "zero", "prec"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    if not isinstance(doc["prec"], list) or not all(
        isinstance(p, list) and len(p) == 2 for p in doc["prec"]
    ):
        raise FormatError("prec must be a list of [int, int] pairs")
    names = doc.get("names")
    if names is not None and not isinstance(names, list):
        raise FormatError("names must be a list of strings")
    return p0set(doc["size"], doc["zero"], [tuple(p) for p in doc["prec"]], names)


def load_linked(text: str, base_dir, payload: str):
    """Parse {"from": path, "to": path, <payload>: ...}, the two paths
    relative to base_dir; return (source, target, payload value)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"from", "to", payload}:
        raise FormatError(f"document needs exactly from/to/{payload}")
    if not (isinstance(doc["from"], str) and isinstance(doc["to"], str)):
        raise FormatError("from and to must be file paths")
    base = Path(base_dir)
    source = load_structure((base / doc["from"]).read_text())
    target = load_structure((base / doc["to"]).read_text())
    return source, target, doc[payload]


def dump_structure(B: P0Set) -> str:
    doc = {"size": B.size, "zero": B.zero, "prec": [list(p) for p in B.pairs()]}
    if B.names:
        doc["names"] = list(B.names)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# derived relations


@dataclass(frozen=True)
class DerivedRels:
    """Reflexivization and the meet/disjointness relations of a structure.

    ``preceq[x]`` masks {y : x <= y}, ``preceq_down[y]`` masks {x : x <= y};
    ``meets``/``perp`` are the symmetric relations row-wise (meets[x] masks
    the elements sharing a nonzero strict lower bound with x).
    """

    preceq: tuple[int, ...]
    preceq_down: tuple[int, ...]
    meets: tuple[int, ...]
    perp: tuple[int, ...]


@lru_cache(maxsize=None)
def prec_down(B: P0Set) -> tuple[int, ...]:
    """Rows of the transposed strict relation: down[y] = {x : x < y}."""
    down = [0] * B.size
    for x in range(B.size):
        row = B.prec[x]
        for y in bits(row):
            down[y] |= 1 << x
    return tuple(down)


@lru_cache(maxsize=None)
def derived_relations(B: P0Set) -> DerivedRels:
    n = B.size
    down = prec_down(B)
    zb = 1 << B.zero
    preceq = [0] * n
    preceq_down = [0] * n
    for x in range(n):
        dx = down[x]
        row = 0
        for y in range(n):
            if dx & ~down[y] == 0:
                row |= 1 << y
                preceq_down[y] |= 1 << x
        preceq[x] = row
    meets = [0] * n
    for x in range(n):
        dx = down[x] & ~zb
        row = 0
        for y in range(n):
            if dx & down[y]:
                row |= 1 << y
        meets[x] = row
    fm = full_mask(n)
    perp = tuple(fm & ~m for m in meets)
    return DerivedRels(tuple(preceq), tuple(preceq_down), tuple(meets), perp)


@lru_cache(maxsize=None)
def meets_preceq(B: P0Set) -> tuple[int, ...]:
    """Rows of the meet relation computed from the reflexivization.

    x and y are related iff some nonzero z has z <= x and z <= y.  On a
    reflexive structure this coincides with DerivedRels.meets; the
    representation and spectrum machinery, which treats any structure as
    a p0set through its reflexivization, uses this version.
    """
    der = derived_relations(B)
    n = B.size
    zb = 1 << B.zero
    rows = [0] * n
    for x in range(n):
        dx = der.preceq_down[x] & ~zb
        row = 0
        for y in range(n):
            if dx & der.preceq_down[y]:
                row |= 1 << y
        rows[x] = row
    return tuple(rows)


# ---------------------------------------------------------------------------
# subset tables: each folds one row table over every subset of the carrier


@lru_cache(maxsize=1024)
def prec_down_table(B: P0Set) -> tuple[int, ...]:
    """[D] = union of the strict down-sets of the members of D."""
    return subset_fold(prec_down(B), or_, 0)


@lru_cache(maxsize=1024)
def meets_table(B: P0Set) -> tuple[int, ...]:
    """[D] = union of the meet-relation rows of the members of D."""
    return subset_fold(derived_relations(B).meets, or_, 0)


@lru_cache(maxsize=1024)
def preceq_down_table(B: P0Set) -> tuple[int, ...]:
    """[C] = down-closure of C under the reflexivization."""
    return subset_fold(derived_relations(B).preceq_down, or_, 0)


@lru_cache(maxsize=1024)
def lower_bound_table(B: P0Set) -> tuple[int, ...]:
    """[C] = common lower bounds of C under the reflexivization; the empty
    set's bounds are the whole carrier."""
    return subset_fold(derived_relations(B).preceq_down, and_, full_mask(B.size))


@lru_cache(maxsize=1024)
def meets_preceq_table(B: P0Set) -> tuple[int, ...]:
    """[D] = union of the `meets_preceq` rows of the members of D."""
    return subset_fold(meets_preceq(B), or_, 0)


def matrix(rows: tuple[int, ...], n: int) -> list[list[bool]]:
    """Expand bitmask rows to an explicit boolean matrix."""
    return [[row >> y & 1 == 1 for y in range(n)] for row in rows]


# ---------------------------------------------------------------------------
# partial lattice operations


def _row_owners(rows: tuple[int, ...]) -> dict[int, list[int]]:
    """The elements of each row, in ascending order."""
    owners: dict[int, list[int]] = {}
    for m, r in enumerate(rows):
        owners.setdefault(r, []).append(m)
    return owners


def _bound(rows: tuple[int, ...], x: int, y: int) -> int | None:
    """The extremum of rows[x] & rows[y] under `preceq_down` (meets) or
    `preceq` (joins) rows.

    L = rows[x] & rows[y] is a down-set of the derived order (an up-set
    for `preceq` rows), so a member of L whose row holds L has a row
    exactly equal to L: the candidates are the owners of the row L.
    Raises NotAntisymmetric when several order-equivalent ones exist,
    surfacing the offending pair instead of picking one.
    """
    cands = _row_owners(rows).get(rows[x] & rows[y])
    if not cands:
        return None
    if len(cands) > 1:
        raise NotAntisymmetric((cands[0], cands[1]))
    return cands[0]


def meet(B: P0Set, x: int, y: int) -> int | None:
    """Greatest lower bound under the reflexivization, or None; raises
    NotAntisymmetric when several order-equivalent ones exist."""
    return _bound(derived_relations(B).preceq_down, x, y)


def join(B: P0Set, x: int, y: int) -> int | None:
    """Least upper bound under the reflexivization, or None."""
    return _bound(derived_relations(B).preceq, x, y)


def antisymmetry_violation(B: P0Set) -> tuple[int, int] | None:
    """First pair of distinct order-equivalent elements, if any."""
    der = derived_relations(B)
    for x in range(B.size):
        row = der.preceq[x] & der.preceq_down[x] & ~(1 << x)
        if row:
            return (x, next(bits(row)))
    return None


def _bound_table(rows: tuple[int, ...]) -> tuple[tuple[int | None, ...], ...]:
    """[x][y] = the owner of rows[x] & rows[y] (see `_bound`), or None when
    the row has no owner or several."""
    unique = {r: ms[0] if len(ms) == 1 else None for r, ms in _row_owners(rows).items()}
    return tuple(tuple(unique.get(rx & ry) for ry in rows) for rx in rows)


@lru_cache(maxsize=None)
def lattice_tables(B: P0Set):
    """(meet_table, join_table) with None entries where bounds are missing.

    Entries are also None when several equivalent bounds exist; use
    antisymmetry_violation to distinguish that case.
    """
    der = derived_relations(B)
    return _bound_table(der.preceq_down), _bound_table(der.preceq)


@lru_cache(maxsize=None)
def order_predicates(B: P0Set) -> Report:
    """Order-theoretic classification flags of the derived order.

    Flags needing a lattice (distributive, section_complemented) are
    reported as not-applicable when the order is not a lattice.  The
    separative flag asks for a separative p0set, so it additionally
    requires the reflexivization to be a partial order.
    """
    n = B.size
    zero = B.zero
    der = derived_relations(B)
    mp = meets_preceq(B)
    anti = antisymmetry_violation(B)
    mt, jt = lattice_tables(B)

    meet_witness = None
    join_witness = None
    for x in range(n):
        for y in range(x, n):
            if meet_witness is None and mt[x][y] is None:
                meet_witness = (x, y)
            if join_witness is None and jt[x][y] is None:
                join_witness = (x, y)

    is_msl = anti is None and meet_witness is None
    msl_witness = anti if anti is not None else meet_witness
    is_lat = is_msl and join_witness is None
    lat_witness = msl_witness if not is_msl else join_witness

    distributive = None
    dist_witness = None
    seccomp = None
    seccomp_witness = None
    if is_lat:
        distributive = True
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if mt[x][jt[y][z]] != jt[mt[x][y]][mt[x][z]]:
                        distributive = False
                        dist_witness = (x, y, z)
                        break
                if dist_witness:
                    break
            if dist_witness:
                break
        seccomp = True
        for z in range(n):
            for y in bits(der.preceq_down[z]):
                if not any(mt[w][y] == zero and jt[w][y] == z for w in range(n)):
                    seccomp = False
                    seccomp_witness = (y, z)
                    break
            if seccomp_witness:
                break

    gba = bool(is_lat and distributive and seccomp)

    separative = anti is None
    sep_witness = anti
    if separative:
        for x in range(n):
            for y in range(n):
                if der.preceq[x] >> y & 1:
                    continue
                if not any(
                    v != zero and not mp[v] >> y & 1
                    for v in bits(der.preceq_down[x])
                ):
                    separative = False
                    sep_witness = (x, y)
                    break
            if not separative:
                break

    ssc = True
    ssc_witness = None
    for x in range(n):
        for y in bits(der.preceq_down[x]):
            if y == x:
                continue
            if not any(
                z != zero and not mp[z] >> y & 1 for z in bits(der.preceq_down[x])
            ):
                ssc = False
                ssc_witness = (x, y)
                break
        if not ssc:
            break

    checks = [
        Check("meet_semilattice", is_msl, None if is_msl else msl_witness),
        Check("lattice", is_lat, None if is_lat else lat_witness),
        Check("distributive", distributive, dist_witness),
        Check("section_complemented", seccomp, seccomp_witness),
        Check("generalized_boolean", gba, None),
        Check("separative", separative, None if separative else sep_witness),
        Check("ssc", ssc, ssc_witness),
    ]
    return report("order_predicates", checks, passed=all(c.holds for c in checks))


def relative_complement(B: P0Set, x: int, y: int) -> int:
    """The unique z with z meet (x and y) = 0 and z join (x and y) = x."""
    if not order_predicates(B).holds("generalized_boolean"):
        raise NotGBA("relative complement needs a generalized Boolean algebra")
    mt, jt = lattice_tables(B)
    m = mt[x][y]
    cands = [z for z in range(B.size) if mt[z][m] == B.zero and jt[z][m] == x]
    if len(cands) != 1:  # ruled out on a generalized Boolean algebra
        raise NotGBA(f"complement of {m} in [0, {x}] not unique: {cands}")
    return cands[0]
