"""Finite transitive relations with a minimum element, as bitmask rows.

The carrier of a structure is the index set 0..size-1.  Subsets of the
carrier are plain ints used as bitmasks (element x is bit ``1 << x``);
this is the universal currency for filters, opens, covers and saturated
sets throughout the package.  The strict relation is primary; the
reflexivization and the meet/disjointness relations are always derived
from it.  The subset tables fold one relation's rows over every subset
of the carrier by `subset_fold`; `spectrum`'s scans are their only
readers, and build them once per call.

Structures are immutable apart from the tables that `structure_table`
keeps on them, and every function here is pure, so values can be shared
freely between threads.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache, wraps
from itertools import repeat
from operator import and_, attrgetter, getitem, or_
from pathlib import Path
from typing import NamedTuple

from .errors import InputError, PreconditionFailed
from .report import Report, shared_report

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


def transpose(rows, width: int) -> list[int]:
    """[y] = {x : bit y of rows[x]}, for y in range(width)."""
    out = [0] * width
    for x, row in enumerate(rows):
        bit = 1 << x
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def union_rows(rows, mask: int, init: int = 0) -> int:
    """`init` joined with rows[x] for every x in `mask`."""
    while mask:
        low = mask & -mask
        init |= rows[low.bit_length() - 1]
        mask ^= low
    return init


def meet_rows(rows, mask: int, init: int) -> int:
    """`init` met with rows[x] for every x in `mask`."""
    while mask:
        low = mask & -mask
        init &= rows[low.bit_length() - 1]
        mask ^= low
    return init


def first_pair(rows) -> tuple[int, int] | None:
    """(x, lowest bit of rows[x]) for the first nonzero row, or None."""
    for x, row in enumerate(rows):
        if row:
            return (x, (row & -row).bit_length() - 1)
    return None


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


# ---------------------------------------------------------------------------
# structures


class Record:
    """Read-only fields, named in `_fields`, compared and hashed by value.

    Unlike a named tuple, a record has an instance dictionary, for what is
    derived from its fields on first use (the tables of `structure_table`,
    a cached_property), and it can be weakly referenced.  A subclass sets
    its fields with `object.__setattr__`, past the read-only guard: unlike
    a write to `__dict__`, that does not make the dictionary, which adds
    136 bytes (CPython 3.11) to each instance that never gets a table.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the field values as one tuple (a record has two fields or more)
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"


class P0Set(Record):
    """A transitive relation with minimum `zero` on 0..size-1.

    ``prec[x]`` is the bitmask of elements strictly above x, i.e. x < y
    iff bit y of prec[x] is set.  `names` are display-only labels;
    element identity is index-based.
    """

    _fields = ("size", "zero", "prec", "names")
    size: int
    zero: int
    prec: tuple[int, ...]
    names: tuple[str, ...] | None

    def __init__(self, size: int, zero: int, prec: tuple[int, ...],
                 names: tuple[str, ...] | None = None):
        init = object.__setattr__
        init(self, "size", size)
        init(self, "zero", zero)
        init(self, "prec", prec)
        init(self, "names", names)

    def __hash__(self) -> int:
        # the sharing index keys on the structure; hash its rows once
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.size, self.zero, self.prec))
        return h

    def has(self, x: int, y: int) -> bool:
        return self.prec[x] >> y & 1 == 1

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.size) for y in bits(self.prec[x])]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"P0Set(size={self.size}, zero={self.zero}, pairs={self.pairs()})"


def p0set(size: int, zero: int, pairs, names=None) -> P0Set:
    """Validate and build a structure from an explicit pair list.  The size
    and the indices must be ints: a bool, though an int subclass, is
    refused."""
    if type(size) is not int or size < 1:
        raise InputError(f"size must be a positive integer, got {size!r}")
    if size > MAX_SIZE:
        raise InputError(f"carrier size {size} exceeds the cap {MAX_SIZE}")
    if type(zero) is not int or not 0 <= zero < size:
        raise InputError(f"zero index {zero!r} outside carrier 0..{size - 1}")
    rows = [0] * size
    for x, y in pairs:
        if not (type(x) is int and type(y) is int):
            raise InputError(f"pair ({x!r}, {y!r}) is not an index pair")
        if not (0 <= x < size and 0 <= y < size):
            raise InputError(f"pair ({x}, {y}) outside carrier 0..{size - 1}")
        rows[x] |= 1 << y
    for x in range(size):
        for y in bits(rows[x]):
            gap = rows[y] & ~rows[x]
            if gap:
                w = (x, y, next(bits(gap)))
                raise InputError(f"relation not transitive, witness {w}", w)
    if rows[zero] != full_mask(size):
        missing = next(bits(full_mask(size) & ~rows[zero]))
        raise InputError(f"pair ({zero}, {missing}) required for the minimum is absent")
    if names is not None:
        names = tuple(str(s) for s in names)
        if len(names) != size:
            raise InputError("names length must equal size")
    return P0Set(size, zero, tuple(rows), names)


def read_input(path) -> str:
    """The text of an input file.  A file that cannot be read is an input
    error (`InputError`); an OSError on output, such as a closed stdout,
    is not."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc)) from exc


def load_structure(text: str) -> P0Set:
    """Parse the JSON structure format.

    Expected shape: {"size": int, "zero": int, "prec": [[int, int], ...]}
    with an optional "names" list.  Unknown keys are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("structure document must be a JSON object")
    allowed = {"size", "zero", "prec", "names"}
    unknown = set(doc) - allowed
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)}")
    for key in ("size", "zero", "prec"):
        if key not in doc:
            raise InputError(f"missing key {key!r}")
    if not isinstance(doc["prec"], list) or not all(
        isinstance(p, list) and len(p) == 2 for p in doc["prec"]
    ):
        raise InputError("prec must be a list of [int, int] pairs")
    names = doc.get("names")
    if names is not None and not isinstance(names, list):
        raise InputError("names must be a list of strings")
    return p0set(doc["size"], doc["zero"], [tuple(p) for p in doc["prec"]], names)


def load_linked(text: str, base_dir, payload: str):
    """Parse {"from": path, "to": path, <payload>: ...}, the two paths
    relative to base_dir; return (source, target, payload value)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"from", "to", payload}:
        raise InputError(f"document needs exactly from/to/{payload}")
    if not (isinstance(doc["from"], str) and isinstance(doc["to"], str)):
        raise InputError("from and to must be file paths")
    base = Path(base_dir)
    source = load_structure(read_input(base / doc["from"]))
    target = load_structure(read_input(base / doc["to"]))
    return source, target, doc[payload]


def dump_structure(B: P0Set) -> str:
    doc = {"size": B.size, "zero": B.zero, "prec": [list(p) for p in B.pairs()]}
    if B.names:
        doc["names"] = list(B.names)
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# tables kept on their structure

#: The sharing index remembers the last this many distinct structures.
SHARED_STRUCTURES = 4096

TableInfo = namedtuple("TableInfo", "hits misses maxsize currsize")


@lru_cache(maxsize=SHARED_STRUCTURES)
def _first_equal(B: P0Set) -> P0Set:
    """The first structure equal to B among the last SHARED_STRUCTURES
    distinct ones: the one whose tables B shares."""
    return B


def structure_table(fn):
    """Keep fn(B) among B's attributes: built once per structure, freed with
    it, and shared with the first equal structure in the sharing index.

    cache_info() counts lookups that build nothing as hits and builds as
    misses; currsize is the tables built, each alive while a structure
    holds it.  A builder that raises stores and counts no table.  Two
    threads may both build a table: they store equal values.
    A table of None is kept too, but each lookup of it takes the slow path.

    A function is a table only when a caller rereads it per structure:
    a table read once per structure would only hold memory until its
    structure goes, so such a function stays plain and is built per call.
    Two other caches stay because they are reread.  `axioms._join_reach`,
    keyed on a structure and a relation's columns, is read twice by the
    lattice report, for decomposition and for vee interpolation.  The
    sharing index `_first_equal` lets the point maps, which rebuild equal
    structures through `stone.basis_to_structure`, read the tables of
    the first.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"
    calls = misses = 0

    @wraps(fn)
    def table(B: P0Set):
        nonlocal calls, misses
        calls += 1
        got = B.__dict__.get(key)
        if got is not None:
            return got
        first = _first_equal(B).__dict__
        if key not in first:
            first[key] = fn(B)
            misses += 1
        B.__dict__[key] = first[key]
        return first[key]

    table.cache_info = lambda: TableInfo(calls - misses, misses, None, misses)
    return table


# ---------------------------------------------------------------------------
# derived relations


class DerivedRels(NamedTuple):
    """Reflexivization and the meet/disjointness relations of a structure.

    ``preceq[x]`` masks {y : x <= y}, ``preceq_down[y]`` masks {x : x <= y};
    ``meets``/``perp`` are the symmetric relations row-wise (meets[x] masks
    the elements sharing a nonzero strict lower bound with x).  ``anti`` is
    the first pair of distinct order-equivalent elements, or None.
    """

    preceq: tuple[int, ...]
    preceq_down: tuple[int, ...]
    meets: tuple[int, ...]
    perp: tuple[int, ...]
    anti: tuple[int, int] | None


@structure_table
def prec_down(B: P0Set) -> tuple[int, ...]:
    """Rows of the transposed strict relation: down[y] = {x : x < y}."""
    return tuple(transpose(B.prec, B.size))


@structure_table
def derived_relations(B: P0Set) -> DerivedRels:
    """x <= y when every d < x has d < y: preceq[x] is the meet of the rows
    prec[d] over d < x.  x meets y when some nonzero d < x has d < y:
    meets[x] is the union of those rows."""
    n = B.size
    down = prec_down(B)
    zb = 1 << B.zero
    fm = full_mask(n)
    preceq = tuple(meet_rows(B.prec, d, fm) for d in down)
    preceq_down = tuple(transpose(preceq, n))
    meets = tuple(union_rows(B.prec, d & ~zb) for d in down)
    perp = tuple(fm & ~m for m in meets)
    anti = first_pair(up & d & ~(1 << x) for x, (up, d) in enumerate(zip(preceq, preceq_down)))
    return DerivedRels(preceq, preceq_down, meets, perp, anti)


@structure_table
def meets_preceq(B: P0Set) -> tuple[int, ...]:
    """Rows of the meet relation computed from the reflexivization.

    x and y are related iff some nonzero z has z <= x and z <= y: row x is
    the union of the rows preceq[z] over those z.  On a reflexive
    structure this coincides with DerivedRels.meets; the representation
    and spectrum machinery, which treats any structure as a p0set through
    its reflexivization, uses this version.
    """
    der = derived_relations(B)
    zb = 1 << B.zero
    return tuple(union_rows(der.preceq, d & ~zb) for d in der.preceq_down)


def separation_table(B: P0Set) -> tuple[int, ...]:
    """sep[x] = the elements meeting every nonzero z <= x: the meet of the
    `meets_preceq` rows of those z (the whole carrier when there are none).
    See the README design note on separation."""
    mp = meets_preceq(B)
    fm, zb = full_mask(B.size), 1 << B.zero
    return tuple(meet_rows(mp, d & ~zb, fm) for d in derived_relations(B).preceq_down)


@structure_table
def maximal_centred_sets(B: P0Set) -> tuple[SubsetMask, ...]:
    """Maximal subsets whose every finite part has a nonzero lower bound.

    Bounds shrink as the set grows, so a set is centred exactly when some
    nonzero z lies below all of it, that is when it is contained in the
    up-set of z.  The maximal centred sets are the maximal such up-sets:
    up(w) holds up(z) exactly when w <= z, so they are the up-sets of the
    nonzero z to which every nonzero w <= z is equivalent.
    """
    der = derived_relations(B)
    nonzero = full_mask(B.size) & ~(1 << B.zero)
    return tuple(sorted({
        up
        for z, (up, down) in enumerate(zip(der.preceq, der.preceq_down))
        if z != B.zero and down & nonzero & ~up == 0
    }))


# ---------------------------------------------------------------------------
# subset tables: each folds one row table over every subset of the carrier


def lower_bound_table(B: P0Set) -> tuple[int, ...]:
    """[C] = common lower bounds of C under the reflexivization; the empty
    set's bounds are the whole carrier."""
    return subset_fold(derived_relations(B).preceq_down, and_, full_mask(B.size))


def meets_preceq_table(B: P0Set) -> tuple[int, ...]:
    """[D] = union of the `meets_preceq` rows of the members of D."""
    return subset_fold(meets_preceq(B), or_, 0)


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
    Raises PreconditionFailed when several order-equivalent ones exist,
    surfacing the offending pair instead of picking one.
    """
    cands = _row_owners(rows).get(rows[x] & rows[y])
    if not cands:
        return None
    if len(cands) > 1:
        w = (cands[0], cands[1])
        raise PreconditionFailed(f"order not antisymmetric, witness {w}", w)
    return cands[0]


def meet(B: P0Set, x: int, y: int) -> int | None:
    """Greatest lower bound under the reflexivization, or None; raises
    PreconditionFailed when several order-equivalent ones exist."""
    return _bound(derived_relations(B).preceq_down, x, y)


def join(B: P0Set, x: int, y: int) -> int | None:
    """Least upper bound under the reflexivization, or None."""
    return _bound(derived_relations(B).preceq, x, y)


def antisymmetry_violation(B: P0Set) -> tuple[int, int] | None:
    """First pair of distinct order-equivalent elements, if any."""
    return derived_relations(B).anti


def _bound_table(rows: tuple[int, ...]) -> tuple[tuple[int | None, ...], ...]:
    """[x][y] = the owner of rows[x] & rows[y] (see `_bound`), or None when
    the row has no owner or several."""
    unique = {r: ms[0] if len(ms) == 1 else None for r, ms in _row_owners(rows).items()}
    return tuple(tuple(map(unique.get, map(rx.__and__, rows))) for rx in rows)


@structure_table
def lattice_tables(B: P0Set):
    """(meet_table, join_table) with None entries where bounds are missing.

    Entries are also None when several equivalent bounds exist; use
    antisymmetry_violation to distinguish that case.
    """
    der = derived_relations(B)
    return _bound_table(der.preceq_down), _bound_table(der.preceq)


def _bound_witness(rows: tuple[int, ...]) -> tuple[int, int] | None:
    """The first (x, y) with x <= y whose bound (see `_bound`) is missing
    or not unique: the first None entry of the upper half of `_bound_table`."""
    unique = {r for r, ms in _row_owners(rows).items() if len(ms) == 1}
    for x, rx in enumerate(rows):
        bounds = list(map(rx.__and__, rows[x:]))
        if not unique.issuperset(bounds):
            return (x, x + next(i for i, b in enumerate(bounds) if b not in unique))
    return None


@structure_table
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
    anti = der.anti
    meet_witness = _bound_witness(der.preceq_down)
    is_msl = anti is None and meet_witness is None
    join_witness = _bound_witness(der.preceq) if is_msl else None
    msl_witness = anti if anti is not None else meet_witness
    is_lat = is_msl and join_witness is None
    lat_witness = msl_witness if not is_msl else join_witness

    distributive = None
    dist_witness = None
    seccomp = None
    seccomp_witness = None
    if is_lat:
        mt, jt = lattice_tables(B)
        # x meet (y join z) against (x meet y) join (x meet z) for every x
        # at once: the column of x meet j is the row of j.  Both sides are
        # symmetric in y and z and agree when y = z, so the first failing
        # (x, y, z) has y < z.
        for y in range(n):
            for z in range(y + 1, n):
                left = mt[jt[y][z]]
                right = tuple(map(getitem, map(jt.__getitem__, mt[y]), mt[z]))
                if left != right:
                    x = next(x for x in range(n) if left[x] != right[x])
                    if dist_witness is None or (x, y, z) < dist_witness:
                        dist_witness = (x, y, z)
        distributive = dist_witness is None
        # comps[y] = the joins y join w over the w with y meet w = 0
        comps = [
            mask_from(jy[w] for w, m in enumerate(my) if m == zero) for my, jy in zip(mt, jt)
        ]
        seccomp_witness = next(
            (
                (y, z)
                for z in range(n)
                for y in bits(der.preceq_down[z])
                if not comps[y] >> z & 1
            ),
            None,
        )
        seccomp = seccomp_witness is None

    gba = bool(is_lat and distributive and seccomp)

    # not x <= y, yet y meets every nonzero element below x
    sep = separation_table(B)
    sep_witness = anti
    if anti is None:
        sep_witness = first_pair(s & ~up for s, up in zip(sep, der.preceq))
    separative = sep_witness is None
    # some y < x meets every nonzero element below x
    ssc_witness = first_pair(
        s & down & ~(1 << x) for x, (s, down) in enumerate(zip(sep, der.preceq_down))
    )
    ssc = ssc_witness is None

    checks = (
        ("meet_semilattice", is_msl, None if is_msl else msl_witness),
        ("lattice", is_lat, None if is_lat else lat_witness),
        ("distributive", distributive, dist_witness),
        ("section_complemented", seccomp, seccomp_witness),
        ("generalized_boolean", gba, None),
        ("separative", separative, sep_witness),
        ("ssc", ssc, ssc_witness),
    )
    return shared_report("order_predicates", checks, all(c[1] for c in checks))


def relative_complement(B: P0Set, x: int, y: int) -> int:
    """The unique z with z meet (x and y) = 0 and z join (x and y) = x."""
    if not order_predicates(B).holds("generalized_boolean"):
        raise PreconditionFailed("relative complement needs a generalized Boolean algebra")
    mt, jt = lattice_tables(B)
    m = mt[x][y]
    cands = [z for z in range(B.size) if mt[z][m] == B.zero and jt[z][m] == x]
    if len(cands) != 1:  # ruled out on a generalized Boolean algebra
        raise PreconditionFailed(f"complement of {m} in [0, {x}] not unique: {cands}")
    return cands[0]
