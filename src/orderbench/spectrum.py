"""Tight characters, the tight spectrum, pseudobasis checks, and the
separativity characterization.

Characters are represented by their one-sets as bitmasks, unifying them
with the filter machinery.  On a finite structure they are the up-sets
of the minimal nonzero elements, which are also the maximal centred sets,
unless a nonzero element lies below zero, when there are none.  The
identification with the enveloping algebra keeps a scan of every subset
on one side.

The spectrum of a finite structure is discrete; it is stored with the
principal opens as the designated pseudobasis.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple

from . import stone, tight
from .core import (
    P0Set,
    SubsetMask,
    antisymmetry_violation,
    bits,
    derived_relations,
    first_pair,
    full_mask,
    lower_bound_table,
    mask_from,
    maximal_centred_sets,
    meet_rows,
    meets_preceq_table,
    order_predicates,
    structure_table,
    transpose,
)
from .errors import CapExceeded, InternalCheckFailed, PreconditionFailed
from .report import Check, Report, report, shared_report

VS_STONE_CAP = 8


@structure_table
def tight_characters(B: P0Set) -> tuple[SubsetMask, ...]:
    """All nonzero tight characters, as sorted one-set masks.

    A nonzero element below zero meets every element, so the empty set
    covers any complement and there are none.  Otherwise they are the
    maximal centred sets, the up-sets of the minimal nonzero elements.
    """
    if derived_relations(B).preceq_down[B.zero] & ~(1 << B.zero):
        return ()
    return maximal_centred_sets(B)


# ---------------------------------------------------------------------------
# pseudobases


class PseudobasisReport(NamedTuple):
    report: Report
    clopen: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return bool(self.report.passed)

    def all_clopen(self) -> bool:
        return all(self.clopen)


def is_pseudobasis(X: stone.FiniteTopology, family) -> PseudobasisReport:
    """The four pseudobasis conditions, with a clopen flag per member
    (compactness is automatic in finite spaces)."""
    family = list(family)
    if not all(map(X.is_open, family)):
        o = next(o for o in family if not X.is_open(o))
        raise PreconditionFailed(f"family member {o:#b} is not open")
    fm = full_mask(X.points)

    minimum = 0 in family
    cover_ok = reduce(or_, family, 0) == fm

    # a nonempty open holds the minimal neighbourhood of each of its points,
    # so the smallest open with no member inside is a minimal neighbourhood
    members = set(family) - {0}
    coin_w = min(
        ((u,) for u in set(X.nbhd) - members if not any(m & ~u == 0 for m in members)),
        default=None,
    )

    # the first pair of points with the same point filter pairs the first
    # point of its filter with the next
    first: dict[int, int] = {}
    filters = enumerate(transpose(family, X.points))
    t0_w = min(((first[f], q) for q, f in filters if first.setdefault(f, q) != q), default=None)

    checks = (
        ("minimum", minimum, None),
        ("cover", cover_ok, None),
        ("coinitiality", coin_w is None, coin_w),
        ("t0", t0_w is None, t0_w),
    )
    clopen = tuple(map(X.is_open, [fm & ~o for o in family]))
    return PseudobasisReport(shared_report("pseudobasis", checks), clopen)


def _principal_opens(B: P0Set) -> tuple[stone.FiniteTopology, PseudobasisReport]:
    """The spectrum with its principal opens, and their pseudobasis report.
    When the reflexivization is a partial order the conditions are a
    theorem, and a failure signals a bug; outside that scope (elements
    order-equivalent to zero, say) they genuinely fail."""
    chars = tight_characters(B)
    X = stone.discrete_topology(len(chars), transpose(chars, B.size))
    pb = is_pseudobasis(X, X.basis)
    if not pb.passed and antisymmetry_violation(B) is None:
        raise InternalCheckFailed("principal opens failed the pseudobasis conditions")
    return X, pb


def spectrum_homeomorphism(X: stone.FiniteTopology, family):
    """Point-to-character map of a compact clopen pseudobasis.

    Returns the mapping (point index to character index over the induced
    inclusion-ordered structure) and the verification report: every point
    character is tight and nonzero, the map is a bijection, and members map
    to their principal opens.
    """
    family = list(family)
    pb = is_pseudobasis(X, family)
    if not pb.passed:
        raise PreconditionFailed("family fails the pseudobasis conditions")
    if not pb.all_clopen():
        raise PreconditionFailed("family has a non-clopen member")
    # clopen members are their own closures, so this is the inclusion order
    struct = stone.basis_to_structure(X, family)
    chars = tight_characters(struct)
    index = {m: i for i, m in enumerate(chars)}

    # a point's character is its point filter; the witness is the last
    # point whose filter is no character
    mapping = [index.get(m, -1) for m in transpose(family, X.points)]
    member_w = next(((p,) for p in reversed(range(X.points)) if mapping[p] < 0), None)
    tight_ok = member_w is None

    bij = tight_ok and sorted(mapping) == list(range(len(chars)))

    open_w = None
    if tight_ok:
        principal = transpose(chars, len(family))
        open_w = next(
            ((j,) for j, o in enumerate(family)
             if mask_from(map(mapping.__getitem__, bits(o))) != principal[j]),
            None,
        )

    checks = [
        Check("points_are_characters", tight_ok, member_w),
        Check("bijection", bij),
        Check("members_map_to_principal_opens", open_w is None, open_w),
    ]
    return tuple(mapping), report("spectrum_homeomorphism", checks)


def verify_pseudochar(B: P0Set) -> Report:
    """Principal opens of the spectrum against separativity.

    Separative structures must exhibit a clopen pseudobasis with the
    order isomorphism; non-separative ones must break injectivity or the
    isomorphism.  The report passes when the observed outcome matches the
    structure's class.
    """
    sep = order_predicates(B).holds("separative")
    X, pb = _principal_opens(B)
    basis = X.basis
    chars = tight_characters(B)
    fm = full_mask(B.size)
    # y's principal open holds x's when every character holding x holds y
    iso_w = first_pair(
        meet_rows(chars, b, fm) ^ up
        for b, up in zip(basis, derived_relations(B).preceq)
    )
    injective = len(set(basis)) == B.size

    if sep:
        expected = pb.passed and pb.all_clopen() and iso_w is None and injective
    else:
        expected = not injective or iso_w is not None

    checks = (
        ("separative", sep, None),
        ("pseudobasis", pb.passed, None),
        ("clopen_members", pb.all_clopen(), None),
        ("order_isomorphism", iso_w is None, iso_w),
        ("injective", injective, None),
        ("outcome_matches_class", expected, None),
    )
    return shared_report("pseudochar", checks, expected)


def separativity_chain(B: P0Set) -> Report:
    """Separative implies an injective principal embedding implies section
    semicomplementedness, with all three equivalent on meet semilattices.
    The embedding x -> rho(x) is injective exactly when the atom masks
    `rho_index` are distinct (see `tight.RegularOpenAlgebra`)."""
    preds = order_predicates(B)
    sep = preds.holds("separative")
    ssc = preds.holds("ssc")
    inj = len(set(tight.enveloping_algebra(B).rho_index)) == B.size
    chain = (not sep or inj) and (not inj or ssc)
    if preds.holds("meet_semilattice"):
        sem_eq = sep == inj == ssc
    else:
        sem_eq = None
    checks = (
        ("separative", sep, None),
        ("rho_injective", inj, None),
        ("ssc", ssc, None),
        ("chain_respected", chain, None),
        ("semilattice_equivalence", sem_eq, None),
    )
    return shared_report("separativity_chain", checks, chain and sem_eq is not False)


def _scan_characters(B: P0Set, lower: tuple[int, ...]) -> tuple[SubsetMask, ...]:
    """Tight characters by a scan of every candidate one-set M, given the
    `lower_bound_table` of B.

    M fails when some F inside M covers into the complement of M; lower
    bounds shrink as F grows, so F = M alone decides it.
    """
    zb = 1 << B.zero
    # the complement of M indexes the reversed table
    rows = zip(range(1 << B.size), lower, reversed(meets_preceq_table(B)))
    return tuple(M for M, lb, mu in rows if M and not M & zb and lb & ~(mu | zb))


@lru_cache(maxsize=None)
def _index_masks(k: int) -> tuple[int, ...]:
    """[j] = the bitset of the T in range(2**k) holding bit j; k is at most
    VS_STONE_CAP."""
    out = []
    for j in range(k):
        h = full_mask(1 << j) << (1 << j)
        for s in range(j + 1, k):
            h |= h << (1 << s)
        out.append(h)
    return tuple(out)


def _scan_centred(B: P0Set, lower: tuple[int, ...]) -> tuple[SubsetMask, ...]:
    """Maximal centred sets by a scan of every subset, as one bitset read
    from one flag byte per subset, given the `lower_bound_table` of B.

    A subset of a centred set is centred, so a centred set is maximal when
    adding any one element b breaks it; shifting the centred sets holding
    b down by 2**b marks the sets that b extends.
    """
    flags = bytes(map(bool, map((~(1 << B.zero)).__and__, lower)))
    centred = int(flags[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)
    extendable = 0
    for b, h in enumerate(_index_masks(B.size)):
        extendable |= (centred & h) >> (1 << b)
    return tuple(bits(centred & ~extendable))


def _ultrafilter_witness(ults, k: int) -> tuple[int] | None:
    """The first U, a bitset over the atom masks of k atoms, that is not a
    proper filter deciding every complement pair.

    An up-set is closed under adding one atom; it is a filter when empty or
    holding the meet of its members; the complement T ^ top of every T is
    reached by swapping the halves of every index bit.
    """
    masks = _index_masks(k)
    full = full_mask(1 << k)
    for i, U in enumerate(ults):
        up = all((U & ~h) << (1 << j) & ~U == 0 for j, h in enumerate(masks))
        least = sum(1 << j for j, h in enumerate(masks) if U & ~h == 0)
        directed = not U or U >> least & 1
        proper = not U & 1
        flipped = U
        for j, h in enumerate(masks):
            flipped = (flipped & h) >> (1 << j) | (flipped & full & ~h) << (1 << j)
        if not (up and directed and proper and U ^ flipped == full):
            return (i,)
    return None


def spectrum_vs_stone(B: P0Set, cross_check: bool = True) -> Report:
    """Identify the tight characters with the ultrafilters of the
    enveloping algebra.

    Ultrafilter i of the algebra is the set of atom masks holding atom i;
    each is verified to be a proper filter that decides every complement
    pair.  Their pullbacks along the principal embedding, the closed-form
    characters and the closed-form maximal centred sets are compared with
    scans of every subset of the carrier.  With `cross_check` (on by
    default) an algebra of at most three atoms also has its ultrafilters
    and characters re-derived from its order alone.
    """
    if B.size > VS_STONE_CAP:
        raise CapExceeded(f"capped at carrier {VS_STONE_CAP}")
    S = tight.enveloping_algebra(B)
    k = len(S.signatures)
    ults = list(_index_masks(k))
    filter_w = _ultrafilter_witness(ults, k)
    ultra_ok = filter_w is None

    pullbacks = [
        mask_from(x for x in range(B.size) if U >> S.rho_index[x] & 1) for U in ults
    ]
    lower = lower_bound_table(B)
    chars = _scan_characters(B, lower)
    bij = (
        len(set(pullbacks)) == len(pullbacks)
        and sorted(pullbacks) == list(chars)
        and tight_characters(B) == chars
    )

    centred_match = maximal_centred_sets(B) == _scan_centred(B, lower) == chars

    if cross_check and k <= 3:
        sp = S.as_p0set()
        scan_ok = (
            sorted(ults)
            == list(stone.enumerate_ultrafilters(sp))
            == list(tight_characters(sp))
        )
    else:
        scan_ok = None

    checks = (
        ("algebra_ultrafilters_verified", ultra_ok, filter_w),
        ("pullback_bijection", bij, None),
        ("centred_match", centred_match, None),
        ("brute_force_agreement", scan_ok, None),
    )
    return shared_report("spectrum_vs_stone", checks)
