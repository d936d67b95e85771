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

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    P0Set,
    SubsetMask,
    bit_list,
    bits,
    derived_relations,
    full_mask,
    lower_bound_table,
    mask_from,
    meets_preceq_table,
)
from .errors import (
    CapExceeded,
    InternalCheckFailed,
    NotClopen,
    NotOpen,
    PreconditionFailed,
)
from .report import Check, Report, report
from .stone import FiniteTopology, discrete_topology, point_filter
from .tight import enveloping_algebra, rho

VS_STONE_CAP = 8


@dataclass(frozen=True)
class CharacterSet:
    base: P0Set
    chars: tuple[SubsetMask, ...]

    def __len__(self) -> int:
        return len(self.chars)


@lru_cache(maxsize=None)
def tight_characters(B: P0Set) -> CharacterSet:
    """All nonzero tight characters, as sorted one-set masks.

    A nonzero element below zero meets every element, so the empty set
    covers any complement and there are none.  Otherwise they are the
    maximal centred sets, the up-sets of the minimal nonzero elements.
    """
    if derived_relations(B).preceq_down[B.zero] & ~(1 << B.zero):
        return CharacterSet(B, ())
    return CharacterSet(B, maximal_centred_sets(B))


@lru_cache(maxsize=None)
def maximal_centred_sets(B: P0Set) -> tuple[SubsetMask, ...]:
    """Maximal subsets whose every finite part has a nonzero lower bound.

    Bounds shrink as the set grows, so a set is centred exactly when some
    nonzero z lies below all of it, that is when it is contained in the
    up-set of z.  The maximal centred sets are the maximal such up-sets.
    """
    rows = {derived_relations(B).preceq[z] for z in range(B.size) if z != B.zero}
    return tuple(sorted(r for r in rows if not any(r != s and r & ~s == 0 for s in rows)))


# ---------------------------------------------------------------------------
# pseudobases


@dataclass(frozen=True)
class PseudobasisReport:
    report: Report
    clopen: tuple[bool, ...]
    compact: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return bool(self.report.passed)

    def all_clopen(self) -> bool:
        return all(self.clopen)


def is_pseudobasis(X: FiniteTopology, family) -> PseudobasisReport:
    """The four pseudobasis conditions evaluated literally, with clopen and
    compact flags per member (compactness is automatic in finite spaces)."""
    family = list(family)
    for o in family:
        if not X.is_open(o):
            raise NotOpen(f"family member {o:#b} is not open")
    fm = full_mask(X.points)

    minimum = 0 in family
    cover = 0
    for o in family:
        cover |= o
    cover_ok = cover == fm

    # a nonempty open holds the minimal neighbourhood of each of its points,
    # so the smallest open with no member inside is a minimal neighbourhood
    coin_w = min(
        ((u,) for u in set(X.nbhd) if not any(m and m & ~u == 0 for m in family)),
        default=None,
    )

    sig = [point_filter(X, family, p) for p in range(X.points)]
    t0_w = next(
        ((p, q) for p in range(X.points) for q in range(p + 1, X.points) if sig[p] == sig[q]),
        None,
    )

    checks = [
        Check("minimum", minimum),
        Check("cover", cover_ok),
        Check("coinitiality", coin_w is None, coin_w),
        Check("t0", t0_w is None, t0_w),
    ]
    clopen = tuple(X.is_open(fm & ~o) for o in family)
    compact = tuple(True for _ in family)
    return PseudobasisReport(report("pseudobasis", checks), clopen, compact)


@lru_cache(maxsize=None)
def spectrum_space(B: P0Set) -> FiniteTopology:
    """Discrete space on the tight characters with the principal opens as
    designated pseudobasis.

    When the reflexivization is a partial order, the pseudobasis
    conditions are a theorem; they are re-verified here and a failure
    signals a bug.  Outside that scope (elements order-equivalent to zero,
    say) they genuinely fail and the space is built without the assert.
    """
    from .core import antisymmetry_violation

    chars = tight_characters(B).chars
    basis = [mask_from(i for i, M in enumerate(chars) if M >> x & 1) for x in range(B.size)]
    X = discrete_topology(len(chars), basis)
    if antisymmetry_violation(B) is None:
        pb = is_pseudobasis(X, basis)
        if not pb.passed:
            raise InternalCheckFailed("principal opens failed the pseudobasis conditions")
    return X


def spectrum_homeomorphism(X: FiniteTopology, family):
    """Point-to-character map of a compact clopen pseudobasis.

    Returns the mapping (point index to character index over the induced
    inclusion-ordered structure) and the verification report: every point
    character is tight and nonzero, the map is a bijection, and members map
    to their principal opens.
    """
    from .core import p0set
    from .errors import NotPseudobasis

    family = list(family)
    pb = is_pseudobasis(X, family)
    if not pb.passed:
        raise NotPseudobasis("family fails the pseudobasis conditions")
    if not pb.all_clopen():
        raise NotClopen("family has a non-clopen member")
    if len(set(family)) != len(family):
        raise PreconditionFailed("family members must be distinct")
    pairs = [
        (i, j)
        for i, o in enumerate(family)
        for j, nbh in enumerate(family)
        if o & ~nbh == 0
    ]
    struct = p0set(len(family), family.index(0), pairs)
    chars = tight_characters(struct).chars
    index = {m: i for i, m in enumerate(chars)}

    mapping = []
    member_w = None
    for p in range(X.points):
        m = point_filter(X, family, p)
        if m not in index:
            member_w = (p,)
            mapping.append(-1)
        else:
            mapping.append(index[m])
    tight_ok = member_w is None

    bij = tight_ok and sorted(mapping) == list(range(len(chars)))

    open_w = None
    if tight_ok:
        for j, o in enumerate(family):
            img = 0
            for p in bits(o):
                img |= 1 << mapping[p]
            oj = 0
            for i, M in enumerate(chars):
                if M >> j & 1:
                    oj |= 1 << i
            if img != oj:
                open_w = (j,)
                break

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
    from .core import order_predicates

    sep = order_predicates(B).holds("separative")
    X = spectrum_space(B)
    basis = X.basis
    pb = is_pseudobasis(X, basis)
    der = derived_relations(B)

    iso_w = None
    for x in range(B.size):
        for y in range(B.size):
            if (basis[x] & ~basis[y] == 0) != (der.preceq[x] >> y & 1 == 1):
                iso_w = (x, y)
                break
        if iso_w:
            break
    injective = len(set(basis)) == B.size

    if sep:
        expected = pb.passed and pb.all_clopen() and iso_w is None and injective
    else:
        expected = not injective or iso_w is not None

    checks = [
        Check("separative", sep),
        Check("pseudobasis", pb.passed),
        Check("clopen_members", pb.all_clopen()),
        Check("order_isomorphism", iso_w is None, iso_w),
        Check("injective", injective),
        Check("outcome_matches_class", expected),
    ]
    return Report("pseudochar", tuple(checks), passed=expected)


def separativity_chain(B: P0Set) -> Report:
    """Separative implies an injective principal embedding implies section
    semicomplementedness, with all three equivalent on meet semilattices."""
    from .core import order_predicates

    preds = order_predicates(B)
    sep = preds.holds("separative")
    ssc = preds.holds("ssc")
    rhos = [rho(B, x) for x in range(B.size)]
    inj = len(set(rhos)) == B.size
    chain = (not sep or inj) and (not inj or ssc)
    if preds.holds("meet_semilattice"):
        sem_eq = sep == inj == ssc
    else:
        sem_eq = None
    checks = [
        Check("separative", sep),
        Check("rho_injective", inj),
        Check("ssc", ssc),
        Check("chain_respected", chain),
        Check("semilattice_equivalence", sem_eq),
    ]
    return Report(
        "separativity_chain",
        tuple(checks),
        passed=chain and sem_eq is not False,
    )


def _scan_characters(B: P0Set) -> tuple[SubsetMask, ...]:
    """Tight characters by a scan of every candidate one-set M.

    M fails when some F inside M covers into the complement of M; lower
    bounds shrink as F grows, so F = M alone decides it.
    """
    lbt, mut = lower_bound_table(B), meets_preceq_table(B)
    zb = 1 << B.zero
    fm = full_mask(B.size)
    return tuple(
        M
        for M in range(1, 1 << B.size)
        if not M & zb and lbt[M] & ~(mut[fm & ~M] | zb)
    )


def _scan_centred(B: P0Set) -> tuple[SubsetMask, ...]:
    """Maximal centred sets by a scan of every subset.

    A subset of a centred set is centred, so a centred set is maximal
    when adding any one element breaks it.
    """
    lbt = lower_bound_table(B)
    zb = 1 << B.zero
    centred = [lb & ~zb != 0 for lb in lbt]
    return tuple(
        C
        for C in range(1 << B.size)
        if centred[C]
        and not any(centred[C | 1 << b] for b in range(B.size) if not C >> b & 1)
    )


def spectrum_vs_stone(B: P0Set, cross_check: bool | None = None) -> Report:
    """Identify the tight characters with the ultrafilters of the
    enveloping algebra.

    Ultrafilter i of the algebra is the set of atom masks holding atom i;
    each is verified to be a proper filter that decides every complement
    pair, which characterizes ultrafilters in a finite Boolean algebra.
    Their pullbacks along the principal embedding, the closed-form
    characters and the closed-form maximal centred sets are compared with
    scans of every subset of the carrier.  With `cross_check` (on by
    default) an algebra of at most three atoms also has its ultrafilters
    and characters re-derived from its order alone.
    """
    if B.size > VS_STONE_CAP:
        raise CapExceeded(f"capped at carrier {VS_STONE_CAP}")
    S = enveloping_algebra(B)
    k = len(S.signatures)
    size = 1 << k
    top = size - 1
    ults = [mask_from(T for T in range(size) if T >> i & 1) for i in range(k)]

    filter_w = None
    for i, U in enumerate(ults):
        members = bit_list(U)
        up_ok = all(T & ~V or U >> V & 1 for T in members for V in range(size))
        directed = all(U >> (T & V) & 1 for T in members for V in members)
        proper = not U & 1
        decides = all((U >> T & 1) != (U >> (top & ~T) & 1) for T in range(size))
        if not (up_ok and directed and proper and decides):
            filter_w = (i,)
            break
    ultra_ok = filter_w is None

    pullbacks = [
        mask_from(x for x in range(B.size) if U >> S.rho_index[x] & 1) for U in ults
    ]
    chars = _scan_characters(B)
    bij = (
        len(set(pullbacks)) == len(pullbacks)
        and sorted(pullbacks) == list(chars)
        and tight_characters(B).chars == chars
    )

    centred_match = maximal_centred_sets(B) == _scan_centred(B) == chars

    if cross_check is None:
        cross_check = True
    if cross_check and k <= 3:
        from .stone import enumerate_ultrafilters

        sp = S.as_p0set()
        scan_ok = (
            sorted(ults)
            == list(enumerate_ultrafilters(sp))
            == list(tight_characters(sp).chars)
        )
        scan_check = Check("brute_force_agreement", scan_ok)
    else:
        scan_check = Check("brute_force_agreement", None)

    checks = [
        Check("algebra_ultrafilters_verified", ultra_ok, filter_w),
        Check("pullback_bijection", bij),
        Check("centred_match", centred_match),
        scan_check,
    ]
    return report("spectrum_vs_stone", checks)
