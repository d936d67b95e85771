"""Tight characters, the tight spectrum, pseudobasis checks, and the
separativity characterization.

Characters are represented by their one-sets as bitmasks, unifying them
with the filter machinery.  A zero-preserving two-valued map is tight
exactly when no subset of its one-set covers into the complement, which
reduces the classification of all candidates to a single subset sweep.

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
    meets_preceq_table,
    submasks,
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

CHARACTER_CAP = 10
CENTRED_CAP = 12
VS_STONE_CAP = 8


@dataclass(frozen=True)
class CharacterSet:
    base: P0Set
    chars: tuple[SubsetMask, ...]

    def __len__(self) -> int:
        return len(self.chars)


def _char_masks(B: P0Set, require_empty_cover: bool) -> list[SubsetMask]:
    """One-sets M of zero-preserving two-valued maps violating no cover.

    A violation needs a cover from inside M into its complement; covers
    grow with the right argument, so only the full complement is tested.
    `require_empty_cover` includes the empty left side (tight) or not
    (tightish).
    """
    lbt = lower_bound_table(B)
    mut = meets_preceq_table(B)
    zb = 1 << B.zero
    fm = full_mask(B.size)
    out = []
    for M in range(1, 1 << B.size):
        if M & zb:
            continue
        comp = fm & ~M
        target = mut[comp] | zb
        ok = True
        for F in submasks(M):
            if F == 0 and not require_empty_cover:
                continue
            if lbt[F] & ~target == 0:
                ok = False
                break
        if ok:
            out.append(M)
    return sorted(out)


@lru_cache(maxsize=None)
def tight_characters(B: P0Set) -> CharacterSet:
    """All nonzero tight characters, as sorted one-set masks."""
    if B.size > CHARACTER_CAP:
        raise CapExceeded(f"character enumeration capped at carrier {CHARACTER_CAP}")
    return CharacterSet(B, tuple(_char_masks(B, require_empty_cover=True)))


def tightish_characters(B: P0Set) -> CharacterSet:
    """Nonzero tightish characters; equal to the tight ones on finite
    structures since every nonzero tightish character is coinitial."""
    if B.size > CHARACTER_CAP:
        raise CapExceeded(f"character enumeration capped at carrier {CHARACTER_CAP}")
    return CharacterSet(B, tuple(_char_masks(B, require_empty_cover=False)))


@lru_cache(maxsize=None)
def maximal_centred_sets(B: P0Set) -> tuple[SubsetMask, ...]:
    """Maximal subsets whose every finite part has a nonzero lower bound.

    Bounds shrink as the set grows, so a set is centred exactly when it
    has a nonzero common lower bound itself (the empty part asks only
    that the carrier is not zero alone).
    """
    if B.size > CENTRED_CAP:
        raise CapExceeded(f"centred-set enumeration capped at carrier {CENTRED_CAP}")
    lbt = lower_bound_table(B)
    zb = 1 << B.zero
    centred = [C for C in range(1 << B.size) if lbt[C] & ~zb]
    return tuple(
        sorted(
            C
            for C in centred
            if not any(D != C and D & C == C for D in centred)
        )
    )


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

    coin_w = None
    for o in X.opens:
        if o and not any(n and n & ~o == 0 for n in family):
            coin_w = (o,)
            break

    t0_w = None
    for p in range(X.points):
        for q in range(p + 1, X.points):
            if not any((o >> p & 1) != (o >> q & 1) for o in family):
                t0_w = (p, q)
                break
        if t0_w:
            break

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
    conditions and the density of the maximal-centred indicators are
    theorems; they are re-verified here and a failure signals a bug.
    Outside that scope (elements order-equivalent to zero, say) the
    identities genuinely fail and the space is built without the asserts.
    """
    from .core import antisymmetry_violation

    chars = tight_characters(B).chars
    if len(chars) > 16:
        raise CapExceeded("spectrum beyond 16 characters")
    basis = []
    for x in range(B.size):
        o = 0
        for i, M in enumerate(chars):
            if M >> x & 1:
                o |= 1 << i
        basis.append(o)
    X = discrete_topology(len(chars), basis)
    if antisymmetry_violation(B) is None:
        pb = is_pseudobasis(X, basis)
        if not pb.passed:
            raise InternalCheckFailed("principal opens failed the pseudobasis conditions")
        if tuple(chars) != maximal_centred_sets(B):
            raise InternalCheckFailed("maximal centred indicators are not the characters")
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

    if B.size > CHARACTER_CAP:
        raise CapExceeded(f"capped at carrier {CHARACTER_CAP}")
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


def spectrum_vs_stone(B: P0Set, cross_check: bool | None = None) -> Report:
    """Identify the tight characters with the ultrafilters of the
    enveloping algebra.

    Ultrafilters of the finite algebra are computed as principal up-sets
    of its atoms; each candidate is verified to be a proper filter that
    decides every complement pair, which characterizes ultrafilters in a
    finite Boolean algebra.  With `cross_check` (default: on for algebras
    of at most 10 elements) the ultrafilters and characters of the algebra
    are re-derived by the brute-force scans and compared.
    """
    if B.size > VS_STONE_CAP:
        raise CapExceeded(f"capped at carrier {VS_STONE_CAP}")
    S = enveloping_algebra(B)
    k = len(S.elements)
    atoms = S.atoms()
    top = S.top_index()

    ults = []
    for a in atoms:
        U = 0
        for i, m in enumerate(S.elements):
            if S.elements[a] & ~m == 0:
                U |= 1 << i
        ults.append(U)

    filter_w = None
    for a, U in zip(atoms, ults):
        members = bit_list(U)
        up_ok = all(
            not (S.elements[i] & ~S.elements[j] == 0) or U >> j & 1
            for i in members
            for j in range(k)
        )
        directed = all(U >> S.meet_t[i][j] & 1 for i in members for j in members)
        proper = not U >> 0 & 1
        decides = all((U >> i & 1) != (U >> S.diff_t[top][i] & 1) for i in range(k))
        if not (up_ok and directed and proper and decides):
            filter_w = (a,)
            break
    ultra_ok = filter_w is None

    pullbacks = []
    for U in ults:
        m = 0
        for x in range(B.size):
            if U >> S.rho_index[x] & 1:
                m |= 1 << x
        pullbacks.append(m)
    chars = tight_characters(B).chars
    bij = len(set(pullbacks)) == len(pullbacks) and sorted(pullbacks) == list(chars)

    centred_match = maximal_centred_sets(B) == chars

    if cross_check is None:
        cross_check = k <= 10
    if cross_check and k <= 12:
        from .stone import enumerate_ultrafilters

        sp = S.as_p0set()
        brute_ults = enumerate_ultrafilters(sp)
        scan_ok = sorted(ults) == list(brute_ults)
        if k <= CHARACTER_CAP:
            s_chars = tight_characters(sp).chars
            scan_ok = scan_ok and sorted(ults) == list(s_chars)
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
