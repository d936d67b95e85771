"""Named verification suites: the acceptance gate behind `verify`.

Each suite sweeps a documented class of structures and returns a
SuiteResult with one detail line per sub-property.  All sweeps are
deterministic given the seed.

The "size up to six" pools run the exhaustive catalog through size five
(the full enumeration cap), every partial order with bottom on six
elements, and a seeded batch of random size-six structures; full labeled
enumeration of general relations on six elements is beyond desk scale.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from . import axioms, lab, saturation, spectrum, stone, tight
from .core import P0Set, antisymmetry_violation, full_mask, lattice_tables, order_predicates, subset_fold
from .errors import ConstructionIncomplete, PreconditionFailed, UnknownSuite


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0  # set by run_suite

    def render(self) -> str:
        head = f"[suite {self.name}] {'PASS' if self.passed else 'FAIL'} ({self.seconds:.2f}s)"
        return "\n".join([head] + [f"  {line}" for line in self.details])

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "details": list(self.details), "seconds": self.seconds}


@lru_cache(maxsize=None)
def catalog(max_n: int) -> tuple[P0Set, ...]:
    """Every structure of size <= max_n from the labeled enumeration."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(lab.enumerate_structures(n))
    return tuple(out)


@lru_cache(maxsize=None)
def pool_size6(seed: int = 0, random_count: int = 500) -> tuple[P0Set, ...]:
    """The documented stand-in for "every structure of size <= 6"."""
    out = list(catalog(5))
    out.extend(lab.enumerate_structures(6, reflexive_only=True))
    rng = random.Random(seed)
    seen = set(out)
    for _ in range(random_count):
        B = lab.random_p0set(6, rng.getrandbits(32), False, rng.uniform(0.05, 0.5))
        if B not in seen:
            seen.add(B)
            out.append(B)
    return tuple(out)


def _named():
    return {
        "e0": lab.make_family("antichain", 2),
        "c2": lab.make_family("chain", 2),
        "p2": lab.make_family("powerset", 2),
        "p3": lab.make_family("powerset", 3),
        "d3": lab.make_family("diamond", 3),
        "w5": lab.make_family("interpolation_witness", 0),
    }


# ---------------------------------------------------------------------------
# criterion 1


def suite_example_tightness(seed: int = 0) -> SuiteResult:
    """The two-atom example: its single nontrivial cover and the tightness
    of the atom embedding depending on the codomain.

    A covering pair is trivial when the sides intersect or the left side
    has only zero below it.
    """
    nm = _named()
    e0, p2, p3 = nm["e0"], nm["p2"], nm["p3"]
    details = []
    ok = True

    nontrivial = []
    for C in range(8):
        for D in range(8):
            if bin(C).count("1") > 2 or bin(D).count("1") > 2:
                continue
            if not tight.covers(e0, C, D):
                continue
            if C & D:
                continue
            if tight.lower_bounds(e0, C) & ~1 == 0:
                continue
            nontrivial.append((C, D))
    single = nontrivial == [(0, 0b110)]
    ok &= single
    details.append(f"nontrivial covers among small pairs: {nontrivial} {'ok' if single else 'BAD'}")

    b3 = tight.struct_map(e0, p3, (0, 1, 2))
    r3 = tight.map_properties(b3)
    cond = bool(r3.holds("tightish")) and not r3.holds("tight")
    ok &= cond
    details.append(f"atoms into the eight-element algebra: tightish={r3.holds('tightish')} tight={r3.holds('tight')}")

    b2 = tight.struct_map(e0, p2, (0, 1, 2))
    r2 = tight.map_properties(b2)
    ok &= bool(r2.holds("tight"))
    details.append(f"restricted codomain: tight={r2.holds('tight')}")
    return SuiteResult("example_tightness", bool(ok), details)


# ---------------------------------------------------------------------------
# criterion 2


def _hausdorff_separating(k: int, fam) -> bool:
    """Distinct points lie in disjoint members.  This is the separation the
    basis of a Hausdorff space provides; mere one-sided separation admits
    families like {empty, {1}, {1,2}} over two discrete points, whose
    inclusion order is the three-chain and genuinely not a basic lattice."""
    return all(
        any(a >> p & 1 and b >> q & 1 and a & b == 0 for a in fam for b in fam)
        for p in range(k)
        for q in range(k)
        if p != q
    )


def _discrete_families(k: int):
    """Families over a discrete k-set containing the empty set that cover,
    separate points in the Hausdorff sense, and are union- and
    intersection-closed; plus, flagged, the plain bases (empty set and all
    singletons present) whose point-filter claim holds without closure."""
    fm = full_mask(k)
    subsets = list(range(1 << k))
    closed_fams = []
    basis_fams = []
    for code in range(1 << len(subsets)):
        if not code & 1:  # empty set required
            continue
        fam = [s for s in subsets if code >> s & 1]
        famset = set(fam)
        cover = 0
        for s in fam:
            cover |= s
        if cover != fm:
            continue
        is_basis = all(1 << p in famset for p in range(k))
        closed = not any(
            a | b not in famset or a & b not in famset for a in fam for b in fam
        )
        if closed and _hausdorff_separating(k, fam):
            closed_fams.append(fam)
        elif is_basis:
            basis_fams.append(fam)
    return closed_fams, basis_fams


def _random_basis(k: int, rng: random.Random, closed: bool):
    """Seeded basis of the discrete k-set: the empty set, all singletons,
    and random extra members; optionally union/intersection-closed."""
    fm = full_mask(k)
    fam = {0} | {1 << p for p in range(k)}
    for _ in range(rng.randint(0, 6)):
        fam.add(rng.randint(0, fm))
    if closed:
        changed = True
        while changed:
            changed = False
            for a in list(fam):
                for b in list(fam):
                    for c in (a | b, a & b):
                        if c not in fam:
                            fam.add(c)
                            changed = True
    return sorted(fam)


def _points_bijection_ok(k: int, fam) -> bool:
    X = stone.discrete_topology(k, fam)
    S = stone.basis_to_structure(X, fam)
    space = stone.stone_space(S)
    if space.points != k:
        return False
    ults = stone.enumerate_ultrafilters(S)
    pf = [stone.point_filter(X, fam, p) for p in range(k)]
    return sorted(pf) == list(ults) and len(set(pf)) == k


def _roundtrip_ok(k: int, fam) -> bool:
    X = stone.discrete_topology(k, fam)
    S = stone.basis_to_structure(X, fam)
    if not axioms.is_basic_lattice(S):
        return False
    return _points_bijection_ok(k, fam)


def suite_duality_round_trip(seed: int = 0) -> SuiteResult:
    """Round trip through basis_to_structure and the Stone space.

    Exhaustive over discrete sets of at most three points: every
    union/intersection-closed Hausdorff-separating family with the empty
    set round-trips to a basic lattice with one Stone point per space
    point; every plain basis (all singletons present) at least recovers
    its points through point filters.  200 seeded random bases at four
    points, with the closed ones round-tripped in full.
    """
    details = []
    ok = True
    for k in range(0, 4):
        closed_fams, basis_fams = _discrete_families(k)
        bad = [f for f in closed_fams if not _roundtrip_ok(k, f)]
        bad_basis = [f for f in basis_fams if not _points_bijection_ok(k, f)]
        ok &= not bad and not bad_basis
        details.append(
            f"|X|={k}: {len(closed_fams)} closed families ({len(bad)} failures), "
            f"{len(basis_fams)} further bases ({len(bad_basis)} failures)"
        )
    rng = random.Random(seed)
    bad4 = 0
    for i in range(200):
        closed = i % 2 == 0
        fam = _random_basis(4, rng, closed)
        good = _roundtrip_ok(4, fam) if closed else _points_bijection_ok(4, fam)
        if not good:
            bad4 += 1
    ok &= bad4 == 0
    details.append(f"|X|=4: 200 random bases, {bad4} failures")
    return SuiteResult("duality_round_trip", bool(ok), details)


# ---------------------------------------------------------------------------
# criteria 3 and 4


@lru_cache(maxsize=None)
def _basic_lattices_upto5() -> tuple[P0Set, ...]:
    return tuple(B for B in catalog(5) if axioms.is_basic_lattice(B))


def suite_duality_equations(seed: int = 0) -> SuiteResult:
    lats = _basic_lattices_upto5()
    bad = [B for B in lats if not stone.verify_duality(B).passed]
    details = [f"basic lattices of size <= 5: {len(lats)}; duality failures: {len(bad)}"]
    return SuiteResult("duality_equations", not bad, details)


def suite_ultrafilter_characterizations(seed: int = 0) -> SuiteResult:
    lats = _basic_lattices_upto5()
    checked = 0
    bad = 0
    for B in lats:
        fm = full_mask(B.size)
        for U in stone.enumerate_filters(B):
            if U == 0 or U == fm:
                continue
            checked += 1
            if not stone.ultrafilter_properties(B, U).passed:
                bad += 1
    details = [f"{checked} nonempty proper filters over {len(lats)} basic lattices; {bad} disagreements"]
    return SuiteResult("ultrafilter_characterizations", bad == 0, details)


# ---------------------------------------------------------------------------
# criterion 5


def suite_reflexive_collapse(seed: int = 0) -> SuiteResult:
    bad = []
    count = 0
    for n in range(1, 6):
        for B in lab.enumerate_structures(n, reflexive_only=True):
            count += 1
            if axioms.is_basic_lattice(B) != bool(
                order_predicates(B).holds("generalized_boolean")
            ):
                bad.append(B)
    details = [f"{count} partial orders with bottom; {len(bad)} collapse failures"]
    return SuiteResult("reflexive_collapse", not bad, details)


# ---------------------------------------------------------------------------
# criterion 6


def suite_alternate_axioms(seed: int = 0) -> SuiteResult:
    checked = 0
    bad = 0
    for B in catalog(5):
        preds = order_predicates(B)
        if not preds.holds("lattice"):
            continue
        try:
            rep = axioms.check_alternate_axioms(B)
        except PreconditionFailed:
            continue  # cofinality precondition failed
        checked += 1
        if not rep.holds("equivalent"):
            bad += 1
    details = [f"{checked} lattices with cofinality; {bad} bundle disagreements"]
    return SuiteResult("alternate_axioms", bad == 0, details)


# ---------------------------------------------------------------------------
# criterion 7


def suite_semilattice_frames(seed: int = 0) -> SuiteResult:
    nm = _named()
    details = []
    ok = True

    e0_ok = axioms.check_basic_semilattice(nm["e0"]).passed
    ok &= e0_ok
    details.append(f"two-atom example is a basic semilattice: {e0_ok}")

    c2r = axioms.check_basic_semilattice(nm["c2"])
    c2_ok = not c2r.passed and c2r["theta"].holds is False and c2r["theta"].witness[0] == 1
    ok &= c2_ok
    details.append(f"three-chain fails exactly at the first type sentence: {c2_ok}")

    lat_bad = [
        B for B in _basic_lattices_upto5() if not axioms.is_basic_semilattice(B)
    ]
    ok &= not lat_bad
    details.append(f"basic lattices that fail the semilattice check: {len(lat_bad)}")

    semis = [B for B in catalog(5) if axioms.is_basic_semilattice(B)]
    frame_bad = [B for B in semis if not saturation.verify_frame(B).passed]
    ok &= not frame_bad
    details.append(f"basic semilattices of size <= 5: {len(semis)}; frame failures: {len(frame_bad)}")
    return SuiteResult("semilattice_frames", bool(ok), details)


# ---------------------------------------------------------------------------
# criterion 8


def suite_type_witness(seed: int = 0) -> SuiteResult:
    w5 = _named()["w5"]
    one = axioms.phi_holds(w5, 3, 4, 1)
    two = axioms.phi_holds(w5, 3, 4, 2)
    ok = one and not two
    details = [f"witness pair: level one {one}, level two {two}"]
    return SuiteResult("type_witness", ok, details)


# ---------------------------------------------------------------------------
# criterion 9


def suite_cover_envelope(seed: int = 0) -> SuiteResult:
    bad = [B for B in catalog(5) if not tight.verify_fgrho(B).passed]
    details = [f"exhaustive size <= 5: {len(catalog(5))} structures, {len(bad)} failures"]
    rng = random.Random(seed)
    rbad = 0
    for i in range(500):
        n = 2 + i % 6  # sizes 2..7
        B = lab.random_p0set(n, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.05, 0.6))
        if not tight.verify_fgrho(B).passed:
            rbad += 1
    details.append(f"500 random structures of size <= 7: {rbad} failures")
    return SuiteResult("cover_envelope", not bad and rbad == 0, details)


# ---------------------------------------------------------------------------
# criterion 10


def _atom_uniqueness(S: tight.RegularOpenAlgebra, beta, pi) -> bool:
    """Count the algebra homomorphisms extending the map through the
    embedding by enumerating values on atoms; exactly one must exist and
    match the constructed factor."""
    A = beta.target
    mtA, jtA = lattice_tables(A)
    size = 1 << len(S.signatures)
    matches = 0
    for vals in product(range(A.size), repeat=len(S.signatures)):
        assign = subset_fold(vals, lambda a, v: jtA[a][v], A.zero)
        if any(
            assign[S.rho_index[x]] != beta.assignment[x] for x in range(beta.source.size)
        ):
            continue
        good = all(
            assign[T & U] == mtA[assign[T]][assign[U]]
            and assign[T | U] == jtA[assign[T]][assign[U]]
            for T in range(size)
            for U in range(size)
        )
        if good:
            matches += 1
            if assign != pi.assignment:
                return False
    return matches == 1


def suite_universal_factoring(seed: int = 0) -> SuiteResult:
    """Exhaustive factoring of every tightish map from small structures
    into the four- and eight-element algebras.

    Uniqueness holds structurally: each atom is a Boolean expression in
    the generators, so its value is forced.  The atom-value enumeration
    below re-verifies it explicitly on a deterministic subsample.
    """
    nm = _named()
    targets = [nm["p2"], nm["p3"]]
    structures = catalog(4)
    factored = 0
    tight_transfers = 0
    bad = []
    sampled_unique = 0
    idx = 0
    for B in structures:
        S = None
        for A in targets:
            for beta in tight.zero_preserving_maps(B, A):
                props = tight.map_properties(beta)
                if not props.holds("tightish"):
                    continue
                if S is None:
                    S = tight.enveloping_algebra(B)
                try:
                    pi = tight.factor_tight(beta)
                except ConstructionIncomplete as exc:
                    bad.append((B, beta, f"factoring raised {exc!r}"))
                    continue
                factored += 1
                # composition with the embedding gives the map back
                if any(
                    pi.assignment[S.rho_index[x]] != beta.assignment[x]
                    for x in range(B.size)
                ):
                    bad.append((B, beta, "factor does not restrict to the map"))
                idx += 1
                if idx % 25 == 0 and len(S.signatures) * 3 <= 12:
                    sampled_unique += 1
                    if not _atom_uniqueness(S, beta, pi):
                        bad.append((B, beta, "atom enumeration found another factor"))
                if props.holds("tight"):
                    tight_transfers += 1
                    if not tight.map_properties(pi).holds("tight"):
                        bad.append((B, beta, "tight map factored to a non-tight one"))
    details = [
        f"{factored} tightish maps factored over {len(structures)} structures",
        f"tight transfers checked: {tight_transfers}",
        f"atom-enumeration uniqueness samples: {sampled_unique}",
        f"failures: {len(bad)}",
    ]
    return SuiteResult("universal_factoring", not bad, details)


# ---------------------------------------------------------------------------
# criterion 11


def suite_naturality(seed: int = 0) -> SuiteResult:
    nm = _named()
    objs = [nm["e0"], nm["p2"], nm["c2"]]
    tight_maps = {}
    for B in objs:
        for A in objs:
            tight_maps[(id(B), id(A))] = [
                beta
                for beta in tight.zero_preserving_maps(B, A)
                if tight.map_properties(beta).holds("tight")
            ]
    ok = True
    squares = 0
    laws = 0
    bad = 0
    for B in objs:
        if not tight.functor_identity(B).passed:
            bad += 1
    for B in objs:
        for A in objs:
            for beta in tight_maps[(id(B), id(A))]:
                squares += 1
                _, rep = tight.naturality_square(beta)
                if not rep.passed:
                    bad += 1
            for Z in objs:
                for beta in tight_maps[(id(B), id(A))]:
                    for beta2 in tight_maps[(id(A), id(Z))]:
                        laws += 1
                        if not tight.functor_composition(beta, beta2).passed:
                            bad += 1
    details = [
        f"{squares} squares, {laws} composition laws, identities on 3 objects; {bad} failures"
    ]
    return SuiteResult("naturality", bad == 0, details)


# ---------------------------------------------------------------------------
# criteria 12, 13, 14


def suite_spectrum_counts(seed: int = 0) -> SuiteResult:
    """Characters = maximal centred sets = algebra ultrafilters, with the
    explicit identifications, over the size-6 pool.

    The identifications are theorems about structures whose
    reflexivization is a partial order; with an element order-equivalent
    to zero the principal embedding does not even preserve zero, so
    non-poset reflexivizations are outside the sweep (and are counted).
    """
    pool = pool_size6(seed)
    scoped = [B for B in pool if antisymmetry_violation(B) is None]
    bad = 0
    for B in scoped:
        rep = spectrum.spectrum_vs_stone(B, cross_check=B.size <= 4)
        if not rep.passed:
            bad += 1
    details = [
        f"{len(scoped)} of {len(pool)} pool structures have partial-order "
        f"reflexivizations; {bad} identification failures"
    ]
    return SuiteResult("spectrum_counts", bad == 0, details)


def suite_pseudobasis(seed: int = 0) -> SuiteResult:
    pool = pool_size6(seed)
    details = []
    bad = 0
    seps = 0
    for B in pool:
        rep = spectrum.verify_pseudochar(B)
        if rep.holds("separative"):
            seps += 1
        if not rep.passed:
            bad += 1
    details.append(
        f"{len(pool)} structures ({seps} separative); class-outcome failures: {bad}"
    )
    hbad = 0
    hcount = 0
    for k in range(0, 4):
        for code in range(1 << (1 << k)):
            fam = [s for s in range(1 << k) if code >> s & 1]
            X = stone.discrete_topology(k, fam)
            pb = spectrum.is_pseudobasis(X, fam)
            if not (pb.passed and pb.all_clopen()):
                continue
            hcount += 1
            _, rep = spectrum.spectrum_homeomorphism(X, fam)
            if not rep.passed:
                hbad += 1
    details.append(f"{hcount} clopen pseudobases over discrete sets of size <= 3; {hbad} failures")
    return SuiteResult("pseudobasis", bad == 0 and hbad == 0, details)


def suite_separativity_chain(seed: int = 0) -> SuiteResult:
    pool = pool_size6(seed)
    chain_bad = 0
    equi_bad = 0
    msl_count = 0
    for B in pool:
        rep = spectrum.separativity_chain(B)
        if not rep.holds("chain_respected"):
            chain_bad += 1
        if rep.holds("semilattice_equivalence") is not None:
            msl_count += 1
            if rep.holds("semilattice_equivalence") is False:
                equi_bad += 1
    details = [
        f"{len(pool)} structures: {chain_bad} chain violations; "
        f"{msl_count} meet semilattices with {equi_bad} equivalence violations"
    ]
    cex = lab.search_counterexample("chain_respected", 8, 10_000, seed)
    details.append(f"random search over 10000 structures of size <= 8: {'none' if cex is None else 'FOUND'}")
    return SuiteResult(
        "separativity_chain",
        chain_bad == 0 and equi_bad == 0 and cex is None,
        details,
    )


# ---------------------------------------------------------------------------
# criterion 15


def suite_saturation_laws(seed: int = 0) -> SuiteResult:
    bad = 0
    for B in catalog(4):
        if not saturation.verify_subset_laws(B).passed:
            bad += 1
    details = [f"exhaustive size <= 4: {len(catalog(4))} structures, {bad} clause failures"]
    rng = random.Random(seed)
    rbad = 0
    for i in range(500):
        n = 2 + i % 5  # sizes 2..6
        B = lab.random_p0set(n, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.05, 0.6))
        if not saturation.verify_subset_laws(B).passed:
            rbad += 1
    details.append(f"500 random structures of size <= 6: {rbad} clause failures")
    return SuiteResult("saturation_laws", bad == 0 and rbad == 0, details)


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "example_tightness": suite_example_tightness,
    "duality_round_trip": suite_duality_round_trip,
    "duality_equations": suite_duality_equations,
    "ultrafilter_characterizations": suite_ultrafilter_characterizations,
    "reflexive_collapse": suite_reflexive_collapse,
    "alternate_axioms": suite_alternate_axioms,
    "semilattice_frames": suite_semilattice_frames,
    "type_witness": suite_type_witness,
    "cover_envelope": suite_cover_envelope,
    "universal_factoring": suite_universal_factoring,
    "naturality": suite_naturality,
    "spectrum_counts": suite_spectrum_counts,
    "pseudobasis": suite_pseudobasis,
    "separativity_chain": suite_separativity_chain,
    "saturation_laws": suite_saturation_laws,
}

CRITERIA = list(SUITES)


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; known: {sorted(SUITES)}")
    t0 = time.perf_counter()
    result = SUITES[name](seed)
    result.seconds = time.perf_counter() - t0
    return result
