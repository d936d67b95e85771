"""Named verification suites: the acceptance gate behind `verify`.

Each suite sweeps a documented class of structures and returns a
SuiteResult with one detail line per sub-property.  All sweeps are
deterministic given the seed.

The "size up to six" pool holds the exhaustive catalog through size five
(the full enumeration cap), every partial order with bottom on six
elements, and a seeded batch of random size-six structures; full labeled
enumeration of general relations on six elements is beyond desk scale.
The catalog through size k is the pool's structures of size at most k,
in enumeration order.  `run_suites` builds the pool when a suite first
reads it and drops it when the run ends; only bounded caches outlive a
run: the sharing index, `axioms._join_reach` and `morphisms.is_interpolator`.
The discrete families come in closed form from `_discrete_bases`, and the
random structures of `separativity_chain` from `lab.random_stream`, which
`search` draws from.
"""

from __future__ import annotations

import random
import time
from itertools import islice, product
from operator import or_
from typing import Callable, NamedTuple

from . import axioms, lab, saturation, spectrum, stone, tight
from .core import (P0Set, antisymmetry_violation, full_mask, lower_bound_table, order_predicates,
                   subset_fold)
from .errors import InputError, InternalCheckFailed, PreconditionFailed


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    details: list[str]
    seconds: float = 0.0  # set by run_suites

    def render(self) -> str:
        head = f"[suite {self.name}] {'PASS' if self.passed else 'FAIL'} ({self.seconds:.2f}s)"
        return "\n".join([head] + [f"  {line}" for line in self.details])

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "details": list(self.details), "seconds": self.seconds}


def pool_size6(seed: int) -> tuple[P0Set, ...]:
    """The documented stand-in for "every structure of size <= 6": the
    catalog through size five, every partial order of size six, and 500
    seeded random structures of size six."""
    out = [B for n in range(1, 6) for B in lab.enumerate_structures(n)]
    out.extend(lab.enumerate_structures(6, reflexive_only=True))
    rng = random.Random(seed)
    seen = set(out)
    for _ in range(500):
        B = lab.random_p0set(6, rng.getrandbits(32), False, rng.uniform(0.05, 0.5))
        if B not in seen:
            seen.add(B)
            out.append(B)
    return tuple(out)


Pool = Callable[[], tuple[P0Set, ...]]


def _catalog(pool: Pool, max_n: int) -> list[P0Set]:
    """The catalog through size max_n: the pool's structures of that
    size or less, in enumeration order."""
    return [B for B in pool() if B.size <= max_n]


def _basic_lattices(pool: Pool) -> list[P0Set]:
    return [B for B in _catalog(pool, 5) if axioms.is_basic_lattice(B)]


def _failures(check, items) -> int:
    """How many of the items fail the check's report."""
    return sum(not check(item).passed for item in items)


def _random_batch(seed: int, max_n: int):
    """500 seeded random structures of sizes 2..max_n in turn, every
    other one reflexive."""
    rng = random.Random(seed)
    for i in range(500):
        n = 2 + i % (max_n - 1)
        yield lab.random_p0set(n, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.05, 0.6))


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


def suite_example_tightness(seed: int, pool: Pool) -> SuiteResult:
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


def _discrete_bases(k: int):
    """Every family of subsets of the discrete k-set that holds the empty
    set and every singleton, members ascending, the powerset last.

    These are exactly the clopen pseudobases of the discrete k-set.  Every
    set is clopen there.  Coinitiality asks each nonempty open to hold a
    nonempty member, and the open {p} can hold only {p}, so every singleton
    is a member; the singletons then cover and separate points (T0), and
    the minimum is the empty set.

    The last one, the powerset, is the only family holding the empty set
    that is union- and intersection-closed, covers, and separates points in
    the Hausdorff sense (distinct points in disjoint members).  The meet of
    the members holding p is a member, and separation leaves only p in it;
    unions of these singletons give every subset.  Mere one-sided
    separation would admit families like {empty, {1}, {1,2}} over two
    points, whose inclusion order is the three-chain and no basic lattice.
    """
    required = {0} | {1 << p for p in range(k)}
    others = [s for s in range(1 << k) if s not in required]
    for code in range(1 << len(others)):
        yield sorted(required | {s for i, s in enumerate(others) if code >> i & 1})


def _random_basis(k: int, rng: random.Random):
    """Seeded basis of the discrete k-set: the empty set, all singletons,
    and random extra members."""
    fm = full_mask(k)
    fam = {0} | {1 << p for p in range(k)}
    for _ in range(rng.randint(0, 6)):
        fam.add(rng.randint(0, fm))
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


def suite_duality_round_trip(seed: int, pool: Pool) -> SuiteResult:
    """Round trip through basis_to_structure and the Stone space.

    Exhaustive over discrete sets of at most three points, through
    `_discrete_bases`: the powerset, the one union/intersection-closed
    Hausdorff-separating family with the empty set, round-trips to a basic
    lattice with one Stone point per space point; every other basis (the
    empty set and all singletons present) at least recovers its points
    through point filters.  At four points the powerset round-trips, and
    200 seeded random bases recover their points.
    """
    details = []
    ok = True
    for k in range(0, 4):
        *bases, powerset = _discrete_bases(k)
        bad = not _roundtrip_ok(k, powerset)
        bad_basis = sum(not _points_bijection_ok(k, f) for f in bases)
        ok &= not bad and not bad_basis
        details.append(
            f"|X|={k}: 1 closed families ({bad:d} failures), "
            f"{len(bases)} further bases ({bad_basis} failures)"
        )
    rng = random.Random(seed)
    bad4 = (not _roundtrip_ok(4, range(1 << 4))) + sum(
        not _points_bijection_ok(4, _random_basis(4, rng)) for _ in range(200))
    ok &= bad4 == 0
    details.append(f"|X|=4: the powerset and 200 random bases, {bad4} failures")
    return SuiteResult("duality_round_trip", bool(ok), details)


# ---------------------------------------------------------------------------
# criteria 3 and 4


def suite_duality_equations(seed: int, pool: Pool) -> SuiteResult:
    lats = _basic_lattices(pool)
    bad = _failures(stone.verify_duality, lats)
    details = [f"basic lattices of size <= 5: {len(lats)}; duality failures: {bad}"]
    return SuiteResult("duality_equations", bad == 0, details)


def suite_ultrafilter_characterizations(seed: int, pool: Pool) -> SuiteResult:
    lats = _basic_lattices(pool)
    filters = [(B, U) for B in lats for U in stone.enumerate_filters(B)
               if U not in (0, full_mask(B.size))]
    bad = _failures(lambda BU: stone.ultrafilter_properties(*BU), filters)
    details = [f"{len(filters)} nonempty proper filters over {len(lats)} basic lattices; {bad} disagreements"]
    return SuiteResult("ultrafilter_characterizations", bad == 0, details)


# ---------------------------------------------------------------------------
# criterion 5


def suite_reflexive_collapse(seed: int, pool: Pool) -> SuiteResult:
    posets = [B for n in range(1, 6) for B in lab.enumerate_structures(n, reflexive_only=True)]
    bad = sum(axioms.is_basic_lattice(B) != bool(order_predicates(B).holds("generalized_boolean"))
              for B in posets)
    details = [f"{len(posets)} partial orders with bottom; {bad} collapse failures"]
    return SuiteResult("reflexive_collapse", bad == 0, details)


# ---------------------------------------------------------------------------
# criterion 6


def suite_alternate_axioms(seed: int, pool: Pool) -> SuiteResult:
    checked = 0
    bad = 0
    for B in _catalog(pool, 5):
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


def suite_semilattice_frames(seed: int, pool: Pool) -> SuiteResult:
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

    lat_bad = sum(not axioms.is_basic_semilattice(B) for B in _basic_lattices(pool))
    ok &= not lat_bad
    details.append(f"basic lattices that fail the semilattice check: {lat_bad}")

    semis = [B for B in _catalog(pool, 5) if axioms.is_basic_semilattice(B)]
    frame_bad = _failures(saturation.verify_frame, semis)
    ok &= not frame_bad
    details.append(f"basic semilattices of size <= 5: {len(semis)}; frame failures: {frame_bad}")
    return SuiteResult("semilattice_frames", bool(ok), details)


# ---------------------------------------------------------------------------
# criterion 8


def suite_type_witness(seed: int, pool: Pool) -> SuiteResult:
    w5 = _named()["w5"]
    one = axioms.phi_holds(w5, 3, 4, 1)
    two = axioms.phi_holds(w5, 3, 4, 2)
    ok = one and not two
    details = [f"witness pair: level one {one}, level two {two}"]
    return SuiteResult("type_witness", ok, details)


# ---------------------------------------------------------------------------
# criterion 9


def suite_cover_envelope(seed: int, pool: Pool) -> SuiteResult:
    structures = _catalog(pool, 5)
    bad = _failures(tight.verify_fgrho, structures)
    details = [f"exhaustive size <= 5: {len(structures)} structures, {bad} failures"]
    rbad = _failures(tight.verify_fgrho, _random_batch(seed, 7))
    details.append(f"500 random structures of size <= 7: {rbad} failures")
    return SuiteResult("cover_envelope", bad == 0 and rbad == 0, details)


# ---------------------------------------------------------------------------
# criterion 10


def _atom_uniqueness(S: tight.RegularOpenAlgebra, chi, pi) -> bool:
    """Try 0 or 1 on each atom, extended to the algebra by joins: exactly
    one choice must preserve meets and restrict to the character chi, and
    it must be the factor pi."""
    found = []
    for vals in product((0, 1), repeat=len(S.signatures)):
        assign = subset_fold(vals, or_, 0)
        elements = range(len(assign))
        if all(assign[S.rho_index[x]] == v for x, v in enumerate(chi.assignment)) and all(
                assign[T & U] == assign[T] & assign[U] for T in elements for U in elements):
            found.append(assign)
    return found == [pi.assignment]


def _tuple_map(maps, A: P0Set) -> tight.StructMapTotal:
    """The map into the powerset A whose coordinate j is the character maps[j]."""
    B = maps[0].source
    return tight.StructMapTotal(B, A, tuple(
        sum(m.assignment[x] << j for j, m in enumerate(maps)) for x in range(B.size)))


def suite_universal_factoring(seed: int, pool: Pool) -> SuiteResult:
    """The universal property at every powerset target, through characters.

    In a powerset, some nonzero element lies below every image of F and
    misses every image of G exactly when some atom does, so a map into
    `powerset k` is tightish (or tight) exactly when its k coordinate
    characters are, and its factor is the tuple of theirs.  Every tightish
    character of the catalog through size 4 and of a seeded size-5 sample
    is factored and checked, and seeded k-tuples of them, k = 2..6,
    against their coordinates.
    """
    rng = random.Random(seed)
    small = _catalog(pool, 4)
    sample = rng.sample([B for B in pool() if B.size == 5], 200)
    powersets = [lab.make_family("powerset", k) for k in range(7)]
    factored = tight_count = tuples = mixed = 0
    bad = []
    try:
        for B in small + sample:
            S = tight.enveloping_algebra(B)
            good, others, tight_chars = [], [], []
            for chi in tight.zero_preserving_maps(B, powersets[1]):
                props = tight.map_properties(chi)
                if not props.holds("tightish"):
                    others.append(chi)
                    continue
                pi = tight.factor_tight(chi)
                factored += 1
                good.append((chi, pi, props.holds("tight")))
                if not _atom_uniqueness(S, chi, pi):
                    bad.append((B, chi, "the factor is not the one homomorphism restricting to it"))
                if props.holds("tight"):
                    tight_chars.append(sum(v << x for x, v in enumerate(chi.assignment)))
                    if not tight.map_properties(pi).holds("tight"):
                        bad.append((B, chi, "tight character factored to a non-tight map"))
            tight_count += len(tight_chars)
            if tuple(sorted(tight_chars)) != spectrum._scan_characters(B, lower_bound_table(B)):
                bad.append((B, None, "tight characters differ from the subset scan's"))
            for k in range(2, 7) if good else ():
                chis, pis, flags = zip(*(rng.choice(good) for _ in range(k)))
                beta = _tuple_map(chis, powersets[k])
                props = tight.map_properties(beta)
                tuples += 1
                if (not props.holds("tightish") or props.holds("tight") != all(flags)
                        or tight.factor_tight(beta) != _tuple_map(pis, powersets[k])):
                    bad.append((B, beta, "tuple disagrees with its coordinates"))
                if others:
                    mixed += 1
                    chis = list(chis)
                    chis[rng.randrange(k)] = rng.choice(others)
                    if tight.map_properties(_tuple_map(chis, powersets[k])).holds("tightish"):
                        bad.append((B, chis, "a non-tightish coordinate left the tuple tightish"))
    except InternalCheckFailed as exc:
        bad.append((None, None, f"factoring raised {exc!r}"))
    details = [
        f"{factored} tightish characters factored over {len(small)} structures of "
        f"size <= 4 and {len(sample)} of size 5, uniqueness checked on each",
        f"tight characters checked for a tight factor and against the spectrum: {tight_count}",
        f"k-tuples into powerset 2..6: {tuples} of tightish characters, {mixed} with a non-tightish one",
        f"failures: {len(bad)}",
    ]
    return SuiteResult("universal_factoring", not bad, details)


# ---------------------------------------------------------------------------
# criterion 11


def suite_naturality(seed: int, pool: Pool) -> SuiteResult:
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
    squares = laws = 0
    bad = _failures(tight.functor_identity, objs)
    for B in objs:
        for A in objs:
            maps = tight_maps[(id(B), id(A))]
            squares += len(maps)
            bad += _failures(lambda beta: tight.naturality_square(beta)[1], maps)
            for Z in objs:
                pairs = list(product(maps, tight_maps[(id(A), id(Z))]))
                laws += len(pairs)
                bad += _failures(lambda pair: tight.functor_composition(*pair), pairs)
    details = [
        f"{squares} squares, {laws} composition laws, identities on 3 objects; {bad} failures"
    ]
    return SuiteResult("naturality", bad == 0, details)


# ---------------------------------------------------------------------------
# criteria 12, 13, 14


def suite_spectrum_counts(seed: int, pool: Pool) -> SuiteResult:
    """Characters = maximal centred sets = algebra ultrafilters, with the
    explicit identifications, over the size-6 pool.

    The identifications are theorems about structures whose
    reflexivization is a partial order; with an element order-equivalent
    to zero the principal embedding does not even preserve zero, so
    non-poset reflexivizations are outside the sweep (and are counted).
    """
    scoped = [B for B in pool() if antisymmetry_violation(B) is None]
    bad = _failures(lambda B: spectrum.spectrum_vs_stone(B, cross_check=B.size <= 4), scoped)
    details = [
        f"{len(scoped)} of {len(pool())} pool structures have partial-order "
        f"reflexivizations; {bad} identification failures"
    ]
    return SuiteResult("spectrum_counts", bad == 0, details)


def suite_pseudobasis(seed: int, pool: Pool) -> SuiteResult:
    details = []
    bad = 0
    seps = 0
    for B in pool():
        rep = spectrum.verify_pseudochar(B)
        if rep.holds("separative"):
            seps += 1
        if not rep.passed:
            bad += 1
    details.append(
        f"{len(pool())} structures ({seps} separative); class-outcome failures: {bad}"
    )
    hbad = 0
    hcount = 0
    for k in range(0, 4):
        for fam in _discrete_bases(k):
            hcount += 1
            _, rep = spectrum.spectrum_homeomorphism(stone.discrete_topology(k, fam), fam)
            if not rep.passed:
                hbad += 1
    details.append(f"{hcount} clopen pseudobases over discrete sets of size <= 3; {hbad} failures")
    return SuiteResult("pseudobasis", bad == 0 and hbad == 0, details)


def suite_separativity_chain(seed: int, pool: Pool) -> SuiteResult:
    """The separativity chain over the size-6 pool, which holds the catalog
    through size five, and over the first 5000 structures of the random
    stream `search` draws from at bound 8."""
    chain_bad = 0
    equi_bad = 0
    msl_count = 0
    for B in pool():
        rep = spectrum.separativity_chain(B)
        if not rep.holds("chain_respected"):
            chain_bad += 1
        if rep.holds("semilattice_equivalence") is not None:
            msl_count += 1
            if rep.holds("semilattice_equivalence") is False:
                equi_bad += 1
    details = [
        f"{len(pool())} structures: {chain_bad} chain violations; "
        f"{msl_count} meet semilattices with {equi_bad} equivalence violations"
    ]
    stream_bad = sum(not spectrum.separativity_chain(B).holds("chain_respected")
                     for B in islice(lab.random_stream(8, seed), 5000))
    details.append(f"5000 random structures of size <= 8: {stream_bad} chain violations")
    return SuiteResult(
        "separativity_chain",
        chain_bad == 0 and equi_bad == 0 and stream_bad == 0,
        details,
    )


# ---------------------------------------------------------------------------
# criterion 15


def suite_saturation_laws(seed: int, pool: Pool) -> SuiteResult:
    structures = _catalog(pool, 4)
    bad = _failures(saturation.verify_subset_laws, structures)
    details = [f"exhaustive size <= 4: {len(structures)} structures, {bad} clause failures"]
    rbad = _failures(saturation.verify_subset_laws, _random_batch(seed, 6))
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


def run_suites(names, seed: int = 0):
    """Run the named suites in order, yielding each timed result as it
    finishes.  The pool is built when a suite first reads it, shared by
    the later suites, and dropped when the run ends."""
    for name in names:
        if name not in SUITES:
            raise InputError(f"no suite named {name!r}; known: {sorted(SUITES)}")
    built = []

    def pool() -> tuple[P0Set, ...]:
        if not built:
            built.append(pool_size6(seed))
        return built[0]

    for name in names:
        t0 = time.perf_counter()
        result = SUITES[name](seed, pool)
        yield result._replace(seconds=time.perf_counter() - t0)
