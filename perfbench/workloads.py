"""Workload inputs, made from the seed alone, and the closed loops that
feed them to the library one at a time.

Every function here that touches the library takes `call`, a mapping
from ``layer.function`` names to callables; the tracer decides whether
those are the library functions themselves or span-recording wrappers.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

WORKLOADS = ("catalog_sweep", "map_sweep", "wide_carriers")

# catalog_sweep is the acceptance gate's per-structure traffic (the
# suites behind `orderbench verify all`), split into strata by the calls
# the gate makes on each structure.  A pass samples every stratum at the
# same fraction, so the layers keep the gate's split of busy time.  Counts
# are fixed, so every pass of every seed has the same mix; the seed picks
# which structures.
CATALOG_FRACTION = 1 / 8
CATALOG_RANDOM = {"pool6": 500, "subset_laws": 500, "fgrho": 500, "duality4": 200}
CATALOG_TINY = 2  # structures per stratum with --tiny
MAP_SIZES = {"size4_sources": 180, "max_points": 3}
MAP_TINY = {"size4_sources": 1, "max_points": 2}

# wide_carriers: named families at or just past a verb's cap.  The three
# inputs that run for tens of seconds today (check powerset 5, envelope
# antichain 12, stone antichain 15) stay in; they count as failed.
WIDE_NAMED = (
    ("antichain", 12),
    ("antichain", 15),
    ("chain", 13),
    ("diamond", 8),
    ("powerset", 3),
    ("powerset", 4),
    ("powerset", 5),
)
# Random carriers of 9 to 12 elements, one of each size.  Size 8 is left
# out: there the saturate verb takes 6 to 8 s, so whether it beats the time
# limit would depend on the seed.
WIDE_RANDOM_SIZES = (9, 10, 11, 12)
WIDE_VERBS = ("check", "stone", "spectrum", "envelope", "saturate")
WIDE_TINY_NAMED = (("chain", 2), ("powerset", 5))
WIDE_TINY_VERBS = ("check",)

CATALOG_CALLS = (
    "core.order_predicates",
    "core.antisymmetry_violation",
    "axioms.is_basic_lattice",
    "axioms.is_basic_semilattice",
    "axioms.check_alternate_axioms",
    "stone.verify_duality",
    "stone.enumerate_filters",
    "stone.ultrafilter_properties",
    "stone.discrete_topology",
    "stone.basis_to_structure",
    "stone.stone_space",
    "stone.enumerate_ultrafilters",
    "stone.point_filter",
    "saturation.verify_subset_laws",
    "saturation.verify_frame",
    "tight.verify_fgrho",
    "spectrum.separativity_chain",
    "spectrum.verify_pseudochar",
    "spectrum.spectrum_vs_stone",
)
MAP_CALLS = (
    "tight.map_properties",
    "tight.factor_tight",
    "tight.naturality_square",
    "stone.discrete_topology",
    "morphisms.interpolator_from_map",
    "morphisms.is_interpolator",
    "morphisms.induced_stone_map",
)


def bind(names, tracer) -> dict:
    """Resolve ``layer.function`` names in the orderbench package and let
    the tracer wrap each."""
    out = {}
    for name in names:
        layer, fn = name.split(".", 1)
        module = importlib.import_module(f"orderbench.{layer}")
        out[name] = tracer.wrap(name, getattr(module, fn))
    return out


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# catalog_sweep


class CatalogInput(NamedTuple):
    stratum: str
    item: object  # a structure; for "duality", (points, family, closed)


def _spread(i: int, count: int, lo: float, hi: float) -> float:
    """The i-th of `count` values spread evenly over [lo, hi]."""
    return lo + (hi - lo) * (i + 0.5) / count


def catalog_inputs(seed: int, tiny: bool, call_lab) -> list[CatalogInput]:
    """The inputs every pass of a run repeats: the gate's traffic, every
    stratum sampled at CATALOG_FRACTION:

    - catalog4: structures of size <= 4.  The gate makes every
      per-structure call on them, the subset laws included.
    - catalog5: structures of size 5: every call but the subset laws.
    - posets6: partial orders with bottom on 6 elements: the spectrum calls.
    - pool6: random size-6 structures: the spectrum calls.
    - subset_laws: random structures of size 2 to 6: the subset laws.
    - fgrho: random structures of size 2 to 7: the fgrho check.
    - duality: closed families and plain bases over discrete sets of at
      most 3 points, and random bases over 4: the Stone round trip.

    The random strata follow the gate's generators, with the sizes and
    reflexivity cycling as there, but their densities and extra basis
    members are spread evenly over the gate's ranges rather than drawn, so
    that passes cost about the same."""
    rng = _rng("catalog_sweep", seed)
    enum, rand = call_lab["lab.enumerate_structures"], call_lab["lab.random_p0set"]

    def count(total: int) -> int:
        return min(total, CATALOG_TINY) if tiny else max(1, round(total * CATALOG_FRACTION))

    out = []

    def add(stratum, items):
        out.extend(CatalogInput(stratum, x) for x in items)

    def sample(pool):
        return rng.sample(pool, count(len(pool)))

    add("catalog4", sample([B for n in range(1, 5) for B in enum(n)]))
    add("catalog5", sample(enum(5)))
    add("posets6", sample(enum(6, reflexive_only=True)))
    c = count(CATALOG_RANDOM["pool6"])
    add("pool6", [rand(6, rng.getrandbits(32), False, _spread(i, c, 0.05, 0.5)) for i in range(c)])
    c = count(CATALOG_RANDOM["subset_laws"])
    add("subset_laws", [
        rand(2 + i % 5, rng.getrandbits(32), i % 2 == 0, _spread(i, c, 0.05, 0.6)) for i in range(c)
    ])
    c = count(CATALOG_RANDOM["fgrho"])
    add("fgrho", [
        rand(2 + i % 6, rng.getrandbits(32), i % 2 == 0, _spread(i, c, 0.05, 0.6)) for i in range(c)
    ])
    small = [(k, fam, closed) for k in range(4) for closed, fams in zip((True, False), discrete_families(k))
             for fam in fams]
    add("duality", sample(small))
    c = count(CATALOG_RANDOM["duality4"])
    add("duality", [(4, _random_basis(4, rng, i % 7, i % 2 == 0), i % 2 == 0) for i in range(c)])
    return out


def _random_basis(k: int, rng, extras: int, closed: bool) -> list[int]:
    """A basis of the discrete k-set: the empty set, every singleton and
    `extras` random members, closed under union and intersection if asked."""
    full = (1 << k) - 1
    fam = {0} | {1 << p for p in range(k)}
    fam.update(rng.randint(0, full) for _ in range(extras))
    while closed:
        more = {c for a in fam for b in fam for c in (a | b, a & b)} - fam
        fam |= more
        closed = bool(more)
    return sorted(fam)


@dataclass
class CatalogVerdict:
    """What one input's calls returned.  `reports` are theorem reports, as
    (kind, report) pairs; the reference decides which field must hold."""

    reports: list
    structure: object = None
    basic_lattice: bool | None = None
    basic_semilattice: bool | None = None
    generalized_boolean: bool | None = None
    filters: list | None = None
    stone_points: int | None = None
    ultrafilters: list | None = None
    point_filters: list | None = None


def catalog_verdict(inp: CatalogInput, call) -> CatalogVerdict:
    """The gate's calls on one input, in the gate's order."""
    if inp.stratum == "duality":
        return duality_verdict(*inp.item, call)
    from orderbench.errors import PreconditionFailed

    B, stratum = inp.item, inp.stratum
    v = CatalogVerdict([], B)
    reports = v.reports
    if stratum in ("catalog4", "catalog5"):
        v.basic_lattice = call["axioms.is_basic_lattice"](B)
        preds = call["core.order_predicates"](B)
        v.generalized_boolean = bool(preds.holds("generalized_boolean"))
        if v.basic_lattice:
            reports.append(("passed", call["stone.verify_duality"](B)))
            v.filters = call["stone.enumerate_filters"](B)
            full = (1 << B.size) - 1
            for U in v.filters:
                if U not in (0, full):
                    reports.append(("passed", call["stone.ultrafilter_properties"](B, U)))
        if preds.holds("lattice"):
            try:
                reports.append(("equivalent", call["axioms.check_alternate_axioms"](B)))
            except PreconditionFailed:
                pass  # no cofinality; the gate skips these too
        v.basic_semilattice = call["axioms.is_basic_semilattice"](B)
        if v.basic_semilattice:
            reports.append(("passed", call["saturation.verify_frame"](B)))
    if stratum in ("catalog4", "catalog5", "fgrho"):
        reports.append(("passed", call["tight.verify_fgrho"](B)))
    if stratum in ("catalog4", "catalog5", "posets6", "pool6"):
        if call["core.antisymmetry_violation"](B) is None:
            reports.append(("passed", call["spectrum.spectrum_vs_stone"](B, cross_check=B.size <= 4)))
        reports.append(("passed", call["spectrum.verify_pseudochar"](B)))
        reports.append(("chain", call["spectrum.separativity_chain"](B)))
    if stratum in ("catalog4", "subset_laws"):
        reports.append(("passed", call["saturation.verify_subset_laws"](B)))
    return v


def duality_verdict(k: int, fam, closed: bool, call) -> CatalogVerdict:
    """Basis -> structure -> Stone space: one Stone point per point."""
    X = call["stone.discrete_topology"](k, fam)
    S = call["stone.basis_to_structure"](X, fam)
    v = CatalogVerdict([], S)
    if closed:
        v.basic_lattice = call["axioms.is_basic_lattice"](S)
        if not v.basic_lattice:
            return v
    v.stone_points = call["stone.stone_space"](S).points
    v.ultrafilters = call["stone.enumerate_ultrafilters"](S)
    v.point_filters = [call["stone.point_filter"](X, fam, p) for p in range(k)]
    return v


# ---------------------------------------------------------------------------
# map_sweep


def map_inputs(seed: int, tiny: bool, call_lab):
    """(map groups, point maps).

    A group holds every zero-preserving map from one source into one
    target, and is one input of the closed loop: a single map takes about
    30 us, so per-map times would put scheduler and collector pauses, not
    the library, in the tail.  The targets are powerset 2 and powerset 3;
    the sources are every structure of size <= 3 and a seeded sample of
    size 4.  Point maps are every map between discrete spaces of
    1..max_points points carrying a closed family."""
    from orderbench.tight import StructMapTotal

    sizes = MAP_TINY if tiny else MAP_SIZES
    rng = _rng("map_sweep", seed)
    enum = call_lab["lab.enumerate_structures"]
    sources = [B for n in (1, 2, 3) for B in enum(n)]
    sources += rng.sample(enum(4), sizes["size4_sources"])
    targets = [call_lab["lab.make_family"]("powerset", 2), call_lab["lab.make_family"]("powerset", 3)]
    groups = []
    for B in sources:
        for A in targets:
            group = []
            for vals in product(range(A.size), repeat=B.size - 1):
                assignment = list(vals)
                assignment.insert(B.zero, A.zero)
                group.append(StructMapTotal(B, A, tuple(assignment)))
            groups.append(group)
    spaces = [(k, fam) for k in range(1, sizes["max_points"] + 1) for fam in closed_families(k)]
    point_maps = [
        (k, fx, m, fy, f)
        for k, fx in spaces
        for m, fy in spaces
        for f in product(range(m), repeat=k)
    ]
    return groups, point_maps


def discrete_families(k: int) -> tuple[list, list]:
    """Families over a discrete k-set that contain the empty set and cover
    it: (those closed under union and intersection that separate points by
    disjoint members, whose Stone duals are basic lattices; the other plain
    bases, which hold every singleton)."""
    full = (1 << k) - 1
    closed, bases = [], []
    for code in range(1 << (1 << k)):
        if not code & 1:
            continue
        fam = [s for s in range(1 << k) if code >> s & 1]
        members = set(fam)
        if _union(fam) != full:
            continue
        is_closed = not any(a | b not in members or a & b not in members for a in fam for b in fam)
        separated = all(
            any(a >> p & 1 and b >> q & 1 and not a & b for a in fam for b in fam)
            for p in range(k)
            for q in range(k)
            if p != q
        )
        if is_closed and separated:
            closed.append(fam)
        elif all(1 << p in members for p in range(k)):
            bases.append(fam)
    return closed, bases


def closed_families(k: int) -> list[list[int]]:
    """The closed, point-separating families of `discrete_families`."""
    return discrete_families(k)[0]


def _union(fam) -> int:
    acc = 0
    for s in fam:
        acc |= s
    return acc


class MapVerdict(NamedTuple):
    """What the reference needs from one map, as plain values: keeping
    70,000 full reports alive would make the garbage collector, not the
    library, set the tail."""

    tight: bool
    tightish: bool
    factor: tuple | None  # the factor's assignment
    square_ok: bool | None


def map_verdict(beta, call) -> MapVerdict:
    props = call["tight.map_properties"](beta)
    tight, tightish = bool(props.holds("tight")), bool(props.holds("tightish"))
    factor = square_ok = None
    if tightish and props.holds("representation"):
        factor = call["tight.factor_tight"](beta).assignment
        if tight:
            square_ok = call["tight.naturality_square"](beta)[1].passed
    return MapVerdict(tight, tightish, factor, square_ok)


def map_group_verdict(group, call) -> list[MapVerdict]:
    return [map_verdict(beta, call) for beta in group]


def point_map_verdict(pm, call):
    """Continuous map -> interpolator -> axioms -> induced Stone map."""
    k, fx, m, fy, f = pm
    X = call["stone.discrete_topology"](k, fx)
    Y = call["stone.discrete_topology"](m, fy)
    R = call["morphisms.interpolator_from_map"](X, Y, f, fx, fy)
    axioms_rep = call["morphisms.is_interpolator"](R)
    induced = call["morphisms.induced_stone_map"](R) if axioms_rep.passed else None
    return R, axioms_rep, induced


def closed_loop(items, verdict, call, tracer, offset: int = 0):
    """Feed the items one at a time; the next starts only when the previous
    verdict is back.  Returns (verdicts, per-item seconds)."""
    clock = time.perf_counter
    verdicts, seconds = [], []
    for i, item in enumerate(items):
        tracer.item = offset + i
        t0 = clock()
        verdicts.append(verdict(item, call))
        seconds.append(clock() - t0)
    tracer.item = None
    return verdicts, seconds


# ---------------------------------------------------------------------------
# wide_carriers


@dataclass(frozen=True)
class WideInput:
    ident: str
    family: str  # a named family, or "random"
    n: int
    reflexive: bool = False
    density: float = 0.0
    rseed: int = 0


def wide_inputs(seed: int, tiny: bool) -> list[WideInput]:
    if tiny:
        return [WideInput(f"{f}{n}", f, n) for f, n in WIDE_TINY_NAMED]
    rng = random.Random(f"wide_carriers/{seed}")
    out = [WideInput(f"{f}{n}", f, n) for f, n in WIDE_NAMED]
    for i, n in enumerate(WIDE_RANDOM_SIZES):
        refl = (i + seed) % 2 == 0
        out.append(
            WideInput(f"random{n}", "random", n, refl, round(rng.uniform(0.2, 0.4), 3), rng.getrandbits(32))
        )
    return out


def wide_structure(inp: WideInput, call_lab):
    if inp.family == "random":
        return call_lab["lab.random_p0set"](inp.n, inp.rseed, inp.reflexive, inp.density)
    return call_lab["lab.make_family"](inp.family, inp.n)
