"""Structure generators, exhaustive enumeration, and counterexample search.

Generators are deterministic: the same name/size or seed always produces
the same structure, and enumeration is reproducible.  Labeled
enumeration is used throughout; witnesses stay readable and isomorphism
reduction would buy little at these sizes.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import axioms, spectrum
from .core import P0Set, bits, full_mask, mask_from, meet_rows, order_predicates, p0set, union_rows
from .errors import CapExceeded, UnknownFamily, UnknownSuite

RANDOM_CAP = 12
ENUM_CAP = 5
ENUM_REFLEXIVE_CAP = 6


# ---------------------------------------------------------------------------
# named families


def make_family(name: str, n: int) -> P0Set:
    """Deterministic named structures.

    chain(n): zero under a reflexive chain of n elements.
    powerset(n): all subsets of an n-set ordered by inclusion.
    diamond(n): zero, n incomparable middle elements, and a top.
    antichain(n): zero under n pairwise incomparable reflexive atoms.
    interpolation_witness: the five-element structure whose top pair
    separates the first two type levels (n is ignored).
    """
    if name == "chain":
        if n < 0:
            raise UnknownFamily("chain needs n >= 0")
        size = n + 1
        return p0set(
            size,
            0,
            [(i, j) for i in range(size) for j in range(i, size)],
            names=["0"] + [f"c{i}" for i in range(1, size)],
        )
    if name == "powerset":
        if not 0 <= n <= 6:
            raise UnknownFamily("powerset needs 0 <= n <= 6")
        size = 1 << n
        return p0set(
            size,
            0,
            [(a, b) for a in range(size) for b in range(size) if a & b == a],
            names=["{" + ",".join(str(i + 1) for i in bits(a)) + "}" for a in range(size)],
        )
    if name == "diamond":
        if n < 1:
            raise UnknownFamily("diamond needs n >= 1")
        size = n + 2
        top = size - 1
        pairs = (
            [(0, j) for j in range(size)]
            + [(i, i) for i in range(size)]
            + [(i, top) for i in range(1, size)]
        )
        return p0set(size, 0, pairs, names=["0"] + [f"m{i}" for i in range(1, top)] + ["1"])
    if name == "antichain":
        if n < 0:
            raise UnknownFamily("antichain needs n >= 0")
        size = n + 1
        pairs = [(0, j) for j in range(size)] + [(i, i) for i in range(1, size)]
        return p0set(size, 0, pairs, names=["0"] + [f"a{i}" for i in range(1, size)])
    if name == "interpolation_witness":
        pairs = [(0, i) for i in range(5)] + [
            (1, 1),
            (2, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (1, 4),
            (2, 4),
        ]
        return p0set(5, 0, pairs, names=["0", "p", "q", "x", "y"])
    raise UnknownFamily(f"unknown family {name!r}")


FAMILY_NAMES = ("chain", "powerset", "diamond", "antichain", "interpolation_witness")


# ---------------------------------------------------------------------------
# random structures


def random_p0set(n: int, seed: int, reflexive: bool = False, density: float = 0.3) -> P0Set:
    """Seed-deterministic random structure of size n.

    Non-reflexive mode samples ordered pairs with the given pre-closure
    probability, adds the minimum pairs, and closes transitively (closing
    after adding the minimum keeps validity unconditional).  Reflexive
    mode builds a random partial order with bottom from a sampled strict
    order on the nonzero elements.  The closed rows are transitive and
    row 0 is full, so they are the structure as they stand.
    """
    if not (1 <= n <= RANDOM_CAP and 0 <= density <= 1):
        raise CapExceeded(f"random structures need 1 <= n <= {RANDOM_CAP} and 0 <= density <= 1")
    rng = random.Random((seed, n, reflexive, round(density, 9)).__repr__())
    rows = [0] * n
    if reflexive:
        order = list(range(1, n))
        rng.shuffle(order)
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                if rng.random() < density:
                    rows[order[i]] |= 1 << order[j]
        for x in range(n):
            rows[x] |= 1 << x
    else:
        for x in range(n):
            for y in range(n):
                if rng.random() < density:
                    rows[x] |= 1 << y
    rows[0] = full_mask(n)
    # transitive closure
    changed = True
    while changed:
        changed = False
        for x in range(n):
            acc = union_rows(rows, rows[x], rows[x])
            if acc != rows[x]:
                rows[x] = acc
                changed = True
    return P0Set(n, 0, tuple(rows))


# ---------------------------------------------------------------------------
# exhaustive enumeration


@lru_cache(maxsize=None)
def _enumerate_cached(n: int, reflexive_only: bool) -> tuple[P0Set, ...]:
    return tuple(_enumerate(n, reflexive_only))


def enumerate_structures(n: int, reflexive_only: bool = False):
    """All structures on n labeled elements with zero = 0, as a list.

    reflexive_only restricts to partial orders (reflexive and
    antisymmetric); the general mode yields every transitive relation
    with the minimum row.  Counts for small n are cross-checked against a
    naive filter in the test suite.
    """
    cap = ENUM_REFLEXIVE_CAP if reflexive_only else ENUM_CAP
    if not 1 <= n <= cap:
        raise CapExceeded(f"enumeration capped at carrier {cap}")
    return list(_enumerate_cached(n, reflexive_only))


def _enumerate(n: int, reflexive_only: bool):
    """Every structure on n labelled elements, row by row.

    Row k must lie inside every decided row that contains k, so it ranges
    over the submasks of their meet, in ascending order; for partial orders
    it holds k, and neither 0 nor an element already below k.  A candidate
    is kept when it contains every decided row it points to.  These are
    the rows an ascending scan of all 2**n rows would keep, in its order,
    and each pair of rows is checked for transitivity when the later of
    the two is decided, so each leaf is a valid structure as it stands."""
    rows = [0] * n
    rows[0] = full_mask(n)
    out = []

    def rec(k: int):
        if k == n:
            out.append(P0Set(n, 0, tuple(rows)))
            return
        bit = 1 << k
        below = mask_from(i for i in range(k) if rows[i] & bit)
        upper = meet_rows(rows, below, rows[0])
        base, free = (bit, upper & ~(below | bit)) if reflexive_only else (0, upper)
        sub = 0
        while True:
            row = base | sub
            if union_rows(rows, row & (bit - 1), row) == row:
                rows[k] = row
                rec(k + 1)
            if sub == free:
                break
            sub = (sub - free) & free

    rec(1)
    return out


# ---------------------------------------------------------------------------
# counterexample search


def _prop_chain_respected(B: P0Set) -> bool:
    return bool(spectrum.separativity_chain(B).holds("chain_respected"))


def _prop_sep_implies_inj(B: P0Set) -> bool:
    r = spectrum.separativity_chain(B)
    return not r.holds("separative") or bool(r.holds("rho_injective"))


def _prop_inj_implies_ssc(B: P0Set) -> bool:
    r = spectrum.separativity_chain(B)
    return not r.holds("rho_injective") or bool(r.holds("ssc"))


def _prop_semilattice_equivalence(B: P0Set) -> bool:
    return spectrum.separativity_chain(B).holds("semilattice_equivalence") is not False


def _prop_inj_implies_sep_on_semilattices(B: P0Set) -> bool:
    if not order_predicates(B).holds("meet_semilattice"):
        return True
    r = spectrum.separativity_chain(B)
    return not r.holds("rho_injective") or bool(r.holds("separative"))


def _prop_decomposition(B: P0Set) -> bool:
    if not order_predicates(B).holds("lattice"):
        return True
    return axioms.check_basic_lattice(B).holds("decomposition") is not False


SUITES: dict[str, tuple] = {
    # name: (predicate, curated stream prefix builders)
    "chain_respected": (_prop_chain_respected, ()),
    "separative_implies_rho_injective": (_prop_sep_implies_inj, ()),
    "rho_injective_implies_ssc": (_prop_inj_implies_ssc, ()),
    "semilattice_equivalence": (_prop_semilattice_equivalence, ()),
    "rho_injective_implies_separative_on_meet_semilattices": (
        _prop_inj_implies_sep_on_semilattices,
        (),
    ),
    "decomposition_holds": (_prop_decomposition, (("diamond", 3),)),
}


def search_counterexample(
    suite: str, bound: int, budget: int, seed: int
) -> P0Set | None:
    """First structure violating the named property, or None.

    The stream runs the suite's curated instances, then exhaustive
    enumeration up to min(bound, enumeration cap), then seeded random
    structures of sizes up to the bound until the budget is spent.
    """
    if suite not in SUITES:
        raise UnknownSuite(f"no suite named {suite!r}; known: {sorted(SUITES)}")
    if min(bound, budget) < 1:
        raise CapExceeded(f"search needs bound >= 1 and budget >= 1, not {bound} and {budget}")
    predicate, curated = SUITES[suite]
    spent = 0
    for name, k in curated:
        if spent >= budget:
            return None
        spent += 1
        B = make_family(name, k)
        if not predicate(B):
            return B
    for n in range(1, min(bound, ENUM_CAP) + 1):
        for B in enumerate_structures(n):
            if spent >= budget:
                return None
            spent += 1
            if not predicate(B):
                return B
    rng = random.Random(seed)
    while spent < budget:
        n = rng.randint(min(2, bound), min(bound, RANDOM_CAP))
        B = random_p0set(n, rng.getrandbits(32), rng.random() < 0.5, rng.uniform(0.1, 0.6))
        spent += 1
        if not predicate(B):
            return B
    return None
