import sys
from functools import lru_cache
from itertools import count
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from orderbench import lab
from orderbench.core import P0Set


@pytest.fixture(scope="session")
def e0():
    """Zero under two incomparable atoms; the running two-atom example."""
    return lab.make_family("antichain", 2)


@pytest.fixture(scope="session")
def c2():
    """The reflexive three-chain."""
    return lab.make_family("chain", 2)


@pytest.fixture(scope="session")
def p2():
    """The four-element powerset algebra."""
    return lab.make_family("powerset", 2)


@pytest.fixture(scope="session")
def p3():
    return lab.make_family("powerset", 3)


@pytest.fixture(scope="session")
def d3():
    """The diamond: three incomparable elements between bottom and top."""
    return lab.make_family("diamond", 3)


@pytest.fixture(scope="session")
def w5():
    """Five elements whose top pair separates the first two type levels."""
    return lab.make_family("interpolation_witness", 0)


@pytest.fixture(scope="session")
def one():
    return lab.make_family("chain", 0)


_fresh_tags = count()


def fresh(B):
    """B under names no earlier structure had: equal to none of them, so its
    tables are built anew."""
    tag = next(_fresh_tags)
    return P0Set(B.size, B.zero, B.prec, tuple(f"fresh{tag}.{x}" for x in range(B.size)))


def with_edge_loops(monkeypatch):
    """For the rest of the test, `axioms` runs the pair laws and the join
    reach by the edge loops its folds replaced.  The loop reach is cached
    per (structure, columns), as the package caches its fold."""
    import oracles
    from orderbench import axioms
    from orderbench.report import Check

    monkeypatch.setattr(axioms, "_pair_law", lambda *args: Check(*oracles.loop_pair_law(*args)))
    monkeypatch.setattr(axioms, "_join_reach", lru_cache(maxsize=None)(oracles.loop_join_reach))


def small_structures(max_n):
    out = []
    for n in range(1, max_n + 1):
        out.extend(lab.enumerate_structures(n))
    return out


def oracle_corpus():
    """Every structure of size <= 4 and seeded random ones of size 5 to 9,
    reflexive and not: the inputs on which closed forms meet the
    enumeration oracles."""
    import random

    rng = random.Random(17)
    out = small_structures(4)
    for i in range(40):
        out.append(lab.random_p0set(5 + i % 5, rng.getrandbits(32), i % 2 == 0,
                                    rng.uniform(0.1, 0.6)))
    return out


@lru_cache(maxsize=None)
def separation_corpus():
    """Every structure of size <= 5 and 300 seeded random ones of size 6 to
    12, reflexive and not: the inputs on which the separation table and
    the spectrum checks meet their oracles."""
    import random

    rng = random.Random(31)
    out = small_structures(5)
    for i in range(300):
        out.append(lab.random_p0set(6 + i % 7, rng.getrandbits(32), i % 2 == 0,
                                    rng.uniform(0.05, 0.6)))
    return tuple(out)


def cap_structures():
    """The named families at the carrier cap."""
    return [lab.make_family(name, n)
            for name, n in (("powerset", 6), ("antichain", 63), ("diamond", 62), ("chain", 63))]


def topology_corpus():
    """(points, basis) pairs: every topology on at most 4 points, with all
    its opens as the basis, and seeded random bases on 5 to 7 points,
    random sets closed under intersection with every point covered."""
    import random

    import oracles

    out = [(k, opens) for k in range(5) for opens in oracles.every_topology(k)]
    rng = random.Random(23)
    for i in range(60):
        k = 5 + i % 3
        fam = {rng.getrandbits(k) for _ in range(rng.randint(1, 6))} | {(1 << k) - 1}
        more = fam
        while more:
            more = {a & b for a in fam for b in fam} - fam
            fam |= more
        out.append((k, sorted(fam)))
    return out
