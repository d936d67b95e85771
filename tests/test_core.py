import gc
import random
import weakref
from functools import reduce
from operator import and_, or_

import pytest

import oracles
from conftest import cap_structures, fresh, separation_corpus, small_structures
from orderbench import axioms, lab, spectrum
from orderbench.spectrum import tight_characters
from orderbench.tight import enveloping_algebra
from orderbench.core import (
    SHARED_STRUCTURES,
    P0Set,
    bits,
    derived_relations,
    dump_structure,
    full_mask,
    join,
    load_structure,
    lower_bound_table,
    mask_from,
    meet,
    meets_preceq_table,
    order_predicates,
    p0set,
    prec_down,
    relative_complement,
    separation_table,
    structure_table,
    subset_fold,
    transpose,
)
from orderbench.errors import InputError, PreconditionFailed


class TestLoading:
    def test_two_atom_document(self, e0):
        doc = '{"size":3, "zero":0, "prec":[[0,0],[0,1],[0,2],[1,1],[2,2]]}'
        assert load_structure(doc).prec == e0.prec

    def test_one_point(self):
        B = load_structure('{"size":1, "zero":0, "prec":[[0,0]]}')
        assert B.size == 1 and B.prec == (1,)

    def test_transitivity_witness(self):
        with pytest.raises(InputError, match="not transitive") as err:
            load_structure('{"size":3, "zero":0, "prec":[[0,1],[1,2]]}')
        assert err.value.witness == (0, 1, 2)

    def test_missing_minimum(self):
        with pytest.raises(InputError, match="required for the minimum"):
            load_structure('{"size":2, "zero":0, "prec":[[0,0]]}')

    def test_index_out_of_range(self):
        with pytest.raises(InputError, match=r"pair \(0, 5\) outside carrier"):
            load_structure('{"size":2, "zero":0, "prec":[[0,0],[0,1],[0,5]]}')
        with pytest.raises(InputError, match="size must be a positive integer"):
            p0set(0, 0, [])

    @pytest.mark.parametrize("doc", [
        '{"size": true, "zero": 0, "prec": [[0, 0]]}',
        '{"size": 1, "zero": false, "prec": [[0, 0]]}',
        '{"size": 1, "zero": 0, "prec": [[false, 0]]}',
    ])
    def test_booleans_are_not_indices(self, doc):
        # bool is a subclass of int, and JSON's true and false are not indices
        with pytest.raises(InputError, match="positive integer|zero index|not an index pair"):
            load_structure(doc)

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError, match="unknown keys"):
            load_structure('{"size":1, "zero":0, "prec":[[0,0]], "extra":1}')

    def test_round_trip(self, p2):
        assert load_structure(dump_structure(p2)).prec == p2.prec

    def test_names_length(self):
        with pytest.raises(InputError, match="names length"):
            p0set(2, 0, [(0, 0), (0, 1)], names=["only-one"])


class TestDerivedRelations:
    def test_two_atoms_disjoint(self, e0):
        der = derived_relations(e0)
        assert der.perp[1] >> 2 & 1 == 1
        assert der.meets[1] >> 2 & 1 == 0

    def test_chain_atoms_meet(self, c2):
        der = derived_relations(c2)
        assert der.meets[1] >> 2 & 1 == 1

    def test_zero_below_everything(self):
        for B in small_structures(4):
            der = derived_relations(B)
            for x in range(B.size):
                assert der.preceq[B.zero] >> x & 1 == 1

    def test_matches_oracle(self, e0, c2, p2, w5):
        for B in (e0, c2, p2, w5):
            der = derived_relations(B)
            expected = oracles.preceq(B)
            got = {
                (x, y)
                for x in range(B.size)
                for y in range(B.size)
                if der.preceq[x] >> y & 1
            }
            assert got == expected

    def test_shape_invariants(self):
        # reflexive + transitive preorder; symmetric meets/perp
        for B in small_structures(4):
            der = derived_relations(B)
            n = B.size
            for x in range(n):
                assert der.preceq[x] >> x & 1 == 1
                for y in bits(der.preceq[x]):
                    assert der.preceq[y] & ~der.preceq[x] == 0
                for y in range(n):
                    assert (der.meets[x] >> y & 1) == (der.meets[y] >> x & 1)
                    assert (der.perp[x] >> y & 1) == (1 - (der.meets[x] >> y & 1))

    def test_left_auxiliarity_and_domination(self):
        for B in small_structures(4):
            der = derived_relations(B)
            # domination: the strict relation refines the derived order
            for x in range(B.size):
                for y in bits(B.prec[x]):
                    assert der.preceq[x] >> y & 1 == 1, (B.pairs(), x, y)
            # left auxiliarity: x < z <= y forces x < y
            for x in range(B.size):
                for z in bits(B.prec[x]):
                    for y in bits(der.preceq[z]):
                        assert B.has(x, y), (B.pairs(), x, z, y)

    def test_rederivation_idempotent(self):
        # the reflexivization of any derived order is itself
        for B in small_structures(4):
            der = derived_relations(B)
            R = p0set(
                B.size,
                B.zero,
                [
                    (x, y)
                    for x in range(B.size)
                    for y in bits(der.preceq[x])
                ],
            )
            assert derived_relations(R).preceq == der.preceq


class TestMeetJoin:
    def test_powerset_meet_is_intersection(self, p2):
        assert meet(p2, 1, 2) == 0
        for a in range(4):
            for b in range(4):
                assert meet(p2, a, b) == a & b
                assert join(p2, a, b) == a | b

    def test_two_atoms(self, e0):
        assert meet(e0, 1, 2) == 0
        assert join(e0, 1, 2) is None

    def test_not_antisymmetric_witness(self):
        B = p0set(3, 0, [(0, 0), (0, 1), (0, 2)])
        with pytest.raises(PreconditionFailed, match="not antisymmetric"):
            meet(B, 1, 2)

    def test_tables_match_candidate_scans(self):
        from orderbench.core import lattice_tables

        rng = random.Random(11)
        corpus = small_structures(5) + [
            lab.random_p0set(n, rng.getrandbits(32), rng.random() < 0.5, rng.uniform(0.1, 0.6))
            for n in rng.choices(range(2, 13), k=200)
        ]
        equivalent = 0
        for B in corpus:
            assert lattice_tables(B) == oracles.candidate_lattice_tables(B), B.pairs()
            equivalent += any(
                len(oracles.bound_candidates(B, x, x)) > 1 for x in range(B.size)
            )
        assert equivalent > 100

    def test_meet_join_match_candidate_scans(self):
        # on structures with order-equivalent elements, the error names
        # the first two candidates
        for B in small_structures(4):
            for x in range(B.size):
                for y in range(B.size):
                    for op, upper in ((meet, False), (join, True)):
                        cands = oracles.bound_candidates(B, x, y, upper)
                        if len(cands) > 1:
                            with pytest.raises(PreconditionFailed, match="not antisymmetric") as err:
                                op(B, x, y)
                            assert err.value.witness == (cands[0], cands[1])
                        else:
                            assert op(B, x, y) == (cands[0] if cands else None)

    def test_meet_agrees_with_meets_relation_on_basic_lattices(self):
        from orderbench.axioms import is_basic_lattice

        for B in small_structures(5):
            if not is_basic_lattice(B):
                continue
            der = derived_relations(B)
            for x in range(B.size):
                for y in range(B.size):
                    m = meet(B, x, y)
                    assert (der.meets[x] >> y & 1 == 1) == (m != B.zero)


class TestOrderPredicates:
    def test_powerset_all_flags(self, p2):
        rep = order_predicates(p2)
        for name in (
            "meet_semilattice",
            "lattice",
            "distributive",
            "section_complemented",
            "generalized_boolean",
            "separative",
            "ssc",
        ):
            assert rep.holds(name) is True

    def test_diamond(self, d3):
        rep = order_predicates(d3)
        assert rep.holds("lattice") is True
        assert rep.holds("distributive") is False
        z, x, y = rep["distributive"].witness
        # witness really breaks the law
        from orderbench.core import lattice_tables

        mt, jt = lattice_tables(d3)
        assert mt[z][jt[x][y]] != jt[mt[z][x]][mt[z][y]]

    def test_chain_not_separative(self, c2):
        rep = order_predicates(c2)
        assert rep.holds("separative") is False
        assert rep.holds("ssc") is False
        assert rep["separative"].witness == (2, 1)

    def test_not_applicable_without_lattice(self, e0):
        rep = order_predicates(e0)
        assert rep.holds("lattice") is False
        assert rep.holds("distributive") is None
        assert rep.holds("generalized_boolean") is False

    def test_matches_literal_loops(self):
        # every flag, verdict and witness, the non-separative chain at the
        # cap included (witness (2, 1))
        flags = set()
        for B in separation_corpus() + tuple(cap_structures()):
            rep = order_predicates(B)
            got = tuple((c.name, c.holds, c.witness) for c in rep.checks), rep.passed
            assert got == oracles.literal_order_checks(B), B.pairs()
            flags.update((c.name, c.holds) for c in rep.checks)
        assert len(flags) == 16  # each flag is seen holding and failing

    def test_separation_table_by_definition(self):
        # sep[x] = the y meeting every nonzero z <= x
        for B in separation_corpus()[::7]:
            _, mr = oracles._matrices(B)
            nonzero_below = [[z for z in range(B.size) if z != B.zero and oracles.le(B, z, x)]
                             for x in range(B.size)]
            want = tuple(
                mask_from(y for y in range(B.size) if all(mr[z][y] for z in nonzero_below[x]))
                for x in range(B.size)
            )
            assert separation_table(B) == want, B.pairs()


class TestRelativeComplement:
    def test_powerset_difference(self, p2):
        assert relative_complement(p2, 3, 1) == 2
        for x in range(4):
            assert relative_complement(p2, x, x) == 0
            for y in range(4):
                assert relative_complement(p2, x, y) == x & ~y & 3

    def test_diamond_rejected(self, d3):
        with pytest.raises(PreconditionFailed, match="needs a generalized Boolean algebra"):
            relative_complement(d3, 1, 2)


def test_mask_helpers():
    assert mask_from([0, 2]) == 0b101
    assert list(bits(0b1011)) == [0, 1, 3]
    assert full_mask(3) == 7


def _members(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _per_subset(rows, op, init):
    """The fold written out: one reduction per subset."""
    return [
        reduce(op, [rows[s] for s in _members(S)], init)
        for S in range(1 << len(rows))
    ]


class TestSubsetFold:
    def test_empty_rows(self):
        assert subset_fold([], or_, 5) == (5,)
        assert subset_fold((), and_, 0) == (0,)

    @pytest.mark.parametrize("op, init", [(or_, 0), (and_, (1 << 12) - 1)])
    def test_matches_per_subset_reduction(self, op, init):
        rng = random.Random(11)
        for n in range(9):
            for _ in range(3):
                rows = [rng.getrandbits(12) for _ in range(n)]
                table = subset_fold(rows, op, init)
                assert len(table) == 1 << n
                assert list(table) == _per_subset(rows, op, init)

    def test_list_valued_rows(self):
        # shaped like the wedge table: each row is itself a subset table
        rng = random.Random(12)
        width = 8

        def op(a, b):
            return [*map(or_, a, b)]

        for n in range(6):
            rows = [[rng.getrandbits(6) for _ in range(width)] for _ in range(n)]
            table = subset_fold(rows, op, [0] * width)
            assert [list(t) for t in table] == _per_subset(rows, op, [0] * width)


class TestSupersetFold:
    @pytest.mark.parametrize("op", [or_, and_])
    def test_matches_per_subset_reduction(self, op):
        rng = random.Random(13)
        for n in range(9):
            table = [rng.getrandbits(12) for _ in range(1 << n)]
            expected = [
                reduce(op, [table[T] for T in range(1 << n) if S & ~T == 0])
                for S in range(1 << n)
            ]
            assert oracles.superset_fold(table, op) == expected

    def test_leaves_its_input(self):
        table = (1, 2, 4, 8)
        assert oracles.superset_fold(table, or_) == [15, 10, 12, 8]
        assert table == (1, 2, 4, 8)


def _table_oracles(B):
    """The two subset tables from their literal definitions."""
    n = B.size

    def union(C, related):
        return mask_from(z for z in range(n) if any(related(z, c) for c in _members(C)))

    return {
        lower_bound_table: lambda C: mask_from(oracles.naive_lower_bounds(B, _members(C))),
        meets_preceq_table: lambda C: union(C, lambda z, c: oracles.meets_refl(B, z, c)),
    }


class TestSubsetTables:
    def _check(self, B):
        for table, literal in _table_oracles(B).items():
            got = table(B)
            assert len(got) == 1 << B.size
            for C in range(1 << B.size):
                assert got[C] == literal(C), (table.__name__, B.pairs(), C)

    def test_all_small_structures(self):
        for B in small_structures(4):
            self._check(B)

    def test_random_structures(self):
        rng = random.Random(13)
        for i in range(8):
            n = 5 + i % 4
            self._check(lab.random_p0set(n, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.2, 0.5)))


def _elsewhere(B):
    return "another layer's table"


# a table of the same name in another module
_elsewhere.__name__ = _elsewhere.__qualname__ = "prec_down"


def _marked(k):
    """Zero below everything, 1 below the elements that k marks."""
    return P0Set(15, 0, (full_mask(15), k << 2) + (0,) * 13)


class TestStructureTables:
    """A table is built once per structure, shared with equal structures,
    and freed with its structure."""

    def test_equal_structure_reads_the_earlier_table(self, p3):
        B = fresh(p3)
        table = prec_down(B)
        twin = P0Set(B.size, B.zero, B.prec, B.names)
        assert twin == B and twin is not B
        before = prec_down.cache_info()
        assert prec_down(twin) is table
        after = prec_down.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_tables_read_once_per_structure_are_not_kept(self, p3):
        # the gate's per-structure calls leave on the structure only the
        # tables some caller rereads
        B = fresh(p3)
        order_predicates(B)
        axioms.check_basic_lattice(B)
        axioms.check_basic_semilattice(B)
        spectrum.verify_pseudochar(B)
        assert spectrum.spectrum_vs_stone(B).passed
        dropped = {"core.separation_table", "core.meets_preceq_table", "core.lower_bound_table",
                   "axioms.check_basic_lattice", "axioms.check_basic_semilattice",
                   "spectrum._principal_opens", "spectrum.tight_characters"}
        kept = {"core.order_predicates", "core.derived_relations"}
        keys = {key.removeprefix("orderbench.") for key in B.__dict__}
        assert kept <= keys
        assert keys.isdisjoint(dropped)

    def test_lookup_counts(self, p3):
        # a build is a miss; a structure's own table and an equal
        # structure's are hits
        built = []

        def rows(B):
            built.append(B)
            return B.prec

        table = structure_table(rows)
        B, other = fresh(p3), fresh(p3)
        twin = P0Set(B.size, B.zero, B.prec, B.names)
        for C in (B, B, twin, other, twin, B, other):
            assert table(C) == p3.prec
        assert table.cache_info() == (5, 2, None, 2)
        assert len(built) == 2 and built[0] is B and built[1] is other

    def test_key_error_of_a_builder_propagates(self, p3):
        B = fresh(p3)
        attempts = []

        def flaky(B):
            attempts.append(B)
            if len(attempts) == 1:
                raise KeyError("raised by the builder")
            return "built"

        table = structure_table(flaky)
        with pytest.raises(KeyError, match="raised by the builder"):
            table(B)
        assert f"{flaky.__module__}.{flaky.__qualname__}" not in B.__dict__
        assert table.cache_info().misses == table.cache_info().currsize == 0
        assert table(B) == table(B) == "built"
        assert len(attempts) == 2
        assert table.cache_info().misses == table.cache_info().currsize == 1

    def test_same_name_in_another_module_is_another_table(self, p3):
        B = fresh(p3)
        other = structure_table(_elsewhere)
        assert other(B) == "another layer's table"
        assert prec_down(B) == tuple(transpose(B.prec, B.size))
        assert other(B) == "another layer's table"

    def test_tables_are_freed_with_their_structure(self):
        early = _marked(0)
        prec_down(early)
        ref = weakref.ref(early)
        del early
        for k in range(1, SHARED_STRUCTURES + 2):
            prec_down(_marked(k))
        gc.collect()
        assert ref() is None

    def test_freed_without_the_cycle_collector(self):
        # no table refers back to its structure, so once the sharing index
        # has let a structure go, reference counting alone frees it
        enabled = gc.isenabled()
        gc.disable()
        try:
            early = _marked(0)
            tight_characters(early)
            enveloping_algebra(early)
            ref = weakref.ref(early)
            del early
            for k in range(1, SHARED_STRUCTURES + 2):
                prec_down(_marked(k))
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
