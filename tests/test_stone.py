import json
import random

import pytest

import oracles
from conftest import small_structures, topology_corpus
from orderbench import axioms, lab, stone
from orderbench.core import MAX_SIZE, bit_list, bits, full_mask, p0set
from orderbench.errors import CapExceeded, InputError, PreconditionFailed


def masks_to_sets(masks):
    return [frozenset(bits(m)) for m in masks]


class TestFilters:
    def test_powerset_filters(self, p2):
        got = stone.enumerate_filters(p2)
        assert got == [0, 0b1000, 0b1010, 0b1100, 0b1111]

    def test_two_atoms_filters(self, e0):
        got = masks_to_sets(stone.enumerate_filters(e0))
        assert frozenset({1}) in got and frozenset({2}) in got
        assert frozenset({1, 2}) not in got  # not directed: atoms meet only at zero

    def test_one_point(self, one):
        assert stone.enumerate_filters(one) == [0, 1]
        assert stone.enumerate_ultrafilters(one) == []

    def test_matches_oracle(self):
        for B in small_structures(4):
            got = masks_to_sets(stone.enumerate_filters(B))
            assert sorted(got, key=sorted) == sorted(
                oracles.naive_filters(B), key=sorted
            )

    def test_ultrafilters(self, e0, c2, p2):
        assert stone.enumerate_ultrafilters(p2) == [0b1010, 0b1100]
        assert masks_to_sets(stone.enumerate_ultrafilters(e0)) == [
            frozenset({1}),
            frozenset({2}),
        ]
        assert masks_to_sets(stone.enumerate_ultrafilters(c2)) == [frozenset({1, 2})]

    def test_ultrafilters_match_oracle(self):
        for B in small_structures(4):
            got = masks_to_sets(stone.enumerate_ultrafilters(B))
            assert sorted(got, key=sorted) == sorted(
                oracles.naive_ultrafilters(B), key=sorted
            )

    def test_random_structures_match_oracle(self):
        # the closed form against the subset scan beyond the catalog sizes
        for n in range(5, 11):
            for reflexive in (False, True):
                for seed in (0, 1):
                    B = lab.random_p0set(n, seed, reflexive, density=0.2 + 0.1 * seed)
                    got = masks_to_sets(stone.enumerate_filters(B))
                    assert sorted(got, key=sorted) == sorted(
                        oracles.naive_filters(B), key=sorted
                    ), B.pairs()
                    got = masks_to_sets(stone.enumerate_ultrafilters(B))
                    assert sorted(got, key=sorted) == sorted(
                        oracles.naive_ultrafilters(B), key=sorted
                    ), B.pairs()

    def test_principal_rows_at_max_size(self):
        # 64 elements, past any scan of all subsets: the filters are the
        # empty set and the rows prec[z] with z < z, and a union of two
        # atoms' rows is not one
        atoms = p0set(64, 0, [(0, j) for j in range(64)] + [(i, i) for i in range(64)])
        for B, ults in ((atoms, 63), (lab.make_family("powerset", 6), 6)):
            rows = {B.prec[z] for z in range(B.size) if B.has(z, z)}
            filters = stone.enumerate_filters(B)
            assert filters == sorted(rows | {0})
            assert all(stone.is_filter(B, U) for U in filters)
            assert len(stone.enumerate_ultrafilters(B)) == ults
        assert not stone.is_filter(atoms, atoms.prec[1] | atoms.prec[2])


    def test_is_filter_against_definition(self):
        # every subset of every structure of size <= 4 and of seeded random
        # structures of size 6 to 8, reflexive and not
        rng = random.Random(3)
        pool = small_structures(4) + [
            lab.random_p0set(6 + i % 3, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.1, 0.6))
            for i in range(24)]
        for B in pool:
            filters = {sum(1 << x for x in U) for U in oracles.naive_filters(B)}
            for U in range(1 << B.size):
                assert stone.is_filter(B, U) == (U in filters) == oracles.loop_is_filter(B, U), \
                    (B.pairs(), U)


class TestFilterCharacterizations:
    def test_powerset_ultrafilter(self, p2):
        rep = stone.ultrafilter_properties(p2, 0b1010)
        assert all(c.holds for c in rep.checks)

    def test_powerset_principal_top(self, p2):
        rep = stone.ultrafilter_properties(p2, 0b1000)
        assert rep.holds("maximal") is False
        assert rep.holds("complement_ideal") is False
        assert rep.holds("perp_characterization") is False
        assert rep.holds("equivalent") is True

    def test_two_atoms_no_equivalence_claim(self, e0):
        rep = stone.ultrafilter_properties(e0, 0b010)
        assert rep.holds("maximal") is True
        assert rep.holds("equivalent") is None

    def test_rejects_non_filters(self, p2):
        with pytest.raises(PreconditionFailed, match="nonempty proper filter"):
            stone.ultrafilter_properties(p2, 0b0110)
        with pytest.raises(PreconditionFailed, match="nonempty proper filter"):
            stone.ultrafilter_properties(p2, 0)
        with pytest.raises(PreconditionFailed, match="nonempty proper filter"):
            stone.ultrafilter_properties(p2, 0b1111)

    def test_maximal_against_naive_ultrafilters(self):
        # every nonempty proper filter of every structure of size <= 5, and of
        # two cap families, where the oracle picks the maximal ones among the
        # principal rows (powerset 6 has one per atom, chain 63 just one)
        cases = [(B, None, None) for B in small_structures(5)]
        for name, k, count in (("powerset", 6, 6), ("chain", 63, 1)):
            B = lab.make_family(name, k)
            cases.append((B, [frozenset(bits(U)) for U in stone.enumerate_filters(B)], count))
        for B, filters, count in cases:
            ults = set(oracles.naive_ultrafilters(B, filters))
            assert count is None or len(ults) == count
            fm = full_mask(B.size)
            for U in stone.enumerate_filters(B):
                if U not in (0, fm):
                    assert stone.ultrafilter_properties(B, U).holds("maximal") == (
                        frozenset(bits(U)) in ults), (B.pairs(), U)

    def test_equivalence_over_small_basic_lattices(self):
        for B in small_structures(5):
            if not axioms.is_basic_lattice(B):
                continue
            fm = full_mask(B.size)
            for U in stone.enumerate_filters(B):
                if U in (0, fm):
                    continue
                assert stone.ultrafilter_properties(B, U).passed

    def test_directed_upclosure_is_filter(self):
        # the strict up-closure of an order-directed set is a filter, and
        # a set is a filter exactly when it is a coinitial order-filter,
        # over small basic lattices
        from orderbench.core import derived_relations

        for B in small_structures(5):
            if not axioms.is_basic_lattice(B):
                continue
            der = derived_relations(B)
            filters = set(stone.enumerate_filters(B))
            for U in range(1 << B.size):
                members = list(bits(U))
                order_directed = all(
                    any(
                        U >> z & 1
                        and der.preceq[z] >> x & 1
                        and der.preceq[z] >> y & 1
                        for z in range(B.size)
                    )
                    for x in members
                    for y in members
                )
                if order_directed:
                    upclosure = 0
                    for x in members:
                        upclosure |= B.prec[x]
                    assert upclosure in filters, (B.pairs(), U)
                ge_closed = all(
                    U >> y & 1 for x in members for y in bits(der.preceq[x])
                )
                coinitial = all(
                    any(U >> x & 1 and B.prec[x] >> y & 1 for x in range(B.size))
                    for y in members
                )
                assert (U in filters) == (
                    order_directed and ge_closed and coinitial
                ), (B.pairs(), U)


class TestStoneSpace:
    def test_powerset_space(self, p2):
        X = stone.stone_space(p2)
        assert X.points == 2
        assert X.basis == (0, 0b01, 0b10, 0b11)
        assert X.nbhd == (0b01, 0b10)
        assert stone.all_opens(X) == [0, 1, 2, 3]

    def test_two_atoms_space(self, e0):
        X = stone.stone_space(e0)
        assert X.points == 2
        assert sorted(X.basis[1:]) == [0b01, 0b10]

    def test_chain_collapses(self, c2):
        X = stone.stone_space(c2)
        assert X.points == 1
        assert X.basis == (0, 1, 1)

    def test_one_point_structure_empty_space(self, one):
        assert stone.stone_space(one).points == 0

    def test_duality_powerset(self, p2, p3):
        assert stone.verify_duality(p2).passed
        assert stone.verify_duality(p3).passed

    def test_duality_needs_basic_lattice(self, c2):
        with pytest.raises(PreconditionFailed):
            stone.verify_duality(c2)

    def test_duality_over_small_basic_lattices(self):
        for B in small_structures(5):
            if axioms.is_basic_lattice(B):
                assert stone.verify_duality(B).passed, B.pairs()


class TestBasisToStructure:
    def test_full_powerset_family(self, p2):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        S = stone.basis_to_structure(X, [0, 1, 2, 3])
        assert S.prec == p2.prec and S.zero == 0

    def test_atom_family(self, e0):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        S = stone.basis_to_structure(X, [0, 1, 2])
        assert S.prec == e0.prec

    def test_singleton_family(self):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        S = stone.basis_to_structure(X, [0])
        assert S.size == 1

    def test_requires_empty(self):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        with pytest.raises(PreconditionFailed, match="empty open"):
            stone.basis_to_structure(X, [1, 2])

    def test_requires_open(self):
        X = stone.topology_from_basis(2, [0, 1, 3])
        with pytest.raises(PreconditionFailed, match="family member 0b10 is not open"):
            stone.basis_to_structure(X, [0, 2])

    def test_point_filter(self):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        assert stone.point_filter(X, [0, 1, 2, 3], 0) == 0b1010
        assert stone.point_filter(X, [0, 1, 2], 1) == 0b100

    def test_nondiscrete_closure(self):
        # in the generated topology of {0,{1},{1,2}} the closure of {1} is
        # everything, so compact containment is strictly stronger than
        # inclusion
        X = stone.topology_from_basis(2, [0b01, 0b11])
        assert X.closure(0b01) == 0b11
        S = stone.basis_to_structure(X, [0, 0b01, 0b11])
        assert not S.has(1, 1)
        assert S.has(1, 2)


class TestTopologyFromBasis:
    def test_refuses_uncovered_point(self):
        with pytest.raises(PreconditionFailed, match="cover point 2"):
            stone.topology_from_basis(3, [0, 0b01, 0b11])

    def test_refuses_incompatible_family(self):
        # the members holding point 1 meet in {1}, which is no union of them
        with pytest.raises(PreconditionFailed, match="not a basis"):
            stone.topology_from_basis(3, [0b011, 0b110])

    def test_minimal_neighbourhoods(self):
        X = stone.topology_from_basis(3, [0b001, 0b011, 0b111])
        assert X.nbhd == (0b001, 0b011, 0b111)
        assert stone.discrete_topology(3, []).nbhd == (0b001, 0b010, 0b100)
        # no cap on the points of a discrete space
        assert stone.discrete_topology(64, []).is_open(full_mask(64))


class TestAgainstOpensList:
    """Minimal neighbourhoods against the list of every open."""

    def test_closure_interior_open(self):
        for points, basis in topology_corpus():
            X = stone.topology_from_basis(points, basis)
            O = oracles.OpensTopology(points, oracles.opens_generated(basis))
            assert stone.all_opens(X) == O.opens, (points, basis)
            for m in range(1 << points):
                assert X.closure(m) == O.closure(m), (points, basis, m)
                assert X.interior(m) == O.interior(m), (points, basis, m)
                assert X.is_open(m) == O.is_open(m), (points, basis, m)
            if points <= 4:
                doc = {"points": points, "opens": [bit_list(o) for o in O.opens],
                       "basis": [bit_list(o) for o in basis]}
                assert stone.load_topology(json.dumps(doc)) == X

    def test_duality(self, monkeypatch):
        # every topology on the Stone points in place of the discrete one,
        # so the closure and separation checks fail too
        lattices = [B for B in small_structures(4) if axioms.is_basic_lattice(B)]
        lattices.append(lab.make_family("powerset", 3))
        stone_space = stone.stone_space
        for B in lattices:
            space = stone_space(B)
            for opens in oracles.every_topology(space.points):
                X = stone.topology_from_basis(space.points, opens)
                planted = stone.FiniteTopology(space.points, X.nbhd, space.basis)
                monkeypatch.setattr(stone, "stone_space", lambda _: planted)
                rep = stone.verify_duality(B)
                got = tuple(rep[c].witness for c in ("sub_prec", "ox_closure", "hausdorff"))
                want = oracles.sweep_duality_topology(
                    B, oracles.OpensTopology(space.points, opens), space.basis
                )
                assert got == want, (B.pairs(), opens)


class TestTopologyFormat:
    def test_round_trip(self, p2):
        X = stone.stone_space(p2)
        again = stone.load_topology(stone.dump_topology(X))
        assert again == X

    def test_rejects_missing_whole_set(self):
        with pytest.raises(InputError, match="empty set and every point"):
            stone.load_topology(
                '{"points": 2, "opens": [[], [0], [1]], "basis": [[0], [1]]}'
            )

    def test_rejects_unclosed(self):
        # {0} | {1} is missing
        with pytest.raises(InputError, match="not closed under union/intersection"):
            stone.load_topology(
                '{"points": 3, "opens": [[], [0], [1], [0, 1, 2]], "basis": [[0], [1], [0, 1, 2]]}'
            )

    def test_rejects_basis_member_not_open(self):
        with pytest.raises(InputError, match="basis member is not open"):
            stone.load_topology('{"points": 2, "opens": [[], [0, 1]], "basis": [[0]]}')

    def test_rejects_open_not_spanned(self):
        # {0} and {1} hold no basis member
        with pytest.raises(InputError, match="an open is not a union of basis members"):
            stone.load_topology(
                '{"points": 2, "opens": [[], [0], [1], [0, 1]], "basis": [[0, 1]]}'
            )

    def test_rejects_uncovered_points(self):
        with pytest.raises(InputError, match="every point"):
            stone.load_topology('{"points": 2, "opens": [[], [0]], "basis": [[0]]}')

    @pytest.mark.parametrize("doc", [
        '{"points": true, "opens": [[], [0]], "basis": [[0]]}',
        '{"points": 1, "opens": [[], [false]], "basis": [[0]]}',
    ])
    def test_rejects_booleans(self, doc):
        with pytest.raises(InputError, match="nonnegative integer|bad point list"):
            stone.load_topology(doc)

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError, match="needs exactly points/opens/basis"):
            stone.load_topology('{"points": 2}')

    @pytest.mark.parametrize("opens, basis", [
        ("5", "[]"), ("[[], [0, 1]]", "3"), ("[[], [0, 1]]", '{"0": [0, 1]}'), ('"[]"', "[]"),
    ])
    def test_rejects_non_list_families(self, opens, basis):
        with pytest.raises(InputError, match="opens and basis must be lists"):
            stone.load_topology(f'{{"points": 2, "opens": {opens}, "basis": {basis}}}')

    def test_points_capped_before_any_mask(self):
        doc = {"points": MAX_SIZE + 1, "opens": [[]], "basis": []}
        with pytest.raises(CapExceeded, match=f"{MAX_SIZE + 1} points exceed the carrier cap"):
            stone.load_topology(json.dumps(doc))
        # the cap itself is accepted: the indiscrete space on MAX_SIZE points
        whole = list(range(MAX_SIZE))
        X = stone.load_topology(json.dumps(
            {"points": MAX_SIZE, "opens": [[], whole], "basis": [whole]}))
        assert X.points == MAX_SIZE and X.nbhd == (full_mask(MAX_SIZE),) * MAX_SIZE
