import pytest

import oracles
from conftest import (
    cap_structures,
    oracle_corpus,
    separation_corpus,
    small_structures,
    topology_corpus,
)
from orderbench import lab, spectrum as sp, stone, tight as ti
from orderbench.core import antisymmetry_violation, bits, mask_from, p0set
from orderbench.errors import NotClopen, NotOpen, NotPseudobasis


class TestTightCharacters:
    def test_named(self, e0, c2, p2, one):
        assert sp.tight_characters(e0).chars == (0b010, 0b100)
        assert sp.tight_characters(c2).chars == (0b110,)
        assert sp.tight_characters(p2).chars == (0b1010, 0b1100)
        assert sp.tight_characters(one).chars == ()

    def test_matches_oracle(self):
        for B in small_structures(3):
            got = [frozenset(bits(m)) for m in sp.tight_characters(B).chars]
            assert sorted(got, key=sorted) == sorted(
                oracles.naive_tight_characters(B), key=sorted
            ), B.pairs()

    def test_tightish_equal_tight(self):
        # nonzero tightish characters are coinitial and hence tight
        for B in small_structures(4):
            got = {frozenset(bits(m)) for m in sp.tight_characters(B).chars}
            assert got == set(oracles.scan_characters(B, require_empty_cover=False))

    def test_matches_scans(self):
        # the maximal rows against the submask and pairwise scans
        for B in oracle_corpus():
            chars = [frozenset(bits(m)) for m in sp.tight_characters(B).chars]
            centred = [frozenset(bits(m)) for m in sp.maximal_centred_sets(B)]
            assert len(set(chars)) == len(chars) and len(set(centred)) == len(centred)
            assert set(chars) == set(oracles.scan_characters(B)), B.pairs()
            assert set(centred) == set(oracles.scan_maximal_centred(B)), B.pairs()

    def test_characters_are_tight_maps(self, e0, c2, p2):
        two = lab.make_family("powerset", 1)
        for B in (e0, c2, p2):
            for M in sp.tight_characters(B).chars:
                assign = tuple(1 if M >> x & 1 else 0 for x in range(B.size))
                rep = ti.map_properties(ti.struct_map(B, two, assign))
                assert rep.holds("tight"), (B.names, bin(M))


class TestMaximalCentred:
    def test_named(self, e0, c2, one):
        assert sp.maximal_centred_sets(e0) == (0b010, 0b100)
        assert sp.maximal_centred_sets(c2) == (0b110,)
        assert sp.maximal_centred_sets(one) == ()

    def test_equal_to_characters(self):
        for B in small_structures(4):
            if antisymmetry_violation(B) is None:
                assert sp.maximal_centred_sets(B) == sp.tight_characters(B).chars


class TestPseudobasis:
    def test_atom_family(self):
        X = stone.discrete_topology(2, [0, 1, 2])
        rep = sp.is_pseudobasis(X, [0, 1, 2])
        assert rep.passed and rep.all_clopen()

    def test_t0_failure(self):
        X = stone.discrete_topology(2, [0, 3])
        rep = sp.is_pseudobasis(X, [0, 3])
        assert rep.report["t0"].holds is False
        assert rep.report["t0"].witness == (0, 1)

    def test_minimum_failure(self):
        X = stone.discrete_topology(2, [1, 2])
        rep = sp.is_pseudobasis(X, [1, 2])
        assert rep.report["minimum"].holds is False

    def test_rejects_non_open(self):
        X = stone.topology_from_basis(2, [0b01, 0b11])
        with pytest.raises(NotOpen):
            sp.is_pseudobasis(X, [0b10])

    def test_against_opens_list(self):
        # families with and without the empty set, covering or not, and
        # with members too large to be coinitial
        for points, basis in topology_corpus():
            X = stone.topology_from_basis(points, basis)
            O = oracles.OpensTopology(points, oracles.opens_generated(basis))
            large = [o for o in O.opens if o.bit_count() >= points - 1]
            for family in (O.opens, sorted({0, *X.nbhd}), O.opens[1::2], [0] + large):
                rep = sp.is_pseudobasis(X, family)
                got = (rep.report["minimum"].holds, rep.report["cover"].holds,
                       rep.report["coinitiality"].witness, rep.report["t0"].witness,
                       rep.clopen)
                assert got == oracles.sweep_pseudobasis(O, family), (points, basis, family)


class TestSpectrumSpace:
    def test_two_atoms(self, e0):
        X = oracles.spectrum_space(e0)
        assert X.points == 2
        assert sorted(X.basis[1:]) == [0b01, 0b10]

    def test_chain(self, c2):
        X = oracles.spectrum_space(c2)
        assert X.points == 1
        assert X.basis == (0, 1, 1)

    def test_one_point_empty(self, one):
        assert oracles.spectrum_space(one).points == 0

    def test_past_sixteen_characters(self):
        X = oracles.spectrum_space(lab.make_family("antichain", 63))
        assert X.points == 63 and X.nbhd == tuple(1 << p for p in range(63))


class TestSpectrumHomeomorphism:
    def test_atom_family(self):
        X = stone.discrete_topology(2, [0, 1, 2])
        mapping, rep = sp.spectrum_homeomorphism(X, [0, 1, 2])
        assert rep.passed
        assert sorted(mapping) == [0, 1]

    def test_full_powerset(self):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        mapping, rep = sp.spectrum_homeomorphism(X, [0, 1, 2, 3])
        assert rep.passed

    def test_single_point(self):
        X = stone.discrete_topology(1, [0, 1])
        mapping, rep = sp.spectrum_homeomorphism(X, [0, 1])
        assert rep.passed and mapping == (0,)

    def test_rejects_non_pseudobasis(self):
        X = stone.discrete_topology(2, [0, 3])
        with pytest.raises(NotPseudobasis):
            sp.spectrum_homeomorphism(X, [0, 3])

    def test_rejects_non_clopen(self):
        X = stone.topology_from_basis(2, [0b01, 0b11])
        with pytest.raises(NotClopen):
            sp.spectrum_homeomorphism(X, [0, 0b01, 0b11])


class TestPseudochar:
    def test_named(self, e0, c2, p2):
        assert sp.verify_pseudochar(e0).passed
        assert sp.verify_pseudochar(p2).passed
        rep = sp.verify_pseudochar(c2)
        assert rep.passed
        assert rep.holds("separative") is False
        assert rep.holds("injective") is False

    def test_separative_small(self):
        for B in small_structures(4):
            rep = sp.verify_pseudochar(B)
            assert rep.passed, B.pairs()
            if rep.holds("separative"):
                assert rep.holds("order_isomorphism") and rep.holds("injective")


    def test_matches_walks(self):
        # the pseudobasis conditions of the principal opens against the
        # literal sweep (every open of the discrete spectrum) and the walk,
        # and the order isomorphism against the pairwise loop
        for B in separation_corpus() + tuple(cap_structures()):
            rep = sp.verify_pseudochar(B)
            X = oracles.spectrum_space(B)
            pb = sp.is_pseudobasis(X, X.basis)
            got = (pb.report["minimum"].holds, pb.report["cover"].holds,
                   pb.report["coinitiality"].witness, pb.report["t0"].witness, pb.clopen)
            assert got == oracles.walk_pseudobasis(X, X.basis), B.pairs()
            if X.points <= 8:
                O = oracles.OpensTopology(X.points, range(1 << X.points))
                assert got == oracles.sweep_pseudobasis(O, X.basis), B.pairs()
            assert rep.holds("pseudobasis") == pb.passed == (
                got[0] and got[1] and got[2] is None and got[3] is None)
            assert rep.holds("clopen_members") == all(got[4])
            iso = next(((x, y) for x in range(B.size) for y in range(B.size)
                        if (X.basis[x] & ~X.basis[y] == 0) != oracles.le(B, x, y)), None)
            assert rep["order_isomorphism"].witness == iso, B.pairs()


class TestSeparativityChain:
    def test_named(self, e0, c2, p2):
        for B, flags in ((e0, (True, True, True)), (c2, (False, False, False)),
                         (p2, (True, True, True))):
            rep = sp.separativity_chain(B)
            got = (
                rep.holds("separative"),
                rep.holds("rho_injective"),
                rep.holds("ssc"),
            )
            assert got == flags
            assert rep.holds("chain_respected")
            assert rep.holds("semilattice_equivalence")

    def test_chain_everywhere_small(self):
        for B in small_structures(4):
            rep = sp.separativity_chain(B)
            assert rep.holds("chain_respected"), B.pairs()
            if rep.holds("semilattice_equivalence") is not None:
                assert rep.holds("semilattice_equivalence"), B.pairs()


class TestSpectrumVsStone:
    def test_named(self, e0, c2, p2, w5, one):
        for B in (e0, c2, p2, w5, one):
            rep = sp.spectrum_vs_stone(B, cross_check=True)
            assert rep.passed, B.names

    def test_counts(self, e0, c2, w5):
        for B, k in ((e0, 2), (c2, 1), (w5, 2)):
            assert len(sp.tight_characters(B)) == k
            assert len(ti.enveloping_algebra(B).signatures) == k

    def test_poset_reflexivizations_small(self):
        for B in small_structures(4):
            if antisymmetry_violation(B) is None:
                assert sp.spectrum_vs_stone(B, cross_check=True).passed, B.pairs()

    def test_degenerate_structures_fail_honestly(self):
        # with an element order-equivalent to zero the identification is
        # genuinely broken; the report must say so rather than hide it
        B = p0set(2, 0, [(0, 0), (0, 1)])
        rep = sp.spectrum_vs_stone(B, cross_check=False)
        assert not rep.passed

    def test_random_size_seven(self):
        import random

        rng = random.Random(11)
        checked = 0
        for i in range(120):
            B = lab.random_p0set(7, rng.getrandbits(32), i % 2 == 0,
                                 rng.uniform(0.05, 0.5))
            if antisymmetry_violation(B) is not None:
                continue
            checked += 1
            assert sp.spectrum_vs_stone(B).passed, B.pairs()
            assert sp.verify_pseudochar(B).passed, B.pairs()
        assert checked > 30


class TestSpectrumScans:
    def test_scan_centred_matches_pairwise_scan(self):
        for B in separation_corpus():
            if B.size <= sp.VS_STONE_CAP:
                got = [frozenset(bits(C)) for C in sp._scan_centred(B)]
                assert got == sorted(got, key=lambda C: mask_from(C))
                assert set(got) == set(oracles.scan_maximal_centred(B)), B.pairs()

    def test_ultrafilter_witness_matches_loops(self):
        import random

        rng = random.Random(41)
        for k in range(6):
            full = (1 << (1 << k)) - 1
            ults = list(sp._index_masks(k))
            assert sp._ultrafilter_witness(ults, k) is None
            assert ults == [mask_from(T for T in range(1 << k) if T >> i & 1) for i in range(k)]
            if k <= 3:
                candidates = range(full + 1)
            else:
                candidates = [rng.getrandbits(1 << k) for _ in range(300)]
                # the ultrafilters with one atom mask flipped
                candidates += [U ^ 1 << T for U in ults for T in range(1 << k)]
            for U in candidates:
                mixed = ults[:1] + [U] + ults[1:]
                assert (sp._ultrafilter_witness(mixed, k)
                        == oracles.loop_ultrafilter_witness(mixed, k)), (k, U)


class TestLargerPseudobases:
    def test_sampled_four_point_round_trips(self):
        # clopen pseudobases of a discrete four-point set: the empty set,
        # all singletons, and random extras (kept at ten members so the
        # character scan stays quick)
        import random

        rng = random.Random(5)
        from orderbench.core import full_mask

        fm = full_mask(4)
        for _ in range(60):
            fam = {0} | {1 << p for p in range(4)}
            while len(fam) < 10 and rng.random() < 0.8:
                fam.add(rng.randint(0, fm))
            fam = sorted(fam)
            X = stone.discrete_topology(4, fam)
            pb = sp.is_pseudobasis(X, fam)
            assert pb.passed and pb.all_clopen()
            mapping, rep = sp.spectrum_homeomorphism(X, fam)
            assert rep.passed, fam
            # the induced inclusion structure is separative
            pairs = [
                (i, j)
                for i, o in enumerate(fam)
                for j, nbh in enumerate(fam)
                if o & ~nbh == 0
            ]
            S = p0set(len(fam), 0, pairs)
            from orderbench.core import order_predicates

            assert order_predicates(S).holds("separative")
