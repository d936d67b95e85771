import json
from itertools import product

import pytest

import oracles
from conftest import cap_structures, fresh, oracle_corpus, separation_corpus, small_structures
from orderbench import lab, tight as ti
from orderbench.core import bits, dump_structure, mask_from, full_mask, p0set, submasks
from orderbench.errors import (
    ConstructionIncomplete,
    NotTightish,
    PreconditionFailed,
    ZeroNotPreserved,
)
from orderbench.report import Check, Report


class TestCovers:
    def test_lower_bounds(self, e0, c2):
        assert ti.lower_bounds(e0, 0b110) == 0b001
        assert ti.lower_bounds(e0, 0) == 0b111
        assert ti.lower_bounds(c2, 0b100) == 0b111

    def test_named_covers(self, e0):
        assert ti.covers(e0, 0, 0b110) is True
        assert ti.covers(e0, 0b010, 0b100) is False

    def test_reflexive_on_nonempty(self):
        for B in small_structures(4):
            for C in range(1, 1 << B.size):
                assert ti.covers(B, C, C)

    def test_matches_oracle(self, e0, c2, p2, w5):
        for B in (e0, c2, p2, w5):
            for C in range(1 << B.size):
                for D in range(1 << B.size):
                    assert ti.covers(B, C, D) == oracles.naive_covers(
                        B, set(bits(C)), set(bits(D))
                    )

    @staticmethod
    def _precsim_refl(B, C, D):
        # the cover-like subset relation of the derived order
        from orderbench.core import derived_relations, meets_preceq

        der = derived_relations(B)
        mp = meets_preceq(B)
        below = 0
        for c in bits(C):
            below |= der.preceq_down[c]
        target = 1 << B.zero
        for d in bits(D):
            target |= mp[d]
        return below & ~target == 0

    def test_order_theoretic_reformulations(self):
        # singletons cover exactly when they are cover-like related; on a
        # separative structure singleton covers are the order; on a meet
        # semilattice the left side collapses to the meet; on a
        # distributive lattice the right side collapses to the join
        from orderbench.core import lattice_tables, order_predicates

        for B in small_structures(4):
            preds = order_predicates(B)
            nsub = 1 << B.size
            for x in range(B.size):
                for D in range(nsub):
                    assert ti.covers(B, 1 << x, D) == self._precsim_refl(
                        B, 1 << x, D
                    ), (B.pairs(), x, D)
            if preds.holds("separative"):
                from orderbench.core import derived_relations

                der = derived_relations(B)
                for x in range(B.size):
                    for y in range(B.size):
                        assert ti.covers(B, 1 << x, 1 << y) == bool(
                            der.preceq[x] >> y & 1
                        )
            if preds.holds("meet_semilattice"):
                mt, _ = lattice_tables(B)
                for x in range(B.size):
                    for y in range(B.size):
                        for D in range(nsub):
                            assert ti.covers(B, 1 << x | 1 << y, D) == ti.covers(
                                B, 1 << mt[x][y], D
                            )
            if preds.holds("lattice") and preds.holds("distributive"):
                _, jt = lattice_tables(B)
                for C in range(nsub):
                    for x in range(B.size):
                        for y in range(B.size):
                            assert ti.covers(B, C, 1 << x | 1 << y) == ti.covers(
                                B, C, 1 << jt[x][y]
                            )

    def test_cover_versus_precsim_relationships(self):
        # the empty left side covers exactly when the whole carrier is
        # cover-like below; a nonempty cover-like set covers; covers absorb
        # cover-like extensions on the right
        from orderbench.core import full_mask

        for B in small_structures(4):
            nsub = 1 << B.size
            fm = full_mask(B.size)
            for D in range(nsub):
                assert ti.covers(B, 0, D) == self._precsim_refl(B, fm, D)
            for C in range(1, nsub):
                for D in range(nsub):
                    if self._precsim_refl(B, C, D):
                        assert ti.covers(B, C, D)
            for C in range(nsub):
                for E in range(nsub):
                    if not ti.covers(B, C, E):
                        continue
                    for D in range(nsub):
                        if self._precsim_refl(B, E, D):
                            assert ti.covers(B, C, D), (B.pairs(), C, E, D)


class TestMapProperties:
    def test_atoms_into_large_algebra(self, e0, p3):
        rep = ti.map_properties(ti.struct_map(e0, p3, (0, 1, 2)))
        assert rep.holds("tightish") is True
        assert rep.holds("tight") is False
        assert rep.holds("coinitial") is False
        assert rep.holds("representation") is True

    def test_atoms_into_matching_algebra(self, e0, p2):
        rep = ti.map_properties(ti.struct_map(e0, p2, (0, 1, 2)))
        assert rep.holds("tight") is True
        assert rep.holds("coinitial") is True

    def test_identity(self, p2):
        rep = ti.map_properties(ti.identity_map(p2))
        assert rep.holds("tight") and rep.holds("coinitial")

    def test_character_flag(self, e0):
        two = lab.make_family("powerset", 1)
        rep = ti.map_properties(ti.struct_map(e0, two, (0, 1, 1)))
        assert rep.holds("character") is True

    def test_zero_preservation(self, e0, p2):
        with pytest.raises(ZeroNotPreserved):
            ti.map_properties(ti.struct_map(e0, p2, (1, 1, 2)))

    def test_chain_of_implications(self):
        # tightish and coinitial imply tight; tight implies tightish; over
        # every map between enumerated structures of size <= 3 plus the
        # named four-element ones
        objs = small_structures(3) + [
            lab.make_family("powerset", 2),
            lab.make_family("diamond", 2),
        ]
        for B in objs:
            for A in objs:
                for assign in product(range(A.size), repeat=B.size - 1):
                    full = list(assign)
                    full.insert(B.zero, A.zero)
                    beta = ti.struct_map(B, A, tuple(full))
                    rep = ti.map_properties(beta)
                    if rep.holds("tightish") and rep.holds("coinitial"):
                        assert rep.holds("tight"), (B.pairs(), A.pairs(), full)
                    if rep.holds("tight"):
                        assert rep.holds("tightish")


def _oracle_report(beta, rep):
    """The report the sweep oracles give for beta, taking the algebra flag
    of the target from rep."""
    tight_w, tightish_w = oracles.sweep_map_witnesses(beta)
    coin_w = oracles.coinitial_witness(beta)
    algebra = rep.holds("representation")
    checks = (
        Check("tight", tight_w is None, tight_w),
        Check("tightish", tightish_w is None, tightish_w),
        Check("coinitial", coin_w is None, coin_w),
        Check("representation", algebra),
        Check("character", algebra and beta.target.size == 2),
    )
    return Report("map_properties", checks, passed=tight_w is None)


def _zero_preserving(B, A):
    for assign in product(range(A.size), repeat=B.size - 1):
        full = list(assign)
        full.insert(B.zero, A.zero)
        yield ti.struct_map(B, A, full)


def test_zero_preserving_maps():
    for B, A in (
        (lab.make_family("chain", 3), lab.make_family("powerset", 2)),
        (p0set(3, 2, [(2, 0), (2, 1), (2, 2)]), lab.make_family("antichain", 2)),
        (lab.make_family("chain", 0), lab.make_family("powerset", 3)),
    ):
        maps = list(ti.zero_preserving_maps(B, A))
        assert len(maps) == A.size ** (B.size - 1)
        assert all(m.source is B and m.target is A for m in maps)
        assert all(m.assignment[B.zero] == A.zero for m in maps)
        assert [m.assignment for m in maps] == [m.assignment for m in _zero_preserving(B, A)]


class TestMinimalCoverPairs:
    """map_properties tests only the source's minimal covering pairs; the
    reports must equal those of the sweep over all pairs."""

    def test_all_small_maps_match_sweep(self):
        objs = small_structures(3) + [
            lab.make_family("powerset", 2),
            lab.make_family("diamond", 2),
            lab.make_family("chain", 3),
            lab.make_family("antichain", 3),
        ]
        count = 0
        for B in objs:
            for A in objs:
                for beta in _zero_preserving(B, A):
                    rep = ti.map_properties(beta)
                    assert rep == _oracle_report(beta, rep), beta
                    count += 1
        assert count == 7627

    def test_random_maps_match_sweep(self):
        import random

        rng = random.Random(5)
        wide = lab.make_family("antichain", 13)
        two = lab.make_family("powerset", 1)
        outcomes = set()
        for _ in range(40):
            n = rng.randint(5, 8)
            B = lab.random_p0set(n, rng.getrandbits(32), rng.random() < 0.6,
                                 rng.uniform(0.1, 0.5))
            A = lab.random_p0set(rng.randint(2, 12), rng.getrandbits(32),
                                 rng.random() < 0.6, rng.uniform(0.1, 0.5))
            for T in (A, wide, two):
                assign = [rng.randrange(T.size) for _ in range(n)]
                assign[B.zero] = T.zero
                beta = ti.struct_map(B, T, assign)
                rep = ti.map_properties(beta)
                assert rep == _oracle_report(beta, rep), beta
                outcomes.add((rep.holds("tight"), rep.holds("tightish")))
        assert outcomes == {(True, True), (False, True), (False, False)}

    def test_ten_element_sources_match_sweep(self, p3):
        for name, k in (("antichain", 9), ("chain", 9), ("diamond", 8)):
            B = lab.make_family(name, k)
            for T, assign in (
                (p3, [0] + [7] * (B.size - 1)),
                (p3, [0] + [1 + x % 7 for x in range(B.size - 1)]),
                (B, range(B.size)),
            ):
                beta = ti.struct_map(B, T, assign)
                rep = ti.map_properties(beta)
                assert rep == _oracle_report(beta, rep), beta

    def test_table_is_the_minimal_covering_pairs(self):
        # minimal elements of the naive covering pairs, by literal
        # comparison with every pair below
        def minimal(pairs):
            return sorted(
                (F, G)
                for F, G in pairs
                if not any(
                    (f, g) in pairs and (f, g) != (F, G)
                    for f in submasks(F)
                    for g in submasks(G)
                )
            )

        for B in small_structures(4):
            nsub = 1 << B.size
            cov = {
                (F, G)
                for F in range(nsub)
                for G in range(nsub)
                if oracles.naive_covers(B, set(bits(F)), set(bits(G)))
            }
            rows = ti._minimal_covers(B)
            assert [(F, G) for F, _, entries in rows for G, _ in entries] == (
                minimal({p for p in cov if p[0] == 0})
                + minimal({p for p in cov if p[0] != 0})
            )
            for F, members, entries in rows:
                assert members == tuple(bits(F))
                for G, gs in entries:
                    assert gs == tuple(bits(G))

    def test_one_table_per_source(self, p3):
        # every map out of one source reuses one table: a count, not a time
        B = fresh(lab.make_family("diamond", 2))
        before = ti._minimal_covers.cache_info()
        maps = list(_zero_preserving(B, p3))
        for beta in maps:
            ti.map_properties(beta)
        after = ti._minimal_covers.cache_info()
        assert len(maps) == 512
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 511)


def _map_sweep_maps(seed):
    """The maps of the benchmark's map_sweep groups at this seed: every
    zero-preserving map into powerset 2 and powerset 3 from each structure
    of size <= 3 and from 180 seeded structures of size 4 (the sample
    `perfbench/workloads.py` draws in `map_inputs`)."""
    import random

    sources = small_structures(3)
    sources += random.Random(f"map_sweep/{seed}").sample(lab.enumerate_structures(4), 180)
    targets = (lab.make_family("powerset", 2), lab.make_family("powerset", 3))
    return [beta for B in sources for A in targets for beta in ti.zero_preserving_maps(B, A)]


class TestSharedMapReports:
    """map_properties hands out one immutable report per verdict."""

    def test_map_sweep_maps_match_sweep(self):
        maps = _map_sweep_maps(0)
        assert len(maps) == 105158
        verdicts = set()
        for beta in maps:
            rep = ti.map_properties(beta)
            assert rep == _oracle_report(beta, rep), beta
            verdicts.add(rep)
        assert len(verdicts) == 164

    def test_same_verdict_same_object(self, p2):
        B = lab.make_family("antichain", 2)
        first, second = ti.struct_map(B, p2, (0, 1, 2)), ti.struct_map(B, p2, (0, 2, 1))
        assert first != second
        assert ti.map_properties(first) is ti.map_properties(second)
        other = ti.map_properties(ti.struct_map(B, p2, (0, 1, 1)))
        assert other != ti.map_properties(first)

    def test_report_cache_is_bounded_and_keyed_on_verdicts(self, p3):
        assert ti._map_report.cache_info().maxsize == 4096
        rep = ti.map_properties(ti.struct_map(lab.make_family("chain", 1), p3, (0, 5)))
        # the key is the three witnesses and two flags; it holds no structure
        key = tuple(rep[name].witness for name in ("tight", "tightish", "coinitial"))
        assert ti._map_report(*key, rep.holds("representation"), rep.holds("character")) is rep


class TestTightEquivalences:
    def test_atoms_clause_a(self, e0, p2):
        rep = ti.verify_tight_equivalences(ti.struct_map(e0, p2, (0, 1, 2)))
        assert rep.holds("tightish_matched_cover_tight") is True

    def test_identity_clause_c(self, p2):
        rep = ti.verify_tight_equivalences(ti.identity_map(p2))
        assert rep.holds("algebra_homomorphism") is True

    def test_swap_clause_c(self, p2):
        swap = ti.struct_map(p2, p2, (0, 2, 1, 3))
        rep = ti.verify_tight_equivalences(swap)
        assert rep.holds("algebra_homomorphism") is True

    def test_skipped_without_structure(self, e0, c2):
        rep = ti.verify_tight_equivalences(ti.struct_map(e0, c2, (0, 1, 1)))
        assert rep.holds("algebra_homomorphism") is None

    def test_all_clauses_over_small_maps(self):
        objs = [lab.make_family("antichain", 2), lab.make_family("powerset", 2),
                lab.make_family("chain", 2)]
        for B in objs:
            for A in objs:
                for assign in product(range(A.size), repeat=B.size - 1):
                    beta = ti.struct_map(B, A, tuple([A.zero] + list(assign)))
                    rep = ti.verify_tight_equivalences(beta)
                    assert rep.passed, (B.names, A.names, assign,
                                        [c.name for c in rep.failures()])


class TestMatchedTotalCover:
    def test_planted_tightish_not_tight(self, e0, p2, p3, monkeypatch):
        # clause (a) holds on every real map, so its matched-cover test is
        # only visible against a planted report: tightish but not tight
        planted = Report("map_properties", (
            Check("tight", False, (0, 0)),
            Check("tightish", True),
            Check("coinitial", True),
            Check("representation", True),
            Check("character", False),
        ), passed=False)
        monkeypatch.setattr(ti, "map_properties", lambda beta: planted)
        # the atoms cover the top of p2 but not the third atom of p3
        matched = ti.verify_tight_equivalences(ti.struct_map(e0, p2, (0, 1, 2)))
        unmatched = ti.verify_tight_equivalences(ti.struct_map(e0, p3, (0, 1, 2)))
        assert matched.holds("tightish_matched_cover_tight") is False
        assert unmatched.holds("tightish_matched_cover_tight") is True


class TestAlexandroff:
    # the per-element route that `tight.rho` replaced, kept as the oracle
    # for the carriers where the set-based regularization is too slow
    def test_chain_regularization(self, c2):
        assert oracles.alex_closure(c2, 0b010) == 0b110
        assert oracles.regularize(c2, 0b010) == 0b110

    def test_two_atoms_discrete(self, e0):
        assert oracles.regularize(e0, 0b010) == 0b010

    def test_empty(self, p2):
        assert oracles.regularize(p2, 0) == 0

    def test_matches_oracle(self, c2, p2, w5):
        for B in (c2, p2, w5):
            prime = full_mask(B.size) & ~(1 << B.zero)
            for Y in range(1 << B.size):
                if Y & ~prime:
                    continue
                cl, inte = oracles.naive_alexandroff(B, set(bits(Y)))
                assert oracles.alex_closure(B, Y) == mask_from(cl)
                assert oracles.alex_interior(B, Y) == mask_from(inte)
                assert oracles.regularize(B, Y) == mask_from(
                    oracles.naive_regularize(B, set(bits(Y)))
                )


class TestRho:
    def test_chain_collapses(self, c2):
        assert ti.rho(c2)[1] == ti.rho(c2)[2] == 0b110
        assert ti.rho(c2)[0] == 0

    def test_two_atoms(self, e0):
        assert ti.rho(e0)[1] == 0b010

    def test_zero_always_empty_on_posets(self):
        from orderbench.core import antisymmetry_violation

        for B in small_structures(4):
            if antisymmetry_violation(B) is None:
                assert ti.rho(B)[B.zero] == 0

    def test_rows_match_regularization(self):
        # the regularized punctured down-sets, by the set-based closure and
        # interior on carriers of 4 and of 6 to 8, by the per-element route
        # on the others
        for B in separation_corpus():
            if B.size != 5 and B.size <= 8:
                want = tuple(
                    mask_from(oracles.naive_regularize(
                        B, {v for v in range(B.size) if v != B.zero and oracles.le(B, v, x)}
                    ))
                    for x in range(B.size)
                )
            else:
                want = oracles.regularized_rows(B)
            assert ti.rho(B) == want, B.pairs()

    def test_rows_at_the_cap(self):
        for B in cap_structures():
            assert ti.rho(B) == oracles.regularized_rows(B)


def _masks(S):
    return [oracles.algebra_mask(S, T) for T in range(1 << len(S.signatures))]


class TestEnvelope:
    def test_two_atoms_envelope(self, e0, p2):
        S = ti.enveloping_algebra(e0)
        assert _masks(S) == [0, 0b010, 0b100, 0b110]
        assert S.as_p0set().prec == p2.prec

    def test_algebra_structure_built_once_per_atom_count(self, e0, p2, p3):
        # e0 and p2 both have two atoms
        S = ti.enveloping_algebra(e0)
        assert S.as_p0set() is S.as_p0set() is ti.enveloping_algebra(p2).as_p0set()
        assert ti.enveloping_algebra(p3).as_p0set().prec == p3.prec

    def test_chain_envelope(self, c2):
        S = ti.enveloping_algebra(c2)
        assert _masks(S) == [0, 0b110]

    def test_powerset_embeds(self, p2):
        S = ti.enveloping_algebra(p2)
        assert len(_masks(S)) == 4
        assert len(set(S.rho_index)) == 4

    def test_tables_are_regular_closed(self):
        # every element is a regular open, and the atom-mask operations
        # are intersection, regularized union and relative complement
        for B in small_structures(4):
            S = ti.enveloping_algebra(B)
            masks = _masks(S)
            prime = full_mask(B.size) & ~(1 << B.zero)
            for T, m in enumerate(masks):
                assert oracles.regularize(B, m) == m
                for U, u in enumerate(masks):
                    assert masks[T & U] == m & u
                    assert masks[T | U] == oracles.regularize(B, m | u)
                    assert masks[T & ~U] == m & oracles.alex_interior(B, prime & ~u)

    def test_finite_envelope_has_maximum(self):
        # the join of everything dominates each element, so the algebra is
        # a true Boolean algebra in the finite case
        for B in small_structures(4):
            S = ti.enveloping_algebra(B)
            masks = _masks(S)
            assert all(m & ~masks[-1] == 0 for m in masks)

    def test_principal_map_tight_and_open_map_tight(self):
        # the two stage maps compose to the principal embedding, which is
        # tight on every structure; checked through the cover equivalence
        for B in small_structures(4):
            assert ti.verify_fgrho(B).passed, B.pairs()

    def _alexandroff_family(self, B):
        """All punctured-carrier opens as an inclusion-ordered structure."""
        prime = full_mask(B.size) & ~(1 << B.zero)
        opens = [
            Y
            for Y in range(1 << B.size)
            if Y & ~prime == 0 and oracles.alex_interior(B, Y) == Y
        ]
        opens.sort()
        pairs = [
            (i, j)
            for i, a in enumerate(opens)
            for j, b in enumerate(opens)
            if a & ~b == 0
        ]
        return opens, p0set(len(opens), 0, pairs)

    def test_stage_maps_tight_and_coinitial(self):
        # stage one: element to its punctured derived down-set, into the
        # open family; stage two: open to its regularization, into the
        # regular-open family.  Both tight and coinitial over structures
        # whose derived order is a partial order (elsewhere the embedding
        # does not even keep zero).  The exhaustive source sweep keeps this
        # at carrier four; the cover-equivalence suite extends the
        # composite much further.
        from orderbench.core import antisymmetry_violation, derived_relations

        for B in small_structures(4):
            if antisymmetry_violation(B) is not None:
                continue
            opens, O = self._alexandroff_family(B)
            der = derived_relations(B)
            prime = full_mask(B.size) & ~(1 << B.zero)
            stage1 = ti.struct_map(
                B,
                O,
                tuple(opens.index(der.preceq_down[x] & prime) for x in range(B.size)),
            )
            rep1 = ti.map_properties(stage1)
            assert rep1.holds("tight") and rep1.holds("coinitial"), B.pairs()

            if len(opens) <= 8:
                ros = [
                    Y
                    for Y in range(1 << B.size)
                    if Y & ~prime == 0 and oracles.regularize(B, Y) == Y
                ]
                ros.sort()
                ro_pairs = [
                    (i, j)
                    for i, a in enumerate(ros)
                    for j, b in enumerate(ros)
                    if a & ~b == 0
                ]
                RO = p0set(len(ros), 0, ro_pairs)
                stage2 = ti.struct_map(
                    O, RO, tuple(ros.index(oracles.regularize(B, Y)) for Y in opens)
                )
                rep2 = ti.map_properties(stage2)
                assert rep2.holds("tight") and rep2.holds("coinitial"), B.pairs()
                assert rep2.holds("representation"), B.pairs()

    def test_principal_embedding_tight(self):
        # the composite embedding itself, with the algebra as target; the
        # cover-equivalence suite extends this to size five and beyond
        from orderbench.core import antisymmetry_violation

        for B in small_structures(4):
            if antisymmetry_violation(B) is not None:
                continue
            S = ti.enveloping_algebra(B)
            rho_map = ti.struct_map(B, S.as_p0set(), S.rho_index)
            assert ti.map_properties(rho_map).holds("tight"), B.pairs()


class TestFgrho:
    def test_named(self, e0, c2, w5):
        assert ti.verify_fgrho(e0).passed
        assert ti.verify_fgrho(c2).passed
        assert ti.verify_fgrho(w5).passed

    def test_witness_is_first_of_sweep(self, e0, p2, d3, w5, monkeypatch):
        # the equivalence holds on every structure, so its witness shows
        # only against a planted algebra: each rho(x) loses its lowest
        # atom in turn (and that atom's signature loses x), and the witness
        # must be the first mismatching pair of the sweep over all (F, G)
        # in ascending order
        import dataclasses

        envelope = ti.enveloping_algebra
        witnesses = 0
        for B in (e0, p2, d3, w5):
            S = envelope(B)
            top = full_mask(len(S.signatures))
            for x in range(B.size):
                rows = list(S.rho_index)
                rows[x] &= rows[x] - 1
                planted = dataclasses.replace(
                    S,
                    signatures=tuple(
                        mask_from(y for y, r in enumerate(rows) if r >> i & 1)
                        for i in range(len(S.signatures))
                    ),
                    rho_index=tuple(rows),
                )
                monkeypatch.setattr(ti, "enveloping_algebra", lambda _, p=planted: p)

                def cap(F):
                    acc = top
                    for f in bits(F):
                        acc &= rows[f]
                    return acc

                def vee(G):
                    acc = 0
                    for g in bits(G):
                        acc |= rows[g]
                    return acc

                expected = next(
                    (
                        (F, G)
                        for F in range(1 << B.size)
                        for G in range(1 << B.size)
                        if oracles.naive_covers(B, set(bits(F)), set(bits(G)))
                        != (cap(F) & ~vee(G) == 0)
                    ),
                    None,
                )
                rep = ti.verify_fgrho(B)
                assert rep.passed == (expected is None)
                assert rep["equivalence"].witness == expected, (B.pairs(), x)
                witnesses += expected is not None
        assert witnesses == 13


class TestFactorTight:
    def test_atom_isomorphism(self, e0, p2):
        beta = ti.struct_map(e0, p2, (0, 1, 2))
        pi = ti.factor_tight(beta)
        assert pi.source.size == 4
        assert pi.assignment == (0, 1, 2, 3)

    def test_factor_of_embedding_is_identity(self, e0):
        S = ti.enveloping_algebra(e0)
        rho_map = ti.struct_map(e0, S.as_p0set(), S.rho_index)
        pi = ti.factor_tight(rho_map)
        assert pi.assignment == tuple(range(1 << len(S.signatures)))

    def test_chain_to_two_element(self, c2):
        p1 = lab.make_family("powerset", 1)
        pi = ti.factor_tight(ti.struct_map(c2, p1, (0, 1, 1)))
        assert pi.assignment == (0, 1)

    def test_rejects_non_tightish(self, p2):
        # collapsing the atoms of the powerset onto one atom breaks a cover
        beta = ti.struct_map(p2, p2, (0, 1, 1, 1))
        with pytest.raises(NotTightish):
            ti.factor_tight(beta)

    def test_rejects_non_algebra_target(self, e0, d3):
        # every zero-preserving map out of the two-atom example is tightish,
        # and the diamond is not an algebra
        beta = ti.struct_map(e0, d3, (0, 1, 2))
        assert ti.map_properties(beta).holds("tightish")
        with pytest.raises(PreconditionFailed):
            ti.factor_tight(beta)

    def test_random_medium_sources(self, p2, p3):
        # factor through larger envelopes than the exhaustive sweep reaches
        import random

        from orderbench.core import antisymmetry_violation

        rng = random.Random(3)
        factored = 0
        attempts = 0
        while factored < 40 and attempts < 4000:
            attempts += 1
            n = rng.choice((5, 6))
            B = lab.random_p0set(n, rng.getrandbits(32), rng.random() < 0.7,
                                 rng.uniform(0.1, 0.5))
            if antisymmetry_violation(B) is not None:
                continue
            A = p2 if rng.random() < 0.5 else p3
            assign = [A.zero] + [rng.randrange(A.size) for _ in range(n - 1)]
            beta = ti.struct_map(B, A, tuple(assign))
            if not ti.map_properties(beta).holds("tightish"):
                continue
            pi = ti.factor_tight(beta)
            S = ti.enveloping_algebra(B)
            assert all(
                pi.assignment[S.rho_index[x]] == beta.assignment[x]
                for x in range(n)
            )
            factored += 1
        assert factored == 40

    def test_wide_antichain_envelope(self):
        # seven disjoint atoms generate the full 128-element algebra
        B = lab.make_family("antichain", 7)
        S = ti.enveloping_algebra(B)
        assert len(_masks(S)) == 128
        assert len(S.signatures) == 7
        from orderbench import spectrum as sp

        assert len(sp.tight_characters(B)) == 7


class TestNaturality:
    def test_square_commutes(self, e0, p2):
        beta = ti.struct_map(e0, p2, (0, 1, 2))
        _, rep = ti.naturality_square(beta)
        assert rep.passed

    def test_identity_functor(self, e0, c2, p2):
        for B in (e0, c2, p2):
            assert ti.functor_identity(B).passed

    def test_composition_functor(self, e0, p2):
        beta = ti.struct_map(e0, p2, (0, 1, 2))
        swap = ti.struct_map(p2, p2, (0, 2, 1, 3))
        assert ti.functor_composition(beta, swap).passed

    def test_rejects_non_tightish(self, p2):
        with pytest.raises(NotTightish):
            ti.naturality_square(ti.struct_map(p2, p2, (0, 1, 1, 1)))


class TestMapFormat:
    def test_round_trip(self, tmp_path, e0, p2):
        (tmp_path / "e0.json").write_text(dump_structure(e0))
        (tmp_path / "p2.json").write_text(dump_structure(p2))
        doc = json.dumps({"from": "e0.json", "to": "p2.json", "map": [0, 1, 2]})
        beta = ti.load_struct_map(doc, tmp_path)
        assert beta.assignment == (0, 1, 2)
        assert beta.source.prec == e0.prec


class TestFactoringSuite:
    def test_bug_in_factoring_propagates(self, monkeypatch):
        # the factoring theorem rules out ConstructionIncomplete only; any
        # other error is a bug and must not become a failure line
        from orderbench import suites

        def broken(beta):
            raise RuntimeError("bug")

        monkeypatch.setattr(ti, "factor_tight", broken)
        with pytest.raises(RuntimeError):
            suites.suite_universal_factoring()

    def test_construction_failure_is_reported(self, monkeypatch):
        from orderbench import suites

        def clash(beta):
            raise ConstructionIncomplete("planted clash")

        monkeypatch.setattr(ti, "factor_tight", clash)
        result = suites.suite_universal_factoring()
        assert not result.passed
        assert result.details[0].startswith("0 tightish maps factored")


class TestAgainstEnumeration:
    """The closed-form algebra against the worklist closure of the
    principal regularizations, and the factor against an enumeration of
    the values on atoms."""

    def test_algebra_matches_worklist(self):
        for B in oracle_corpus():
            S = ti.enveloping_algebra(B)
            elements, rho = oracles.worklist_algebra(B)
            masks = [frozenset(bits(m)) for m in _masks(S)]
            assert len(set(masks)) == len(masks)
            assert set(masks) == elements, B.pairs()
            assert [masks[t] for t in S.rho_index] == rho, B.pairs()

    def test_operations_on_masks(self):
        # T -> mask(T) is an isomorphism onto the regular opens it reaches
        for B in oracle_corpus():
            S = ti.enveloping_algebra(B)
            regularize, negate = oracles._regular_ops(B)
            masks = [frozenset(bits(m)) for m in _masks(S)]
            for T, m in enumerate(masks):
                for U, u in enumerate(masks):
                    assert masks[T & U] == m & u
                    assert masks[T | U] == regularize(m | u)
                    assert masks[T & ~U] == m & negate(u)

    def test_atoms_are_the_characters(self):
        # with no nonzero element below zero, atom i is the i-th character
        from orderbench import spectrum as sp

        checked = 0
        for B in oracle_corpus():
            if any(x != B.zero and oracles.le(B, x, B.zero) for x in range(B.size)):
                continue
            checked += 1
            assert ti.enveloping_algebra(B).signatures == sp.tight_characters(B).chars
        assert checked == 96

    def test_factor_matches_enumeration(self, p2, p3):
        count = 0
        for B in small_structures(4):
            S = ti.enveloping_algebra(B)
            masks = [frozenset(bits(m)) for m in _masks(S)]
            for A in (p2, p3):
                for beta in ti.zero_preserving_maps(B, A):
                    props = ti.map_properties(beta)
                    if not (props.holds("tightish") and props.holds("representation")):
                        continue
                    found = oracles.enumerate_factors(B, A, beta.assignment)
                    assert len(found) == 1, beta
                    pi = ti.factor_tight(beta)
                    assert pi.assignment == tuple(found[0][m] for m in masks), beta
                    count += 1
        assert count == 1824
