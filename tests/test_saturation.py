import random

import pytest

import oracles
from conftest import small_structures
from orderbench import axioms, lab, saturation as sa
from orderbench.core import bits, mask_from, p0set
from orderbench.errors import CapExceeded, PreconditionFailed


class TestSubsetRelations:
    def test_powerset_atoms_below_top(self, p2):
        rels = oracles.subset_relations(p2, 0b0110, 0b1000)
        assert rels.prec and rels.precsim and rels.wayb

    def test_reflexive(self, e0, c2, p2):
        for B in (e0, c2, p2):
            for C in range(1 << B.size):
                assert sa.subset_precsim(B, C, C)

    def test_two_atoms_not_similar(self, e0):
        assert not sa.subset_precsim(e0, 0b010, 0b100)

    def test_matches_oracle(self, e0, c2, w5):
        for B in (e0, c2, w5):
            for C in range(1 << B.size):
                Cs = set(bits(C))
                for D in range(1 << B.size):
                    Ds = set(bits(D))
                    assert sa.subset_prec(B, C, D) == oracles.naive_subset_prec(
                        B, Cs, Ds
                    )
                    assert sa.subset_precsim(B, C, D) == oracles.naive_subset_precsim(
                        B, Cs, Ds
                    )

    def test_fast_wayb_equals_exhaustive(self):
        for B in small_structures(4):
            for C in range(1 << B.size):
                for D in range(1 << B.size):
                    assert sa.subset_wayb(B, C, D) == oracles.wayb_exhaustive(B, C, D)

    def test_cap(self):
        big = p0set(13, 0, [(0, j) for j in range(13)] + [(i, i) for i in range(13)])
        with pytest.raises(CapExceeded):
            sa.saturate(big, 0)


class TestSaturate:
    def test_powerset_atoms_saturate_fully(self, p2):
        assert sa.saturate(p2, 0b0110) == 0b1111

    def test_empty_saturates_to_zero(self, p2):
        assert sa.saturate(p2, 0) == 0b0001

    def test_matches_oracle(self, e0, c2, w5):
        for B in (e0, c2, w5):
            table = sa.saturation_table(B)
            for A in range(1 << B.size):
                expected = mask_from(oracles.naive_saturate(B, set(bits(A))))
                assert sa.saturate(B, A) == expected
                assert table[A] == expected

    def test_idempotent_on_two_atoms(self, e0):
        for A in range(8):
            s = sa.saturate(e0, A)
            assert sa.saturate(e0, s) == s

    def test_not_extensive_somewhere(self):
        # saturation may drop elements; exhibit it rather than asserting
        # containment anywhere
        found = False
        for B in small_structures(3):
            for A in range(1 << B.size):
                if A & ~sa.saturate(B, A):
                    found = True
        assert found


class TestSaturatedFamily:
    def test_powerset_family_is_ideal_lattice(self, p2):
        fam = sa.saturated_family(p2, "all")
        assert fam.sets == (0b0001, 0b0011, 0b0101, 0b1111)

    def test_two_atoms_boolean_completion(self, e0):
        fam = sa.saturated_family(e0, "all")
        assert fam.sets == (0b001, 0b011, 0b101, 0b111)
        # join/meet tables are total here
        join, meet = oracles.family_tables(e0, fam.sets)
        assert all(v is not None for row in join for v in row)
        assert all(v is not None for row in meet for v in row)

    def test_one_point(self, one):
        assert sa.saturated_family(one, "all").sets == (1,)

    def test_modes_agree(self, e0, c2, p2, w5):
        for B in (e0, c2, p2, w5):
            assert (
                sa.saturated_family(B, "finite").sets
                == sa.saturated_family(B, "all").sets
            )

    def test_singleton_mode(self, e0):
        fam = sa.saturated_family(e0, "singletons")
        assert fam.sets == (0b001, 0b011, 0b101)

    def test_unknown_mode(self, e0):
        with pytest.raises(ValueError):
            sa.saturated_family(e0, "bogus")


class TestFrame:
    def test_two_atoms(self, e0):
        rep = sa.verify_frame(e0)
        assert rep.passed
        # the finite family is the four-element algebra
        fam = sa.saturated_family(e0, "finite")
        assert len(fam.sets) == 4

    def test_powerset(self, p2):
        assert sa.verify_frame(p2).passed

    def test_witness_structure_reports_with_failure(self, w5):
        rep = sa.verify_frame(w5)
        assert rep["basic_semilattice"].holds is False
        assert not rep.passed

    def test_diamond_is_a_basic_semilattice(self, d3):
        # the diamond fails the lattice axioms but is the intersection-closed
        # basis of the discrete three-point space
        assert not axioms.is_basic_lattice(d3)
        assert axioms.is_basic_semilattice(d3)
        assert sa.verify_frame(d3).passed

    def test_bug_in_family_check_propagates(self, e0, monkeypatch):
        # only the library's own errors may become a False verdict
        def broken(B):
            raise RuntimeError("bug")

        monkeypatch.setattr(axioms, "is_basic_lattice", broken)
        with pytest.raises(RuntimeError):
            sa.verify_frame(e0)

    def test_needs_meets(self):
        # two atoms under two incomparable tops: no greatest lower bound of
        # the tops, so no meet semilattice and no frame verification
        B = p0set(
            5,
            0,
            [(0, j) for j in range(5)]
            + [(i, i) for i in range(1, 5)]
            + [(1, 3), (1, 4), (2, 3), (2, 4)],
        )
        with pytest.raises(PreconditionFailed):
            sa.verify_frame(B)

    def test_all_small_basic_semilattices(self):
        count = 0
        for B in small_structures(4):
            if axioms.is_basic_semilattice(B):
                count += 1
                assert sa.verify_frame(B).passed, B.pairs()
        assert count == 7

    def test_frame_of_two_atoms_isomorphic_to_powerset(self, e0, p2):
        # the finite saturated family of the two-atom example, ordered by
        # way-below, is the four-element algebra
        fam = sa.saturated_family(e0, "finite")
        pairs = [
            (i, j)
            for i, s in enumerate(fam.sets)
            for j, t in enumerate(fam.sets)
            if sa.subset_wayb(e0, s, t)
        ]
        S = p0set(len(fam.sets), 0, pairs)
        assert axioms.is_basic_lattice(S)
        assert S.prec == p2.prec


def _frame_oracle(B):
    """The frame witnesses by the literal loops, on whatever saturation
    table sa.saturation_table gives for B."""
    nsub = 1 << B.size
    sat = sa.saturation_table(B)
    meet = {
        (x, y): oracles.naive_meet(B, x, y)
        for x in range(B.size)
        for y in range(B.size)
    }

    def wedge(C, D):
        return mask_from({meet[c, d] for c in bits(C) for d in bits(D)})

    return oracles.frame_witnesses(
        sat, tuple(sorted(set(sat))), wedge, lambda s, t: sa.subset_wayb(B, s, t), nsub
    )


class TestFrameWitnesses:
    """verify_frame decides its join, meet, distributivity and way-below
    checks on rows of the saturation table; the literal loops in oracles
    must give the same verdicts and witnesses."""

    def _compare(self, B):
        rep = sa.verify_frame(B)
        expected = _frame_oracle(B)
        for name, w in expected.items():
            assert (rep[name].holds, rep[name].witness) == (w is None, w), (B.pairs(), name)
        return expected

    def test_basic_semilattices_up_to_five(self):
        semis = [B for B in small_structures(5) if axioms.is_basic_semilattice(B)]
        assert len(semis) == 24
        for B in semis:
            self._compare(B)

    def test_planted_saturation_tables(self, monkeypatch):
        # the laws hold on real structures, so witnesses are compared on
        # saturation tables with a few bits flipped
        rng = random.Random(5)
        semis = [B for B in small_structures(4) if axioms.is_basic_semilattice(B)]
        semis += [lab.make_family("diamond", 3), lab.make_family("powerset", 2)]
        true_table = sa.saturation_table
        failures = dict.fromkeys(_frame_oracle(semis[0]), 0)
        for _ in range(120):
            B = rng.choice(semis)
            table = list(true_table(B))
            for _ in range(rng.randint(1, 3)):
                table[rng.randrange(len(table))] ^= 1 << rng.randrange(B.size)
            monkeypatch.setattr(sa, "saturation_table", lambda B, t=tuple(table): t)
            for name, w in self._compare(B).items():
                failures[name] += w is not None
        assert min(failures.values()) >= 10, failures


class TestSubsetLaws:
    def test_named(self, e0, c2, p2, w5):
        for B in (e0, c2, p2, w5):
            assert sa.verify_subset_laws(B).passed

    def test_exhaustive_small(self):
        for B in small_structures(4):
            rep = sa.verify_subset_laws(B)
            assert rep.passed, (B.pairs(), [c.name for c in rep.failures()])

    def test_gated_clauses_not_applicable_without_meets(self, d3):
        B = p0set(4, 0, [(0, j) for j in range(4)] + [(i, i) for i in range(1, 4)]
                  + [(1, 3), (2, 3)])
        # 0 < a,b < top and an extra incomparable pair keeps meets total;
        # build a true non-semilattice instead: two tops over two atoms
        C = p0set(
            4,
            0,
            [(0, j) for j in range(4)]
            + [(i, i) for i in range(1, 4)]
            + [(1, 2), (1, 3)],
        )
        rep = sa.verify_subset_laws(C)
        assert rep.passed


def _literal_relations(B):
    """The six relations tabulated by verify_subset_laws, as predicates on
    subset masks: the three package predicates (checked against the naive
    routes above), and the other three from oracle-built tables."""
    nsub = 1 << B.size
    dcp = [
        mask_from({z for z in range(B.size) for d in bits(D) if oracles.le(B, z, d)})
        for D in range(nsub)
    ]
    mu = [
        mask_from({z for z in range(B.size) for d in bits(D) if oracles.meets(B, z, d)})
        for D in range(nsub)
    ]
    sat = [sa.saturate(B, A) for A in range(nsub)]
    return {
        "prec": lambda C, D: sa.subset_prec(B, C, D),
        "precsim": lambda C, D: sa.subset_precsim(B, C, D),
        "wayb": lambda C, D: sa.subset_wayb(B, C, D),
        "precsim_refl": lambda C, D: dcp[C] & ~(mu[D] | 1 << B.zero) == 0,
        "below": lambda C, D: C & ~dcp[D] == 0,
        "saturated": lambda F, A: F & ~sat[A] == 0,
    }


def _literal_clauses(B):
    """The row-decided clauses of verify_subset_laws as literal loops over
    the subset relations, each a thunk giving the expected witness."""
    nsub = 1 << B.size
    rels = _literal_relations(B)
    prec, sim, wayb = rels["prec"], rels["precsim"], rels["wayb"]
    meet = {
        (x, y): oracles.naive_meet(B, x, y)
        for x in range(B.size)
        for y in range(B.size)
    }

    def wedge(C, D):
        return mask_from({meet[c, d] for c in bits(C) for d in bits(D)})

    dc = [
        mask_from({z for d in bits(D) for z in oracles.down(B, d)})
        for D in range(nsub)
    ]
    sat = [sa.saturate(B, A) for A in range(nsub)]
    out = {
        "below_implies_precsim": lambda: oracles.inclusion_witness(
            rels["below"], sim, nsub
        ),
        "precsim_reflexivized_form": lambda: oracles.mismatch_witness(
            sim, rels["precsim_refl"], nsub
        ),
        "saturation_members": lambda: oracles.mismatch_witness(
            rels["saturated"], wayb, nsub
        ),
        "finite_prec_implies_wayb": lambda: oracles.inclusion_witness(prec, wayb, nsub),
        "wayb_implies_precsim": lambda: oracles.inclusion_witness(wayb, sim, nsub),
        "wayb_through_interpolant_back": lambda: oracles.interpolant_back_witness(
            wayb, prec, nsub
        ),
        "wayb_through_interpolant": lambda: oracles.interpolant_witness(wayb, prec, nsub),
        "precsim_wayb_absorb": lambda: oracles.absorb_witness(sim, wayb, nsub),
        "wayb_saturation_invariant": lambda: oracles.saturation_invariant_witness(
            wayb, sat, nsub
        ),
    }
    for name in ("prec", "precsim", "wayb"):
        rel = rels[name]
        out[f"{name}_transitive"] = lambda rel=rel: oracles.transitive_witness(rel, nsub)
        out[f"{name}_left_union"] = lambda rel=rel: oracles.left_union_witness(rel, nsub)
        out[f"{name}_right_monotone"] = lambda rel=rel: oracles.right_monotone_witness(
            rel, nsub
        )
        out[f"{name}_multiplicative"] = lambda rel=rel: oracles.multiplicative_witness(
            rel, wedge, dc, nsub
        )
    return out


class TestSubsetRelationRows:
    """The six relation tables come from superset folds; each must equal
    the literal table with one predicate call per pair of subsets."""

    def _compare(self, B):
        rows = sa._subset_rows(B)
        for name, rel in _literal_relations(B).items():
            literal = oracles.relation_rows(rel, 1 << B.size)
            assert getattr(rows, name) == literal, (B.pairs(), name)

    def test_catalog_up_to_four(self):
        for B in small_structures(4):
            self._compare(B)

    def test_random_sizes_five_to_eight(self):
        rng = random.Random(11)
        for n in (5, 6, 7, 8):
            for reflexive in (False, True):
                self._compare(lab.random_p0set(n, rng.getrandbits(32), reflexive,
                                               rng.uniform(0.1, 0.5)))


class TestSubsetLawRows:
    """verify_subset_laws decides its quantified clauses on relation rows;
    the literal loops in oracles must give the same verdicts and witnesses."""

    def _compare(self, B):
        rep = sa.verify_subset_laws(B)
        ran = set()
        for name, literal in _literal_clauses(B).items():
            check = rep[name]
            if check.holds is None:  # gated off; the gates are unchanged
                continue
            w = literal()
            assert (check.holds, check.witness) == (w is None, w), (B.pairs(), name)
            ran.add(name)
        return ran

    def test_catalog_up_to_four(self):
        ran = set()
        for B in small_structures(4):
            ran |= self._compare(B)
        assert len(ran) == 21  # every row-decided clause ran somewhere

    def test_random_sizes_five_and_six(self):
        ran = set()
        for n in (5, 6):
            for reflexive in (False, True):
                B = lab.random_p0set(n, 3, reflexive, density=0.4)
                ran |= self._compare(B)
        assert "wayb_multiplicative" in ran

    def test_helpers_return_first_witness_on_failing_tables(self):
        # on real structures the laws hold, so witnesses are compared here,
        # on random row tables seeded to fail somewhere in the middle
        rng = random.Random(7)
        failures = dict.fromkeys(
            ["transitive", "inclusion", "mismatch", "composition", "absorb",
             "interpolant", "left_union", "right_monotone", "multiplicative",
             "saturation_invariant"], 0
        )

        def table(nsub, p):
            return [
                sum(1 << D for D in range(nsub) if rng.random() < p)
                for _ in range(nsub)
            ]

        def rel(rows):
            return lambda C, D: rows[C] >> D & 1 == 1

        def flip(rows):
            C = rng.randrange(len(rows))
            rows[C] ^= 1 << rng.randrange(len(rows))
            return rows

        for _ in range(150):
            n = rng.randint(1, 4)
            nsub = 1 << n
            p = rng.choice([0.3, 0.9, 0.99])
            a, b = table(nsub, p), table(nsub, p)
            # left unions hold on intersections of singleton rows, and right
            # monotonicity on up-sets; one flipped bit breaks each somewhere
            single = table(nsub, p)
            unions = [(1 << nsub) - 1] * nsub
            for C in range(1, nsub):
                unions[C] = unions[C & C - 1] & single[C & -C]
            ups = [
                sum(1 << D for D in range(nsub) if S & ~D == 0)
                for S in (rng.randrange(nsub) for _ in range(nsub))
            ]
            wedge = [[rng.randrange(nsub) for _ in range(nsub)] for _ in range(nsub)]
            dc = [rng.randrange(nsub) for _ in range(nsub)]
            # the saturation invariant holds when sat is idempotent and each
            # row is a union of its fibres, the same along a fibre
            reps = [A for A in range(nsub) if A == 0 or rng.random() < 0.4]
            sat = [A if A in reps else rng.choice(reps) for A in range(nsub)]
            fibre = {t: sum(1 << A for A in range(nsub) if sat[A] == t) for t in reps}
            chosen = {t: sum(fibre[u] for u in reps if rng.random() < p) for t in reps}
            invariant = [chosen[sat[C]] for C in range(nsub)]
            pairs = {
                "transitive": (
                    sa._transitive_witness(a),
                    oracles.transitive_witness(rel(a), nsub),
                ),
                "inclusion": (
                    sa._inclusion_witness(a, b),
                    oracles.inclusion_witness(rel(a), rel(b), nsub),
                ),
                "mismatch": (
                    sa._mismatch_witness(a, b),
                    oracles.mismatch_witness(rel(a), rel(b), nsub),
                ),
                "composition": (
                    sa._composition_witness(a, b, a),
                    oracles.interpolant_back_witness(rel(a), rel(b), nsub),
                ),
                "absorb": (
                    sa._composition_witness(a, b, b),
                    oracles.absorb_witness(rel(a), rel(b), nsub),
                ),
                "interpolant": (
                    sa._interpolant_witness(a, b),
                    oracles.interpolant_witness(rel(a), rel(b), nsub),
                ),
                "left_union": (
                    sa._left_union_witness(flip(unions)),
                    oracles.left_union_witness(rel(unions), nsub),
                ),
                "right_monotone": (
                    sa._right_monotone_witness(flip(ups)),
                    oracles.right_monotone_witness(rel(ups), nsub),
                ),
                "multiplicative": (
                    sa._multiplicative_witness(a, wedge, dc),
                    oracles.multiplicative_witness(
                        rel(a), lambda C, D: wedge[C][D], dc, nsub
                    ),
                ),
                "saturation_invariant": (
                    sa._saturation_invariant_witness(flip(invariant), sat),
                    oracles.saturation_invariant_witness(rel(invariant), sat, nsub),
                ),
            }
            for name, (got, want) in pairs.items():
                assert got == want, (name, got, want)
                failures[name] += want is not None
        assert min(failures.values()) >= 20, failures
