import random
import time
from operator import or_

import pytest

import oracles
from conftest import cap_structures, fresh, small_structures
from orderbench import axioms, lab, saturation as sa
from orderbench.core import (
    bits,
    derived_relations,
    first_pair,
    mask_from,
    maximal_centred_sets,
    order_predicates,
    p0set,
    prec_down,
    subset_fold,
)
from orderbench.errors import CapExceeded, PreconditionFailed


class TestSubsetRelations:
    def test_powerset_atoms_below_top(self, p2):
        rels = oracles.subset_relations(p2, 0b0110, 0b1000)
        assert rels.prec and rels.precsim and rels.wayb

    def test_reflexive(self, e0, c2, p2):
        for B in (e0, c2, p2):
            for C in range(1 << B.size):
                assert oracles.mask_precsim(B, C, C)

    def test_two_atoms_not_similar(self, e0):
        assert not oracles.mask_precsim(e0, 0b010, 0b100)

    def test_matches_oracle(self, e0, c2, w5):
        for B in (e0, c2, w5):
            for C in range(1 << B.size):
                Cs = set(bits(C))
                for D in range(1 << B.size):
                    Ds = set(bits(D))
                    assert oracles.mask_prec(B, C, D) == oracles.naive_subset_prec(
                        B, Cs, Ds
                    )
                    assert oracles.mask_precsim(B, C, D) == oracles.naive_subset_precsim(
                        B, Cs, Ds
                    )

    def test_fast_wayb_equals_exhaustive(self):
        for B in small_structures(4):
            for C in range(1 << B.size):
                for D in range(1 << B.size):
                    assert sa.subset_wayb(B, C, D) == oracles.wayb_exhaustive(B, C, D)

    def test_thirteen_elements(self):
        # single-set saturation has no carrier cap: it reads one generator
        # row per member
        big = p0set(13, 0, [(0, j) for j in range(13)] + [(i, i) for i in range(13)])
        full = (1 << 13) - 1
        for A in (full, full & ~0b110):
            expected = mask_from(oracles.naive_saturate(big, set(bits(A))))
            assert sa.saturate(big, A) == expected


class TestSaturate:
    def test_powerset_atoms_saturate_fully(self, p2):
        assert sa.saturate(p2, 0b0110) == 0b1111

    def test_empty_saturates_to_zero(self, p2):
        assert sa.saturate(p2, 0) == 0b0001

    def test_matches_oracle(self, e0, c2, w5):
        for B in (e0, c2, w5):
            table = oracles.saturation_table(B)
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
        fam = oracles.saturated_family(p2, "all")
        assert fam == (0b0001, 0b0011, 0b0101, 0b1111)

    def test_two_atoms_boolean_completion(self, e0):
        fam = oracles.saturated_family(e0, "all")
        assert fam == (0b001, 0b011, 0b101, 0b111)
        # join/meet tables are total here
        join, meet = oracles.family_tables(e0, fam)
        assert all(v is not None for row in join for v in row)
        assert all(v is not None for row in meet for v in row)

    def test_one_point(self, one):
        assert oracles.saturated_family(one, "all") == (1,)

    def test_modes_agree(self, e0, c2, p2, w5):
        for B in (e0, c2, p2, w5):
            assert sa.saturated_family(B) == oracles.saturated_family(B, "all")

    def test_singleton_mode(self, e0):
        fam = oracles.saturated_family(e0, "singletons")
        assert fam == (0b001, 0b011, 0b101)

    def test_unknown_mode(self, e0):
        with pytest.raises(ValueError):
            oracles.saturated_family(e0, "bogus")


class TestUnionRoute:
    """The finite family from the unions of generator rows against the
    table routes: the oracle's saturation table, its superset fold, and the
    oracle's saturation of every subset."""

    @staticmethod
    def _agree(B):
        fam = sa.saturated_family(B)
        assert fam == tuple(sorted(set(oracles.saturation_table(B)))), B.pairs()
        assert fam == oracles.saturated_family(B, "all"), B.pairs()
        assert fam == oracles.table_saturated_family(B), B.pairs()

    def test_catalog_five(self):
        structures = small_structures(5)
        assert len(structures) == 5004
        for B in structures:
            self._agree(B)

    def test_random_sizes_two_to_ten(self):
        rng = random.Random(11)
        for i in range(300):
            B = lab.random_p0set(2 + i % 9, rng.getrandbits(32), i % 2 == 0,
                                 rng.uniform(0.1, 0.7))
            self._agree(B)

    def test_output_bound(self):
        # antichain n has 2**n saturated sets, one per set of atoms
        assert len(sa.saturated_family(lab.make_family("antichain", 12))) == 4096
        with pytest.raises(CapExceeded, match="capped at 4096 unions"):
            sa.saturated_family(lab.make_family("antichain", 13))

    def test_table_routes_keep_the_carrier_cap(self):
        with pytest.raises(CapExceeded, match="carrier 12"):
            oracles.saturated_family(lab.make_family("antichain", 12), "all")


class TestFrame:
    def test_two_atoms(self, e0):
        rep = sa.verify_frame(e0)
        assert rep.passed
        # the finite family is the four-element algebra
        fam = sa.saturated_family(e0)
        assert len(fam) == 4

    def test_powerset(self, p2):
        assert sa.verify_frame(p2).passed

    def test_wedge_table_built_once_per_structure(self, p3):
        # the subset laws and the frame laws through the characters build no
        # wedge table; the oracle's frame laws build one, and a second
        # oracle report reads it
        B = fresh(p3)
        before = oracles._wedge_table.cache_info()
        assert sa.verify_subset_laws(B).passed and sa.verify_frame(B).passed
        assert oracles._wedge_table.cache_info() == before
        assert all(c.holds for c in oracles.table_frame_checks(B).values())
        assert all(c.holds for c in oracles.table_frame_checks(B).values())
        after = oracles._wedge_table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

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
        # only the library's own named refusals may become a False verdict
        # in the oracle's family check; the route through the characters
        # builds no family structure at all
        def broken(B):
            raise RuntimeError("bug")

        monkeypatch.setattr(axioms, "is_basic_lattice", broken)
        assert sa.verify_frame(fresh(e0)).passed
        with pytest.raises(RuntimeError):
            oracles.table_frame_checks(fresh(e0))

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
        fam = sa.saturated_family(e0)
        pairs = [
            (i, j)
            for i, s in enumerate(fam)
            for j, t in enumerate(fam)
            if sa.subset_wayb(e0, s, t)
        ]
        S = p0set(len(fam), 0, pairs)
        assert axioms.is_basic_lattice(S)
        assert S.prec == p2.prec


def _frame_oracle(B):
    """The frame witnesses by the literal loops, on whatever saturation
    table oracles.saturation_table gives for B."""
    nsub = 1 << B.size
    sat = oracles.saturation_table(B)
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
    """The oracle's table route decides its join, meet, distributivity and
    way-below checks on rows of the saturation table; the literal loops
    must give the same verdicts and witnesses."""

    def _compare(self, B):
        rep = oracles.table_frame_checks(B)
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
        true_table = oracles.saturation_table
        failures = dict.fromkeys(_frame_oracle(semis[0]), 0)
        for _ in range(120):
            B = rng.choice(semis)
            table = list(true_table(B))
            for _ in range(rng.randint(1, 3)):
                table[rng.randrange(len(table))] ^= 1 << rng.randrange(B.size)
            monkeypatch.setattr(oracles, "saturation_table", lambda B, t=tuple(table): t)
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


def _row_relations(B, down, meets, preceq_down):
    """The six relations of the subset laws as predicates on subset masks,
    and the tables (dc, dcp, sat) over every subset, read literally from
    the given rows: down[x] the strict down-set, meets[x] the meet row and
    preceq_down[x] the down-set under the reflexivization of each x."""
    n, zb = B.size, 1 << B.zero

    def unions(rows):
        return [mask_from(z for c in bits(S) for z in bits(rows[c])) for S in range(1 << n)]

    dc, mu, dcp = unions(down), unions(meets), unions(preceq_down)
    sat = [mask_from(y for y in range(n) if down[y] & ~(mu[dc[A]] | zb) == 0)
           for A in range(1 << n)]
    rels = {
        "prec": lambda C, D: C & ~dc[D] == 0,
        "precsim": lambda C, D: dc[C] & ~(mu[D] | zb) == 0,
        "wayb": lambda C, D: dc[C] & ~(mu[dc[D]] | zb) == 0,
        "precsim_refl": lambda C, D: dcp[C] & ~(mu[D] | zb) == 0,
        "below": lambda C, D: C & ~dcp[D] == 0,
        "saturated": lambda F, A: F & ~sat[A] == 0,
    }
    return rels, (dc, dcp, sat)


def _oracle_rows(B):
    """(down, meets, preceq_down) from the set-based oracles."""
    n = B.size

    def rows(related):
        return tuple(mask_from(z for z in range(n) if related(z, x)) for x in range(n))

    return (rows(lambda z, x: B.has(z, x)), rows(lambda z, x: oracles.meets(B, z, x)),
            rows(lambda z, x: oracles.le(B, z, x)))


def _literal_relations(B):
    """The six relations tabulated by the table route, as predicates on
    subset masks: the oracle prec and precsim and the package's wayb
    (checked against the naive routes above), and the other three read
    from the oracles' rows."""
    rels, _ = _row_relations(B, *_oracle_rows(B))
    return dict(rels, prec=lambda C, D: oracles.mask_prec(B, C, D),
                precsim=lambda C, D: oracles.mask_precsim(B, C, D),
                wayb=lambda C, D: sa.subset_wayb(B, C, D))


def _wedge(B):
    meet = {
        (x, y): oracles.naive_meet(B, x, y)
        for x in range(B.size)
        for y in range(B.size)
    }

    def wedge(C, D):
        return mask_from({meet[c, d] for c in bits(C) for d in bits(D)})

    return wedge


def _literal_clauses(B):
    """The clauses of verify_subset_laws whose literal loops are kept in
    oracles, each a thunk giving the first witness in ascending order."""
    nsub = 1 << B.size
    rels = _literal_relations(B)
    prec, sim, wayb = rels["prec"], rels["precsim"], rels["wayb"]
    wedge = _wedge(B)
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


def _instance_fails(B, rels, tables, wedge=None):
    """{clause: fails(w)}: whether w is a failing instance of the clause,
    by its literal statement, on the given relations and (dc, dcp, sat)."""
    dc, dcp, sat = tables
    nsub = 1 << B.size
    prec, sim, wayb = rels["prec"], rels["precsim"], rels["wayb"]

    def composition(r1, r2, r3):
        return lambda w: r1(w[0], w[1]) and r2(w[1], w[2]) and not r3(w[0], w[2])

    def inclusion(r1, r2):
        return lambda w: r1(*w) and not r2(*w)

    def changed(outer, inner):
        return lambda w: outer[inner[w[0]]] != sat[w[0]]

    out = {
        "below_implies_precsim": inclusion(rels["below"], sim),
        "precsim_reflexivized_form": lambda w: sim(*w) != rels["precsim_refl"](*w),
        "finite_prec_implies_wayb": inclusion(prec, wayb),
        "wayb_through_interpolant_back": composition(wayb, prec, wayb),
        "wayb_through_interpolant": lambda w: wayb(*w) and not any(
            wayb(w[0], G) and prec(G, w[1]) for G in range(nsub)),
        "precsim_wayb_absorb": composition(sim, wayb, wayb),
        "wayb_implies_precsim": inclusion(wayb, sim),
        "saturation_members": lambda w: rels["saturated"](*w) != wayb(*w),
        "strict_down_in_saturation": lambda w: dc[w[0]] & ~sat[w[0]] != 0,
        "saturation_down_closed": changed(dcp, sat),
        "saturation_of_down_closure": changed(sat, dcp),
        "saturation_of_strict_down": changed(sat, dc),
        "saturation_idempotent": changed(sat, sat),
        "saturation_monotone": lambda w: not w[0] >> w[1] & 1 and bool(
            sat[w[0]] & ~sat[w[0] | 1 << w[1]]),
        "saturation_precsim_source": lambda w: not sim(sat[w[0]], w[0]),
        "wayb_saturation_invariant": lambda w: not (
            wayb(w[0], sat[w[1]]) == wayb(*w) == wayb(sat[w[0]], w[1])),
    }
    for name in ("prec", "precsim", "wayb"):
        rel = rels[name]
        out[f"{name}_transitive"] = composition(rel, rel, rel)
        out[f"{name}_left_union"] = lambda w, rel=rel: rel(*w) != all(
            rel(1 << c, w[1]) for c in bits(w[0]))
        out[f"{name}_right_monotone"] = lambda w, rel=rel: (
            rel(w[0], w[1]) and not w[1] >> w[2] & 1 and not rel(w[0], w[1] | 1 << w[2]))
        out[f"{name}_multiplicative"] = lambda w, rel=rel: not rel(
            wedge(dc[w[0]], dc[w[1]]), wedge(*w))
    return out


def _literal_instances(B):
    rels, tables = _row_relations(B, *_oracle_rows(B))
    return _instance_fails(B, rels, tables, _wedge(B))


#: The clauses whose reductions read the meet table and the strict
#: relation of B, which must be the transpose of down: planted rows leave
#: them out where down is planted.
_MULTIPLICATIVE = ("prec_multiplicative", "precsim_multiplicative", "wayb_multiplicative")


def _key_halves(sat, n):
    """On rows planted apart from the strict relation, sat(A) inside
    sat(sat(A)), which the reductions prove from it, can fail; the other
    halves of idempotence and the saturation invariant are what the
    reductions decide there.  {clause: whether that half fails}, from the
    table of saturations."""
    out_of_place = any(sat[S] & ~S for S in sat)  # sat(sat(A)) outside sat(A)
    return {
        "saturation_idempotent": out_of_place,
        "wayb_saturation_invariant": out_of_place or any(
            not S >> c & 1 and sat[1 << c] & ~S == 0 for S in sat for c in range(n)),
    }


def _decide_ungated(B):
    """{clause: witness or None} by the reductions, ungated; the
    multiplicative clauses only on a meet semilattice."""
    msl = order_predicates(B).holds("meet_semilattice")
    return {name: decide() for name, _, decide in sa._subset_clauses(B)
            if msl or not name.endswith("multiplicative")}


class TestSubsetRelationRows:
    """The six relation tables of the table route come from superset
    folds; each must equal the literal table with one predicate call per
    pair of subsets."""

    def _compare(self, B):
        rows = oracles.subset_rows(B)
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
    """verify_subset_laws decides its clauses by reductions; its verdicts
    must be those of the literal loops in oracles, and on every structure,
    gated or not, each witness must fail under the literal clause."""

    def _compare(self, B):
        rep = sa.verify_subset_laws(B)
        ran = set()
        for name, literal in _literal_clauses(B).items():
            check = rep[name]
            if check.holds is None:  # gated off; the gates are unchanged
                continue
            assert check.holds == (literal() is None), (B.pairs(), name)
            ran.add(name)
        fails = _literal_instances(B)
        for name, w in _decide_ungated(B).items():
            assert w is None or fails[name](w), (B.pairs(), name, w)
        return ran

    def test_catalog_up_to_four(self):
        ran = set()
        for B in small_structures(4):
            ran |= self._compare(B)
        assert len(ran) == 21  # every clause with a literal loop ran somewhere

    def test_random_sizes_five_and_six(self):
        ran = set()
        for n in (5, 6):
            for reflexive in (False, True):
                B = lab.random_p0set(n, 3, reflexive, density=0.4)
                ran |= self._compare(B)
        assert "wayb_multiplicative" in ran

    def test_multiplicative_matches_pairwise_loop(self):
        # the table route's search on classes of dc C against the 4**n
        # pair loop it replaced, on every meet semilattice of size <= 5 and
        # on seeded random structures, for the three relations and for
        # their complements, on which the law fails
        rng = random.Random(13)
        pool = list(small_structures(5)) + [
            lab.random_p0set(2 + i % 6, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.1, 0.7))
            for i in range(300)
        ]
        ran = failed = 0
        for B in pool:
            if not order_predicates(B).holds("meet_semilattice"):
                continue
            ran += 1
            wedge = oracles._wedge_table(B)
            dc = subset_fold(prec_down(B), or_, 0)
            full = (1 << len(dc)) - 1
            rows = oracles.subset_rows(B)
            tables = [rows.prec, rows.precsim, rows.wayb]
            tables += [[full & ~x for x in r] for r in tables]
            want = [oracles.pairwise_multiplicative_witness(t, wedge, dc) for t in tables]
            assert oracles._multiplicative_witnesses(tables, wedge, dc) == want
            failed += sum(w is not None for w in want)
        assert ran >= 400 and failed >= ran, (ran, failed)

    def test_helpers_return_first_witness_on_failing_tables(self):
        # the table route's helpers against the literal loops, on random
        # row tables seeded to fail somewhere in the middle
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
                    oracles._transitive_witness(a),
                    oracles.transitive_witness(rel(a), nsub),
                ),
                "inclusion": (
                    first_pair(x & ~y for x, y in zip(a, b)),
                    oracles.inclusion_witness(rel(a), rel(b), nsub),
                ),
                "mismatch": (
                    first_pair(x ^ y for x, y in zip(a, b)),
                    oracles.mismatch_witness(rel(a), rel(b), nsub),
                ),
                "composition": (
                    oracles._composition_witness(a, b, a),
                    oracles.interpolant_back_witness(rel(a), rel(b), nsub),
                ),
                "absorb": (
                    oracles._composition_witness(a, b, b),
                    oracles.absorb_witness(rel(a), rel(b), nsub),
                ),
                "interpolant": (
                    oracles._interpolant_witness(a, b),
                    oracles.interpolant_witness(rel(a), rel(b), nsub),
                ),
                "left_union": (
                    oracles._left_union_witness(flip(unions)),
                    oracles.left_union_witness(rel(unions), nsub),
                ),
                "right_monotone": (
                    oracles._right_monotone_witness(flip(ups)),
                    oracles.right_monotone_witness(rel(ups), nsub),
                ),
                "multiplicative": (
                    oracles._multiplicative_witnesses([a], wedge, dc)[0],
                    oracles.multiplicative_witness(
                        rel(a), lambda C, D: wedge[C][D], dc, nsub
                    ),
                ),
                "saturation_invariant": (
                    oracles._saturation_invariant_witness(flip(invariant), sat),
                    oracles.saturation_invariant_witness(rel(invariant), sat, nsub),
                ),
            }
            for name, (got, want) in pairs.items():
                assert got == want, (name, got, want)
                failures[name] += want is not None
        assert min(failures.values()) >= 20, failures


def _same_verdicts(B):
    """The reductions' verdicts against the table route's, on the gated
    report and on every clause ungated; the witnesses found ungated."""
    table = oracles.table_subset_clauses(B)
    for c in sa.verify_subset_laws(B).checks:
        assert c.holds is None or c.holds == (table[c.name] is None), (B.pairs(), c.name)
    ungated = _decide_ungated(B)
    assert {k: w is None for k, w in ungated.items()} == {
        k: table[k] is None for k in ungated}, B.pairs()
    return {k: w for k, w in ungated.items() if w is not None}


class TestSubsetLawReductions:
    """Each clause decided on polynomially many instances has the verdict
    of the 2**n table route, gated and ungated, and each witness fails
    under the literal clause."""

    def test_verdicts_match_the_table_route(self):
        rng = random.Random(29)
        pool = small_structures(4) + [
            lab.random_p0set(2 + i % 7, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.05, 0.7))
            for i in range(300)
        ] + [lab.make_family(f, n) for f, n in
             (("powerset", 3), ("chain", 7), ("diamond", 6), ("antichain", 7))]
        failed = {}
        for B in pool:
            for name, w in _same_verdicts(B).items():
                failed[name] = failed.get(name, 0) + 1
                if B.size <= 6:
                    assert _literal_instances(B)[name](w), (B.pairs(), name, w)
        # the clauses that fail somewhere without their gates
        assert set(failed) == {"below_implies_precsim", "precsim_reflexivized_form",
                               "finite_prec_implies_wayb", "strict_down_in_saturation",
                               "wayb_saturation_invariant"}, failed

    def test_planted_rows(self, monkeypatch):
        # the laws hold on real structures wherever their gates do, so the
        # reductions meet the table route on rows with a few bits flipped:
        # the strict down-sets, the meet rows and the reflexive down-sets
        # (each x kept below itself), read by both routes
        rng = random.Random(41)
        pool = small_structures(4)
        real_down, real_der = prec_down, derived_relations
        failed = dict.fromkeys(name for name, _, _ in sa._subset_clauses(pool[-1]))
        for _ in range(400):
            B = fresh(rng.choice(pool))
            n = B.size
            rows = [list(real_down(B)), list(real_der(B).meets), list(real_der(B).preceq_down)]
            for _ in range(rng.randint(1, 3)):
                r = rng.choice(rows[rng.random() < 0.3:])
                r[rng.randrange(n)] ^= 1 << rng.randrange(n)
            down, meets, pdown = (tuple(r) for r in rows)
            pdown = tuple(r | 1 << x for x, r in enumerate(pdown))
            der = real_der(B)._replace(meets=meets, preceq_down=pdown)
            for module in (sa, oracles):
                monkeypatch.setattr(module, "prec_down", lambda _, d=down: d)
                monkeypatch.setattr(module, "derived_relations", lambda _, d=der: d)
            skip = _MULTIPLICATIVE if down != real_down(B) else ()
            msl = order_predicates(B).holds("meet_semilattice")
            ungated = {name: decide() for name, _, decide in sa._subset_clauses(B)
                       if name not in skip and (msl or not name.endswith("multiplicative"))}
            relations, tables = _row_relations(B, down, meets, pdown)
            want = {k: w is not None for k, w in oracles.table_subset_clauses(B).items()}
            want.update(_key_halves(tables[2], n))
            fails = _instance_fails(B, relations, tables, _wedge(B))
            for name, w in ungated.items():
                assert (w is not None) == want[name], (B.pairs(), rows, name)
                assert w is None or fails[name](w), (B.pairs(), rows, name, w)
                failed[name] = (failed[name] or 0) + (w is not None)
        # by the form of the relations, left unions, right monotonicity,
        # saturation_members and saturation_monotone hold on any rows;
        # prec_multiplicative reads only down, unplanted where it runs
        assert {k for k, v in failed.items() if not v} == {
            "prec_left_union", "precsim_left_union", "wayb_left_union",
            "prec_right_monotone", "precsim_right_monotone", "wayb_right_monotone",
            "saturation_members", "saturation_monotone", "prec_multiplicative"}, failed

    def test_answers_at_the_cap(self):
        # no carrier cap: every gated clause holds on the named families at
        # 62 to 64 elements, each within a second
        for B in cap_structures():
            start = time.perf_counter()
            rep = sa.verify_subset_laws(B)
            assert time.perf_counter() - start < 1.0
            assert rep.passed and rep.failures() == [], B.size


def _meet_semilattices(max_n):
    return [B for B in small_structures(max_n) if order_predicates(B).holds("meet_semilattice")]


def _random_meet_semilattices(count, sizes, seed):
    rng = random.Random(seed)
    pool = (lab.random_p0set(sizes[i % len(sizes)], rng.getrandbits(32), i % 2 == 0,
                             rng.uniform(0.05, 0.7)) for i in range(count))
    return [B for B in pool if order_predicates(B).holds("meet_semilattice")]


class TestFrameThroughCharacters:
    """verify_frame decides the character identity at the keys and each
    frame law at polynomially many instances; its verdicts must be the
    table route's, each witness must fail again under the law's literal
    statement, and each planted defect must fail on both routes."""

    @staticmethod
    def _frame_verdicts(B):
        rep, table = sa.verify_frame(B), oracles.table_frame_checks(B)
        undecided = {k for k, c in table.items() if c.holds is None}
        # the oracle builds the family structure only up to MAX_SIZE sets
        assert undecided <= {"finite_family_basic_lattice"}, B.pairs()
        assert undecided == set() or len(sa.saturated_family(B)) > 64, B.pairs()
        got = {c.name: c.holds for c in rep.checks}
        assert {k: v for k, v in got.items() if k not in undecided} == {
            k: table[k].holds for k in got if k not in undecided}, B.pairs()
        return got

    def test_verdicts_match_the_table_route(self):
        pool = _meet_semilattices(5) + _random_meet_semilattices(240, range(2, 9), 43) + [
            lab.make_family(f, n) for f, n in
            (("powerset", 3), ("antichain", 7), ("diamond", 6), ("chain", 7))]
        assert len(pool) > 352 + 100
        for B in pool:
            got = self._frame_verdicts(B)
            # the identity and every law hold on every meet semilattice
            assert all(v for k, v in got.items()
                       if k not in ("basic_semilattice", "singleton_isomorphism")), B.pairs()

    def test_family_count_matches_union_route(self):
        # the union route's count, where it finishes, is 2**k for the k
        # characters, the count `saturate` prints on a meet semilattice
        pool = _meet_semilattices(5) + _random_meet_semilattices(300, range(6, 13), 47) + [
            lab.make_family(f, n) for f, n in
            (("antichain", 12), ("powerset", 6), ("chain", 13), ("diamond", 8))]
        for B in pool:
            k = len(maximal_centred_sets(B))
            assert len(sa.saturated_family(B)) == 2**k, B.pairs()

    def test_answers_at_the_cap(self):
        for B in cap_structures():
            start = time.perf_counter()
            rep = sa.verify_frame(B)
            assert time.perf_counter() - start < 1.0
            assert all(c.holds is not None for c in rep.checks)
            assert rep.passed == axioms.is_basic_semilattice(B), B.size

    # planted defects: rows and characters seen by both routes

    @staticmethod
    def _plant_pool():
        return _meet_semilattices(4) + [lab.make_family("diamond", 3),
                                        lab.make_family("powerset", 2)]

    def _both_fail(self, B):
        """Both routes on the current plant: equal verdicts wherever the
        route through the characters decides; whether both fail."""
        rep, table = sa.verify_frame(B), oracles.table_frame_checks(B)
        for c in rep.checks:
            assert c.holds is None or c.holds == table[c.name].holds, (B.pairs(), c.name)
        assert rep.passed == all(c.holds for c in table.values()), B.pairs()
        return not rep.passed

    def test_planted_generator_rows(self, monkeypatch):
        rng = random.Random(53)
        pool, rows = self._plant_pool(), sa._generator_rows
        failed = 0
        for _ in range(150):
            B = fresh(rng.choice(pool))
            planted = list(rows(B))
            planted[rng.randrange(B.size)] ^= 1 << rng.randrange(B.size)
            monkeypatch.setattr(sa, "_generator_rows", lambda _, r=tuple(planted): r)
            failed += self._both_fail(B)
        assert failed >= 100, failed

    @staticmethod
    def _plant_characters(monkeypatch, chars):
        for module in (sa, oracles):
            monkeypatch.setattr(module, "maximal_centred_sets", lambda _, c=tuple(chars): c)

    def test_planted_character_rows(self, monkeypatch):
        rng = random.Random(59)
        pool = [B for B in self._plant_pool() if maximal_centred_sets(B)]
        failed = 0
        for _ in range(150):
            B = fresh(rng.choice(pool))
            chars = list(maximal_centred_sets(B))
            chars[rng.randrange(len(chars))] ^= 1 << rng.randrange(1, B.size)
            self._plant_characters(monkeypatch, chars)
            failed += self._both_fail(B)
        assert failed >= 140, failed

    def test_dropped_key(self, monkeypatch):
        # planted generator rows on which both routes fail: a route that
        # skips the first key of each relation misses some of them
        rng = random.Random(61)
        pool, rows, relation = self._plant_pool(), sa._generator_rows, sa._relation
        missed = 0
        for _ in range(150):
            B = fresh(rng.choice(pool))
            planted = list(rows(B))
            planted[rng.randrange(B.size)] ^= 1 << rng.randrange(B.size)
            monkeypatch.setattr(sa, "_generator_rows", lambda _, r=tuple(planted): r)
            if not self._both_fail(B):
                continue
            monkeypatch.setattr(sa, "_relation", lambda *a: relation(*a)._replace(
                keys=relation(*a).keys[1:]))
            missed += sa.verify_frame(B)["character_representation"].holds
            monkeypatch.setattr(sa, "_relation", relation)
        assert missed >= 40, missed

    def test_dropped_private_element_check(self, monkeypatch):
        # a character row repeated: the identity and the meet rows still
        # hold, and no character of the pair holds an element of its own.
        # Both routes fail; without the private-element check the
        # representation would read as holding, and the laws would find no
        # atom for the pair
        for B in self._plant_pool():
            chars = maximal_centred_sets(B)
            if not chars:
                continue
            B = fresh(B)
            self._plant_characters(monkeypatch, chars + chars[:1])
            assert self._both_fail(B), B.pairs()
            assert sa.verify_frame(B)["character_representation"].witness == ("private", 0)
            monkeypatch.setattr(sa, "_private_witness", lambda held, k: None)
            with pytest.raises(ValueError):
                sa.verify_frame(B)
            monkeypatch.undo()

    # witnesses against the literal statements

    def test_witnesses_fail_literally(self, monkeypatch):
        # real structures, planted rows and characters, and a planted
        # `saturate` that changes one bit of one saturation: every witness
        # any frame check gives must fail under the law's literal statement,
        # and every law must fail somewhere, so that none is a constant
        rng = random.Random(67)
        pool = self._plant_pool()
        rows, real_saturate, real_wayb = sa._generator_rows, sa.saturate, sa.subset_wayb
        seen = dict.fromkeys(sa.FRAME_LAWS, 0)

        def recheck(B):
            for c in sa.verify_frame(B).checks:
                if c.holds is False and c.witness is not None:
                    assert oracles.frame_instance_fails(B, c.name, c.witness), (
                        B.pairs(), c.name, c.witness)
                seen[c.name] += c.holds is False

        for B in _meet_semilattices(4):
            recheck(B)
        for i in range(600):
            B = fresh(rng.choice(pool))
            n = B.size
            if i % 4 == 0:
                planted = list(rows(B))
                planted[rng.randrange(n)] ^= 1 << rng.randrange(n)
                monkeypatch.setattr(sa, "_generator_rows", lambda _, r=tuple(planted): r)
            elif i % 4 == 1 and maximal_centred_sets(B):
                chars = list(maximal_centred_sets(B))
                chars[rng.randrange(len(chars))] ^= 1 << rng.randrange(1, n)
                self._plant_characters(monkeypatch, chars)
            elif i % 4 == 2:
                at, flip = rng.randrange(1 << n), 1 << rng.randrange(n)
                monkeypatch.setattr(sa, "saturate", lambda B, A, at=at, flip=flip: (
                    real_saturate(B, A) ^ (flip if A == at else 0)))
            else:
                at = tuple(real_saturate(B, rng.randrange(1 << n)) for _ in range(2))
                monkeypatch.setattr(sa, "subset_wayb", lambda B, C, D, at=at: (
                    real_wayb(B, C, D) != ((C, D) == at)))
            recheck(B)
            monkeypatch.undo()
        assert min(seen.values()) >= 3, seen

    #: (law, planted saturations {A: sat(A)}, planted way-below answers
    #: {(C, D): answer}) on antichain 3, zero 0 under atoms 1, 2 and 3: each
    #: plant makes its law fail at an instance its decider reads
    TARGETED = [
        ("families_coincide", {0b0000: 0b0011}, {}),  # sat({}) outside sat({0})
        ("families_coincide", {0b1111: 0b1101}, {}),  # sat({1}) outside sat(X)
        ("join_rule", {0b0110: 0b0011}, {}),  # sat({1, 2}) misses sat({2})
        ("join_rule", {0b0110: 0b1111}, {}),  # sat({1, 2}) above the least member
        ("meet_rule", {0b0001: 0b0011}, {}),  # sat({1 ^ 2}) = sat({0}) holds 1
        ("intersection_closed", {0b0001: 0b0011}, {}),  # {0} is no longer saturated
        ("frame_distributivity", {0b0111: 0b1111}, {}),  # sat of two atoms holds 3
        ("waybelow_matches", {0b0010: 0b0010}, {}),  # a member without zero
        ("finite_family_basic_lattice", {}, {(0b0011, 0b0001): True}),  # atom below {0}
        ("singletons_join_dense", {0b0011: 0b0111}, {}),
        ("finite_sup_dense", {0b0101: 0b0100}, {}),
    ]

    @pytest.mark.parametrize("law,sats,waybs", TARGETED)
    def test_each_law_reads_its_instances(self, law, sats, waybs, monkeypatch):
        # a law that skipped the planted instance, or read some other
        # function than the library's saturate and subset_wayb, would hold
        B = fresh(lab.make_family("antichain", 3))
        real_saturate, real_wayb = sa.saturate, sa.subset_wayb
        monkeypatch.setattr(sa, "saturate", lambda B, A: sats.get(A, real_saturate(B, A)))
        monkeypatch.setattr(sa, "subset_wayb",
                            lambda B, C, D: waybs.get((C, D), real_wayb(B, C, D)))
        rep = sa.verify_frame(B)
        assert rep["character_representation"].holds
        w = rep[law].witness
        assert rep[law].holds is False and (w is None or oracles.frame_instance_fails(B, law, w))
