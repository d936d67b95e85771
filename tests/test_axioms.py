import random
from itertools import combinations

import pytest

import oracles
from conftest import cap_structures, fresh, separation_corpus, small_structures, with_edge_loops
from orderbench import axioms, lab
from orderbench.core import order_predicates, p0set
from orderbench.errors import NotLattice, PreconditionFailed


class TestBasicLattice:
    def test_powerset_passes(self, p2, p3):
        assert axioms.check_basic_lattice(p2).passed
        assert axioms.check_basic_lattice(p3).passed

    def test_one_point_passes(self, one):
        assert axioms.check_basic_lattice(one).passed

    def test_diamond_fails_decomposition(self, d3):
        rep = axioms.check_basic_lattice(d3)
        assert not rep.passed
        chk = rep["decomposition"]
        assert chk.holds is False
        assert not oracles.axiom_instance(d3, "decomposition", chk.witness)

    def test_chain_fails_complementation(self, c2):
        rep = axioms.check_basic_lattice(c2)
        assert rep["complementation"].holds is False
        assert not oracles.axiom_instance(c2, "complementation", rep["complementation"].witness)

    def test_two_atoms_fail_at_lattice(self, e0):
        rep = axioms.check_basic_lattice(e0)
        assert rep["lattice"].holds is False
        assert rep["multiplicativity"].holds is None

    def test_witnesses_recheck_false(self):
        # every reported witness re-fails its axiom instance
        for B in small_structures(4):
            rep = axioms.check_basic_lattice(B)
            for chk in rep.checks:
                if chk.holds is False and chk.name != "lattice":
                    assert not oracles.axiom_instance(B, chk.name, chk.witness)

    def test_derived_properties_hold_on_passers(self):
        # distributivity and the recovered-relation law follow on basic lattices
        found = 0
        for B in small_structures(5):
            if not axioms.is_basic_lattice(B):
                continue
            found += 1
            rep = axioms.check_basic_lattice(B)
            for name in ("distributivity", "rather_below", "prec_below",
                         "right_auxiliarity", "riesz_interpolation",
                         "vee_interpolation"):
                assert rep.holds(name) is True, (B.pairs(), name)
        assert found >= 5

    def test_fast_flag_matches_full_report(self):
        for B in small_structures(4):
            assert axioms.is_basic_lattice(B) == axioms.check_basic_lattice(B).passed


class TestAlternateAxioms:
    def test_powerset(self, p2):
        rep = axioms.check_alternate_axioms(p2)
        assert rep.holds("first_bundle") and rep.holds("second_bundle")
        assert rep.holds("equivalent")

    def test_diamond_equivalence(self, d3):
        assert axioms.check_alternate_axioms(d3).holds("equivalent")

    def test_one_point_vacuous(self, one):
        rep = axioms.check_alternate_axioms(one)
        assert rep.holds("first_bundle") and rep.holds("second_bundle")

    def test_precondition(self, e0):
        with pytest.raises(PreconditionFailed):
            axioms.check_alternate_axioms(e0)

    def test_equivalence_on_all_small_lattices_with_cofinality(self):
        for B in small_structures(4):
            if not order_predicates(B).holds("lattice"):
                continue
            try:
                rep = axioms.check_alternate_axioms(B)
            except PreconditionFailed:
                continue
            assert rep.holds("equivalent"), B.pairs()

    def test_suite_lets_bugs_through(self, monkeypatch):
        # the suite skips failed preconditions only; any other error fails it
        from orderbench import suites

        def broken(B):
            raise RuntimeError("bug")

        monkeypatch.setattr(axioms, "check_alternate_axioms", broken)
        with pytest.raises(RuntimeError):
            suites.suite_alternate_axioms()


class TestRecoverPrec:
    def test_powerset_recovers_containment(self, p2):
        assert axioms.recover_prec(p2) == p2.prec

    def test_one_point(self, one):
        assert axioms.recover_prec(one) == (1,)

    def test_not_lattice(self, e0):
        with pytest.raises(NotLattice):
            axioms.recover_prec(e0)

    def test_recovery_on_all_small_basic_lattices(self):
        for B in small_structures(5):
            if axioms.is_basic_lattice(B):
                assert axioms.recover_prec(B) == B.prec, B.pairs()


class TestTypeFormulas:
    def test_witness_structure_levels(self, w5):
        assert axioms.phi_holds(w5, 3, 4, 1) is True
        assert axioms.phi_holds(w5, 3, 4, 2) is False

    def test_phi_requires_prec(self, w5):
        assert axioms.phi_holds(w5, 4, 3, 1) is False

    def test_supports_drawn_lazily(self, monkeypatch):
        # On powerset 6, {1} is not below {2,...,6}, whose two-step down-set
        # has 32 elements: the verdict needs none of its 4-element parts.
        # Below the top, phi fails on the first part drawn.
        B = lab.make_family("powerset", 6)
        drawn = []

        def counted(pool, n):
            for vs in combinations(pool, n):
                drawn.append(vs)
                yield vs

        monkeypatch.setattr(axioms, "combinations", counted)
        assert axioms.phi_holds(B, 1, 62, 4) is False
        assert axioms.psi_holds(B, 1, 62, 0, 4) is False
        assert drawn == []
        assert axioms.phi_holds(B, 1, 63, 4) is False
        assert len(drawn) == 1

    def test_phi_matches_tuple_oracle(self, e0, c2, w5):
        for B in (e0, c2, w5):
            for x in range(B.size):
                for y in range(B.size):
                    for n in (1, 2):
                        assert axioms.phi_holds(B, x, y, n) == oracles.naive_phi(
                            B, x, y, n
                        ), (B.pairs(), x, y, n)

    def test_theta_matches_tuple_oracle(self, e0, c2, p2):
        for B in (e0, c2, p2):
            for n in (1, 2):
                assert (axioms.theta_witness(B, n) is None) == oracles.naive_theta(B, n)

    def test_chain_fails_theta_one(self, c2):
        assert axioms.theta_witness(c2, 1) == (2, 1)

    def test_monotone_in_level(self):
        # higher levels only weaken the failure formulas and strengthen the
        # sentences
        for B in small_structures(4):
            for x in range(B.size):
                for y in range(B.size):
                    vals = [axioms.phi_holds(B, x, y, n) for n in (1, 2, 3, 4)]
                    assert all(a or not b for a, b in zip(vals, vals[1:])), (
                        B.pairs(),
                        x,
                        y,
                        vals,
                    )
            tvals = [axioms.theta_witness(B, n) is None for n in (1, 2, 3, 4)]
            assert all(b or not a for b, a in zip(tvals, tvals[1:]))

    def test_psi_monotone_small(self):
        for B in small_structures(3):
            for x in range(B.size):
                for y in range(B.size):
                    for z in range(B.size):
                        vals = [axioms.psi_holds(B, x, y, z, n) for n in (1, 2, 3)]
                        assert all(a or not b for a, b in zip(vals, vals[1:]))

    def test_theta_forward_direction_report(self, capsys):
        # whether the sentences strengthen strictly is recorded, not asserted
        flips = 0
        total = 0
        for B in small_structures(4):
            for n in (1, 2, 3):
                total += 1
                if (axioms.theta_witness(B, n) is None
                        and axioms.theta_witness(B, n + 1) is not None):
                    flips += 1
        print(f"theta level-up flips: {flips} of {total}")
        assert total > 0

    def test_stability_beyond_bound(self):
        # verdicts are stable one level past the documented bound
        for B in small_structures(3):
            nstar = axioms.type_bound(B)
            for x in range(B.size):
                for y in range(B.size):
                    assert axioms.phi_holds(B, x, y, nstar) == axioms.phi_holds(
                        B, x, y, nstar + 1
                    )
            assert (axioms.theta_witness(B, nstar) is None) == (
                axioms.theta_witness(B, nstar + 1) is None
            )

    def test_level_validation(self, e0):
        with pytest.raises(ValueError):
            axioms.phi_holds(e0, 1, 1, 0)


class TestLevelSweepOracle:
    """Full-support decisions against the level sweep they replaced."""

    @staticmethod
    def corpus():
        rng = random.Random(29)
        return small_structures(5) + [
            lab.random_p0set(6 + i % 5, rng.getrandbits(32), i % 2 == 0, rng.uniform(0.1, 0.6))
            for i in range(100)
        ]

    def test_report_witnesses(self):
        # theta fails first at levels 1, 2 and 3 in this corpus, and phi and
        # psi are omitted in every combination
        levels = set()
        for B in self.corpus():
            rep = axioms.check_basic_semilattice(B)
            got = tuple(rep[c].witness for c in ("theta", "phi_omitted", "psi_omitted"))
            assert got == oracles.sweep_type_witnesses(B), B.pairs()
            levels.add(got[0] and got[0][0])
        assert levels == {None, 1, 2, 3}

    def test_psi_witness_from_cover_rows(self):
        # the psi witness read from one cover row per (x, z), against the
        # literal sweep, and at the cap against one psi_holds call per triple
        for B in separation_corpus():
            got = axioms.check_basic_semilattice(B)["psi_omitted"].witness
            assert got == oracles.sweep_psi_witness(B), B.pairs()
        for B in cap_structures():
            bound = axioms.type_bound(B)
            want = next(((x, y, z) for x, y in B.pairs() for z in range(B.size)
                         if axioms.psi_holds(B, x, y, z, bound)), None)
            assert axioms.check_basic_semilattice(B)["psi_omitted"].witness == want

    def test_each_level(self):
        for B in self.corpus()[::13]:
            for n in (1, 2, 3):
                assert axioms.theta_witness(B, n) == oracles.sweep_theta_witness(B, n)
            for x in range(min(B.size, 6)):
                for y in range(min(B.size, 6)):
                    for n in (1, 2):
                        assert axioms.phi_holds(B, x, y, n) == oracles.sweep_phi(B, x, y, n)
                        for z in range(min(B.size, 4)):
                            assert axioms.psi_holds(B, x, y, z, n) == oracles.sweep_psi(
                                B, x, y, z, n
                            ), (B.pairs(), x, y, z, n)


class TestBasicSemilattice:
    def test_named_examples(self, e0, c2, p2):
        assert axioms.check_basic_semilattice(e0).passed
        rep = axioms.check_basic_semilattice(c2)
        assert not rep.passed
        assert rep["theta"].witness[0] == 1
        assert axioms.check_basic_semilattice(p2).passed

    def test_basic_lattices_are_basic_semilattices(self):
        for B in small_structures(5):
            if axioms.is_basic_lattice(B):
                assert axioms.is_basic_semilattice(B), B.pairs()

    def test_reflexive_theta_one_is_separativity(self):
        for n in range(1, 6):
            for B in lab.enumerate_structures(n, reflexive_only=True):
                assert (axioms.theta_witness(B, 1) is None) == bool(
                    order_predicates(B).holds("separative")
                ), B.pairs()

    def test_fast_flag_matches(self):
        for B in small_structures(4):
            assert axioms.is_basic_semilattice(B) == axioms.check_basic_semilattice(B).passed


class TestSweepInstanceAgreement:
    ARITIES = {
        "minimum": 1,
        "transitivity": 3,
        "coinitiality": 1,
        "cofinality": 1,
        "interpolation": 2,
        "right_auxiliarity": 3,
        "riesz_interpolation": 4,
        "multiplicativity": 4,
        "additivity": 4,
        "decomposition": 3,
        "vee_interpolation": 3,
        "complementation": 3,
        "distributivity": 3,
        "rather_below": 2,
        "prec_below": 2,
    }

    def test_sweeps_equal_literal_quantification(self):
        # the optimized sweeps and the slow instance predicate decide the
        # same verdict on every structure of size <= 3
        from itertools import product as iproduct

        for B in small_structures(3):
            rep = axioms.check_basic_lattice(B)
            for chk in rep.checks:
                if chk.name == "lattice" or chk.holds is None:
                    continue
                arity = self.ARITIES[chk.name]
                literal = all(
                    oracles.axiom_instance(B, chk.name, tup)
                    for tup in iproduct(range(B.size), repeat=arity)
                )
                assert literal == chk.holds, (B.pairs(), chk.name)


class TestSharedLaws:
    """The laws the lattice shares with its identity interpolator, and the
    covered-by-joins sweeps, against the loops they replaced, witnesses
    included."""

    SHARED = ("minimum", "cofinality", "interpolation", "multiplicativity",
              "additivity", "decomposition")

    @staticmethod
    def corpus():
        named = [lab.make_family("powerset", k) for k in range(3, 7)]
        named += [lab.make_family("chain", 63), lab.make_family("diamond", 62)]
        return separation_corpus() + tuple(named)

    def test_lattice_reports_against_loops(self):
        seen = set()
        for B in self.corpus():
            rep = axioms.check_basic_lattice(B)
            literal, _ = oracles.literal_interpolator_checks(B, B, B.prec)
            want = {"interpolation" if name == "target_interpolation" else name: (holds, w)
                    for name, holds, w in literal}
            for name in self.SHARED:
                assert (rep[name].holds, rep[name].witness) == want[name], (B.pairs(), name)
            aux = rep["right_auxiliarity"]
            assert aux.holds == want["source_auxiliarity"][0], B.pairs()
            assert aux.witness == oracles.auxiliarity_witness_zyx(B, B.prec), B.pairs()
            if rep.holds("lattice"):
                rb, pb = oracles.loop_rather_below(B), oracles.loop_prec_below(B)
                assert (rep["rather_below"].holds, rep["rather_below"].witness) == (rb is None, rb)
                assert (rep["prec_below"].holds, rep["prec_below"].witness) == (pb is None, pb)
                assert axioms.recover_prec(B) == oracles.loop_recover_prec(B), B.pairs()
                if rep.holds("cofinality"):
                    alt = axioms.check_alternate_axioms(B)
                    assert alt.checks[:5] == tuple(rep[c.name] for c in alt.checks[:5])
            else:
                with pytest.raises(NotLattice):
                    axioms.recover_prec(B)
            assert axioms.is_basic_lattice(B) == rep.passed
            seen.update((c.name, c.holds) for c in rep.checks)
        # no structure here fails minimum or multiplicativity; the
        # interpolator tests see both fail
        for name in ("cofinality", "interpolation", "additivity", "decomposition",
                     "right_auxiliarity", "rather_below", "prec_below"):
            assert {(name, True), (name, False)} <= seen, name

    def test_folds_against_edge_loops(self, monkeypatch):
        # whole reports, witnesses included, at the carrier cap; the fresh
        # copies build every table anew under the loops, and the
        # semilattice report reads the same multiplicativity table
        cap = cap_structures()
        reports = [axioms.check_basic_lattice(B) for B in cap]
        with_edge_loops(monkeypatch)
        for B, want in zip(cap, reports):
            B = fresh(B)
            assert axioms.check_basic_lattice(B) == want, B.size


class TestFalsifiability:
    """Each defining axiom is actually falsifiable by some structure, so a
    vacuously-true checker cannot hide."""

    def _fails(self, B, name):
        return axioms.check_basic_lattice(B)[name].holds is False

    def test_coinitiality(self):
        B = p0set(2, 0, [(0, 0), (0, 1), (1, 1)])
        C = p0set(2, 0, [(0, 0), (0, 1)])  # the top has nothing below it
        assert self._fails(C, "coinitiality")
        assert not self._fails(B, "coinitiality")

    def test_cofinality(self):
        C = p0set(2, 0, [(0, 0), (0, 1)])  # the top is above nothing
        assert self._fails(C, "cofinality")

    def test_interpolation(self):
        C = p0set(3, 0, [(0, 0), (0, 1), (0, 2), (1, 2)])
        assert self._fails(C, "interpolation")

    def test_decomposition(self, d3):
        assert self._fails(d3, "decomposition")

    def test_complementation(self, c2):
        assert self._fails(c2, "complementation")

    def test_lattice(self, e0):
        assert axioms.check_basic_lattice(e0)["lattice"].holds is False


def test_report_serialization(e0):
    entries = axioms.check_basic_lattice(e0).to_json()
    assert all(set(e) == {"axiom", "holds", "witness"} for e in entries)
    lat = next(e for e in entries if e["axiom"] == "lattice")
    assert lat["holds"] is False and lat["witness"] == [1, 2]
