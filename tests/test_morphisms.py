import json
import random
from itertools import product

import pytest

import oracles
from conftest import small_structures, with_edge_loops
from orderbench import axioms, lab, morphisms as mo, stone
from orderbench.core import bits, dump_structure, full_mask
from orderbench.errors import (
    DimensionMismatch,
    FormatError,
    NotContinuous,
    NotInterpolator,
    PreconditionFailed,
)


def all_valid_interpolators(B, C):
    """Brute-force enumeration with a cheap minimum-row rejection first."""
    out = []
    full_c = full_mask(C.size)
    free = [x for x in range(B.size) if x != B.zero]
    for code in range((1 << C.size) ** len(free)):
        rows = [0] * B.size
        rows[B.zero] = full_c
        k = code
        for x in free:
            rows[x] = k % (1 << C.size)
            k //= 1 << C.size
        R = mo.Interpolator(B, C, tuple(rows))
        if mo.is_interpolator(R).passed:
            out.append(R)
    return out


class TestInterpolatorAxioms:
    def test_prec_is_self_interpolator(self, p2):
        assert mo.is_interpolator(mo.identity_interpolator(p2)).passed

    def test_empty_relation_fails_cofinality(self, p2):
        rep = mo.is_interpolator(mo.Interpolator(p2, p2, (0, 0, 0, 0)))
        assert rep["cofinality"].holds is False
        assert not rep.passed

    def test_needs_basic_lattices(self, c2, p2):
        with pytest.raises(PreconditionFailed):
            mo.is_interpolator(mo.identity_interpolator(c2))
        with pytest.raises(PreconditionFailed):
            mo.is_interpolator(mo.Interpolator(c2, p2, (0b1111,) * 3))

    def test_derived_auxiliarity_on_valid(self, p2, p3):
        for R in all_valid_interpolators(p2, p2):
            rep = mo.is_interpolator(R)
            assert rep.holds("target_auxiliarity")
            assert rep.holds("source_auxiliarity")


class TestSharedLaws:
    """`is_interpolator` against the interpolator sweep's own loops, with the
    source auxiliarity witness in (z, y, x) order."""

    @staticmethod
    def relations():
        lats = [B for B in small_structures(4) if axioms.is_basic_lattice(B)]
        lats.append(lab.make_family("powerset", 3))
        rng = random.Random(11)
        out = []
        for i in range(2400):
            B, C = rng.choice(lats), rng.choice(lats)
            if i % 2:
                # one bit away from the identity interpolator
                rows = list(B.prec)
                rows[rng.randrange(B.size)] ^= 1 << rng.randrange(B.size)
                C = B
            else:
                rows = [rng.getrandbits(C.size) for _ in range(B.size)]
                if rng.random() < 0.7:
                    rows[B.zero] = full_mask(C.size)
            out.append(mo.Interpolator(B, C, tuple(rows)))
        # the interpolators of point maps between discrete spaces on at
        # most 3 points
        for k, m in product((1, 2, 3), repeat=2):
            X = stone.discrete_topology(k, range(1 << k))
            Y = stone.discrete_topology(m, range(1 << m))
            for f in product(range(m), repeat=k):
                out.append(mo.interpolator_from_map(X, Y, f, range(1 << k), range(1 << m)))
        return out

    def test_against_literal_loops(self):
        seen = set()
        for R in self.relations():
            rep = mo.is_interpolator(R)
            literal, passed = oracles.literal_interpolator_checks(R.source, R.target, R.rel)
            got = [(c.name, c.holds, c.witness) for c in rep.checks]
            assert got[:-1] == literal[:-1], R
            assert got[-1][:2] == literal[-1][:2], R
            assert got[-1][2] == oracles.auxiliarity_witness_zyx(R.source, R.rel), R
            assert rep.passed == passed
            seen.update(c[:2] for c in got)
        # these basic lattices are reflexive, so z = y and z = x always
        # interpolate; every other law is seen holding and failing
        never = {("target_interpolation", False), ("source_interpolation", False)}
        assert seen == {(c[0], v) for c in got for v in (True, False)} - never

    def test_folds_against_edge_loops(self, monkeypatch):
        # whole reports, witnesses included, with the pair laws and the
        # join reach by the edge loops the folds replaced
        relations = self.relations()
        reports = [mo.is_interpolator(R) for R in relations]
        with_edge_loops(monkeypatch)
        seen = set()
        for R, want in zip(relations, reports):
            assert mo.is_interpolator(R) == want, R
            seen.update((c.name, c.holds) for c in want.checks)
        laws = ("multiplicativity", "additivity", "decomposition")
        assert {(name, v) for name in laws for v in (True, False)} <= seen


class TestComposition:
    def test_prec_composes_to_itself(self, p2):
        R = mo.identity_interpolator(p2)
        assert mo.compose_interpolators(R, R).rel == R.rel

    def test_identity_laws(self, p2):
        for R in all_valid_interpolators(p2, p2):
            left = mo.compose_interpolators(mo.identity_interpolator(p2), R)
            right = mo.compose_interpolators(R, mo.identity_interpolator(p2))
            assert left.rel == R.rel and right.rel == R.rel

    def test_empty_absorbs(self, p2):
        E = mo.Interpolator(p2, p2, (0, 0, 0, 0))
        R = mo.identity_interpolator(p2)
        assert mo.compose_interpolators(E, R).rel == (0, 0, 0, 0)

    def test_dimension_mismatch(self, p2, p3):
        with pytest.raises(DimensionMismatch):
            mo.compose_interpolators(
                mo.identity_interpolator(p2), mo.identity_interpolator(p3)
            )

    def test_category_laws_small(self):
        # composites of valid interpolators are valid; composition is
        # associative; over the basic lattices of size <= 4
        lats = [B for B in small_structures(4) if axioms.is_basic_lattice(B)]
        pools = {}
        for B in lats:
            for C in lats:
                pools[(id(B), id(C))] = all_valid_interpolators(B, C)
        for B in lats:
            for C in lats:
                for R in pools[(id(B), id(C))]:
                    for D in lats:
                        for S in pools[(id(C), id(D))]:
                            RS = mo.compose_interpolators(R, S)
                            assert mo.is_interpolator(RS).passed
                            for E in lats:
                                for T in pools[(id(D), id(E))][:2]:
                                    a = mo.compose_interpolators(RS, T)
                                    b = mo.compose_interpolators(
                                        R, mo.compose_interpolators(S, T)
                                    )
                                    assert a.rel == b.rel


class TestStoneMaps:
    def test_identity_interpolator_identity_map(self, p2):
        sm = mo.induced_stone_map(mo.identity_interpolator(p2))
        assert sm.mapping == (0, 1)
        assert sm.report.passed

    def test_constant_map(self, p2):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        Y = stone.discrete_topology(1, [0, 1])
        C = mo.interpolator_from_map(X, Y, (0, 0), [0, 1, 2, 3], [0, 1])
        assert C.rel == (3, 2, 2, 2)
        sm = mo.induced_stone_map(C)
        assert sm.mapping == (0, 0) and sm.report.passed

    def test_from_identity_map_is_containment(self, p2):
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        I = mo.interpolator_from_map(X, X, (0, 1), [0, 1, 2, 3], [0, 1, 2, 3])
        for i in range(4):
            for j in range(4):
                assert I.has(i, j) == (i & j == i)

    def test_continuity_checked(self):
        X = stone.topology_from_basis(2, [0b01, 0b11])  # point 1 not open alone
        Y = stone.discrete_topology(2, [0, 1, 2, 3])
        with pytest.raises(NotContinuous):
            mo.interpolator_from_map(X, Y, (0, 1), [0, 0b01, 0b11], [0, 1, 2, 3])

    def test_against_opens_list(self):
        # every map between topologies on at most 2 points, and random maps
        # between topologies on at most 3 points
        tops = [(k, opens) for k in range(4) for opens in oracles.every_topology(k)]
        small = [t for t in tops if t[0] <= 2]
        cases = [(s, t, f) for s in small for t in small
                 for f in product(range(t[0]), repeat=s[0])]
        rng = random.Random(5)
        while len(cases) < 600:
            s, t = rng.choice(tops), rng.choice(tops)
            if t[0]:
                cases.append((s, t, tuple(rng.randrange(t[0]) for _ in range(s[0]))))
        outcomes = set()
        for (k, ox), (m, oy), f in cases:
            X, Y = stone.topology_from_basis(k, ox), stone.topology_from_basis(m, oy)
            OX, OY = oracles.OpensTopology(k, ox), oracles.OpensTopology(m, oy)
            bad = oracles.sweep_continuity(OX, OY, f)
            outcomes.add(bad is None)
            if bad is not None:
                with pytest.raises(NotContinuous, match=f"preimage of {bad:#b} "):
                    mo.interpolator_from_map(X, Y, f, ox, oy)
                continue
            rows = oracles.loop_closure_rows(OX, f, ox, oy)
            assert stone.closure_rows(X, ox, f, oy) == rows
            assert mo.interpolator_from_map(X, Y, f, ox, oy).rel == tuple(rows)
        assert outcomes == {True, False}

    def test_closure_rows_every_map(self):
        # every point map between topologies on at most 3 points, continuous
        # or not, with every open on each side
        tops = [(k, opens) for k in range(4) for opens in oracles.every_topology(k)]
        for k, ox in tops:
            X, OX = stone.topology_from_basis(k, ox), oracles.OpensTopology(k, ox)
            for m, oy in tops:
                for f in product(range(m), repeat=k):
                    assert stone.closure_rows(X, ox, f, oy) == \
                        oracles.loop_closure_rows(OX, f, ox, oy), (ox, oy, f)

    def test_induced_map_on_planted_spaces(self, monkeypatch):
        # the interpolators of the point maps between discrete spaces on at
        # most 3 points, with every topology on the Stone points in place of
        # the discrete one on each side (every pair when the two spaces have
        # at most 5 points together, a seeded sample of 20 pairs per map at
        # 3 and 3), so continuity and the closure characterization fail too
        rng = random.Random(9)
        seen = set()
        for k, m in product((1, 2, 3), repeat=2):
            FX, FY = range(1 << k), range(1 << m)
            D = stone.discrete_topology(k, FX), stone.discrete_topology(m, FY)
            plants = list(product(oracles.every_topology(k), oracles.every_topology(m)))
            for f in product(range(m), repeat=k):
                R = mo.interpolator_from_map(D[0], D[-1], f, FX, FY)
                sm = mo.induced_stone_map(R)
                picks = plants if k + m <= 5 else rng.sample(plants, 20)
                for ox, oy in picks:
                    X = stone.topology_from_basis(sm.source_space.points, ox)
                    Y = stone.topology_from_basis(sm.target_space.points, oy)
                    # induced_stone_map asks for the source's space first
                    spaces = iter([
                        stone.FiniteTopology(X.points, X.nbhd, sm.source_space.basis),
                        stone.FiniteTopology(Y.points, Y.nbhd, sm.target_space.basis)])
                    with monkeypatch.context() as mp:
                        mp.setattr(mo, "stone_space", lambda _: next(spaces))
                        rep = mo.induced_stone_map(R).report
                    got = (rep["continuous"].witness, rep["closure_characterization"].witness)
                    want = oracles.loop_stone_map_witnesses(
                        oracles.OpensTopology(X.points, ox), sm.source_space.basis,
                        oracles.OpensTopology(Y.points, oy), sm.target_space.basis,
                        sm.mapping, R.rel)
                    assert got == want, (f, ox, oy)
                    seen.update((c.name, c.holds) for c in rep.checks)
        assert seen == {(name, v) for name in ("continuous", "closure_characterization")
                        for v in (True, False)}

    def test_invalid_rejected(self, p2):
        with pytest.raises(NotInterpolator):
            mo.induced_stone_map(mo.Interpolator(p2, p2, (0, 0, 0, 0)))

    def test_functoriality(self):
        # pushing forward a composite equals composing the pushforwards
        lats = [B for B in small_structures(3) if axioms.is_basic_lattice(B)]
        p2 = None
        from orderbench import lab

        p2 = lab.make_family("powerset", 2)
        lats.append(p2)
        for B in lats:
            for C in lats:
                for R in all_valid_interpolators(B, C):
                    fR = mo.induced_stone_map(R)
                    assert fR.report.passed
                    for D in lats:
                        for S in all_valid_interpolators(C, D):
                            fS = mo.induced_stone_map(S)
                            fRS = mo.induced_stone_map(mo.compose_interpolators(R, S))
                            assert fRS.report.passed
                            assert fRS.mapping == tuple(
                                fS.mapping[t] for t in fR.mapping
                            )

    def test_round_trip_with_point_map(self):
        # a continuous map, its interpolator, and back: the induced Stone
        # map agrees with the original under the point-filter bijection
        X = stone.discrete_topology(2, [0, 1, 2, 3])
        famX = [0, 1, 2, 3]
        for f in ((0, 0), (0, 1), (1, 0), (1, 1)):
            R = mo.interpolator_from_map(X, X, f, famX, famX)
            sm = mo.induced_stone_map(R)
            S = stone.basis_to_structure(X, famX)
            ults = stone.enumerate_ultrafilters(S)
            for p in range(2):
                pf = stone.point_filter(X, famX, p)
                qf = stone.point_filter(X, famX, f[p])
                assert sm.mapping[ults.index(pf)] == ults.index(qf)


class TestInterpolatorFormat:
    def test_round_trip(self, tmp_path, p2):
        (tmp_path / "p2.json").write_text(dump_structure(p2))
        doc = {
            "from": "p2.json",
            "to": "p2.json",
            "pairs": [[x, y] for x in range(4) for y in bits(p2.prec[x])],
        }
        R = mo.load_interpolator(json.dumps(doc), tmp_path)
        assert R.rel == p2.prec

    def test_bad_shape(self, tmp_path):
        with pytest.raises(Exception):
            mo.load_interpolator('{"from": "x"}', tmp_path)

    @pytest.mark.parametrize("pair", [["a", 1], [0.5, 1], [4, 1]])
    def test_bad_pairs(self, tmp_path, p2, pair):
        (tmp_path / "p2.json").write_text(dump_structure(p2))
        doc = {"from": "p2.json", "to": "p2.json", "pairs": [[0, 0], pair]}
        with pytest.raises(FormatError):
            mo.load_interpolator(json.dumps(doc), tmp_path)
