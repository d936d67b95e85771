from itertools import islice

import pytest

import oracles
from orderbench import lab
from orderbench.core import bits, full_mask, order_predicates, p0set
from orderbench.errors import CapExceeded, InputError


class TestFamilies:
    def test_shapes(self):
        assert lab.make_family("diamond", 3).size == 5
        assert lab.make_family("powerset", 2).size == 4
        assert lab.make_family("chain", 2).size == 3
        assert lab.make_family("antichain", 2).size == 3
        assert lab.make_family("interpolation_witness", 0).size == 5

    def test_two_atom_pairs(self):
        e0 = lab.make_family("antichain", 2)
        assert sorted(e0.pairs()) == [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]

    def test_unknown(self):
        with pytest.raises(InputError, match="unknown family 'mystery'"):
            lab.make_family("mystery", 3)
        with pytest.raises(InputError, match="powerset needs 0 <= n <= 6"):
            lab.make_family("powerset", 9)

    def test_diamond_marks(self):
        d = lab.make_family("diamond", 3)
        assert order_predicates(d).holds("lattice")
        assert order_predicates(d).holds("distributive") is False


class TestRandom:
    def test_deterministic(self):
        a = lab.random_p0set(4, 42, True, 0.3)
        assert a == lab.random_p0set(4, 42, True, 0.3)
        b = lab.random_p0set(4, 43, True, 0.3)
        assert a != b or a.prec == b.prec  # different seeds usually differ

    def test_one_point(self):
        assert lab.random_p0set(1, 0).size == 1

    def test_validity_over_many_seeds(self):
        # construction never produces an invalid structure: the closed rows
        # skip p0set's validation, and rebuilding from the pairs runs it
        densities = [0.0] + [d / 100 for d in range(5, 61, 5)] + [1.0]
        calls = [(2 + seed % 4, seed, seed % 2 == 0, (seed % 7) / 10 + 0.05) for seed in range(2500)]
        calls += [(n, seed, reflexive, density) for n in range(1, 13) for reflexive in (False, True)
                  for density in densities for seed in range(5)]
        for args in calls:
            B = lab.random_p0set(*args)
            assert p0set(B.size, B.zero, B.pairs(), B.names) == B, args

    def test_reflexive_mode_gives_posets(self):
        for seed in range(200):
            B = lab.random_p0set(5, seed, True, 0.4)
            der_anti = all(
                not (B.has(x, y) and B.has(y, x))
                for x in range(B.size)
                for y in range(B.size)
                if x != y
            )
            assert der_anti
            assert all(B.has(x, x) for x in range(B.size))

    def test_cap(self):
        for n, density in ((13, 0.3), (0, 0.3), (3, -0.01), (3, 1.5), (3, float("nan"))):
            with pytest.raises(CapExceeded):
                lab.random_p0set(n, 0, False, density)


class TestEnumeration:
    def test_counts_against_naive_filter(self):
        # oracle: scan every relation matrix with the zero row forced
        def naive(n):
            cnt = 0
            fm = full_mask(n)
            for code in range(1 << (n * (n - 1))):
                rows = [fm] + [0] * (n - 1)
                k = 0
                for x in range(1, n):
                    for y in range(n):
                        if code >> k & 1:
                            rows[x] |= 1 << y
                        k += 1
                if all(
                    rows[y] & ~rows[x] == 0
                    for x in range(n)
                    for y in bits(rows[x])
                ):
                    cnt += 1
            return cnt

        for n in (1, 2, 3):
            assert len(lab.enumerate_structures(n)) == naive(n)
        assert len(lab.enumerate_structures(4)) == naive(4)

    def test_reflexive_counts_are_poset_counts(self):
        # bottomed partial orders on n elements = labeled posets on n-1
        expected = {1: 1, 2: 1, 3: 3, 4: 19, 5: 219, 6: 4231}
        for n, k in expected.items():
            assert len(lab.enumerate_structures(n, reflexive_only=True)) == k

    def test_two_element_reflexive_unique(self):
        assert len(lab.enumerate_structures(2, True)) == 1

    def test_three_element_reflexive_contains_named(self):
        e0 = lab.make_family("antichain", 2)
        c2 = lab.make_family("chain", 2)
        found = {B.prec for B in lab.enumerate_structures(3, True)}
        assert e0.prec in found and c2.prec in found

    def test_all_valid(self):
        # leaves skip p0set's validation; rebuilding from the pairs runs it
        catalog = [B for n in range(1, 6) for B in lab.enumerate_structures(n)]
        catalog += [B for n in range(1, 7) for B in lab.enumerate_structures(n, True)]
        for B in catalog:
            assert p0set(B.size, B.zero, B.pairs(), B.names) == B

    def test_same_list_as_row_scan(self):
        # same structures in the same order as the scan over every row
        for n in range(1, 6):
            assert [B.pairs() for B in lab.enumerate_structures(n)] == oracles.scan_enumerate(n, False)
        for n in range(1, 7):
            assert [B.pairs() for B in lab.enumerate_structures(n, True)] == oracles.scan_enumerate(n, True)

    def test_labelled_posets_on_six_points(self):
        # bottomed partial orders on 7 elements are the labelled posets on
        # 6 points: 130023 (OEIS A001035); each one rebuilds through p0set
        posets = lab._enumerate(7, True)
        assert len(posets) == 130023
        assert all(p0set(7, 0, B.pairs()) == B for B in posets)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            lab.enumerate_structures(6)
        with pytest.raises(CapExceeded):
            lab.enumerate_structures(7, reflexive_only=True)


class TestSearch:
    def test_curated_counterexample(self):
        found = lab.search_counterexample("decomposition_holds", 1, 1, 0)
        assert found is not None and found.size == 5

    def test_theorem_suites_find_nothing(self):
        for name in (
            "separative_implies_rho_injective",
            "rho_injective_implies_ssc",
            "chain_respected",
            "semilattice_equivalence",
            "rho_injective_implies_separative_on_meet_semilattices",
        ):
            assert lab.search_counterexample(name, 4, 400, 7) is None

    def test_empty_search_refused(self):
        for bound, budget in ((0, 10), (3, 0), (-1, -1)):
            with pytest.raises(CapExceeded):
                lab.search_counterexample("chain_respected", bound, budget, 0)

    def test_unknown_suite(self):
        with pytest.raises(InputError, match="no suite named 'nope'"):
            lab.search_counterexample("nope", 3, 10, 0)

    def test_budget_respected(self):
        assert lab.search_counterexample("chain_respected", 8, 5, 0) is None

    @pytest.mark.parametrize("j", [1, 2, 37])
    def test_random_part_is_the_random_stream(self, j, monkeypatch):
        # a property that first fails at the j-th random draw: the search
        # returns the j-th structure of `random_stream`
        bound, seed = 3, 5
        enumerated = sum(len(lab.enumerate_structures(n)) for n in range(1, bound + 1))
        seen = []
        probe = (lambda B: seen.append(B) is None and len(seen) != enumerated + j, ())
        monkeypatch.setitem(lab.SUITES, "probe", probe)
        found = lab.search_counterexample("probe", bound, enumerated + 100, seed)
        assert found is seen[-1] and len(seen) == enumerated + j
        assert seen[enumerated:] == list(islice(lab.random_stream(bound, seed), j))

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_random_sizes_within_bound(self, bound, monkeypatch):
        sizes = []
        probe = (lambda B: sizes.append(B.size) is None, ())
        monkeypatch.setitem(lab.SUITES, "probe", probe)
        assert lab.search_counterexample("probe", bound, 300, 0) is None
        assert len(sizes) == 300 and max(sizes) == bound
