"""The pool contract of `suites.run_suites`: a run builds the size-6 pool
at most once, only when a suite reads it, and no pool outlives its run."""

import pytest

from orderbench import suites


@pytest.fixture
def builds(monkeypatch):
    """(seed, pool) for each pool built while the test runs."""
    built = []
    build = suites.pool_size6

    def counting(seed):
        built.append((seed, build(seed)))
        return built[-1][1]

    monkeypatch.setattr(suites, "pool_size6", counting)
    return built


def test_one_pool_per_run(builds):
    names = ["duality_equations", "ultrafilter_characterizations", "semilattice_frames"]
    results = list(suites.run_suites(names, 3))
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)
    assert [seed for seed, _ in builds] == [3]


def test_no_pool_without_a_reader(builds):
    results = list(suites.run_suites(["type_witness", "naturality"], 0))
    assert all(r.passed for r in results)
    assert builds == []


def test_no_pool_outlives_its_run(builds):
    for _ in range(2):
        list(suites.run_suites(["alternate_axioms"], 0))
    # built afresh each time, not looked up in a cache
    (_, first), (_, second) = builds
    assert first == second and first is not second
