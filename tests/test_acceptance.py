"""Acceptance gate: one test per criterion, each printing a verdict line.

All checks are exact (discrete mathematics, tolerance = equality).  Every
criterion carries its stated runtime budget; the budget is asserted, not
just observed.  Each suite's detail lines must equal the ones pinned in
`verify_all_seed0.txt`, the output of `orderbench verify all --seed 0`
without its timings.  Run with `pytest -s tests/test_acceptance.py` to see
the lines, or `orderbench verify all` for the same sweeps from the CLI.
"""

from pathlib import Path

import pytest

from orderbench import suites


def pinned_details(path: Path) -> dict[str, list[str]]:
    """Suite name -> detail lines of a `verify all` text output."""
    details = {}
    for line in path.read_text().splitlines():
        if line.startswith("[suite "):
            name = line[len("[suite "):line.index("]")]
            details[name] = []
        else:
            details[name].append(line.removeprefix("  "))
    return details


PINNED = pinned_details(Path(__file__).with_name("verify_all_seed0.txt"))

BUDGETS = {
    "example_tightness": 1,
    "duality_round_trip": 60,
    "duality_equations": 120,
    "ultrafilter_characterizations": 60,
    "reflexive_collapse": 60,
    "alternate_axioms": 60,
    "semilattice_frames": 300,
    "type_witness": 1,
    "cover_envelope": 120,
    "universal_factoring": 300,
    "naturality": 60,
    "spectrum_counts": 300,
    "pseudobasis": 300,
    "separativity_chain": 300,
    "saturation_laws": 300,
}

assert set(BUDGETS) == set(suites.CRITERIA) == set(PINNED)


@pytest.mark.parametrize("index,name", list(enumerate(suites.CRITERIA, start=1)))
def test_criterion(index, name):
    [result] = suites.run_suites([name], 0)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:02d} {name}: {verdict} ({result.seconds:.2f}s)")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"criterion {index} ({name}) failed: {result.details}"
    assert result.details == PINNED[name]
    assert result.seconds < BUDGETS[name], (
        f"criterion {index} ({name}) exceeded its {BUDGETS[name]}s budget "
        f"at {result.seconds:.1f}s"
    )
