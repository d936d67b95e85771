"""Named check lists with verdicts and failure witnesses.

A Report is the universal result currency of the verifiers: a named list
of (property, verdict, witness) triples.  Verdicts are True, False, or
None for not-applicable (a prerequisite of that particular check did not
hold).  A witness accompanies every False verdict; witnesses are tuples
of ints, either element indices or subset bitmasks depending on the
check (the check name makes clear which).

Checks and reports are immutable named tuples: hashable, equal by value,
and cheap to build, so that a verifier may hand the same report to every
caller with the same verdict.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import NamedTuple


class Check(NamedTuple):
    name: str
    holds: bool | None
    witness: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        return {
            "axiom": self.name,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness is not None else None,
        }


class Report(NamedTuple):
    name: str
    checks: tuple[Check, ...]
    passed: bool | None = None

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def holds(self, name: str) -> bool | None:
        return self[name].holds

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.holds is False]

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.checks]

    def render(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"[{self.name}]"]
        for c in self.checks:
            verdict = {True: "pass", False: "FAIL", None: "n/a"}[c.holds]
            suffix = f"  witness={c.witness}" if c.holds is False and c.witness is not None else ""
            lines.append(f"  {c.name:<{width}}  {verdict}{suffix}")
        if self.passed is not None:
            lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def report(name: str, checks, passed=None) -> Report:
    checks = tuple(checks)
    if passed is None:
        passed = all(c.holds is not False for c in checks)
    return Report(name, checks, passed)


@lru_cache(maxsize=1024)
def shared_report(name: str, checks: tuple, passed=None) -> Report:
    """The report of these (name, verdict, witness) triples, built once per
    distinct value, so that structures with the same verdicts share one."""
    return report(name, (Check(*c) for c in checks), passed)


def reports_to_json(reports) -> str:
    return json.dumps({r.name: r.to_json() for r in reports}, indent=2)
