"""Reference verdicts that do not come from the timed code.

Expected answers come from the brute-force routes in ``tests/oracles.py``
(filters and ultrafilters, theta, covers, tight characters) and from
closed forms for the named families.  Theorem checks (the ``verify_*``
reports, induced Stone maps, factoring through the embedding) must pass
on every input.  Each function returns a list of mismatch messages; any
mismatch fails the benchmark run.

`plant` corrupts one expectation on purpose, so the self-checks can show
that a wrong reference verdict fails the run.
"""

from __future__ import annotations

import json
import re

import oracles  # tests/oracles.py, on sys.path


def _mask(elements) -> int:
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def _members(mask: int) -> set:
    return {x for x in range(mask.bit_length()) if mask >> x & 1}


def naive_ultrafilter_masks(B) -> list[int]:
    return sorted(_mask(U) for U in oracles.naive_ultrafilters(B))


def _reflexive(B) -> bool:
    return all(B.has(x, x) for x in range(B.size))


# ---------------------------------------------------------------------------
# catalog_sweep


def _report_holds(kind: str, rep) -> bool:
    """The field of a theorem report that the gate requires."""
    if kind == "equivalent":
        return bool(rep.holds("equivalent"))
    if kind == "chain":
        return bool(rep.holds("chain_respected")) and rep.holds("semilattice_equivalence") is not False
    return bool(rep.passed)


def check_catalog(inputs, verdicts, plant: bool = False) -> list[str]:
    bad = []
    for i, (inp, v) in enumerate(zip(inputs, verdicts)):
        B = v.structure
        where = f"catalog input {i} ({inp.stratum}) {B.pairs()}"
        checks = [(f"theorem check {rep.name}", _report_holds(kind, rep)) for kind, rep in v.reports]
        if inp.stratum == "duality":
            k, fam, closed = inp.item
            if closed:
                checks.append(("a closed separating family gives a basic lattice", v.basic_lattice))
            if v.stone_points is not None:
                expected = sorted(_mask(j for j, o in enumerate(fam) if o >> p & 1) for p in range(k))
                checks.append((f"{v.stone_points} Stone points for {k} points", v.stone_points == k))
                checks.append(("ultrafilters are the point filters", list(v.ultrafilters) == expected))
                checks.append(("point filters", sorted(v.point_filters) == expected))
                if B.size <= 8:
                    checks.append(("ultrafilters equal the oracle's",
                                   list(v.ultrafilters) == naive_ultrafilter_masks(B)))
        if v.basic_semilattice:
            for lev in range(1, min(2, B.size) + 1):
                checks.append((f"basic semilattice with theta failing at level {lev}",
                               oracles.naive_theta(B, lev)))
        if v.basic_lattice and v.basic_semilattice is not None:
            checks.append(("basic lattice that is no basic semilattice", v.basic_semilattice))
        if v.filters is not None:
            expected = sorted(_mask(U) for U in oracles.naive_filters(B))
            checks.append(("filters equal the oracle's", list(v.filters) == expected))
        if v.generalized_boolean is not None and _reflexive(B):
            checks.append(("reflexive collapse", v.basic_lattice == v.generalized_boolean))
        if plant and i == 0:
            checks[0] = (checks[0][0], not checks[0][1])
        bad += [f"{where}: {what} fails" for what, ok in checks if not ok]
    return bad


# ---------------------------------------------------------------------------
# map_sweep


def _minimal_covering_pairs(B) -> tuple[list, list]:
    """Covering pairs (F, G) of B by the oracle, minimal under inclusion in
    both sides; split by whether F is empty.

    Covers only get easier as F or G grows (F's lower bounds shrink, G's
    meets grow).  So a map preserves every covering pair once it preserves
    the minimal ones, and a pair is minimal when no pair one element
    smaller covers.
    """
    n = B.size
    cov = {
        (F, G)
        for F in range(1 << n)
        for G in range(1 << n)
        if oracles.naive_covers(B, _members(F), _members(G))
    }

    def minimal(F, G) -> bool:
        smaller = [(F & ~(1 << x), G) for x in _members(F) if F & ~(1 << x)]
        smaller += [(F, G & ~(1 << y)) for y in _members(G)]
        return not any(pair in cov for pair in smaller)

    nonempty = [(F, G) for F, G in cov if F and minimal(F, G)]
    empty = [(F, G) for F, G in cov if not F and minimal(F, G)]
    return nonempty, empty


def check_maps(maps, verdicts, plant: bool = False) -> list[str]:
    from orderbench.tight import enveloping_algebra

    pairs_of = {}
    target_covers: dict = {}
    members = [tuple(_members(F)) for F in range(1 << max(m.source.size for m in maps))]

    def tcov(A, C: int, D: int) -> bool:
        key = (A, C, D)
        if key not in target_covers:
            target_covers[key] = oracles.naive_covers(A, _members(C), _members(D))
        return target_covers[key]

    bad = []
    for i, (beta, v) in enumerate(zip(maps, verdicts)):
        B, A, assignment = beta.source, beta.target, beta.assignment
        if B not in pairs_of:
            pairs_of[B] = _minimal_covering_pairs(B)
        nonempty, empty = pairs_of[B]

        def img(F: int) -> int:
            m = 0
            for x in members[F]:
                m |= 1 << assignment[x]
            return m

        tightish = all(tcov(A, img(F), img(G)) for F, G in nonempty)
        tight = tightish and all(tcov(A, 0, img(G)) for _, G in empty)
        if plant and i == 0:
            tight = not tight
        got = (v.tight, v.tightish)
        if got != (tight, tightish):
            bad.append(f"map {i} {assignment}: (tight, tightish) {got} != oracle {(tight, tightish)}")
            continue
        if tightish:
            if v.factor is None:
                bad.append(f"map {i}: tightish map was not factored")
                continue
            embed = enveloping_algebra(B).rho_index
            if any(v.factor[embed[x]] != assignment[x] for x in range(B.size)):
                bad.append(f"map {i}: factor does not restrict to the map")
        if tight and not v.square_ok:
            bad.append(f"map {i}: naturality square fails")
    return bad


def check_point_maps(point_maps, verdicts) -> list[str]:
    """The relation of a continuous map is an interpolator, and its induced
    Stone map is the point map again, points read as point filters."""
    bad = []
    for i, ((k, fx, m, fy, f), (R, axioms_rep, induced)) in enumerate(
        zip(point_maps, verdicts)
    ):
        where = f"point map {i} {f} ({k} -> {m} points)"
        if not axioms_rep.passed or induced is None:
            bad.append(f"{where}: relation of a continuous map fails the interpolator axioms")
            continue
        if not induced.report.passed:
            bad.append(f"{where}: induced Stone map checks fail")
            continue
        ults_x = naive_ultrafilter_masks(R.source)
        ults_y = naive_ultrafilter_masks(R.target)

        def point_filter(fam, p):
            return _mask(j for j, o in enumerate(fam) if o >> p & 1)

        for p in range(k):
            got = ults_y[induced.mapping[ults_x.index(point_filter(fx, p))]]
            if got != point_filter(fy, f[p]):
                bad.append(f"{where}: induced map sends point {p} elsewhere")
                break
    return bad


# ---------------------------------------------------------------------------
# wide_carriers


def closed_form(family: str, n: int) -> dict:
    """Known answers for the named families (n >= 2 where it matters).

    The reflexivizations are partial orders, so a structure is a basic
    lattice exactly when it is a generalized Boolean algebra.  Powerset n,
    antichain n and diamond n have n ultrafilters (the atoms' principal
    filters, or the atoms themselves); a chain has one.  Tight characters
    match ultrafilters here, and the enveloping algebra and the saturated
    family are Boolean with that many atoms.
    """
    k = {"powerset": n, "antichain": n, "diamond": n, "chain": 1}[family]
    flags = {
        "powerset": {"lattice": True, "generalized_boolean": True},
        "antichain": {"lattice": False, "meet_semilattice": True},
        "chain": {"lattice": True, "generalized_boolean": False},
        "diamond": {"lattice": True, "distributive": False},
    }[family]
    basic_lattice = family == "powerset"
    basic_semilattice = family != "chain"
    return {
        "ultrafilters": k,
        "characters": k,
        "envelope": (2**k, k),
        "saturated": 2**k,
        "flags": flags,
        "basic_lattice": basic_lattice,
        "basic_semilattice": basic_semilattice,
    }


def _holds(report_json, name):
    for c in report_json:
        if c["axiom"] == name:
            return c["holds"]
    raise KeyError(name)


def _count(pattern: str, text: str) -> tuple[int, ...]:
    m = re.search(pattern, text)
    if not m:
        raise ValueError(f"no match for {pattern!r}")
    return tuple(int(g) for g in m.groups())


def check_wide_verdict(inp, verb: str, B, stdout: str, stderr: str, plant: bool = False) -> list[str]:
    """Check one answered CLI call (exit 0) against the reference."""
    from orderbench.axioms import DEFINING

    where = f"{verb} {inp.ident}"
    cf = closed_form(inp.family, inp.n) if inp.family != "random" else None
    if plant and cf is not None:
        cf = {
            **cf,
            "ultrafilters": cf["ultrafilters"] + 1,
            "characters": cf["characters"] + 1,
            "envelope": (0, 0),
            "saturated": 0,
            "basic_lattice": not cf["basic_lattice"],
        }
    bad = []
    try:
        if verb == "check":
            doc = json.loads(stdout)
            bl = doc["basic_lattice"]
            bl_passed = _holds(bl, "lattice") is True and all(_holds(bl, a) is True for a in DEFINING)
            bs_passed = all(c["holds"] is True for c in doc["basic_semilattice"])
            if cf is not None:
                for flag, want in cf["flags"].items():
                    if _holds(doc["order_predicates"], flag) != want:
                        bad.append(f"{where}: {flag} != {want}")
                if (bl_passed, bs_passed) != (cf["basic_lattice"], cf["basic_semilattice"]):
                    bad.append(f"{where}: (basic lattice, basic semilattice) = {(bl_passed, bs_passed)}")
            elif _reflexive(B) and bl_passed != bool(
                _holds(doc["order_predicates"], "generalized_boolean")
            ):
                bad.append(f"{where}: reflexive collapse fails")
            theta = next(c for c in doc["basic_semilattice"] if c["axiom"] == "theta")
            for lev in range(1, min(2, B.size) + 1):
                fails_by = theta["holds"] is False and theta["witness"][0] <= lev
                if fails_by == oracles.naive_theta(B, lev):
                    bad.append(f"{where}: theta level {lev} disagrees with the oracle")
        elif verb == "stone":
            doc = json.loads(stdout)
            ults = sorted(_mask(u) for u in doc["ultrafilters"])
            if cf is not None:
                if len(ults) != cf["ultrafilters"]:
                    bad.append(f"{where}: {len(ults)} ultrafilters, closed form {cf['ultrafilters']}")
            elif ults != naive_ultrafilter_masks(B):
                bad.append(f"{where}: ultrafilters differ from the oracle")
        elif verb == "spectrum":
            (chars,) = _count(r"tight characters: (\d+)", stderr)
            if cf is not None and chars != cf["characters"]:
                bad.append(f"{where}: {chars} tight characters, closed form {cf['characters']}")
            if cf is None and B.size <= 5 and chars != len(oracles.naive_tight_characters(B)):
                bad.append(f"{where}: tight characters differ from the oracle")
        elif verb == "envelope":
            elements, atoms = _count(r"enveloping algebra: (\d+) elements, (\d+) atoms", stderr)
            if elements != 2**atoms:
                bad.append(f"{where}: {elements} elements is not 2**{atoms}")
            if cf is not None and (elements, atoms) != cf["envelope"]:
                bad.append(f"{where}: envelope {(elements, atoms)}, closed form {cf['envelope']}")
        elif verb == "saturate":
            (sets,) = _count(r"saturated sets: (\d+)", stderr)
            if cf is not None and sets != cf["saturated"]:
                bad.append(f"{where}: {sets} saturated sets, closed form {cf['saturated']}")
    except (ValueError, KeyError, StopIteration, TypeError, IndexError) as exc:
        bad.append(f"{where}: unreadable output ({exc!r})")
    return bad
