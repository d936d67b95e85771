"""Command-line front end.

Verbs: check (classify a structure), stone (Stone space plus duality
verification), spectrum (characters and the separativity chain), envelope
(enveloping algebra, cover equivalence, optional map factoring), saturate
(saturated families and frame laws), verify (named acceptance suite), gen
(emit a structure file), search (counterexample search).

saturate counts the saturated sets as 2**k for the k characters of a
meet semilattice, else from the unions of generator rows (not counted
past 4,096), and checks every subset law and frame law at every size.

Exit codes are read from the type of what a verb raises: 2 for an
`InputError` (malformed input, a value past a cap, an unreadable file,
an unknown name, a map that moves zero or whose source is not the
structure argument), 1 for any other `OrderbenchError` and when a
verified property that should hold fails (witnesses are in the report),
0 otherwise.  Classification results (a structure simply not being a
basic lattice, say) are not failures.  Reports default to readable
text; --format json emits the serialization with one entry per check,
one object per suite for verify and the structure found (or null) for
search.  gen always writes JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

# `lab` and `suites` are imported by the verbs that use them
from . import axioms, saturation, spectrum, stone, tight
from .core import (P0Set, bit_list, dump_structure, load_structure, maximal_centred_sets,
                   order_predicates, read_input)
from .errors import CapExceeded, InputError, OrderbenchError
from .report import Check, Report, report, reports_to_json


def _load(path: str, max_size: int | None = None) -> P0Set:
    B = load_structure(read_input(path))
    if max_size is not None and B.size > max_size:
        raise CapExceeded(f"structure size {B.size} exceeds --max-size {max_size}")
    return B


def _emit(reports: list[Report], fmt: str) -> None:
    if fmt == "json":
        print(reports_to_json(reports))
    else:
        for rep in reports:
            print(rep.render())


def cmd_check(args) -> int:
    B = _load(args.structure, args.max_size)
    reports = [
        order_predicates(B),
        axioms.check_basic_lattice(B),
        axioms.check_basic_semilattice(B),
    ]
    _emit(reports, args.format)
    return 0


def cmd_stone(args) -> int:
    B = _load(args.structure, args.max_size)
    X = stone.stone_space(B)
    ults = stone.enumerate_ultrafilters(B)
    print(f"ultrafilters: {len(ults)}  points: {X.points}", file=sys.stderr)
    reports = []
    code = 0
    if axioms.is_basic_lattice(B):
        rep = stone.verify_duality(B)
        reports.append(rep)
        if not rep.passed:
            code = 1
    else:
        print("not a basic lattice; duality verification skipped", file=sys.stderr)
    if args.format == "json":
        doc = {"points": X.points, "ultrafilters": [bit_list(u) for u in ults]}
        doc.update({r.name: r.to_json() for r in reports})
        print(json.dumps(doc, indent=2))
    else:
        _emit(reports, args.format)
    return code


def cmd_spectrum(args) -> int:
    B = _load(args.structure, args.max_size)
    chars = spectrum.tight_characters(B)
    print(f"tight characters: {len(chars)}", file=sys.stderr)
    chain = spectrum.separativity_chain(B)
    pseudo = spectrum.verify_pseudochar(B)
    _emit([chain, pseudo], args.format)
    return 0 if chain.passed and pseudo.passed else 1


def cmd_envelope(args) -> int:
    B = _load(args.structure, args.max_size)
    beta = None
    if args.map:  # read and checked before any work on B
        beta = tight.load_struct_map(read_input(args.map), Path(args.map).parent)
        if beta.source != B:
            raise InputError(f"the map's source is not {args.structure}")
    S = tight.enveloping_algebra(B)
    print(
        f"enveloping algebra: {1 << len(S.signatures)} elements, {len(S.signatures)} atoms",
        file=sys.stderr,
    )
    reports = [tight.verify_fgrho(B)]
    code = 0 if reports[0].passed else 1
    if beta is not None:
        props = tight.map_properties(beta)
        reports.append(props)
        if props.holds("tightish") and props.holds("representation"):
            # factor_tight raises (exit 1) unless its factor restricts to beta
            tight.factor_tight(beta)
            reports.append(report("factoring", [Check("factors_through_embedding", True)]))
        else:
            print("map is not a tightish representation; factoring skipped", file=sys.stderr)
    _emit(reports, args.format)
    return code


def cmd_saturate(args) -> int:
    B = _load(args.structure, args.max_size)
    meets = order_predicates(B).holds("meet_semilattice")
    frame = saturation.verify_frame(B) if meets else None
    if frame is not None and frame["character_representation"].holds:
        # the saturated sets are the sets of characters (see verify_frame)
        count = 1 << len(maximal_centred_sets(B))
    else:
        try:
            count = len(saturation.saturated_family(B))
        except CapExceeded:
            count = f"not counted (more than {saturation.FAMILY_BOUND} unions of generator rows)"
    print(f"saturated sets: {count}", file=sys.stderr)
    laws = saturation.verify_subset_laws(B)
    reports = [laws]
    code = 0 if laws.passed else 1
    if frame is not None:
        reports.append(frame)
        if axioms.is_basic_semilattice(B) and not frame.passed:
            code = 1
    _emit(reports, args.format)
    return code


def cmd_verify(args) -> int:
    from . import suites

    names = suites.CRITERIA if args.suite == "all" else [args.suite]
    ok = True
    for result in suites.run_suites(names, args.seed):
        ok &= result.passed
        if args.format == "json":
            print(json.dumps(result.to_json()), flush=True)
        else:
            print(result.render())
    return 0 if ok else 1


def cmd_gen(args) -> int:
    from . import lab

    if args.family == "random":
        B = lab.random_p0set(args.n, args.seed, args.reflexive, args.density)
    else:
        B = lab.make_family(args.family, args.n)
    text = dump_structure(B)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise InputError(str(exc)) from exc
    else:
        print(text)
    return 0


def cmd_search(args) -> int:
    from . import lab

    found = lab.search_counterexample(args.suite, args.bound, args.budget, args.seed)
    if args.format == "json":
        doc = None if found is None else json.loads(dump_structure(found))
        print(json.dumps({"counterexample": doc}))
    elif found is None:
        print("no counterexample found")
    else:
        print("counterexample:")
        print(dump_structure(found))
    return 0 if found is None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderbench",
        description="verification workbench for finite order structures",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help, fn):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    def report_verb(name, help, fn):
        p = verb(name, help, fn)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    def structure_verb(name, help, fn):
        p = report_verb(name, help, fn)
        p.add_argument("structure")
        p.add_argument("--max-size", type=int, default=None, help="override size caps downward")
        return p

    structure_verb("check", "classify a structure file", cmd_check)
    structure_verb("stone", "Stone space and duality verification", cmd_stone)
    structure_verb("spectrum", "tight characters and separativity chain", cmd_spectrum)
    p = structure_verb("envelope", "enveloping algebra and universality", cmd_envelope)
    p.add_argument("--map", help="map file to factor through the embedding")
    structure_verb("saturate", "saturated families and frame laws", cmd_saturate)

    p = report_verb("verify", "run a named acceptance suite", cmd_verify)
    p.add_argument("suite", help="a suite name, or all")
    p.add_argument("--seed", type=int, default=0)

    p = verb("gen", "emit a structure file", cmd_gen)
    p.add_argument("family", help="a named family, or random")
    p.add_argument("n", type=int)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--reflexive", action="store_true")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)

    p = report_verb("search", "search for a counterexample", cmd_search)
    p.add_argument("suite")
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrderbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a reader that closes early (`orderbench verify all | head -1`) ends
    # the process by SIGPIPE, as it ends any filter, instead of raising
    # BrokenPipeError; the CLI opens no sockets that this would also end
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
