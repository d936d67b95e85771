import json
import signal
import subprocess
import sys
import time

import pytest

from orderbench import cli, lab
from orderbench.core import dump_structure, load_structure


@pytest.fixture()
def files(tmp_path, e0, c2, p2):
    paths = {}
    for name, B in (("e0", e0), ("c2", c2), ("p2", p2)):
        p = tmp_path / f"{name}.json"
        p.write_text(dump_structure(B))
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text('{"size": "three"}')
    paths["bad"] = str(bad)
    return paths


class TestExitCodes:
    def test_check_is_classification(self, files, capsys):
        # a failed classification is not an error
        assert cli.run(["check", files["e0"]]) == 0
        out = capsys.readouterr().out
        assert "basic_semilattice" in out and "PASS" in out
        assert "lattice" in out

    def test_check_malformed(self, files, capsys):
        assert cli.run(["check", files["bad"]]) == 2

    def test_check_missing_file(self, tmp_path):
        assert cli.run(["check", str(tmp_path / "nope.json")]) == 2

    def test_check_directory(self, tmp_path):
        assert cli.run(["check", str(tmp_path)]) == 2

    def test_check_binary_file(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_bytes(bytes(range(128, 256)))
        assert cli.run(["check", str(junk)]) == 2

    def test_gen_out_unwritable(self, tmp_path, capsys):
        # the --out argument names no writable file: refused, not a traceback
        assert cli.run(["gen", "chain", "2", "--out", str(tmp_path / "no" / "B.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_map_with_non_path_source(self, files, tmp_path):
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps({"from": 5, "to": "p2.json", "map": [0, 1, 2]}))
        assert cli.run(["envelope", files["e0"], "--map", str(mp)]) == 2

    def test_spectrum_chain_expected_failure_is_ok(self, files, capsys):
        assert cli.run(["spectrum", files["c2"]]) == 0
        out = capsys.readouterr()
        assert "1" in out.err  # one character
        assert "separative" in out.out

    def test_stone_verifies_duality(self, files, capsys):
        assert cli.run(["stone", files["p2"]]) == 0
        assert "duality" in capsys.readouterr().out

    def test_envelope(self, files, capsys):
        assert cli.run(["envelope", files["e0"]]) == 0
        assert "image_cover_equivalence" in capsys.readouterr().out

    def test_envelope_with_map(self, files, tmp_path, capsys):
        doc = {"from": "e0.json", "to": "p2.json", "map": [0, 1, 2]}
        mp = tmp_path / "map.json"
        mp.write_text(json.dumps(doc))
        assert cli.run(["envelope", files["e0"], "--map", str(mp)]) == 0
        assert "factoring" in capsys.readouterr().out

    def test_saturate(self, files, capsys):
        assert cli.run(["saturate", files["e0"]]) == 0
        out = capsys.readouterr().out
        assert "subset_laws" in out and "frame" in out

    def test_unknown_verb(self):
        assert cli.run(["frobnicate"]) == 2

    def test_max_size_flag(self, files):
        assert cli.run(["check", files["p2"], "--max-size", "3"]) == 2
        assert cli.run(["check", files["p2"], "--max-size", "4"]) == 0

    def test_flags_only_where_read(self, files):
        # --seed is read only by gen, verify and search, --max-size only by
        # the verbs that load a structure file
        assert cli.run(["check", files["e0"], "--seed", "1"]) == 2
        assert cli.run(["verify", "all", "--max-size", "3"]) == 2

    def test_search_found_is_one(self, capsys):
        assert cli.run(["search", "decomposition_holds", "--bound", "0",
                        "--budget", "1"]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_search_none_is_zero(self, capsys):
        assert cli.run(["search", "chain_respected", "--bound", "3",
                        "--budget", "50"]) == 0


@pytest.fixture()
def deadline():
    """Fail a call that runs past 20 s instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("verb ran past its 20 s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


WIDE = [
    ("antichain", 12, 12), ("antichain", 15, 15), ("chain", 13, 1),
    ("diamond", 8, 8), ("powerset", 3, 3), ("powerset", 4, 4),
    ("powerset", 5, 5),
]


class TestWideCarriers:
    """The verbs answer in bounded time up to the carrier cap.  k is the
    closed-form count of ultrafilters, tight characters and atoms."""

    @staticmethod
    def write(tmp_path, family, n):
        path = tmp_path / "B.json"
        path.write_text(dump_structure(lab.make_family(family, n)))
        return str(path)

    @pytest.mark.parametrize("family,n,k", WIDE)
    def test_answers(self, family, n, k, tmp_path, capsys, deadline):
        path = self.write(tmp_path, family, n)
        assert cli.run(["spectrum", path]) == 0
        assert f"tight characters: {k}" in capsys.readouterr().err
        assert cli.run(["envelope", path]) == 0
        err = capsys.readouterr().err
        assert f"enveloping algebra: {2**k} elements, {k} atoms" in err

    @pytest.mark.parametrize("family,n,k", WIDE + [("powerset", 6, 6), ("antichain", 63, 63)])
    def test_check_and_stone(self, family, n, k, tmp_path, capsys, deadline):
        # powersets are basic lattices, and every family but the chain is a
        # basic semilattice
        path = self.write(tmp_path, family, n)
        assert cli.run(["check", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        semilattice = all(c["holds"] for c in doc["basic_semilattice"])
        assert semilattice == (family != "chain")
        assert cli.run(["stone", path, "--format", "json"]) == 0
        out = capsys.readouterr()
        assert f"ultrafilters: {k}  points: {k}" in out.err
        doc = json.loads(out.out)
        assert len(doc["ultrafilters"]) == doc["points"] == k
        assert ("duality" in doc) == (family == "powerset")

    @pytest.mark.parametrize("family,n", [
        ("antichain", 63), ("diamond", 62), ("powerset", 6),
    ])
    def test_at_the_cap(self, family, n, tmp_path, capsys, deadline):
        path = self.write(tmp_path, family, n)
        for verb in ("spectrum", "envelope", "stone"):
            assert cli.run([verb, path]) == 0
        assert f"tight characters: {n}" in capsys.readouterr().err


    @pytest.mark.parametrize("family,n", [("powerset", 3), ("diamond", 8), ("random", 10)])
    def test_saturate(self, family, n, tmp_path, capsys, deadline):
        B = lab.random_p0set(n, 4) if family == "random" else lab.make_family(family, n)
        path = tmp_path / "B.json"
        path.write_text(dump_structure(B))
        assert cli.run(["saturate", str(path)]) == 0
        assert "saturated sets:" in capsys.readouterr().err

    @pytest.mark.parametrize("family,n,count", [
        ("antichain", 12, 4096), ("powerset", 6, 64), ("chain", 13, 2),
    ])
    def test_saturate_answers_past_carrier_ten(self, family, n, count, tmp_path,
                                                capsys, deadline):
        # antichain n and powerset n have 2**n saturated sets, a chain 2
        path = self.write(tmp_path, family, n)
        assert cli.run(["saturate", path]) == 0
        assert f"saturated sets: {count}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("family,n", [
        ("antichain", 15), ("diamond", 62), ("antichain", 63),
    ])
    def test_saturate_refused_at_once(self, family, n, tmp_path, capsys, deadline):
        path = self.write(tmp_path, family, n)
        start = time.perf_counter()
        assert cli.run(["saturate", path]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "saturated families capped at 4096 unions of generator rows" in err

    def test_capped_checks_print_as_skipped(self, tmp_path, capsys, deadline):
        # past FRAME_CAP and FGRHO_CAP (8 elements) each report keeps the
        # laws it has at 8 elements, every one with holds null, and stderr
        # says why; the exit code is that of a report with no failure
        def write(n):
            path = tmp_path / f"chain{n}.json"
            path.write_text(dump_structure(lab.make_family("chain", n)))
            return str(path)

        at_cap, past = write(7), write(9)
        for verb in ("saturate", "envelope"):
            assert cli.run([verb, at_cap, "--format", "json"]) == 0
            checked = json.loads(capsys.readouterr().out)
            assert cli.run([verb, past, "--format", "json"]) == 0
            out = capsys.readouterr()
            doc = json.loads(out.out)
            assert len(doc) == (2 if verb == "saturate" else 1)
            assert {name: [c["axiom"] for c in rep] for name, rep in doc.items()} == {
                name: [c["axiom"] for c in rep] for name, rep in checked.items()}
            assert all(c["holds"] is None and c["witness"] is None
                       for rep in doc.values() for c in rep)
            for name in doc:
                assert f"carrier 10 exceeds 8; {name} skipped\n" in out.err
            assert cli.run([verb, past]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line for line in lines if line.startswith("[")] == [f"[{n}]" for n in doc]
            laws = [line.split() for line in lines if not line.startswith("[")]
            assert laws == [[c["axiom"], "n/a"] for rep in doc.values() for c in rep]


class TestGen:
    def test_gen_to_stdout(self, capsys):
        assert cli.run(["gen", "antichain", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["size"] == 3 and doc["zero"] == 0

    def test_gen_random_deterministic(self, capsys):
        assert cli.run(["gen", "random", "4", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert cli.run(["gen", "random", "4", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_family_rejected(self, capsys):
        assert cli.run(["gen", "definitely_not_a_family", "3"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_gen_reloads(self, tmp_path, capsys):
        out = tmp_path / "d3.json"
        assert cli.run(["gen", "diamond", "3", "--out", str(out)]) == 0
        assert cli.run(["check", str(out)]) == 0


class TestJsonFormat:
    def test_check_json(self, files, capsys):
        assert cli.run(["check", files["e0"], "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"order_predicates", "basic_lattice", "basic_semilattice"}
        for entries in doc.values():
            for e in entries:
                assert set(e) == {"axiom", "holds", "witness"}

    def test_verify_json(self, capsys):
        assert cli.run(["verify", "type_witness", "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert set(doc) == {"name", "passed", "details", "seconds"}
        assert doc["name"] == "type_witness" and doc["passed"] is True
        assert doc["details"] and all(isinstance(d, str) for d in doc["details"])

    def test_search_json(self, capsys):
        assert cli.run(["search", "decomposition_holds", "--bound", "0",
                        "--budget", "1", "--format", "json"]) == 1
        found = json.loads(capsys.readouterr().out)["counterexample"]
        assert load_structure(json.dumps(found)).size == found["size"]
        assert cli.run(["search", "chain_respected", "--bound", "3",
                        "--budget", "50", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"counterexample": None}

    def test_gen_takes_no_format(self):
        # gen always writes JSON, so it refuses the flag
        assert cli.run(["gen", "chain", "2", "--format", "json"]) == 2

    def test_witness_serializes_as_ints(self, files, capsys):
        cli.run(["check", files["c2"], "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        comp = next(
            e for e in doc["basic_lattice"] if e["axiom"] == "complementation"
        )
        assert comp["holds"] is False
        assert all(isinstance(v, int) for v in comp["witness"])


class TestVerifyVerb:
    def test_single_suite(self, capsys):
        assert cli.run(["verify", "type_witness"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        assert cli.run(["verify", "definitely_not_a_suite"]) == 2


def test_structure_verbs_import_only_their_layers():
    # lab, suites and morphisms load on first use, through the package too
    code = (
        "import sys, orderbench.cli\n"
        "print(sorted(m for m in ('orderbench.lab', 'orderbench.suites',"
        " 'orderbench.morphisms') if m in sys.modules))\n"
        "import orderbench\n"
        "print(orderbench.lab.FAMILY_NAMES[0])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "chain"]


def test_reader_closing_early_ends_quietly():
    # `orderbench verify all | head -1`: the reader takes the first suite's
    # line and closes; the next write ends the process by SIGPIPE, with no
    # error line and not as a refused input
    with subprocess.Popen(
        [sys.executable, "-m", "orderbench.cli", "verify", "all", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert json.loads(first)["passed"] is True
    assert "error:" not in err and "Traceback" not in err, err
    assert proc.returncode == -signal.SIGPIPE


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orderbench.cli", "gen", "chain", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 3
