"""orderbench benchmark driver.

    python3 perfbench/run.py --workload catalog_sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a source checkout and measures the library under
``src/`` there.  A run makes a fixed number of cold passes of one
workload, each in a fresh child process, one at a time, then prints one
value per metric.  The number of passes follows from ``--seconds`` (by
default ``run_seconds`` of BENCHMARK.json) and each workload's nominal
pass length, never from the speed of the code under test.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  A verdict that disagrees with the reference
fails the run: the exit code is then 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Passes per run.  The count depends on --seconds alone, never on how fast
# the code under test runs: a run reports each input's fastest time over
# its passes, and the minimum of more passes reads lower, so both sides of
# a comparison must take it over the same number.  NOMINAL_PASS_S is the
# length of one untraced pass when the benchmark was defined (2-core x86-64
# sandbox, Python 3.11); for wide_carriers, of a pass after the first,
# which reruns only the calls that got a verdict.  A traced run alternates
# untraced and traced passes, to measure the tracing overhead.
NOMINAL_PASS_S = {"catalog_sweep": 6.0, "map_sweep": 6.0, "wide_carriers": 9.0}
MIN_PASSES = {"catalog_sweep": 3, "map_sweep": 3, "wide_carriers": 2}
MIN_TRACED_PASSES = {"catalog_sweep": 4, "map_sweep": 4, "wide_carriers": 2}
WIDE_SETUPS = 5
TIME_LIMIT_S = 2.5
KILL_GRACE_S = 2.0
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "answered_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark could not run (not a wrong verdict)."""


def layer_unit(name: str) -> str:
    if name.endswith(("calls", "cache_hits", "cache_misses", "cache_entries")):
        return "count"
    if name.endswith("_ratio"):
        return "fraction"
    return "s"


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------------------
# child processes


def run_child(argv) -> dict:
    """Run perfbench/child.py to completion and parse its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:2]} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    library = Path(out.pop("library")).resolve()
    if ROOT / "src" not in library.parents:
        raise BenchError(f"child imported orderbench from {library}, not from {ROOT / 'src'}")
    return out


def run_limited(argv, env, out_path: Path, err_path: Path, limit: float) -> dict:
    """Start one process and wait for it up to `limit` seconds; past that,
    send SIGTERM, then SIGKILL after a grace period.  Waiting uses a pidfd,
    so the measured time is not rounded up by polling."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], limit)
        t1 = time.perf_counter()
        timed_out = not ready
        if timed_out:
            os.kill(proc.pid, signal.SIGTERM)
            if not select.select([fd], [], [], KILL_GRACE_S)[0]:
                os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "seconds": t1 - t0,
        "timed_out": timed_out,
        "exit": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# in-process workloads


def pass_count(workload: str, args) -> int:
    minimum = (MIN_TRACED_PASSES if args.trace else MIN_PASSES)[workload]
    nominal = NOMINAL_PASS_S[workload]
    if args.trace and workload == "wide_carriers":
        nominal *= 2  # every traced-run pass waits out the hangs again
    return max(minimum, int(args.seconds // nominal))


def inprocess_passes(workload, args) -> list[dict]:
    """Every pass runs the same inputs, and the library is deterministic, so
    the first pass's verdicts are checked against the reference and the
    rest are only timed."""
    passes = []
    for k in range(pass_count(workload, args)):
        traced = bool(args.trace) and k % 2 == 1
        spans_path = OUT / f"spans-{workload}-pass{k}.jsonl"
        res = run_child(
            ["pass", workload, str(args.seed), str(int(traced)), str(int(k == 0)),
             str(int(args.tiny)), str(int(args.plant_wrong)), str(spans_path)]
        )
        res["traced"] = traced
        passes.append(res)
    return passes


# ---------------------------------------------------------------------------
# wide_carriers


def classify(call: dict, stderr: str) -> str:
    if call["timed_out"]:
        return "timeout"
    if call["exit"] == 0:
        return "verdict"
    if call["exit"] == 2 and ("capped" in stderr or "beyond" in stderr):
        return "refused"
    if call["exit"] == 1 and "Traceback" not in stderr and not _error_line(stderr):
        return "wrong"  # a property the theorems guarantee was reported failing
    return "error"


def _error_line(stderr: str) -> bool:
    """The CLI reports a library error (a refusal, a failed precondition) as
    an `error: ...` line; that is a failed input, not a wrong verdict."""
    return any(line.startswith("error:") for line in stderr.splitlines())


def wide_pass(inputs, verbs, files, traced, args, run_dir, k, known) -> dict:
    """One CLI call per input and verb.  A call found in `known` is not run
    again: its record from an earlier pass stands for it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONSTARTUP", None)
    calls = []
    t0 = time.perf_counter()
    for inp in inputs:
        for verb in verbs:
            if (inp.ident, verb) in known:
                calls.append(known[inp.ident, verb])
                continue
            stem = run_dir / f"pass{k}-{inp.ident}-{verb}"
            trace_path = stem.with_suffix(".trace.json")
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_path),
                    repr(time.perf_counter()), str(int(traced)), verb, files[inp.ident], "--format", "json"]
            call = run_limited(
                argv, env, stem.with_suffix(".out"), stem.with_suffix(".err"), TIME_LIMIT_S
            )
            stdout = stem.with_suffix(".out").read_text()
            stderr = stem.with_suffix(".err").read_text()
            call.update(inp=inp, verb=verb, stdout=stdout, stderr=stderr)
            call["outcome"] = classify(call, stderr)
            doc = json.loads(trace_path.read_text()) if trace_path.exists() else {}
            call["run_s"] = doc.get("run_s")
            if traced and doc:
                call["trace"] = doc
            calls.append(call)
    wall_s = time.perf_counter() - t0
    res = {
        "wall_s": wall_s,
        "attempted": len(calls),
        "failed": sum(c["outcome"] in ("timeout", "refused", "error") for c in calls),
        "peak_rss_mb": max(c["rss_mb"] for c in calls),
        "items": [(c["seconds"], c["outcome"] == "verdict") for c in calls],
        "run_s": [c["run_s"] for c in calls],
        "calls": calls,
        "traced": traced,
    }
    if traced:
        res["layers"] = wide_layers(calls)
    return res


def wide_layers(calls) -> dict:
    layers: dict = {}
    caches: dict = {}
    startups = []
    all_spans = []
    for i, c in enumerate(calls):
        doc = c.get("trace")
        if doc is None:
            continue
        for key, value in tr.summarize(doc["spans"]).items():
            layers[key] = layers.get(key, 0) + value
        for key, value in doc["caches"].items():
            caches[key] = caches.get(key, 0) + value
        startups.append(doc["startup_s"])
        base = len(all_spans)
        for name, s, e, parent, _ in doc["spans"]:
            all_spans.append([name, s, e, None if parent is None else parent + base, i])
    layers.update(caches)
    layers["cli.startup_s"] = median(startups) if startups else 0.0
    layers["tight.tightish_ratio"] = 0.0
    tr.write_spans(OUT / "spans-wide_carriers.jsonl", all_spans)
    return layers


def wide_run(args, run_dir):
    inputs = wl.wide_inputs(args.seed, args.tiny)
    verbs = wl.WIDE_TINY_VERBS if args.tiny else wl.WIDE_VERBS
    input_dir = run_dir / "inputs"
    input_dir.mkdir()
    setups = [
        run_child(["setup", str(args.seed), str(int(args.tiny)), str(input_dir)])
        for _ in range(WIDE_SETUPS)
    ]
    files = setups[-1]["files"]
    passes = []
    known = {}
    for k in range(pass_count("wide_carriers", args)):
        traced = bool(args.trace) and k % 2 == 1
        passes.append(wide_pass(inputs, verbs, files, traced, args, run_dir, k, known))
        if k == 0 and not args.trace:
            # A call that got no verdict gets none in any pass: a hang (8 s
            # or more) runs into the time limit again, and a cap refuses the
            # same input again.  Later passes count it with this record
            # instead of waiting out the limit once more, which leaves time
            # for a fourth pass.  With `with_fixed_cost`, a refusal's time
            # is the fixed cost plus a run of a few milliseconds, so one
            # sample of it is enough.  A traced run runs every call, for
            # the spans and for comparable pass times.
            known = {(c["inp"].ident, c["verb"]): c for c in passes[0]["calls"] if c["outcome"] != "verdict"}
    for p in passes:
        p["setup_s"] = median(s["setup_s"] for s in setups)
        if p["traced"]:
            p["layers"]["lab.gen_s"] = median(s["lab_gen_s"] for s in setups)
    passes[0]["mismatches"] = wide_mismatches(passes, files, args.plant_wrong)
    return passes


def wide_mismatches(passes, files, plant) -> list[str]:
    """Check every answered call; a call reporting a failed theorem check
    is a mismatch too."""
    import reference as ref
    from orderbench.core import load_structure

    structures = {ident: load_structure(Path(p).read_text()) for ident, p in files.items()}
    bad = []
    for p in passes:
        for c in p["calls"]:
            inp, verb = c["inp"], c["verb"]
            if c["outcome"] == "wrong":
                bad.append(f"{verb} {inp.ident}: exit 1, a verified property failed")
            elif c["outcome"] == "verdict":
                bad += ref.check_wide_verdict(
                    inp, verb, structures[inp.ident], c["stdout"], c["stderr"], plant
                )
    return bad


# ---------------------------------------------------------------------------
# results


def fastest_items(plain) -> list[tuple[float, bool]]:
    """Each input's fastest time over the untraced passes, and whether it
    got a verdict in any of them (then only those passes' times count).

    Every pass repeats the same inputs in a fresh process, so one input's
    times differ only by how much the machine disturbed it.  On the shared
    2-core machines this was tuned on, the speed of the same code shifts by
    up to 1.9x within seconds, and in states that last from seconds to a
    whole run.  The fastest time per input drops that disturbance; a cost
    that recurs in every pass, such as a collector pause at the same point,
    stays in.
    """
    out = []
    for times in zip(*(p["items"] for p in plain)):
        answered = [s for s, ok in times if ok]
        out.append((min(answered or [s for s, _ in times]), bool(answered)))
    return out


def with_fixed_cost(plain) -> list[dict]:
    """wide_carriers: the passes with each CLI call's time taken as the
    run's fixed per-process cost plus the call's own run time.

    A call's process time is interpreter start-up, the CLI's imports and
    exit, which are the same work for every call, plus the verb's run,
    timed inside the process (`cli_child.py`).  The fixed part is about
    130 ms of a median call's 140 ms, and a process of that length reads
    up to 1.5x slower from one pass to the next on a shared machine, so
    the fastest of a call's own few passes still follows the machine.
    The fixed cost is instead the smallest seen over every call of the
    run (about 150), and the run time is the call's own.  A call killed at
    the time limit keeps its process time.
    """
    fixed = min(s - r for p in plain for (s, _), r in zip(p["items"], p["run_s"]) if r is not None)
    return [
        {**p, "items": [(s if r is None else fixed + r, ok) for (s, ok), r in zip(p["items"], p["run_s"])]}
        for p in plain
    ]


def aggregate(passes, trace) -> tuple[dict, dict]:
    """One value per run: end-to-end metrics from untraced passes,
    per-layer metrics (medians) from traced ones.

    `wall_s` is the sum of the inputs' fastest times (`fastest_items`, for
    wide_carriers after `with_fixed_cost`), and the item percentiles are
    taken over the answered ones.  Set-up time is the median, and peak
    memory the largest, over the passes.
    """
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    samples = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        keys = sorted({k for p in traced for k in p["layers"]})
        metrics = {
            k: {"value": median(p["layers"][k] for p in traced if k in p["layers"]), "unit": layer_unit(k)}
            for k in keys
        }
        overhead = median(p["wall_s"] for p in traced) - median(p["wall_s"] for p in plain)
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        if "run_s" in plain[0]:
            plain = with_fixed_cost(plain)
        items = fastest_items(plain)
        stats = tr.item_stats([s for s, answered in items if answered])
        values = {
            "setup_s": median(p["setup_s"] for p in plain),
            "wall_s": sum(s for s, _ in items),
            "item_p50_ms": stats["item_p50_ms"],
            "item_tail_ms": stats["item_tail_ms"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
            "answered_frac": 1 - sum(p["failed"] for p in plain) / sum(p["attempted"] for p in plain),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        samples["item_tail_ms"] = [stats["tail_q"], stats["samples"]]
        samples["item_p50_ms"] = [50.0, stats["samples"]]
    info = {
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "samples": samples,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def _lines(directory: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(directory.rglob("*.py")))


def metadata(args, workload) -> dict:
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "time_limit_s": TIME_LIMIT_S if workload == "wide_carriers" else None,
        "src_lines": _lines(ROOT / "src"),
        "tests_lines": _lines(ROOT / "tests"),
        "tiny": args.tiny,
    }


def run_workload(workload, args) -> tuple[dict, dict, list[str]]:
    run_dir = OUT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if workload == "wide_carriers":
            passes = wide_run(args, run_dir)
        else:
            passes = inprocess_passes(workload, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    mismatches = [m for p in passes for m in p.get("mismatches", [])]
    result, info = aggregate(passes, args.trace)
    meta = metadata(args, workload)
    meta.update(info)
    return result, meta, mismatches


def preflight() -> None:
    for need in ("src/orderbench/__init__.py", "tests/oracles.py"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found under {ROOT}; run from a source checkout")
    OUT.mkdir(exist_ok=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="sets the pass count; run_seconds of BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-checks")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one reference verdict, for the self-checks")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def main(argv) -> int:
    args = parse_args(argv)
    try:
        preflight()
        names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result, meta, mismatches = run_workload(name, args)
            for m in mismatches[:20]:
                print(f"MISMATCH {name}: {m}", file=sys.stderr)
            result = {"correct": not mismatches, **result}
            if mismatches:
                result["metrics"] = {}
            print(json.dumps({"meta": meta}))
            if len(names) > 1:
                print(json.dumps({"workload": name, **result}))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}" if len(names) > 1 else key] = value
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
