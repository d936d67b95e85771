"""One measured pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/child.py pass <workload> <seed> <trace> <check> <tiny> <plant> <spans-file>
    python3 perfbench/child.py setup <seed> <tiny> <input-dir>

A pass child imports the library, makes its inputs (that is the set-up
time), runs the closed loop, reads the cache counters, and only then,
when asked to, checks every verdict against the reference.  It prints one
JSON object.
Every pass runs in its own process because many library functions keep
process-wide caches, and a warm cache would turn a repeat into a lookup.
"""

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402

LAB_CALLS = ("lab.enumerate_structures", "lab.random_p0set", "lab.make_family")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(workload, seed, trace, check, tiny, plant, spans_path) -> dict:
    tracer = tr.Tracer(trace)
    call_lab = wl.bind(LAB_CALLS, tracer)
    if workload == "catalog_sweep":
        inputs = wl.catalog_inputs(seed, tiny, call_lab)
        setup_s = time.perf_counter() - T_START
        # The inputs belong to the benchmark: keep the garbage collector
        # from rescanning them on every full collection during the loop.
        gc.freeze()
        call = wl.bind(wl.CATALOG_CALLS, tracer)
        t0 = time.perf_counter()
        verdicts, seconds = wl.closed_loop(inputs, wl.catalog_verdict, call, tracer)
        wall_s = time.perf_counter() - t0
    else:
        groups, point_maps = wl.map_inputs(seed, tiny, call_lab)
        setup_s = time.perf_counter() - T_START
        gc.freeze()
        call = wl.bind(wl.MAP_CALLS, tracer)
        t0 = time.perf_counter()
        group_verdicts, map_seconds = wl.closed_loop(groups, wl.map_group_verdict, call, tracer)
        pm_verdicts, pm_seconds = wl.closed_loop(
            point_maps, wl.point_map_verdict, call, tracer, offset=len(groups)
        )
        wall_s = time.perf_counter() - t0
        seconds = map_seconds + pm_seconds
        maps = [beta for group in groups for beta in group]
        map_verdicts = [v for vs in group_verdicts for v in vs]
    caches = tr.cache_counters()
    result = {"setup_s": setup_s, "wall_s": wall_s, "attempted": len(seconds), "failed": 0}
    result["items"] = [(s, True) for s in seconds]
    if trace:
        layers = tr.summarize(tracer.spans)
        layers.update(caches)
        layers["lab.gen_s"] = sum(e - s for name, s, e, _, _ in tracer.spans if name.startswith("lab."))
        layers["cli.startup_s"] = 0.0
        if workload == "map_sweep":
            tightish = sum(v.tightish for v in map_verdicts)
            layers["tight.tightish_ratio"] = tightish / len(map_verdicts)
        else:
            layers["tight.tightish_ratio"] = 0.0
        result["layers"] = layers
        tracer.write(spans_path)
    result["peak_rss_mb"] = peak_rss_mb()
    if not check:
        return result

    import reference as ref

    if workload == "catalog_sweep":
        result["mismatches"] = ref.check_catalog(inputs, verdicts, plant)
    else:
        result["mismatches"] = ref.check_maps(maps, map_verdicts, plant) + ref.check_point_maps(
            point_maps, pm_verdicts
        )
    return result


def run_setup(seed, tiny, input_dir) -> dict:
    """wide_carriers set-up: import the library and write the input files."""
    tracer = tr.Tracer(True)
    call_lab = wl.bind(LAB_CALLS, tracer)
    from orderbench.core import dump_structure

    files = {}
    for inp in wl.wide_inputs(seed, tiny):
        path = Path(input_dir) / f"{inp.ident}.json"
        path.write_text(dump_structure(wl.wide_structure(inp, call_lab)) + "\n")
        files[inp.ident] = str(path)
    return {
        "setup_s": time.perf_counter() - T_START,
        "lab_gen_s": sum(e - s for _, s, e, _, _ in tracer.spans),
        "files": files,
    }


def main(argv) -> int:
    if argv[0] == "pass":
        workload, seed, trace, check, tiny, plant, spans_path = argv[1:]
        out = run_pass(
            workload, int(seed), trace == "1", check == "1", tiny == "1", plant == "1", spans_path
        )
    elif argv[0] == "setup":
        seed, tiny, input_dir = argv[1:]
        out = run_setup(int(seed), tiny == "1", input_dir)
    else:
        print(f"unknown child mode {argv[0]!r}", file=sys.stderr)
        return 2
    import orderbench

    out["library"] = orderbench.__file__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
