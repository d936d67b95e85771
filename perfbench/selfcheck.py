"""Self-checks of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

1. Every metric named in BENCHMARK.json is emitted with its unit, for each
   workload, untraced (end-to-end) and traced (per-layer).
2. A planted wrong reference verdict fails the run (exit 1, correct false).
3. A CLI child that runs past the time limit is killed and counted as
   failed: the tiny wide_carriers run holds `check powerset 5`, which runs
   for tens of seconds, far past the 2.5 s limit.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog_sweep", "map_sweep", "wide_carriers")


def run(*extra):
    argv = [sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds", "1", "--tiny", *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, time.perf_counter() - t0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, elapsed = run("--workload", workload, "--trace", str(trace))
            expect(code == 0 and result is not None and result["correct"], f"{workload} trace={trace} runs clean")
            metrics = result["metrics"] if result else {}
            for m in spec[group]:
                got = metrics.get(m["name"])
                expect(
                    got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                    f"{workload} trace={trace} emits {m['name']} [{m['unit']}]",
                )
            if workload == "wide_carriers" and trace == 0 and result is not None:
                expect(result["failed"] >= 1, "a CLI child past the time limit is counted in failed")
                frac = metrics.get("answered_frac", {}).get("value")
                expect(frac == 1 - result["failed"] / result["attempted"], "the killed child lowers answered_frac")
                # check powerset 5 runs for about 23 s; killing it at the
                # limit keeps the whole run (2 passes) far below that.
                expect(elapsed < 15, f"the killed child did not run to completion ({elapsed:.1f} s)")

    for workload in WORKLOADS:
        code, result, _ = run("--workload", workload, "--trace", "0", "--plant-wrong")
        expect(code == 1 and result is not None and result["correct"] is False,
               f"{workload}: a planted wrong reference verdict fails the run")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
