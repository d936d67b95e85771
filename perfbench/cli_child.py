"""Run one orderbench CLI call and time it from inside the process.

    python3 perfbench/cli_child.py <trace-file> <spawn-time> <trace> <verb> <args...>

Used by the wide_carriers runs in place of ``python3 -m orderbench.cli``:
it imports the CLI module and calls its entry point as ``-m`` would, and
writes to <trace-file> the start-up time (spawn to CLI imported) and the
run time (the entry point's call), next to the exit code.  With <trace>
1, the layer modules and core functions that the CLI module refers to
are swapped, in the CLI module's namespace only, for wrappers that
record a span per call; calls inside the library are not traced.  On
SIGTERM (the time limit) the open spans are closed at that instant and
written out before the process exits.
"""

import json
import os
import signal
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing as tr  # noqa: E402


class LayerProxy:
    """Stands in for a library module: functions come back wrapped."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._layer = module.__name__.split(".", 1)[1]

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type):
            value = self._tracer.wrap(f"{self._layer}.{attr}", value)
            setattr(self, attr, value)
        return value


def main(argv) -> int:
    trace_path, spawn_t, traced, cli_argv = argv[0], float(argv[1]), argv[2] == "1", argv[3:]
    import orderbench.cli as cli

    startup_s = time.perf_counter() - spawn_t
    tracer = tr.Tracer(traced)
    if traced:
        for name, value in list(vars(cli).items()):
            if isinstance(value, types.ModuleType) and value.__name__.startswith("orderbench."):
                setattr(cli, name, LayerProxy(value, tracer))
            elif (
                callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", "") == "orderbench.core"
            ):
                setattr(cli, name, tracer.wrap(f"core.{name}", value))

    def finish(code, run_s):
        doc = {"startup_s": startup_s, "run_s": run_s, "exit": code}
        if traced:
            tracer.close_open(time.perf_counter())
            doc.update(caches=tr.cache_counters(), spans=tracer.spans)
        Path(trace_path).write_text(json.dumps(doc))

    def on_term(signum, frame):
        finish(None, None)
        sys.stdout.flush()
        os._exit(128 + signum)

    if traced:
        signal.signal(signal.SIGTERM, on_term)
    t0 = time.perf_counter()
    code = tracer.wrap(f"cli.{cli_argv[0]}", cli.run)(cli_argv)
    run_s = time.perf_counter() - t0
    finish(code, run_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
