"""Spans, per-layer summaries, cache counters and percentiles.

A span is recorded around each call the benchmark (or, for the CLI
workload, the front end) makes into a library layer.  Spans are kept in
memory and written out once, when the measured work is over.  A layer is
the module a function lives in: ``stone.enumerate_ultrafilters`` belongs
to the ``stone`` layer.
"""

from __future__ import annotations

import json
import math
import sys
import time

LAYERS = ("core", "axioms", "stone", "morphisms", "saturation", "tight", "spectrum")
CACHE_LAYERS = ("core", "axioms", "stone", "saturation", "tight", "spectrum")

# Span names behind the named per-layer metrics.  Each metric is the self
# time of the spans it lists.
NAMED_BUSY = {
    "saturation.subset_laws_busy_s": ("saturation.verify_subset_laws",),
    "tight.fgrho_busy_s": ("tight.verify_fgrho",),
    "tight.map_busy_s": ("tight.map_properties",),
    "stone.ultrafilter_busy_s": ("stone.enumerate_ultrafilters", "stone.stone_space"),
    "axioms.semilattice_busy_s": ("axioms.check_basic_semilattice", "axioms.is_basic_semilattice"),
    "tight.envelope_busy_s": ("tight.enveloping_algebra",),
    "spectrum.character_busy_s": (
        "spectrum.tight_characters",
        "spectrum.verify_pseudochar",
        "spectrum.spectrum_vs_stone",
    ),
}


class Tracer:
    """Records (name, start, end, parent, item) spans when enabled.

    With tracing off, `wrap` hands back the function itself, so the
    untraced run times the library and nothing else.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.stack: list[int] = []
        self.item = None

    def wrap(self, name: str, fn):
        if not self.enabled:
            return fn
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.item])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def close_open(self, now: float) -> None:
        """End every open span at `now` (used when a child is killed)."""
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()

    def write(self, path) -> None:
        write_spans(path, self.spans)


def write_spans(path, spans) -> None:
    """One JSON list per line: [name, start, end, parent, input]."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per-layer calls and self time, plus the named busy times.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
    for metric in NAMED_BUSY:
        out[metric] = 0.0
    span_metrics = {}
    for metric, names in NAMED_BUSY.items():
        for name in names:
            span_metrics.setdefault(name, []).append(metric)
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s = end - start - child_time[i]
        layer = layer_of(name)
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += self_s
        for metric in span_metrics.get(name, ()):
            out[metric] += self_s
    return out


def cache_counters() -> dict:
    """Sum cache_info() over every cache-bearing function in the loaded
    orderbench modules, by layer.

    A layer with no such function is left out: its counters are absent,
    not zero, so a replacement cache must expose its own statistics.
    """
    found: dict[str, list[int]] = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("orderbench.") or mod is None:
            continue
        layer = modname.split(".", 1)[1]
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if not callable(info) or getattr(value, "__module__", None) != modname:
                continue
            ci = info()
            acc = found.setdefault(layer, [0, 0, 0])
            acc[0] += ci.hits
            acc[1] += ci.misses
            acc[2] += ci.currsize
    out = {}
    for layer in CACHE_LAYERS:
        if layer in found:
            hits, misses, entries = found[layer]
            out[f"{layer}.cache_hits"] = hits
            out[f"{layer}.cache_misses"] = misses
            out[f"{layer}.cache_entries"] = entries
    return out


def tail_quantile(n: int) -> float:
    """The highest percentile (to 0.1) with at least ten samples beyond it."""
    if n <= 10:
        return 50.0
    return max(50.0, math.floor(1000 * (1 - 10 / n)) / 10)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def item_stats(item_seconds) -> dict:
    """Median and tail of per-input times, in milliseconds, with the
    tail's percentile and the sample count behind it."""
    vals = sorted(item_seconds)
    q = tail_quantile(len(vals))
    return {
        "item_p50_ms": percentile(vals, 50) * 1e3,
        "item_tail_ms": percentile(vals, q) * 1e3,
        "tail_q": q,
        "samples": len(vals),
    }
