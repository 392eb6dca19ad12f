"""Self times and per-layer metrics from the spans the traced jobs write."""
from __future__ import annotations

import statistics
from collections import defaultdict

from shim import TARGETS

# per-layer metric -> unit; the order is the order they are printed in
PER_LAYER_UNITS = {
    "groups.closure.self_s": "s",
    "groups.closure.elements": "count",
    "groups.unitarize.self_s": "s",
    "groups.build.calls": "count",
    "orbits.orbit.self_s": "s",
    "orbits.orbit.images": "count",
    "orbits.orbit.lines": "count",
    "orbits.orbit.lines_per_image": "ratio",
    "orbits.union.self_s": "s",
    "designs.potential.self_s": "s",
    "designs.potential.calls": "count",
    "designs.potential.terms": "count",
    "designs.potential.terms_per_s": "1/s",
    "designs.strength.self_s": "s",
    "unions.quadratic.self_s": "s",
    "unions.solve.self_s": "s",
    "unions.emit.self_s": "s",
    "unions.verify.self_s": "s",
    "numerics.snap.calls": "count",
    "numerics.snap.snapped_ratio": "ratio",
    "pairscan.scan.self_s": "s",
    "pairscan.scan.draws": "count",
    "pairscan.scan.redraw_ratio": "ratio",
    "pairscan.scan.terms": "count",
    "process.import_s": "s",
    "cli.main.self_s": "s",
    "process.other_s": "s",
    "trace.overhead_s": "s",
}


def covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] that the union of intervals covers."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - covered(children[i], s["start"], s["end"])
            for i, s in enumerate(spans)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list, walls: list, overhead_s: float) -> tuple[dict, list]:
    """Per-job means of self times and counts over the traced jobs.

    traces are the shim's outputs for jobs that passed their check, walls
    the same jobs' wall times. A layer no job reached reads 0 and is named
    in the returned list of absent spans.
    """
    n = len(traces)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    absent = set()
    import_s = other_s = 0.0
    for trace, wall in zip(traces, walls):
        absent.update(trace["absent"])
        own = self_times(trace["spans"])
        main_s = 0.0
        for span, own_s in zip(trace["spans"], own):
            name = span["name"]
            self_s[name] += own_s
            calls[name] += 1
            if name == "cli.main":
                main_s += span["end"] - span["start"]
            for key, value in span.get("counts", {}).items():
                counts[f"{name}.{key}"] += value
        import_s += trace["import_s"]
        other_s += wall - trace["import_s"] - main_s
    absent.update(name for name in TARGETS if calls[name] == 0)

    m = {f"{name}.self_s": _ratio(self_s[name], n) for name in TARGETS}
    m.update({
        "groups.closure.elements": _ratio(counts["groups.closure.elements"], n),
        "groups.build.calls": _ratio(calls["groups.build"], n),
        "orbits.orbit.images": _ratio(counts["orbits.orbit.images"], n),
        "orbits.orbit.lines": _ratio(counts["orbits.orbit.lines"], n),
        "orbits.orbit.lines_per_image": _ratio(counts["orbits.orbit.lines"],
                                               counts["orbits.orbit.images"]),
        "designs.potential.calls": _ratio(calls["designs.potential"], n),
        "designs.potential.terms": _ratio(counts["designs.potential.terms"], n),
        "designs.potential.terms_per_s": _ratio(counts["designs.potential.terms"],
                                                self_s["designs.potential"]),
        "numerics.snap.calls": _ratio(calls["numerics.snap"], n),
        "numerics.snap.snapped_ratio": _ratio(counts["numerics.snap.snapped"],
                                              calls["numerics.snap"]),
        "pairscan.scan.draws": _ratio(counts["pairscan.scan.draws"], n),
        "pairscan.scan.redraw_ratio": _ratio(counts["pairscan.scan.redraws"],
                                             counts["pairscan.scan.draws"]),
        "pairscan.scan.terms": _ratio(counts["pairscan.scan.terms"], n),
        "process.import_s": _ratio(import_s, n),
        "process.other_s": _ratio(other_s, n),
        "trace.overhead_s": overhead_s,
    })
    return {k: m[k] for k in PER_LAYER_UNITS}, sorted(absent)


def overhead(traced_walls: list, untraced_walls: list) -> float:
    """Traced minus untraced median wall time of the same jobs."""
    if not traced_walls or not untraced_walls:
        return 0.0
    return statistics.median(traced_walls) - statistics.median(untraced_walls)
