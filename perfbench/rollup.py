"""Statistics and span rollup of the repository benchmark.

astra_perfbench writes tab-separated records; this module parses them,
takes nearest-rank percentiles of host-time samples, and rolls host
spans up into per-name count, total time and self time.
"""

import math
import re
from collections import defaultdict
from dataclasses import dataclass, field

# Lane-pinned spans (obs::ScopedSpan's lane overload) are exported at
# tid = LANE_TID_BASE + lane instead of the thread that ran them.
LANE_TID_BASE = 100

# The span that runs every lane-pinned fleet batch span.
FLEET_LOOP = "serve.fleet.loop"

# Fewest samples a window of steady steps is read from on its own.
MIN_WINDOW = 20

# A window whose median is within this factor of the fastest window's
# is in the host's fast state.
FAST_TOL = 1.1

# Span names that carry a per-instance suffix, rolled up by prefix:
# wirer.strategy.<key> and serve.batch.r<replica>.b<length>.
PREFIX_ROLLUPS = (
    (re.compile(r"^wirer\.strategy\..+$"), "wirer.strategy"),
    (re.compile(r"^serve\.batch\.r\d+\.b\d+$"), "serve.batch"),
)


@dataclass
class Span:
    name: str
    tid: int
    start_ns: float
    end_ns: float
    child_ns: float = 0.0
    top_level: bool = True

    @property
    def dur_ns(self):
        return self.end_ns - self.start_ns


@dataclass
class Record:
    """Everything one astra_perfbench process wrote."""
    scalars: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    def failed_checks(self):
        return [c for c in self.checks if not c[1]]


def parse(text):
    """Parse astra_perfbench's tab-separated output into a Record."""
    rec = Record()
    for line in text.splitlines():
        if not line:
            continue
        kind, name, *rest = line.split("\t")
        if kind == "scalar":
            rec.scalars[name] = float(rest[0])
        elif kind == "samples":
            rec.samples[name] = [float(v) for v in rest]
        elif kind == "check":
            rec.checks.append((name, rest[0] == "ok", rest[1] if len(rest) > 1 else ""))
        elif kind == "span":
            rec.spans.append(Span(name, int(rest[0]), float(rest[1]), float(rest[2])))
        elif kind == "counter":
            rec.counters[name] = int(rest[0])
        else:
            raise ValueError(f"unknown record kind {kind!r}")
    return rec


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values):
    """Middle value; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def windows(values, ends, min_count=MIN_WINDOW):
    """Split a sample series into the windows that end at the cumulative
    counts `ends`; windows shorter than `min_count` join the next one,
    and a short tail joins the last window."""
    out, start = [], 0
    for end in sorted(int(e) for e in ends):
        if end - start >= min_count:
            out.append(values[start:end])
            start = end
    if start < len(values):
        if out and len(values) - start < min_count:
            out[-1] = out[-1] + values[start:]
        else:
            out.append(values[start:])
    return out


def fast_state_percentile(values, ends, p, tol=FAST_TOL):
    """The p-th percentile of the samples in the run's fast windows:
    those whose median is within `tol` of the smallest window median.
    The host's speed moves between states every few seconds; the fast
    windows read the code on an undisturbed host, where a percentile
    over the whole run follows how much of it fell in slow states."""
    if not values:
        raise ValueError("percentile of no samples")
    split = windows(values, ends)
    medians = [percentile(w, 50) for w in split]
    fastest = min(medians)
    pool = [v for w, m in zip(split, medians) if m <= tol * fastest for v in w]
    return percentile(pool, p)


def rollup_name(name):
    for pattern, prefix in PREFIX_ROLLUPS:
        if pattern.match(name):
            return prefix
    return name


def rehome_lanes(spans):
    """Move lane-pinned spans onto the thread of the fleet loop span
    that encloses them in time; the lane id is a display track, not the
    thread that ran the batch."""
    loops = [s for s in spans if s.name == FLEET_LOOP and s.tid < LANE_TID_BASE]
    for s in spans:
        if s.tid < LANE_TID_BASE:
            continue
        for loop in loops:
            if loop.start_ns <= s.start_ns and s.end_ns <= loop.end_ns:
                s.tid = loop.tid
                break


def nest(spans):
    """Link each span to its innermost enclosing span on the same
    thread (interval containment), charging the child's overlap with
    the parent to the parent's child time."""
    by_tid = defaultdict(list)
    for s in spans:
        s.child_ns = 0.0
        s.top_level = True
        by_tid[s.tid].append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s.start_ns, -s.end_ns))
        stack = []
        for s in group:
            while stack and stack[-1].end_ns <= s.start_ns:
                stack.pop()
            # A span that starts inside the stack top but outlives it is
            # not its child; fall back to the nearest real ancestor.
            while stack and stack[-1].end_ns < s.end_ns:
                stack.pop()
            if stack:
                parent = stack[-1]
                parent.child_ns += s.dur_ns
                s.top_level = False
            stack.append(s)


def rollup(spans):
    """Per rolled-up name: {"count", "total_s", "self_s"}. Self time is
    a span's duration minus the time its child spans cover."""
    rehome_lanes(spans)
    nest(spans)
    out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[rollup_name(s.name)]
        row["count"] += 1
        row["total_s"] += s.dur_ns / 1e9
        row["self_s"] += max(0.0, s.dur_ns - s.child_ns) / 1e9
    return dict(out)


def covered_ns(spans, start_ns, end_ns):
    """Time within [start_ns, end_ns] covered by at least one top-level
    span (call rollup or nest first)."""
    intervals = sorted(
        (max(s.start_ns, start_ns), min(s.end_ns, end_ns))
        for s in spans
        if s.top_level and s.end_ns > start_ns and s.start_ns < end_ns
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in intervals:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
