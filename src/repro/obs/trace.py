"""Distributed tracing: context propagation, clock anchoring, timelines.

One campaign is one trace.  The supervisor mints a W3C-traceparent-style
:class:`TraceContext` (``trace_id`` / ``span_id``) when its telemetry
session starts; the context rides every task envelope -- the payload
tuples the lease executor ships over its duplex pipes, the service's
worker-pool recorder -- so every span any process records
lands in ``telemetry.jsonl`` tagged with the one campaign-wide trace id
and parented under the supervisor's root span.

Cross-process timestamps need one more ingredient: workers stamp span
starts with their *own* monotonic clock, whose zero is arbitrary per
process.  Each recorder therefore captures a :class:`ClockAnchor` --
one ``(unix wall-clock, monotonic clock)`` pair -- that ships with its
export and lands in the stream as an ``anchor`` record; readers
normalize every span start to wall-clock time through the anchor of
the batch it arrived in.  Two workers' spans then order correctly
against each other even though neither ever saw the other's clock.

Reconstruction (:func:`load_timeline`) turns the stream back into one
tree of wall-clock intervals and derives the operator surfaces:

- :func:`render_timeline` -- the ``arest timeline <dir>`` text view
  (per-scope Gantt bars, critical path, straggler report);
- :func:`critical_path` -- the chain of spans covering the run's
  wall-clock (each link is the last-finishing child of the previous);
- :func:`stragglers` -- scopes at or above the p95 total duration,
  with the stage they were last seen in;
- :func:`trace_event_json` -- Chrome/Perfetto trace-event JSON
  (``arest timeline --trace-json``).

This module also owns the fixed histogram bucket boundaries
(:data:`LATENCY_BUCKETS`): per-stage latency distributions are only
comparable across runs and mergeable across processes because every
recorder bins into the same deterministic edges.

Everything here is observational.  Trace ids, anchors and histograms
live in telemetry artifacts only; results and checkpoints never see
them (the byte-identity contract is test-enforced with tracing on and
off).
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.manifest import load_manifest
from repro.obs.sink import EVENTS_FILENAME, load_events

__all__ = [
    "LATENCY_BUCKETS",
    "ClockAnchor",
    "CriticalSegment",
    "LatencyHistogram",
    "Straggler",
    "Timeline",
    "TimelineSpan",
    "TraceContext",
    "critical_path",
    "load_timeline",
    "merge_histogram_dicts",
    "render_timeline",
    "stragglers",
    "timeline_from_records",
    "timeline_report_dict",
    "trace_event_json",
]


# -- context propagation ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceContext:
    """One W3C-traceparent-style propagation context.

    ``trace_id`` names the whole campaign (32 hex chars); ``span_id``
    names the span the receiver should parent under (16 hex chars) --
    the supervisor's root span when the context crosses a process
    boundary.
    """

    trace_id: str
    span_id: str

    @classmethod
    def new(cls) -> "TraceContext":
        """Mint a fresh root context from OS entropy."""
        return cls(
            trace_id=os.urandom(16).hex(), span_id=os.urandom(8).hex()
        )

    def traceparent(self) -> str:
        """The wire form: ``00-<trace_id>-<span_id>-01``."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def parse(cls, header: str) -> "TraceContext":
        """Parse a traceparent header; raises ``ValueError`` on junk."""
        parts = str(header).split("-")
        if len(parts) != 4:
            raise ValueError(f"malformed traceparent: {header!r}")
        version, trace_id, span_id, _flags = parts
        if version != "00":
            raise ValueError(f"unsupported traceparent version: {header!r}")
        if len(trace_id) != 32 or len(span_id) != 16:
            raise ValueError(f"malformed traceparent ids: {header!r}")
        int(trace_id, 16)
        int(span_id, 16)
        return cls(trace_id=trace_id, span_id=span_id)


@dataclass(frozen=True, slots=True)
class ClockAnchor:
    """One process's ``(wall clock, monotonic clock)`` correspondence.

    ``to_wall`` maps a monotonic reading from the same process to unix
    time; that is the whole cross-process skew fix -- every process
    reports its own offset, readers normalize, nobody compares raw
    monotonic values across pid boundaries.
    """

    unix: float
    clock: float

    @classmethod
    def capture(cls, clock=time.monotonic) -> "ClockAnchor":
        return cls(unix=time.time(), clock=clock())

    def to_wall(self, reading: float) -> float:
        return self.unix + (reading - self.clock)

    def as_dict(self) -> dict:
        return {"unix": self.unix, "clock": self.clock}

    @classmethod
    def from_dict(cls, record: dict) -> "ClockAnchor":
        return cls(
            unix=float(record.get("unix", 0.0)),
            clock=float(record.get("clock", 0.0)),
        )


# -- deterministic latency histograms --------------------------------------------

#: fixed bucket upper bounds (seconds) for every per-stage latency
#: histogram.  Deterministic by construction: the edges never depend on
#: the data, so histograms merge across processes by vector addition
#: and two runs' distributions are directly comparable.  Log-spaced
#: from 10us to 10s -- simulated probes sit at the bottom, whole-shard
#: stages at the top.
LATENCY_BUCKETS = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (one stage, one recorder).

    ``counts`` has one slot per :data:`LATENCY_BUCKETS` edge plus the
    overflow (+Inf) slot.  Observation is one bisect and two adds --
    cheap enough for per-trace hot loops.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(LATENCY_BUCKETS, seconds)] += 1
        self.sum += seconds
        self.count += 1

    def observe_many(self, samples: list[float]) -> None:
        """Bin a batch of observations at once.

        Sorting once and bisecting per *edge* (19 bisects total) beats
        per-sample observe calls as soon as the batch outgrows the
        bucket table, which is why hot loops may collect raw seconds
        in a plain list and flush it here outside the loop.
        """
        if not samples:
            return
        ordered = sorted(samples)
        counts = self.counts
        below = 0
        for index, edge in enumerate(LATENCY_BUCKETS):
            at_or_below = bisect_right(ordered, edge)
            counts[index] += at_or_below - below
            below = at_or_below
        counts[-1] += len(ordered) - below
        self.sum += sum(ordered)
        self.count += len(ordered)

    def as_dict(self) -> dict:
        """JSON view: {"buckets": [...], "sum": s, "count": n}."""
        return {
            "buckets": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def merge_histogram_dicts(into: dict, part: dict) -> dict:
    """Fold one histogram-dict mapping into another (in place).

    Both are ``{stage: {"buckets": [...], "sum": s, "count": n}}``.
    Vector addition bucket by bucket -- merge order cannot matter, so
    aggregation across processes and resumed runs is well defined.
    """
    for stage, hist in part.items():
        buckets = [int(v) for v in hist.get("buckets", ())]
        if len(buckets) != len(LATENCY_BUCKETS) + 1:
            continue  # foreign bucket layout: refuse to mis-merge
        merged = into.get(stage)
        if merged is None:
            into[stage] = {
                "buckets": buckets,
                "sum": float(hist.get("sum", 0.0)),
                "count": int(hist.get("count", 0)),
            }
            continue
        merged["buckets"] = [
            a + b for a, b in zip(merged["buckets"], buckets)
        ]
        merged["sum"] += float(hist.get("sum", 0.0))
        merged["count"] += int(hist.get("count", 0))
    return into


# -- timeline reconstruction -----------------------------------------------------


@dataclass(slots=True)
class TimelineSpan:
    """One span normalized to wall-clock time."""

    scope: object
    stage: str
    path: str
    start: float  # unix seconds (anchor-normalized)
    end: float
    trace_id: str
    span_id: str
    parent_span_id: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(slots=True)
class Timeline:
    """One run's reconstructed trace tree."""

    directory: Path | None
    manifest: dict | None
    #: every anchored span, in stream order
    spans: list[TimelineSpan]
    #: span_id -> children, sorted by start
    children: dict[str, list[TimelineSpan]]
    #: spans whose parent_span_id resolves to no recorded span
    roots: list[TimelineSpan]
    #: trace ids seen (a healthy run has exactly one)
    trace_ids: set[str]
    #: corrupt lines the event loader dropped
    dropped_lines: int = 0
    #: children trimmed into their parent's interval (residual skew)
    skew_clamped: int = 0

    @property
    def trace_id(self) -> str | None:
        if self.manifest is not None and self.manifest.get("trace_id"):
            return str(self.manifest["trace_id"])
        if len(self.trace_ids) == 1:
            return next(iter(self.trace_ids))
        return None

    def root(self) -> TimelineSpan | None:
        """The run's root span: the longest parentless interval."""
        if not self.roots:
            return None
        return max(self.roots, key=lambda s: s.seconds)

    def wall_seconds(self) -> float:
        """Measured wall clock: the manifest's, else the root span's."""
        if self.manifest is not None:
            duration = self.manifest.get("duration_seconds")
            if duration:
                return float(duration)
        root = self.root()
        return root.seconds if root is not None else 0.0


#: span-record fields that are structure, not caller attributes
_SPAN_FIELDS = frozenset(
    (
        "kind",
        "scope",
        "stage",
        "path",
        "seconds",
        "start",
        "trace_id",
        "span_id",
        "parent_span_id",
    )
)


def timeline_from_records(
    records: list[dict],
    manifest: dict | None = None,
    dropped: int = 0,
    directory: Path | None = None,
) -> Timeline:
    """Rebuild the trace tree from raw event records.

    Only traced spans (carrying ``span_id`` and ``start``) enter the
    timeline; the anchor in force is tracked per scope in stream order
    -- each durable batch writes its anchor first, so a scope that
    appears in several batches (a resumed run) normalizes each batch
    through the clock that actually produced it.
    """
    anchors: dict[object, ClockAnchor] = {}
    spans: list[TimelineSpan] = []
    trace_ids: set[str] = set()
    for record in records:
        kind = record.get("kind")
        scope = record.get("scope")
        if kind == "anchor":
            anchors[scope] = ClockAnchor.from_dict(record)
            continue
        if kind != "span" or "span_id" not in record:
            continue
        anchor = anchors.get(scope)
        if anchor is None or "start" not in record:
            continue  # untraced span: lives in the tables, not here
        start = anchor.to_wall(float(record["start"]))
        seconds = max(0.0, float(record.get("seconds", 0.0)))
        trace_id = str(record.get("trace_id", ""))
        trace_ids.add(trace_id)
        spans.append(
            TimelineSpan(
                scope=scope,
                stage=str(record.get("stage", "unknown")),
                path=str(record.get("path", "")),
                start=start,
                end=start + seconds,
                trace_id=trace_id,
                span_id=str(record["span_id"]),
                parent_span_id=(
                    str(record["parent_span_id"])
                    if record.get("parent_span_id")
                    else None
                ),
                attrs={
                    k: v
                    for k, v in record.items()
                    if k not in _SPAN_FIELDS
                },
            )
        )
    by_id = {span.span_id: span for span in spans}
    children: dict[str, list[TimelineSpan]] = {}
    roots: list[TimelineSpan] = []
    for span in spans:
        parent = span.parent_span_id
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.start, s.span_id))
    timeline = Timeline(
        directory=directory,
        manifest=manifest,
        spans=spans,
        children=children,
        roots=roots,
        trace_ids=trace_ids,
        dropped_lines=dropped,
    )
    _clamp_into_parents(timeline)
    return timeline


def _clamp_into_parents(timeline: Timeline) -> None:
    """Trim children into their parent's interval, top down.

    Within one process nesting is exact (same clock, strict span
    stack).  Across processes the anchors leave residual skew -- two
    ``time.time()`` reads microseconds apart -- so a child can poke a
    hair past its parent.  The clamp repairs that, making
    child-within-parent an invariant of every reconstructed timeline.
    """
    stack = list(timeline.roots)
    while stack:
        parent = stack.pop()
        for child in timeline.children.get(parent.span_id, ()):
            start = min(max(child.start, parent.start), parent.end)
            end = max(min(child.end, parent.end), start)
            if (start, end) != (child.start, child.end):
                timeline.skew_clamped += 1
                child.start, child.end = start, end
            stack.append(child)


def load_timeline(directory: str | Path) -> Timeline:
    """Reconstruct the timeline of one telemetry directory."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    records, dropped = load_events(directory / EVENTS_FILENAME)
    return timeline_from_records(
        records, manifest=manifest, dropped=dropped, directory=directory
    )


# -- derived views ---------------------------------------------------------------


@dataclass(slots=True)
class CriticalSegment:
    """One link of the critical path and its exclusive contribution."""

    span: TimelineSpan
    #: seconds this span accounts for on its own (its duration minus
    #: the on-path child's overlap); segment sums telescope to the
    #: root's duration
    exclusive_seconds: float


def critical_path(timeline: Timeline) -> list[CriticalSegment]:
    """The chain of spans covering the run's wall clock.

    Standard trace-analysis walk: start at the root, descend into the
    *last-finishing* child at every level (the one gating the parent's
    completion).  Each link's exclusive time is its duration minus the
    on-path child's -- so the sum over the path equals the root span's
    duration, and comparing that sum to the manifest wall clock tells
    you how much of the run the trace actually explains.
    """
    root = timeline.root()
    if root is None:
        return []
    segments: list[CriticalSegment] = []
    current = root
    while True:
        kids = timeline.children.get(current.span_id, ())
        if not kids:
            segments.append(CriticalSegment(current, current.seconds))
            return segments
        gating = max(kids, key=lambda s: (s.end, s.seconds, s.span_id))
        segments.append(
            CriticalSegment(current, current.seconds - gating.seconds)
        )
        current = gating


@dataclass(slots=True)
class Straggler:
    """One scope at or above the p95 total duration."""

    scope: object
    seconds: float
    #: the deepest stage still running when the scope's work ended --
    #: the "where was it stuck" answer for straggler triage
    last_stage: str


def _scope_intervals(timeline: Timeline) -> dict[object, list[TimelineSpan]]:
    """Worker-level spans per scope: the root's direct children."""
    root = timeline.root()
    if root is None:
        return {}
    per_scope: dict[object, list[TimelineSpan]] = {}
    for span in timeline.children.get(root.span_id, ()):
        per_scope.setdefault(span.scope, []).append(span)
    return per_scope


def stragglers(timeline: Timeline, quantile: float = 0.95) -> list[Straggler]:
    """Scopes whose total top-level duration reaches the p95.

    Needs at least two scopes to be meaningful; with fewer, or with a
    degenerate distribution, returns the slowest scope alone.
    """
    per_scope = _scope_intervals(timeline)
    if not per_scope:
        return []
    totals = {
        scope: sum(span.seconds for span in spans)
        for scope, spans in per_scope.items()
    }
    ordered = sorted(totals.values())
    index = min(
        len(ordered) - 1, max(0, int(quantile * len(ordered) + 0.5) - 1)
    )
    threshold = ordered[index]
    out: list[Straggler] = []
    for scope, spans in per_scope.items():
        total = totals[scope]
        if total < threshold:
            continue
        # last stage: the deepest descendant whose interval ends last
        last = max(spans, key=lambda s: s.end)
        while True:
            kids = timeline.children.get(last.span_id, ())
            if not kids:
                break
            last = max(kids, key=lambda s: s.end)
        out.append(
            Straggler(scope=scope, seconds=total, last_stage=last.stage)
        )
    out.sort(key=lambda s: (-s.seconds, str(s.scope)))
    return out


# -- rendering -------------------------------------------------------------------


def render_timeline(timeline: Timeline, width: int = 48) -> str:
    """The ``arest timeline <dir>`` text view."""
    lines: list[str] = []
    trace_id = timeline.trace_id
    wall = timeline.wall_seconds()
    lines.append(
        f"trace {trace_id or '(unknown)'}  wall {wall:.3f}s  "
        f"{len(timeline.spans)} span(s)"
    )
    if len(timeline.trace_ids) > 1:
        lines.append(
            f"WARNING: {len(timeline.trace_ids)} distinct trace ids in "
            f"one stream (mixed runs?)"
        )
    if timeline.dropped_lines:
        lines.append(
            f"WARNING: dropped {timeline.dropped_lines} corrupt telemetry "
            f"line(s) (crash-truncated stream)"
        )
    root = timeline.root()
    if root is None:
        lines.append("(no traced spans recorded)")
        return "\n".join(lines)

    span_of_run = max(root.end - root.start, 1e-9)

    def bar(span: TimelineSpan) -> str:
        lo = int((span.start - root.start) / span_of_run * width)
        hi = int((span.end - root.start) / span_of_run * width)
        hi = max(hi, lo + 1)
        return "." * lo + "#" * (hi - lo) + "." * max(0, width - hi)

    per_scope = _scope_intervals(timeline)
    if per_scope:
        lines.append("")
        lines.append("Per-scope timeline (time runs left to right):")
        ordered = sorted(
            per_scope.items(),
            key=lambda item: min(s.start for s in item[1]),
        )
        for scope, spans in ordered:
            label = f"AS#{scope}" if isinstance(scope, int) else str(scope)
            for span in sorted(spans, key=lambda s: s.start):
                offset = span.start - root.start
                lines.append(
                    f"  {label:<16} |{bar(span)}| "
                    f"{offset:>8.3f}s +{span.seconds:.3f}s {span.stage}"
                )

    segments = critical_path(timeline)
    covered = sum(s.exclusive_seconds for s in segments)
    share = covered / wall if wall else 0.0
    lines.append("")
    lines.append(
        f"Critical path ({covered:.3f}s, {share:.1%} of wall clock):"
    )
    for segment in segments:
        span = segment.span
        label = (
            f"AS#{span.scope}" if isinstance(span.scope, int)
            else str(span.scope)
        )
        lines.append(
            f"  {label:<16} {span.path:<28} +{span.seconds:.3f}s "
            f"(exclusive {segment.exclusive_seconds:.3f}s)"
        )

    slow = stragglers(timeline)
    if slow:
        lines.append("")
        lines.append("Stragglers (>= p95 scope duration):")
        for straggler in slow:
            label = (
                f"AS#{straggler.scope}"
                if isinstance(straggler.scope, int)
                else str(straggler.scope)
            )
            lines.append(
                f"  {label:<16} {straggler.seconds:.3f}s  "
                f"last stage: {straggler.last_stage}"
            )
    if timeline.skew_clamped:
        lines.append("")
        lines.append(
            f"(normalized {timeline.skew_clamped} span bound(s) for "
            f"residual cross-process clock skew)"
        )
    return "\n".join(lines)


def trace_event_json(timeline: Timeline) -> dict:
    """Chrome/Perfetto trace-event JSON (the ``--trace-json`` artifact).

    Complete events (``ph: "X"``) with microsecond timestamps relative
    to the earliest span.  Each scope renders as its own thread, named
    through the conventional ``thread_name`` metadata events.  Parent
    references ride in ``args`` and -- by construction -- only ever
    point at spans present in the document.
    """
    events: list[dict] = []
    if not timeline.spans:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    origin = min(span.start for span in timeline.spans)
    known = {span.span_id for span in timeline.spans}
    tids = {
        scope: index
        for index, scope in enumerate(
            sorted({span.scope for span in timeline.spans}, key=str), 1
        )
    }
    for scope, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {
                    "name": (
                        f"AS#{scope}" if isinstance(scope, int)
                        else str(scope)
                    )
                },
            }
        )
    for span in sorted(
        timeline.spans, key=lambda s: (s.start, s.span_id)
    ):
        args = {
            "scope": str(span.scope),
            "path": span.path,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        parent = span.parent_span_id
        if parent is not None and parent in known:
            args["parent_span_id"] = parent
        for key, value in span.attrs.items():
            args[key] = value if isinstance(value, (int, float)) else str(
                value
            )
        events.append(
            {
                "name": span.stage,
                "cat": "arest",
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "pid": 1,
                "tid": tids[span.scope],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def timeline_report_dict(timeline: Timeline) -> dict:
    """Machine-readable ``arest timeline --json`` view (CI's parser)."""
    segments = critical_path(timeline)
    covered = sum(s.exclusive_seconds for s in segments)
    wall = timeline.wall_seconds()
    return {
        "trace_id": timeline.trace_id,
        "wall_seconds": wall,
        "spans": len(timeline.spans),
        "scopes": sorted(
            {str(span.scope) for span in timeline.spans}
        ),
        "trace_ids": sorted(timeline.trace_ids),
        "dropped_lines": timeline.dropped_lines,
        "skew_clamped": timeline.skew_clamped,
        "critical_path": [
            {
                "scope": str(segment.span.scope),
                "stage": segment.span.stage,
                "path": segment.span.path,
                "seconds": segment.span.seconds,
                "exclusive_seconds": segment.exclusive_seconds,
            }
            for segment in segments
        ],
        "critical_path_seconds": covered,
        "critical_path_share": covered / wall if wall else 0.0,
        "stragglers": [
            {
                "scope": str(straggler.scope),
                "seconds": straggler.seconds,
                "last_stage": straggler.last_stage,
            }
            for straggler in stragglers(timeline)
        ],
    }


def write_trace_json(timeline: Timeline, path: str | Path) -> None:
    """Atomically write the Perfetto artifact next to a report."""
    from repro.util.atomicio import atomic_write_text

    atomic_write_text(
        Path(path),
        json.dumps(trace_event_json(timeline), sort_keys=True) + "\n",
    )
