"""In-process telemetry recording: hierarchical spans and typed counters.

The campaign's determinism contract -- byte-identical reports and
checkpoints for any execution plan -- forbids wall-clock data anywhere
near the results.  Telemetry therefore lives entirely *beside* the
pipeline: a :class:`Telemetry` recorder collects monotonic span
durations and counter tallies into its own buffers, and everything it
records flows only into observability artifacts (the JSONL event sink,
the run manifest, the Prometheus export), never into a result object.

Two implementations share one duck-typed surface:

- :class:`Telemetry` -- the live recorder.  ``span(stage)`` is a
  context manager measuring a monotonic duration and recording it under
  the hierarchical path of the spans currently open (``as`` >
  ``analyze`` > ``detect`` becomes ``as/analyze/detect``);
  ``count(name, n)`` bumps a typed counter; ``add_seconds`` records a
  pre-measured duration (for hot loops that accumulate locally instead
  of opening a span per iteration).
- :class:`NullTelemetry` -- the default everywhere.  Every method is a
  no-op and ``enabled`` is False, so hot loops can skip even the clock
  reads (``if telemetry.enabled: ...``) and the uninstrumented path
  stays byte-and-branch identical to the seed behaviour.

Recorders are cheap, single-threaded, and scoped to one unit of work
(one AS task, typically).  :meth:`Telemetry.export` snapshots the
buffers into a plain JSON-able dict that survives a trip through the
lease executor's outcome pipe, and :func:`merge_counters` folds
counter dicts together -- plain addition, so aggregation is
order-independent by construction (serial, parallel and resumed runs
produce identical totals).

Distributed tracing (``repro.obs.trace``) is opt-in per recorder: a
recorder constructed with a :class:`~repro.obs.trace.TraceContext`
stamps every span with the campaign trace id, a fresh span id, its
parent's span id and the monotonic start offset, and captures a
:class:`~repro.obs.trace.ClockAnchor` so readers can normalize the
offsets to wall-clock time.  Without a context the span records are
byte-for-byte what they always were.  ``observe(stage, seconds)`` bins
per-event latencies into the fixed deterministic buckets
(:data:`~repro.obs.trace.LATENCY_BUCKETS`) either way.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs.trace import ClockAnchor, LatencyHistogram, TraceContext


class NullTelemetry:
    """No-op recorder: the zero-overhead default.

    Shares the :class:`Telemetry` surface so instrumented code never
    branches on whether telemetry is on -- except hot loops, which may
    consult :attr:`enabled` to skip clock reads entirely.
    """

    __slots__ = ()

    enabled = False
    clock = staticmethod(time.monotonic)

    @contextmanager
    def span(self, stage: str, **attrs: object) -> Iterator[None]:
        """No-op span."""
        yield

    def count(self, name: str, n: int = 1) -> None:
        """No-op counter bump."""

    def gauge(self, name: str, value: float) -> None:
        """No-op gauge set."""

    def add_seconds(self, stage: str, seconds: float, **attrs: object) -> None:
        """No-op duration record."""

    def observe(self, stage: str, seconds: float) -> None:
        """No-op histogram observation."""

    def export(self) -> dict:
        """Empty export, shaped like :meth:`Telemetry.export`."""
        return {"spans": [], "counters": {}, "gauges": {}}


#: process-wide shared no-op instance (stateless, safe to share)
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Live recorder for one unit of work (typically one AS task).

    Not thread-safe; the campaign gives each worker its own recorder
    and ships the export back over the outcome channel.

    With ``trace`` set (a :class:`~repro.obs.trace.TraceContext`), span
    records additionally carry ``trace_id`` / ``span_id`` /
    ``parent_span_id`` / ``start``; top-level spans parent under the
    context's ``span_id`` (the supervisor's root span when the context
    crossed a process boundary), nested spans under the enclosing span.
    """

    __slots__ = (
        "clock",
        "spans",
        "counters",
        "gauges",
        "histograms",
        "trace",
        "anchor",
        "_stack",
        "_rng",
    )

    enabled = True

    def __init__(
        self, clock=time.monotonic, trace: TraceContext | None = None
    ) -> None:
        self.clock = clock
        #: span records: {"stage", "path", "seconds", + caller attrs}
        self.spans: list[dict] = []
        #: typed counter tallies by name
        self.counters: dict[str, int] = {}
        #: last-write-wins gauges by name
        self.gauges: dict[str, float] = {}
        #: stage -> fixed-bucket latency histogram (see obs.trace)
        self.histograms: dict[str, LatencyHistogram] = {}
        #: propagation context (None = untraced legacy records)
        self.trace = trace
        self._stack: list[tuple[str, str | None]] = []
        if trace is not None:
            #: this process's wall/monotonic correspondence -- ships
            #: with the export so readers can normalize span starts
            self.anchor: ClockAnchor | None = ClockAnchor.capture(clock)
            # span ids need only be unique within one trace; a
            # urandom-seeded PRNG gives 64 fresh bits per span without
            # a syscall per id
            self._rng = random.Random(os.urandom(16))
        else:
            self.anchor = None
            self._rng = None

    def _new_span_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    @contextmanager
    def span(self, stage: str, **attrs: object) -> Iterator[None]:
        """Measure a monotonic duration under the current span path.

        The record is emitted even when the body raises, so a stage
        that failed mid-flight still shows the time it sank.
        """
        traced = self.trace is not None
        if traced:
            span_id = self._new_span_id()
            parent = (
                self._stack[-1][1] if self._stack else self.trace.span_id
            )
        else:
            span_id = parent = None
        self._stack.append((stage, span_id))
        start = self.clock()
        try:
            yield
        finally:
            seconds = self.clock() - start
            path = "/".join(name for name, _ in self._stack)
            self._stack.pop()
            record = {"stage": stage, "path": path, "seconds": seconds}
            if traced:
                record["start"] = start
                record["trace_id"] = self.trace.trace_id
                record["span_id"] = span_id
                record["parent_span_id"] = parent
            if attrs:
                record.update(attrs)
            self.spans.append(record)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero)."""
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.gauges[name] = value

    def add_seconds(self, stage: str, seconds: float, **attrs: object) -> None:
        """Record a pre-measured duration as a span under the open path.

        Hot loops accumulate locally (two clock reads per iteration)
        and call this once, instead of paying a context manager per
        iteration.

        Aggregate records carry trace ids (so they hang off the right
        parent in reconstruction) but no ``start``: the seconds were
        accumulated across a whole loop, not one interval, so they
        appear in the stage tables rather than the Gantt view.
        """
        path = "/".join((*(name for name, _ in self._stack), stage))
        record = {"stage": stage, "path": path, "seconds": seconds}
        if self.trace is not None:
            record["trace_id"] = self.trace.trace_id
            record["span_id"] = self._new_span_id()
            record["parent_span_id"] = (
                self._stack[-1][1] if self._stack else self.trace.span_id
            )
        if attrs:
            record.update(attrs)
        self.spans.append(record)

    def observe(self, stage: str, seconds: float) -> None:
        """Bin one per-event latency into ``stage``'s fixed buckets.

        One bisect over the deterministic bucket edges -- cheap enough
        to call per trace in the probe/sanitize/detect hot loops.
        """
        hist = self.histograms.get(stage)
        if hist is None:
            hist = self.histograms[stage] = LatencyHistogram()
        hist.observe(seconds)

    def histogram(self, stage: str) -> LatencyHistogram:
        """The (lazily created) histogram for ``stage``.

        Hot loops bind ``histogram(stage).observe`` once up front so the
        per-event cost is a single bound call, not a dict lookup.
        """
        hist = self.histograms.get(stage)
        if hist is None:
            hist = self.histograms[stage] = LatencyHistogram()
        return hist

    def export(self) -> dict:
        """Plain JSON-able snapshot (survives the outcome pipe)."""
        out = {
            "spans": [dict(record) for record in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
        }
        if self.histograms:
            out["histograms"] = {
                stage: hist.as_dict()
                for stage, hist in self.histograms.items()
            }
        if self.anchor is not None:
            out["anchor"] = self.anchor.as_dict()
        return out


def merge_counters(
    into: dict[str, int], counters: Mapping[str, int]
) -> dict[str, int]:
    """Fold ``counters`` into ``into`` (in place) and return it.

    Pure addition: merging any permutation of the same counter dicts
    yields identical totals, which is what makes serial, parallel and
    resumed runs agree.
    """
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value
    return into
