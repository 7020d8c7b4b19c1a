"""Outside-in layer tracing: spans around the program's public entry points.

The benchmark never edits the program.  Instead it wraps each layer's
entry point from its own files, in the process that runs the layer, and
keeps the spans in memory:

- a span is one call (or, for a generator, one ``next()``);
- a span's *self time* is its duration minus the time its child spans
  cover, so self times of nested and re-entrant calls never double
  count, and their sum over all spans is the wall time the spans cover;
- counts (calls, plus a few result-derived tallies) are taken at the
  same boundaries.

``ENTRY_POINTS`` is the map from program entry points to span names;
``LAYER_METRICS`` turns a recorder's totals into the per-layer metrics
the benchmark reports.  An entry point that no longer exists in the
program is skipped (its metrics read 0) and listed by :func:`install`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Iterator

class Recorder:
    """In-memory span totals: self seconds, span counts, samples, tallies."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        #: child-seconds cell of every open span, innermost last
        self.stack: list[list[float]] = []
        #: span name -> summed self seconds
        self.self_s: dict[str, float] = {}
        #: span name -> completed spans
        self.calls: dict[str, int] = {}
        #: span name -> inclusive seconds of each span (opt-in per name)
        self.samples: dict[str, list[float]] = {}
        #: result-derived tallies (segments found, traces quarantined, ...)
        self.counts: Counter = Counter()

    def _register(self, name: str, sample: bool) -> list[float] | None:
        self.self_s.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        return self.samples.setdefault(name, []) if sample else None

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable | None = None,
        sample: bool = False,
    ) -> Callable:
        """``fn`` timed as one span per call.

        ``after(counts, args, result)`` runs outside the span once the
        call returned.
        """
        clock = self.clock
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        samples = self._register(name, sample)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self_s[name] += duration - cell[0]
                calls[name] += 1
                if samples is not None:
                    samples.append(duration)
            if after is not None:
                after(self.counts, args, result)
            return result

        return spanned

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` timed inside each ``next()``.

        Creating the generator runs none of its body, so only the
        resumptions are spans; the time the consumer spends between
        items belongs to the consumer.
        """
        self._register(name, False)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            return self._timed_iter(name, fn(*args, **kwargs))

        return spanned

    def _timed_iter(self, name: str, gen: Iterator) -> Iterator:
        clock = self.clock
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        try:
            while True:
                cell = [0.0]
                stack.append(cell)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    self_s[name] += duration - cell[0]
                    calls[name] += 1
                yield item
        finally:
            close = getattr(gen, "close", None)
            if close is not None:
                close()

    def as_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "samples": dict(self.samples),
            "counts": dict(self.counts),
        }


# -- percentiles ---------------------------------------------------------------


#: percentiles :func:`tail_percentile` may fall back to, highest first
_PERCENTILE_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(
    samples: list[float], wanted: float, min_beyond: int = 10
) -> tuple[float, float]:
    """Nearest-rank percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``: ``wanted`` when the sample supports
    it, otherwise the highest percentile of the ladder below ``wanted``
    that keeps ``min_beyond`` samples beyond its rank.  Raises
    ``ValueError`` when even the median lacks them.
    """
    n = len(samples)
    ordered = sorted(samples)
    for q in (wanted,) + tuple(p for p in _PERCENTILE_LADDER if p < wanted):
        rank = max(1, -(-round(q * 10) * n // 1000))  # ceil(q n / 100)
        if n - rank >= min_beyond:
            return q, ordered[rank - 1]
    raise ValueError(
        f"{n} samples cannot support a percentile with "
        f"{min_beyond} samples beyond it"
    )


# -- what gets wrapped -----------------------------------------------------------


def _count_quarantined(counts: Counter, args: tuple, result) -> None:
    counts["probing.quarantined"] += result.trace is None


def _count_identified(counts: Counter, args: tuple, result) -> None:
    counts["fingerprint.identified"] += bool(result.identified)


def _count_segments(counts: Counter, args: tuple, result) -> None:
    counts["core.segments"] += len(result)


def _count_batch_segments(counts: Counter, args: tuple, result) -> None:
    counts["core.segments"] += sum(len(segments) for segments in result)


def _executor_stats(counts: Counter, args: tuple, result) -> None:
    stats = getattr(args[0], "stats", {})
    counts["campaign.workers_spawned"] += stats.get("workers_spawned", 0)
    counts["campaign.redispatched"] += stats.get("shards_redispatched", 0)


#: (target "module:Qual.name", span name, kind, result hook)
#: kind: "call", "sample" (call + per-span durations) or "generator"
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.topogen.internet:build_measurement_network",
     "topogen.build", "call", None),
    ("repro.topogen.bdrmapit:BdrmapIt.asn_of_hop",
     "topogen.annotate", "call", None),
    ("repro.topogen.alias:AliasResolver.resolve",
     "topogen.annotate", "call", None),
    ("repro.netsim.tunnels:TunnelController.converge",
     "netsim.converge", "call", None),
    ("repro.probing.tnt:TntProber.trace", "probing.trace", "sample", None),
    ("repro.probing.sanitize:TraceSanitizer.sanitize",
     "probing.sanitize", "call", _count_quarantined),
    ("repro.fingerprint.combined:CombinedFingerprinter.fingerprint",
     "fingerprint.lookup", "call", _count_identified),
    ("repro.core.columnar:ColumnarDetector.detect",
     "core.detect", "call", _count_segments),
    ("repro.core.columnar:ColumnarDetector.detect_batch",
     "core.detect_batch", "call", _count_batch_segments),
    ("repro.core.columnar:TraceBatch.iter_jsonl",
     "core.batch_build", "generator", None),
    ("repro.core.pipeline:ArestPipeline.analyze_as",
     "core.accumulate", "call", None),
    ("repro.analysis.vendor_breakdown:VendorBreakdownAccumulator.feed_batch",
     "analysis.vendor_breakdown", "call", None),
    ("repro.service.state:batch_aggregate", "service.aggregate", "call", None),
    ("repro.service.state:SegmentAggregate.segments_json",
     "service.aggregate", "call", None),
    ("repro.campaign.dataset:TraceDataset.iter_jsonl",
     "campaign.spill_decode", "generator", None),
    ("repro.campaign.shards:merged_dataset",
     "campaign.spill_decode", "call", None),
    ("repro.campaign.shards:probe_shard",
     "campaign.spill_encode", "call", None),
    ("repro.campaign.checkpoint:ShardCheckpoint.record_probe",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:ShardCheckpoint.record_analysis",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:ShardCheckpoint.record_failure",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:ShardCheckpoint.record_quarantine",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:CampaignCheckpoint.record",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:CampaignCheckpoint.record_failure",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:CampaignCheckpoint.record_quarantine",
     "campaign.bank", "call", None),
    ("repro.campaign.checkpoint:ShardCheckpoint.compact_canonical",
     "campaign.compact", "call", None),
    ("repro.campaign.checkpoint:CampaignCheckpoint.compact",
     "campaign.compact", "call", None),
    ("repro.campaign.shardexec:LeaseExecutor.run",
     "campaign.executor", "call", _executor_stats),
)


def patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> bool:
    """Replace ``target`` by ``make_wrapper(original)`` everywhere it is bound.

    Methods are replaced on their class (class methods keep their
    decorator).  Module functions are replaced in their module and in
    every imported ``repro`` module that copied them with
    ``from ... import``.  Returns False when the target does not exist.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(owner, attr, make_wrapper(raw))
        return True
    raw = getattr(owner, attr, None)
    if raw is None:
        return False
    wrapped = make_wrapper(raw)
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, attr, None) is raw
        ):
            setattr(module, attr, wrapped)
    return True


def install(recorder: Recorder) -> list[str]:
    """Wrap every entry point; returns the targets that no longer exist."""
    missing = []
    for target, name, kind, hook in ENTRY_POINTS:
        if kind == "generator":
            make = functools.partial(recorder.wrap_generator, name)
        else:
            make = functools.partial(
                recorder.wrap, name, after=hook, sample=kind == "sample"
            )
        if not patch(target, make):
            missing.append(target)
    return missing


# -- per-layer metrics -----------------------------------------------------------

#: metric name -> (unit, source): "self:<span>" summed self seconds,
#: "calls:<span>" span count, "count:<tally>" result-derived tally;
#: the remaining metrics are derived in :func:`layer_metrics`
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "topogen.build_s": ("s", "self:topogen.build"),
    "topogen.builds": ("count", "calls:topogen.build"),
    "topogen.annotate_s": ("s", "self:topogen.annotate"),
    "netsim.converge_s": ("s", "self:netsim.converge"),
    "netsim.converges": ("count", "calls:netsim.converge"),
    "probing.trace_s": ("s", "self:probing.trace"),
    "probing.traces": ("count", "calls:probing.trace"),
    "probing.trace_p50_us": ("us", "derived"),
    "probing.trace_p99_us": ("us", "derived"),
    "probing.sanitize_s": ("s", "self:probing.sanitize"),
    "probing.quarantined": ("count", "count:probing.quarantined"),
    "fingerprint.lookup_s": ("s", "self:fingerprint.lookup"),
    "fingerprint.lookups": ("count", "calls:fingerprint.lookup"),
    "fingerprint.identified_ratio": ("ratio", "derived"),
    "core.detect_s": ("s", "self:core.detect"),
    "core.detect_calls": ("count", "calls:core.detect"),
    "core.batch_build_s": ("s", "self:core.batch_build"),
    "core.detect_batch_s": ("s", "self:core.detect_batch"),
    "core.accumulate_s": ("s", "self:core.accumulate"),
    "core.segments": ("count", "count:core.segments"),
    "analysis.vendor_breakdown_s": ("s", "self:analysis.vendor_breakdown"),
    "service.aggregate_s": ("s", "self:service.aggregate"),
    "campaign.spill_encode_s": ("s", "self:campaign.spill_encode"),
    "campaign.spill_decode_s": ("s", "self:campaign.spill_decode"),
    "campaign.spill_bytes": ("bytes", "derived"),
    "campaign.bank_s": ("s", "self:campaign.bank"),
    "campaign.banks": ("count", "calls:campaign.bank"),
    "campaign.checkpoint_bytes": ("bytes", "derived"),
    "campaign.compact_s": ("s", "self:campaign.compact"),
    "campaign.executor_wait_s": ("s", "derived"),
    "campaign.workers_spawned": ("count", "derived"),
    "campaign.redispatched": ("count", "derived"),
    "obs.unattributed_s": ("s", "derived"),
    "obs.trace_overhead_ratio": ("ratio", "derived"),
}


def _read(trace: dict, source: str) -> float:
    kind, _, key = source.partition(":")
    table = {"self": "self_s", "calls": "calls", "count": "counts"}[kind]
    return trace[table].get(key, 0)


def layer_metrics(
    trace: dict,
    executor_trace: dict,
    traced_wall_s: float,
    untraced_wall_s: float,
    spill_bytes: int,
    checkpoint_bytes: int,
) -> dict[str, dict]:
    """Per-layer metrics from one traced run's recorder dump.

    ``executor_trace`` is the recorder dump that supplies the
    supervisor-side executor metrics (the traced run itself when its
    executor ran the workers).  ``traced_wall_s`` is the traced run's
    work window; the part no span covers is ``obs.unattributed_s``.
    """
    values: dict[str, float] = {}
    for name, (_unit, source) in LAYER_METRICS.items():
        if source != "derived":
            values[name] = _read(trace, source)
    samples = trace["samples"].get("probing.trace", [])
    if samples:
        values["probing.trace_p50_us"] = tail_percentile(samples, 50)[1] * 1e6
        values["probing.trace_p99_us"] = tail_percentile(samples, 99)[1] * 1e6
    else:
        values["probing.trace_p50_us"] = 0.0
        values["probing.trace_p99_us"] = 0.0
    lookups = values["fingerprint.lookups"]
    identified = trace["counts"].get("fingerprint.identified", 0)
    values["fingerprint.identified_ratio"] = (
        identified / lookups if lookups else 0.0
    )
    values["campaign.spill_bytes"] = spill_bytes
    values["campaign.checkpoint_bytes"] = checkpoint_bytes
    values["campaign.executor_wait_s"] = executor_trace["self_s"].get(
        "campaign.executor", 0.0
    )
    values["campaign.workers_spawned"] = executor_trace["counts"].get(
        "campaign.workers_spawned", 0
    )
    values["campaign.redispatched"] = executor_trace["counts"].get(
        "campaign.redispatched", 0
    )
    # An in-process executor's own time is task glue, not a layer.
    values["obs.unattributed_s"] = traced_wall_s - sum(
        seconds
        for span, seconds in trace["self_s"].items()
        if span != "campaign.executor" or trace is executor_trace
    )
    values["obs.trace_overhead_ratio"] = (
        traced_wall_s / untraced_wall_s if untraced_wall_s > 0 else 0.0
    )
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _source) in LAYER_METRICS.items()
    }
