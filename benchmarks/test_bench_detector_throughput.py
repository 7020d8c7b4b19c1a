"""Performance -- AReST post-processing throughput.

"AReST is lightweight as it relies only on traceroute-like data" (Sec.
9).  The paper post-processed 7.7M traceroutes; this benchmark measures
the detector's single-core throughput on realistic traces so a reader
can estimate wall-clock for campaigns of any size.  Besides the printed
table the run drops ``BENCH_detector.json`` (throughput plus per-trace
latency percentiles) so CI can archive machine-readable numbers.
"""

import gc
import json
import time

from repro.core.columnar import ColumnarDetector
from repro.core.detector import ArestDetector
from repro.core.labels import _suffix_match_default
from repro.core.vendor_ranges import ranges_for_fingerprint
from repro.probing.tnt import TntProber
from repro.util.atomicio import atomic_write_text

from benchmarks.conftest import emit

BENCH_FILENAME = "BENCH_detector.json"

#: CI regression gate: the per-trace columnar kernel must stay at least
#: this many times faster than the object path measured in-process
MIN_COLUMNAR_SPEEDUP = 1.5

#: paired columnar/object rounds; the speedup is the median round ratio
_COLUMNAR_ROUNDS = 9


def _trace_corpus(portfolio_results, copies: int = 3):
    """(trace, fingerprints) pairs, as the pipeline feeds the detector.

    Each trace keeps its own campaign's fingerprint mapping: vendor-range
    lookups are part of the detector's real per-hop work and an empty
    mapping would let the benchmark skip them entirely.
    """
    pairs = []
    for result in portfolio_results.values():
        fingerprints = result.fingerprints
        pairs.extend(
            (trace, fingerprints) for trace in result.dataset.traces
        )
    return pairs * copies


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[index]


_WARMUP_PASSES = 2


def test_bench_detector_throughput(benchmark, portfolio_results):
    corpus = _trace_corpus(portfolio_results)

    detector = ArestDetector()

    def detect_all() -> int:
        segments = 0
        for trace, fingerprints in corpus:
            segments += len(detector.detect(trace, fingerprints))
        return segments

    # Warm-up: pay first-call costs (lazy imports, memoized vendor-range
    # construction, branch-predictor/allocator warm-up) outside every
    # measured window, so they stop polluting the max/p95 trajectory.
    for _ in range(_WARMUP_PASSES):
        detect_all()

    segments = benchmark(detect_all)
    per_trace_us = benchmark.stats["mean"] / len(corpus) * 1e6
    emit(
        f"post-processed {len(corpus):,} traces -> {segments:,} segment "
        f"occurrences; {per_trace_us:.1f} us/trace "
        f"(~{1e6 / per_trace_us * 3600 / 1e6:.0f}M traces/hour/core)"
    )

    # Per-trace latency distribution (one extra pass; the benchmark
    # above measures aggregate throughput, this captures tail shape).
    for trace, fingerprints in corpus:  # warm the per-call timing path too
        detector.detect(trace, fingerprints)
    latencies_us = []
    for trace, fingerprints in corpus:
        tick = time.perf_counter_ns()
        detector.detect(trace, fingerprints)
        latencies_us.append((time.perf_counter_ns() - tick) / 1e3)
    latencies_us.sort()
    payload = {
        "benchmark": "detector_throughput",
        "traces": len(corpus),
        "segment_occurrences": segments,
        "ops_per_sec": round(len(corpus) / benchmark.stats["mean"], 1),
        "mean_us_per_trace": round(per_trace_us, 3),
        "p50_us_per_trace": round(_percentile(latencies_us, 0.50), 3),
        "p95_us_per_trace": round(_percentile(latencies_us, 0.95), 3),
        "max_us_per_trace": round(latencies_us[-1], 3),
    }
    # The vendor-range memoization delta, measured paired (alternating
    # legs in the same process) so runner clock drift multiplies both
    # legs equally and cancels in the ratio.  The uncached leg clears
    # the interval-list cache once per *trace*; the pre-caching code
    # rebuilt the list once per labeled *hop*, so the recorded delta is
    # a conservative floor on the real win.
    def detect_all_uncached() -> int:
        segments = 0
        for trace, fingerprints in corpus:
            ranges_for_fingerprint.cache_clear()
            segments += len(detector.detect(trace, fingerprints))
        return segments

    detect_all_uncached()  # warm the uncached leg's code path once
    cached_s: list[float] = []
    uncached_s: list[float] = []
    for _ in range(3):
        gc.disable()
        tick = time.perf_counter()
        detect_all()
        cached_s.append(time.perf_counter() - tick)
        tick = time.perf_counter()
        detect_all_uncached()
        uncached_s.append(time.perf_counter() - tick)
        gc.enable()
    ratios = sorted(u / c for c, u in zip(cached_s, uncached_s))
    payload["uncached_ops_per_sec"] = round(len(corpus) / min(uncached_s), 1)
    payload["range_cache_delta_pct"] = round((ratios[1] - 1) * 100, 1)

    # The sequence-match memoization delta, measured with the same
    # paired-leg protocol: the uncached leg clears the suffix-match
    # cache once per trace, so the delta is again a conservative floor.
    # Identical-label pairs (the overwhelmingly common case) bypass the
    # memo entirely, so expect a small number on homogeneous-SRGB
    # corpora -- the cache only covers the differing-label arithmetic.
    def detect_all_seq_uncached() -> int:
        total = 0
        for trace, fingerprints in corpus:
            _suffix_match_default.cache_clear()
            total += len(detector.detect(trace, fingerprints))
        return total

    detect_all_seq_uncached()
    seq_cached_s: list[float] = []
    seq_uncached_s: list[float] = []
    for _ in range(3):
        gc.disable()
        tick = time.perf_counter()
        detect_all()
        seq_cached_s.append(time.perf_counter() - tick)
        tick = time.perf_counter()
        detect_all_seq_uncached()
        seq_uncached_s.append(time.perf_counter() - tick)
        gc.enable()
    seq_ratios = sorted(
        u / c for c, u in zip(seq_cached_s, seq_uncached_s)
    )
    payload["seq_match_cache_delta_pct"] = round(
        (seq_ratios[1] - 1) * 100, 1
    )

    # -- columnar kernel ---------------------------------------------------
    # The per-trace kernel every caller uses (pipeline, service, ``arest
    # detect``), timed against the object path in paired rounds.  Leg
    # order alternates per round so a monotonic clock drift favours
    # neither leg; the speedup is the median round ratio and each leg's
    # best round gives its absolute throughput.
    columnar = ColumnarDetector()
    # the differential contract, enforced on the bench corpus itself:
    # the speedup below is only meaningful for byte-identical output
    reference = [
        detector.detect(trace, fingerprints)
        for trace, fingerprints in corpus
    ]
    assert [ColumnarDetector().detect(t, f) for t, f in corpus] == reference

    def detect_all_columnar() -> int:
        segments = 0
        for trace, fingerprints in corpus:
            segments += len(columnar.detect(trace, fingerprints))
        return segments

    def timed(leg) -> float:
        tick = time.perf_counter()
        leg()
        return time.perf_counter() - tick

    detect_all_columnar()  # warm the columnar leg's code path once
    object_s: list[float] = []
    columnar_s: list[float] = []
    for round_index in range(_COLUMNAR_ROUNDS):
        gc.disable()
        if round_index % 2 == 0:
            object_s.append(timed(detect_all))
            columnar_s.append(timed(detect_all_columnar))
        else:
            columnar_s.append(timed(detect_all_columnar))
            object_s.append(timed(detect_all))
        gc.enable()
    round_ratios = sorted(o / c for o, c in zip(object_s, columnar_s))
    columnar_ops = len(corpus) / min(columnar_s)
    payload["columnar_detect_ops_per_sec"] = round(columnar_ops, 1)
    payload["columnar_detect_speedup"] = round(
        round_ratios[len(round_ratios) // 2], 2
    )
    emit(
        f"columnar: {columnar_ops:,.0f} traces/s per-trace detect "
        f"({payload['columnar_detect_speedup']}x object path, median of "
        f"{_COLUMNAR_ROUNDS} paired rounds; "
        f"{round_ratios[0]:.2f}-{round_ratios[-1]:.2f})"
    )
    assert payload["columnar_detect_speedup"] >= MIN_COLUMNAR_SPEEDUP

    atomic_write_text(
        BENCH_FILENAME, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    emit(f"machine-readable stats -> {BENCH_FILENAME}")

    assert segments > 0
    # "lightweight": the paper's 7.7M-trace campaign must post-process
    # in minutes on one core, i.e. well under 1 ms per trace.
    assert benchmark.stats["mean"] / len(corpus) < 1e-3
