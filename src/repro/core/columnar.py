"""Columnar trace core: the per-trace AReST detection kernel.

:class:`ColumnarDetector` evaluates the flag hierarchy (Sec. 4) over
one trace at a time, projected onto flat per-hop lists instead of the
hop objects :class:`~repro.core.detector.ArestDetector` walks:
effective top labels, effective stack depths, eligibility and
vendor-range membership are computed in one loop, maximal label runs
(with footnote 4's suffix matching) fall out of a second, and a third
emits the CVR/CO/LSVR/LVR/LSO segments in first-hop order.  Every
detection caller uses it: the pipeline behind each campaign, the
streaming service, ``arest detect`` and the archive re-detection
helpers.  ``benchmarks/test_bench_detector_throughput.py`` times it
against the object path (``columnar_detect_speedup`` in
``BENCH_detector.json``).

The output contract is byte-identical to the object path -- same flags,
same hop indices, same ``suffix_based`` bits, same ordering -- enforced
by the Hypothesis differential suite in
``tests/core/test_columnar_differential.py``.  ``ArestDetector`` stays
the readable specification and that suite's oracle.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.detector import FingerprintLookup, as_lookup
from repro.core.flags import Flag
from repro.core.labels import SUFFIX_DIGITS
from repro.core.segments import DetectedSegment
from repro.core.vendor_ranges import ranges_for_fingerprint
from repro.fingerprint.records import Fingerprint, FingerprintMethod
from repro.netsim.addressing import IPv4Address
from repro.netsim.mpls import ReservedLabel
from repro.probing.records import Trace, TraceHop

_ELI = int(ReservedLabel.ENTROPY_LABEL_INDICATOR)
_FIRST_UNRESERVED = 16
_SUFFIX_MODULUS = 10**SUFFIX_DIGITS


class ColumnarDetector:
    """Per-trace flag evaluation over flat per-hop columns.

    Drop-in for :class:`~repro.core.detector.ArestDetector`: the
    :meth:`detect` method has the identical signature and
    byte-identical output.
    """

    def __init__(
        self,
        min_run_length: int = 2,
        suffix_matching: bool = True,
    ) -> None:
        if min_run_length < 2:
            raise ValueError("consecutive flags need runs of >= 2 hops")
        self._min_run = min_run_length
        self._suffix_matching = suffix_matching

    def detect(
        self,
        trace: Trace,
        fingerprints: Mapping[IPv4Address, Fingerprint] | FingerprintLookup,
        hop_filter: Callable[[TraceHop], bool] | None = None,
        hop_mask: frozenset[int] | set[int] | None = None,
    ) -> list[DetectedSegment]:
        """Detect SR-MPLS segments in one trace.

        Same contract as :meth:`ArestDetector.detect`.  Three tight
        loops over plain per-hop lists: project labels and eligibility,
        find maximal runs, emit segments.
        """
        lookup = as_lookup(fingerprints)
        hops = trace.hops
        n = len(hops)
        tops = [0] * n
        depths = [0] * n
        ranged = [0] * n
        #: eligible top label per hop, -1 where the hop cannot detect
        labels_seq = [-1] * n
        none_method = FingerprintMethod.NONE
        for idx in range(n):
            hop = hops[idx]
            hop_top = -1
            hop_depth = 0
            lses = hop.lses
            if lses:
                skip_next = False
                for entry in lses:
                    if skip_next:
                        skip_next = False
                        continue
                    value = entry.label
                    if value == _ELI:
                        skip_next = True  # entropy value rides along
                        continue
                    if value < _FIRST_UNRESERVED:
                        continue  # other reserved: signalling only
                    if hop_top < 0:
                        hop_top = value
                    hop_depth += 1
            tops[idx] = hop_top
            depths[idx] = hop_depth
            address = hop.address
            ok = (
                hop_top >= 0
                and address is not None
                and not hop.tnt_revealed
            )
            if ok:
                if hop_mask is not None:
                    ok = idx in hop_mask
                elif hop_filter is not None:
                    ok = bool(hop_filter(hop))
            if ok:
                labels_seq[idx] = hop_top
                fp = lookup(address)
                if fp.method is not none_method:
                    for r in ranges_for_fingerprint(fp):
                        if r.low <= hop_top <= r.high:
                            ranged[idx] = 1
                            break
        # maximal run discovery: a chain extends while adjacent eligible
        # tops sequence-match
        suffix = self._suffix_matching
        min_run = self._min_run
        runs: list[tuple[int, int]] = []  # (start, last) inclusive
        run_start = 0
        prev_label = -1
        for idx, label in enumerate(labels_seq):
            if (
                label >= 0
                and prev_label >= 0
                and (
                    label == prev_label
                    or (
                        suffix
                        and label % _SUFFIX_MODULUS
                        == prev_label % _SUFFIX_MODULUS
                    )
                )
            ):
                prev_label = label
                continue
            if prev_label >= 0 and idx - run_start >= min_run:
                runs.append((run_start, idx - 1))
            run_start = idx
            prev_label = label
        if prev_label >= 0 and n - run_start >= min_run:
            runs.append((run_start, n - 1))
        # emission walks the hops once, so output order (runs and
        # singles interleaved by first hop) matches the object path
        segments: list[DetectedSegment] = []
        trusted = DetectedSegment.trusted
        ri = 0
        n_runs = len(runs)
        idx = 0
        while idx < n:
            if ri < n_runs and runs[ri][0] == idx:
                start, last = runs[ri]
                ri += 1
                stop = last + 1
                run_tops = tops[start:stop]
                segments.append(
                    trusted(
                        Flag.CVR if 1 in ranged[start:stop] else Flag.CO,
                        tuple(range(start, stop)),
                        tuple(hops[j].address for j in range(start, stop)),
                        tuple(run_tops),
                        tuple(depths[start:stop]),
                        any(
                            run_tops[j] != run_tops[j + 1]
                            for j in range(len(run_tops) - 1)
                        ),
                    )
                )
                idx = stop
                continue
            if labels_seq[idx] >= 0:
                hop_depth = depths[idx]
                hop_ranged = ranged[idx]
                if hop_depth >= 2:
                    segments.append(
                        trusted(
                            Flag.LSVR if hop_ranged else Flag.LSO,
                            (idx,),
                            (hops[idx].address,),
                            (tops[idx],),
                            (hop_depth,),
                        )
                    )
                elif hop_ranged:
                    segments.append(
                        trusted(
                            Flag.LVR,
                            (idx,),
                            (hops[idx].address,),
                            (tops[idx],),
                            (hop_depth,),
                        )
                    )
            idx += 1
        return segments
