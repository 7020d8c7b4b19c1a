"""Per-vendor segment and flag breakdown over detected segments.

Which vendor's gear is behind each detected segment?  The paper's
Table 1 ranges and Sec. 5 fingerprints answer per hop; this module
rolls the evidence up per *segment* and tallies flags per vendor, one
trace at a time -- the ``arest detect --vendor-breakdown`` view and
the campaign report's vendor section.

Attribution ladder (strongest evidence wins):

1. a **confirming hop**: fingerprinted AND its top label inside that
   vendor's SR range (the hop that made a CVR a CVR);
2. else the first fingerprinted hop of the segment (evidence of who
   owns the gear, even if the label fell outside the ranges);
3. else pure Table 1 inference from the labels (prefixed ``range:`` --
   ranges overlap, so this is a vendor *class*, not an identification);
4. else ``unattributed``.

The accumulator folds traces as they stream past
(:meth:`~repro.campaign.dataset.TraceDataset.iter_jsonl`), so
paper-scale archives break down in bounded memory.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from repro.core.columnar import ColumnarDetector
from repro.core.detector import FingerprintLookup, as_lookup
from repro.core.flags import Flag
from repro.core.segments import DetectedSegment
from repro.core.vendor_ranges import TABLE1_RANGES, label_in_vendor_range
from repro.fingerprint.records import Fingerprint, FingerprintMethod

#: attribution bucket when no fingerprint or range evidence exists
UNATTRIBUTED = "unattributed"

#: prefix marking Table 1 label-range inference (no fingerprint backing)
RANGE_PREFIX = "range:"


def _vendor_token(fp: Fingerprint) -> str:
    """The fingerprint's vendor evidence ("" when it names none)."""
    if fp.method is FingerprintMethod.NONE:
        return ""
    if fp.exact_vendor is not None:
        return fp.exact_vendor.value
    return "|".join(sorted(v.value for v in fp.vendor_class))


def attribute_vendor(
    segment: DetectedSegment, lookup: FingerprintLookup
) -> str:
    """Vendor token for one segment (see the module attribution ladder).

    ``lookup`` resolves each segment hop's address to its fingerprint;
    the in-range test uses that hop's top label.
    """
    first_fingerprinted = ""
    for address, label in zip(segment.addresses, segment.top_labels):
        fp = lookup(address)
        name = _vendor_token(fp)
        if name:
            if label_in_vendor_range(label, fp):
                return name  # the confirming hop
            if not first_fingerprinted:
                first_fingerprinted = name
    if first_fingerprinted:
        return first_fingerprinted
    inferred = {
        vendor.value
        for label in segment.top_labels
        for vendor, entries in TABLE1_RANGES.items()
        if any(label in r for r, _kind in entries)
    }
    if inferred:
        return RANGE_PREFIX + "|".join(sorted(inferred))
    return UNATTRIBUTED


class VendorBreakdownAccumulator:
    """Streaming per-vendor flag tally, fed one trace at a time.

    Feed each trace's detected segments with the fingerprint lookup they
    were detected under; any order of the fed traces gives the same document
    (distinct segments deduplicate on ``(vendor, segment.key())``).
    """

    def __init__(self) -> None:
        self.traces = 0
        self.occurrences = 0
        #: (vendor, flag name) -> occurrence count
        self._occurrence_counts: Counter = Counter()
        #: (vendor, flag name) -> distinct-segment count
        self._distinct_counts: Counter = Counter()
        self._seen: set = set()

    def feed(
        self, segments: list[DetectedSegment], lookup: FingerprintLookup
    ) -> None:
        """Fold one trace's detected segments."""
        self.traces += 1
        seen = self._seen
        for segment in segments:
            vendor = attribute_vendor(segment, lookup)
            bucket = (vendor, segment.flag.name)
            self._occurrence_counts[bucket] += 1
            self.occurrences += 1
            key = (vendor, segment.key())
            if key not in seen:
                seen.add(key)
                self._distinct_counts[bucket] += 1

    def as_doc(self) -> dict:
        """JSON-ready document (deterministically ordered).

        Vendors sort by distinct-segment count (desc) then name; flags
        within a vendor follow the :class:`Flag` declaration order.
        """
        vendor_totals: Counter = Counter()
        for (vendor, _flag), count in self._distinct_counts.items():
            vendor_totals[vendor] += count
        vendors = {}
        for vendor in sorted(
            vendor_totals, key=lambda v: (-vendor_totals[v], v)
        ):
            flags = {
                flag.name: self._distinct_counts[(vendor, flag.name)]
                for flag in Flag
                if self._distinct_counts[(vendor, flag.name)]
            }
            vendors[vendor] = {
                "distinct_segments": vendor_totals[vendor],
                "occurrences": sum(
                    count
                    for (v, _f), count in self._occurrence_counts.items()
                    if v == vendor
                ),
                "flags": flags,
            }
        return {
            "traces": self.traces,
            "segment_occurrences": self.occurrences,
            "distinct_segments": len(self._seen),
            "vendors": vendors,
        }


def vendor_breakdown(
    pairs: Iterable[tuple],
    detector: ColumnarDetector | None = None,
) -> dict:
    """One-shot breakdown over (trace, fingerprints) pairs.

    Convenience wrapper: detects each trace and returns
    :meth:`VendorBreakdownAccumulator.as_doc`.
    """
    if detector is None:
        detector = ColumnarDetector()
    accumulator = VendorBreakdownAccumulator()
    for trace, fingerprints in pairs:
        lookup = as_lookup(fingerprints)
        accumulator.feed(detector.detect(trace, lookup), lookup)
    return accumulator.as_doc()


def campaign_vendor_breakdown(results: Mapping[int, object]) -> dict:
    """Breakdown over finished campaign results (the report path).

    Reuses the segments each campaign already detected, attributed
    through that campaign's fingerprints, so the numbers agree with
    every other report section by construction.
    """
    accumulator = VendorBreakdownAccumulator()
    for as_id in sorted(results):
        result = results[as_id]
        lookup = as_lookup(result.fingerprints)
        for _trace, segments in result.trace_segments:
            accumulator.feed(segments, lookup)
    return accumulator.as_doc()
