"""Tests for the per-vendor segment/flag breakdown."""

from repro.analysis.vendor_breakdown import (
    RANGE_PREFIX,
    UNATTRIBUTED,
    VendorBreakdownAccumulator,
    campaign_vendor_breakdown,
    vendor_breakdown,
)
from repro.core.columnar import ColumnarDetector
from repro.core.detector import as_lookup
from repro.fingerprint.records import Fingerprint
from repro.netsim.addressing import IPv4Address
from repro.netsim.vendors import Vendor

from tests.conftest import make_hop, make_trace


def fingerprinted(mapping):
    return {
        IPv4Address.from_string(address): fp
        for address, fp in mapping.items()
    }


class TestAttributionLadder:
    def test_confirming_hop_wins(self):
        """A fingerprinted in-range hop names the vendor exactly."""
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(2, "10.0.0.2", labels=(16001,)),
            ]
        )
        fps = fingerprinted(
            {"10.0.0.2": Fingerprint.from_snmp(Vendor.CISCO)}
        )
        doc = vendor_breakdown([(trace, fps)])
        assert list(doc["vendors"]) == [Vendor.CISCO.value]
        assert doc["vendors"]["Cisco"]["flags"] == {"CVR": 1}

    def test_fingerprint_without_range_still_attributes(self):
        """Out-of-range fingerprint evidence beats label inference."""
        trace = make_trace(
            [
                # Juniper has no Table 1 ranges: the run stays CO but
                # the fingerprint still says whose gear answered
                make_hop(1, "10.0.0.1", labels=(16001,)),
                make_hop(2, "10.0.0.2", labels=(16001,)),
            ]
        )
        fps = fingerprinted(
            {"10.0.0.1": Fingerprint.from_snmp(Vendor.JUNIPER)}
        )
        doc = vendor_breakdown([(trace, fps)])
        assert list(doc["vendors"]) == [Vendor.JUNIPER.value]
        assert doc["vendors"]["Juniper"]["flags"] == {"CO": 1}

    def test_range_inference_is_marked(self):
        """No fingerprints at all: Table 1 gives a prefixed class."""
        trace = make_trace(
            [
                make_hop(1, "10.0.0.1", labels=(16005,)),
                make_hop(2, "10.0.0.2", labels=(16005,)),
            ]
        )
        doc = vendor_breakdown([(trace, {})])
        (vendor,) = doc["vendors"]
        assert vendor.startswith(RANGE_PREFIX)
        assert "Cisco" in vendor and "Huawei" in vendor

    def test_unattributed(self):
        """Deep stack outside every known range, no fingerprints."""
        trace = make_trace(
            [make_hop(1, "10.0.0.1", labels=(500_000, 500_001))]
        )
        doc = vendor_breakdown([(trace, {})])
        assert list(doc["vendors"]) == [UNATTRIBUTED]
        assert doc["vendors"][UNATTRIBUTED]["flags"] == {"LSO": 1}


class TestAccumulator:
    def make_pairs(self):
        pairs = []
        for k in range(10):
            label = 16000 + (k % 2)
            pairs.append(
                (
                    make_trace(
                        [
                            make_hop(1, f"10.2.{k}.1", labels=(label,)),
                            make_hop(2, f"10.2.{k}.2", labels=(label,)),
                        ]
                    ),
                    {},
                )
            )
        return pairs

    def test_order_invariant(self):
        """Any order of the fed traces gives the same document."""
        # repeated traces make distinct-segment dedup part of the check
        pairs = self.make_pairs() + self.make_pairs()[:4]
        detector = ColumnarDetector()
        detections = []
        for trace, fps in pairs:
            lookup = as_lookup(fps)
            detections.append((detector.detect(trace, lookup), lookup))
        docs = []
        for order in (
            detections,
            detections[::-1],
            detections[1::2] + detections[::2],
        ):
            accumulator = VendorBreakdownAccumulator()
            for segments, lookup in order:
                accumulator.feed(segments, lookup)
            docs.append(accumulator.as_doc())
        assert docs[0] == docs[1] == docs[2] == vendor_breakdown(pairs)
        assert docs[0]["segment_occurrences"] == 14
        assert docs[0]["distinct_segments"] == 10

    def test_distinct_vs_occurrences(self):
        pairs = self.make_pairs()
        doc = vendor_breakdown(pairs)
        # 10 occurrences (one run per trace) but only 2 distinct label
        # values x disjoint addresses -> every segment key is distinct
        assert doc["segment_occurrences"] == 10
        assert doc["distinct_segments"] == 10
        assert doc["traces"] == 10


class TestCampaignBreakdown:
    def test_occurrences_match_stored_segments(
        self, small_portfolio_results
    ):
        doc = campaign_vendor_breakdown(small_portfolio_results)
        stored = sum(
            len(segments)
            for result in small_portfolio_results.values()
            for _trace, segments in result.trace_segments
        )
        assert doc["segment_occurrences"] == stored
        assert doc["vendors"]  # the portfolio fingerprints real vendors
        per_vendor = sum(
            entry["occurrences"] for entry in doc["vendors"].values()
        )
        assert per_vendor == stored
