"""Tests for the per-AS AReST pipeline over simulated campaigns."""

import pytest

from repro.core.flags import Flag
from repro.core.pipeline import ArestPipeline
from repro.fingerprint.records import Fingerprint
from repro.netsim.vendors import Vendor
from repro.probing.tnt import TntProber
from repro.probing.tunnels import TunnelType

from tests.conftest import TARGET_ASN, ChainNetwork, make_hop, make_trace


def run_chain(chain: ChainNetwork, fingerprints=None, sink=None):
    prober = TntProber(chain.engine, seed=5)
    traces = [prober.trace(chain.vp.router_id, chain.target)]
    pipeline = ArestPipeline()
    return pipeline.analyze_as(
        TARGET_ASN, traces, fingerprints or {}, segment_sink=sink
    )


class TestAnalyzeAs:
    def test_full_sr_chain(self, sr_chain):
        analysis = run_chain(sr_chain)
        assert analysis.traces_in_as == 1
        assert analysis.flag_counts()[Flag.CO] == 1
        assert analysis.has_sr_evidence()
        assert analysis.strong_share() == 1.0
        assert analysis.traces_hitting_sr == 1
        assert analysis.tunnel_types[TunnelType.EXPLICIT] == 1

    def test_fingerprints_upgrade_to_cvr(self, sr_chain):
        fingerprints = {}
        tr = TntProber(sr_chain.engine, seed=5).trace(
            sr_chain.vp.router_id, sr_chain.target
        )
        for hop in tr.labeled_hops():
            fingerprints[hop.address] = Fingerprint.from_snmp(Vendor.CISCO)
        analysis = run_chain(sr_chain, fingerprints)
        assert analysis.flag_counts()[Flag.CVR] == 1
        assert analysis.flag_counts()[Flag.CO] == 0

    def test_ldp_chain_has_no_sr_evidence(self, ldp_chain):
        analysis = run_chain(ldp_chain)
        assert not analysis.has_sr_evidence(strong_only=False)
        assert analysis.traces_hitting_mpls == 1
        assert analysis.traces_hitting_sr == 0

    def test_traces_outside_as_ignored(self, sr_chain):
        pipeline = ArestPipeline()
        foreign = make_trace([make_hop(1, "10.9.9.1")])
        analysis = pipeline.analyze_as(TARGET_ASN, [foreign], {})
        assert analysis.traces_total == 1
        assert analysis.traces_in_as == 0

    def test_segment_sink_collects(self, sr_chain):
        sink = []
        run_chain(sr_chain, sink=sink)
        assert len(sink) == 1
        trace, segments = sink[0]
        assert segments

    def test_distinct_segments_deduplicated(self, sr_chain):
        prober = TntProber(sr_chain.engine, seed=5)
        traces = [
            prober.trace(sr_chain.vp.router_id, sr_chain.target)
            for _ in range(4)
        ]
        analysis = ArestPipeline().analyze_as(TARGET_ASN, traces, {})
        # the same segment observed four times counts once
        assert analysis.flag_counts()[Flag.CO] == 1
        assert sum(analysis.observations.values()) == 4
        assert analysis.observations == {Flag.CO: 4}

    def test_custom_asn_lookup(self, sr_chain):
        prober = TntProber(sr_chain.engine, seed=5)
        traces = [prober.trace(sr_chain.vp.router_id, sr_chain.target)]
        analysis = ArestPipeline().analyze_as(
            TARGET_ASN, traces, {}, asn_of=lambda hop: None
        )
        assert analysis.traces_in_as == 0


class TestProportions:
    def test_flag_proportions_sum_to_one(self, sr_chain):
        analysis = run_chain(sr_chain)
        proportions = analysis.flag_proportions()
        assert proportions
        assert sum(proportions.values()) == pytest.approx(1.0)

    def test_empty_analysis_is_sane(self):
        pipeline = ArestPipeline()
        analysis = pipeline.analyze_as(TARGET_ASN, [], {})
        assert analysis.flag_proportions() == {}
        assert analysis.strong_share() == 0.0
        assert analysis.explicit_tunnel_share() == 0.0
        assert analysis.interworking_share() == 0.0

    def test_interface_sets_disjoint(self, sr_chain):
        analysis = run_chain(sr_chain)
        assert not analysis.sr_addresses & analysis.mpls_addresses
        assert not analysis.sr_addresses & analysis.ip_addresses
