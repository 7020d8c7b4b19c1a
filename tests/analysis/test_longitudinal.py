"""Tests for the longitudinal adoption tracker (future-work study)."""

import pytest

from repro.analysis.longitudinal import (
    REFERENCE_YEAR,
    AdoptionTracker,
    adoption_year,
    re_detect_adoption,
    scenario_in_year,
)
from repro.topogen.portfolio import default_portfolio


@pytest.fixture(scope="module")
def portfolio():
    return default_portfolio()


class TestAdoptionYear:
    def test_within_window(self, portfolio):
        for spec in portfolio:
            year = adoption_year(spec, first_year=2018)
            assert 2018 <= year <= REFERENCE_YEAR

    def test_deterministic(self, portfolio):
        spec = portfolio.spec(46)
        assert adoption_year(spec, 2018, seed=3) == adoption_year(
            spec, 2018, seed=3
        )

    def test_confirmed_adopt_earlier_on_average(self, portfolio):
        confirmed = [
            adoption_year(s, 2018)
            for s in portfolio
            if s.confirmation.confirmed
        ]
        unconfirmed = [
            adoption_year(s, 2018)
            for s in portfolio
            if not s.confirmation.confirmed
        ]
        assert sum(confirmed) / len(confirmed) < sum(unconfirmed) / len(
            unconfirmed
        )


class TestScenarioEvolution:
    def test_pre_adoption_is_ldp(self, portfolio):
        spec = portfolio.spec(46)
        start = adoption_year(spec, 2018)
        early = scenario_in_year(spec, start - 1, 2018)
        assert not early.deploys_sr
        assert early.mpls  # the network exists, it just runs LDP

    def test_reference_year_matches_portfolio(self, portfolio):
        for as_id in (46, 15, 27):
            spec = portfolio.spec(as_id)
            evolved = scenario_in_year(spec, REFERENCE_YEAR, 2018)
            assert evolved.deploys_sr == spec.scenario.deploys_sr
            assert evolved.sr_share == spec.scenario.sr_share

    def test_never_adopters_stay_ldp(self, portfolio):
        spec = portfolio.spec(7)  # Proximus never deploys SR
        for year in (2018, 2022, REFERENCE_YEAR):
            assert not scenario_in_year(spec, year, 2018).deploys_sr

    def test_ramp_monotone(self, portfolio):
        spec = portfolio.spec(15)
        shares = [
            scenario_in_year(spec, year, 2018).sr_share
            for year in range(2018, REFERENCE_YEAR + 1)
        ]
        assert shares == sorted(shares)


class TestTracker:
    def test_adoption_curve_monotone_overall(self):
        tracker = AdoptionTracker(
            first_year=2019,
            last_year=2025,
            as_ids=[15, 27, 46, 7, 31],
            seed=1,
            targets_per_as=8,
            vps_per_as=2,
        )
        snapshots = tracker.run()
        assert [s.year for s in snapshots] == list(range(2019, 2026))
        # detection grows from the early to the late window
        early = sum(s.ases_with_sr_evidence for s in snapshots[:2])
        late = sum(s.ases_with_sr_evidence for s in snapshots[-2:])
        assert late > early
        # never-adopters keep the curve below 100% in every year
        assert all(
            s.ases_with_sr_evidence < s.ases_analyzed for s in snapshots
        )

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            AdoptionTracker(first_year=2025, last_year=2020)


class TestReDetection:
    """Fast re-detection over archived JSONL datasets."""

    def archive(self, tmp_path, name, asn, labeled):
        from repro.campaign.dataset import TraceDataset

        from tests.conftest import make_hop, make_trace

        traces = []
        for k in range(6):
            if labeled:
                hops = [
                    make_hop(1, f"10.3.{k}.1", labels=(16001,)),
                    make_hop(2, f"10.3.{k}.2", labels=(16001,)),
                ]
            else:
                hops = [
                    make_hop(1, f"10.3.{k}.1"),
                    make_hop(2, f"10.3.{k}.2"),
                ]
            hops = [h.with_annotation(truth_asn=asn) for h in hops]
            traces.append(make_trace(hops))
        path = tmp_path / name
        TraceDataset(target_asn=asn, traces=traces).dump_jsonl(path)
        return path

    def test_curve_from_archives(self, tmp_path):
        archives = {
            2020: [
                self.archive(tmp_path, "a2020.jsonl", 65001, labeled=False)
            ],
            2024: [
                self.archive(tmp_path, "a2024.jsonl", 65001, labeled=True),
                self.archive(tmp_path, "b2024.jsonl", 65002, labeled=False),
            ],
        }
        snapshots = re_detect_adoption(archives)
        assert [s.year for s in snapshots] == [2020, 2024]
        first, second = snapshots
        assert first.datasets == 1
        assert first.traces == 6
        assert first.ases_with_sr_evidence == 0
        assert first.detection_share == 0.0
        assert second.datasets == 2
        assert second.traces == 12
        assert second.ases_analyzed == 2
        # the 16001 x 16001 run raises CO (strong) for AS65001 only
        assert second.ases_with_sr_evidence == 1
        assert second.detection_share == 0.5

    def test_mask_respects_target_asn(self, tmp_path):
        # labels live on hops owned by a DIFFERENT AS than the archive
        # target: the ownership mask must suppress the evidence
        from repro.campaign.dataset import TraceDataset

        from tests.conftest import make_hop, make_trace

        hops = [
            make_hop(1, "10.4.0.1", labels=(16001,)).with_annotation(
                truth_asn=64999
            ),
            make_hop(2, "10.4.0.2", labels=(16001,)).with_annotation(
                truth_asn=64999
            ),
        ]
        path = tmp_path / "foreign.jsonl"
        TraceDataset(target_asn=65001, traces=[make_trace(hops)]).dump_jsonl(
            path
        )
        snapshots = re_detect_adoption({2024: [path]})
        assert snapshots[0].ases_with_sr_evidence == 0
