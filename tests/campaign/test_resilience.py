"""Resilient portfolio execution: error isolation, checkpoint/resume."""

import json

import pytest

from repro.campaign.checkpoint import CampaignCheckpoint, CheckpointMismatchError
from repro.campaign.runner import CampaignReport, CampaignRunner
from repro.netsim.faults import FaultPlan
from repro.util.retry import RetryPolicy


def _runner(**overrides) -> CampaignRunner:
    config = dict(seed=1, vps_per_as=2, targets_per_as=8)
    config.update(overrides)
    return CampaignRunner(**config)


class TestErrorIsolation:
    def test_one_failing_as_does_not_sink_the_portfolio(self):
        report = _runner().run_portfolio(as_ids=[46, 9999, 27])
        assert sorted(report) == [27, 46]
        assert set(report.failures) == {9999}
        failure = report.failures[9999]
        assert failure.stage == "setup"
        assert "no AS#9999 in portfolio" in failure.error
        assert "KeyError" in failure.error

    def test_failure_logged(self, caplog):
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            _runner().run_portfolio(as_ids=[9999])
        assert any("AS#9999 failed" in r.message for r in caplog.records)

    def test_report_is_a_mapping_over_successes(self):
        report = _runner().run_portfolio(as_ids=[46, 9999])
        assert isinstance(report, CampaignReport)
        assert len(report) == 1
        assert 46 in report
        assert report[46].as_id == 46
        assert report.results == {46: report[46]}
        with pytest.raises(KeyError):
            report[9999]

    def test_summary_mentions_failures(self):
        report = _runner().run_portfolio(as_ids=[46, 9999])
        summary = report.summary()
        assert "1 AS(es) completed" in summary
        assert "1 failed" in summary


class TestCheckpointResume:
    FAULTS = FaultPlan(probe_loss=0.05, seed=3)

    def test_resume_equals_uninterrupted(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        uninterrupted = _runner(fault_plan=self.FAULTS).run_portfolio(
            as_ids=[46, 27]
        )

        # "Crash" after the first AS: only 46 lands in the checkpoint.
        first = _runner(fault_plan=self.FAULTS).run_portfolio(
            as_ids=[46], checkpoint=path
        )
        assert sorted(first) == [46]

        resumed = _runner(fault_plan=self.FAULTS).run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == [46]
        assert sorted(resumed) == sorted(uninterrupted)
        for as_id in uninterrupted:
            a, b = uninterrupted[as_id], resumed[as_id]
            assert a.dataset.traces == b.dataset.traces
            assert a.fingerprints == b.fingerprints
            assert a.analysis.flag_counts() == b.analysis.flag_counts()
            assert a.truth.sr_addresses == b.truth.sr_addresses
            assert a.fault_counters == b.fault_counters
            assert a.retry_accounting == b.retry_accounting
        assert (
            resumed.fault_counters.as_dict()
            == uninterrupted.fault_counters.as_dict()
        )

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint"):
            _runner().run_portfolio(as_ids=[46], resume=True)

    def test_missing_checkpoint_file_starts_fresh(self, tmp_path):
        path = tmp_path / "does-not-exist.json"
        report = _runner().run_portfolio(
            as_ids=[46], checkpoint=path, resume=True
        )
        assert sorted(report) == [46]
        assert report.resumed_as_ids == []
        assert path.exists()  # written after the fresh run

    def test_config_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        _runner(seed=1).run_portfolio(as_ids=[46], checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            _runner(seed=2).run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )

    def test_retry_policy_is_part_of_the_signature(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        _runner().run_portfolio(as_ids=[46], checkpoint=path)
        with pytest.raises(CheckpointMismatchError):
            _runner(retry=RetryPolicy.default()).run_portfolio(
                as_ids=[46], checkpoint=path, resume=True
            )

    def test_checkpoint_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        store = CampaignCheckpoint(path, {"seed": 1})
        with pytest.raises(ValueError):
            store.load()

    def test_checkpoint_file_is_jsonl(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        _runner().run_portfolio(as_ids=[46, 27], checkpoint=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + one line per AS
        header = json.loads(lines[0])
        assert header["kind"] == "arest-checkpoint"
        assert header["version"] == 3
        assert {json.loads(line)["as_id"] for line in lines[1:]} == {46, 27}

    def test_failed_as_is_restored_from_bank_on_resume(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        partial = _runner().run_portfolio(
            as_ids=[46, 9999], checkpoint=path
        )
        assert 9999 in partial.failures
        resumed = _runner().run_portfolio(
            as_ids=[46, 9999], checkpoint=path, resume=True
        )
        # 46 restores from the bank; 9999's banked failure stub is
        # restored too, so the resumed report reproduces the partial
        # one exactly instead of re-running a known-bad AS.
        assert resumed.resumed_as_ids == [46]
        assert 9999 in resumed.failures
        assert resumed.failures[9999].error == partial.failures[9999].error
        assert json.dumps(resumed.as_dict(), sort_keys=True) == json.dumps(
            partial.as_dict(), sort_keys=True
        )


class TestCheckpointSalvage:
    """A damaged checkpoint loses at most its damaged tail."""

    def _bank_two(self, path) -> None:
        _runner().run_portfolio(as_ids=[46, 27], checkpoint=path)

    def test_truncated_mid_json_salvages_prefix(self, tmp_path, caplog):
        path = tmp_path / "campaign.ckpt.json"
        self._bank_two(path)
        text = path.read_text()
        # Cut the file in the middle of the last banked AS's JSON line.
        cut = text.rstrip("\n").rfind('"as_id"')
        path.write_text(text[: cut + 20])

        store = CampaignCheckpoint(path, _runner()._config_signature())
        with caplog.at_level("WARNING", logger="repro.campaign.checkpoint"):
            entries = store.load()
        assert list(entries) == [46]  # first AS survives intact
        assert any("salvaged 1" in r.message for r in caplog.records)
        # The file was compacted: a second load is clean and identical.
        caplog.clear()
        entries_again = CampaignCheckpoint(
            path, _runner()._config_signature()
        ).load()
        assert list(entries_again) == [46]
        assert not caplog.records

    def test_garbled_line_discards_suffix(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        self._bank_two(path)
        lines = path.read_text().splitlines()
        lines[1] = '{"as_id": 46, "entry": NOT JSON'
        path.write_text("\n".join(lines) + "\n")

        entries = CampaignCheckpoint(
            path, _runner()._config_signature()
        ).load()
        # Line 2 is damaged, so line 3 (AS 27) is suspect and dropped.
        assert entries == {}

    def test_resume_after_truncation_reruns_lost_as(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        uninterrupted = _runner().run_portfolio(as_ids=[46, 27])
        self._bank_two(path)
        text = path.read_text()
        path.write_text(text[: text.rstrip("\n").rfind("{") + 10])

        resumed = _runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        assert resumed.resumed_as_ids == [46]
        assert sorted(resumed) == [27, 46]
        for as_id in uninterrupted:
            assert (
                resumed[as_id].analysis.flag_counts()
                == uninterrupted[as_id].analysis.flag_counts()
            )

    def test_legacy_v1_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        self._bank_two(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header, entries = lines[0], lines[1:]
        v1 = dict(header, version=1)
        v1["completed"] = {
            str(e["as_id"]): e["entry"] for e in entries
        }
        path.write_text(json.dumps(v1))
        before = path.read_bytes()

        store = CampaignCheckpoint(path, _runner()._config_signature())
        with pytest.raises(ValueError, match="version 1"):
            store.load()
        assert path.read_bytes() == before  # never rewritten

    @pytest.mark.parametrize("version", [None, 4, "3"])
    def test_unknown_checkpoint_version_is_rejected(self, tmp_path, version):
        path = tmp_path / "campaign.ckpt.json"
        self._bank_two(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if version is None:
            del header["version"]
        else:
            header["version"] = version
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        store = CampaignCheckpoint(path, _runner()._config_signature())
        with pytest.raises(ValueError, match=f"version {version!r}"):
            store.load()

    def test_header_carrying_completed_is_rejected(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        self._bank_two(path)
        lines = path.read_text().splitlines()
        header = dict(json.loads(lines[0]), completed={})
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        store = CampaignCheckpoint(path, _runner()._config_signature())
        with pytest.raises(ValueError, match="version 3"):
            store.load()

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ValueError, match="not an AReST checkpoint"):
            CampaignCheckpoint(path, {"seed": 1}).load()


class MidCampaignFaultRunner(CampaignRunner):
    """Probes AS#46 normally, then dies in its fingerprint stage.

    Models an AS that burns real measurement budget (probes, injected
    faults, retries) before failing: exactly the partial work the
    failure stub must carry into the checkpoint.
    """

    def run_as(self, as_id):
        self._current_as = as_id
        return super().run_as(as_id)

    def _fingerprint(self, net, dataset, faults=None):
        if self._current_as == 46:
            raise RuntimeError("fingerprint backend unavailable")
        return super()._fingerprint(net, dataset, faults=faults)


class TestFailureStubTallies:
    """Failed ASes bank their partial fault/retry spend (satellite 1)."""

    FAULTS = FaultPlan(probe_loss=0.2, seed=7)

    def _runner(self) -> CampaignRunner:
        return MidCampaignFaultRunner(
            seed=1, vps_per_as=2, targets_per_as=8, fault_plan=self.FAULTS
        )

    def test_partial_tallies_fold_into_report(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        report = self._runner().run_portfolio(as_ids=[46], checkpoint=path)

        assert sorted(report) == []
        failure = report.failures[46]
        assert failure.stage == "fingerprint"
        # The probe stage ran under a lossy fault plan before the
        # failure, so the stub carries non-zero partial spend...
        assert failure.fault_counters.total_faults() > 0
        assert failure.retry_accounting.probes > 0
        # ...and the portfolio totals include it.
        assert report.fault_counters.total_faults() == (
            failure.fault_counters.total_faults()
        )
        assert report.retry_accounting.probes == (
            failure.retry_accounting.probes
        )

    def test_resume_reproduces_identical_report(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        partial = self._runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path
        )
        resumed = self._runner().run_portfolio(
            as_ids=[46, 27], checkpoint=path, resume=True
        )
        # Nothing re-ran: 27 rehydrates, 46's failure stub restores
        # with its partial tallies, and the reports match exactly.
        assert resumed.resumed_as_ids == [27]
        assert json.dumps(resumed.as_dict(), sort_keys=True) == json.dumps(
            partial.as_dict(), sort_keys=True
        )
