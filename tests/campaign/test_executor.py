"""Per-task supervision on the lease executor: deadlines, crash
containment, quarantine, and graceful shutdown.

Lease mechanics shared with scale campaigns (work stealing, recycling,
lease renewal) live in ``test_shardexec.py``; this file covers the
per-AS contract the classic portfolio relies on.  Worker functions live
at module level so they survive pickling under any multiprocessing
start method.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.campaign import CampaignRunner
from repro.campaign.executor import GracefulShutdown, TaskStatus
from repro.campaign.runner import _campaign_worker
from repro.campaign.shardexec import LeaseExecutor, WorkerControl

_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for in-test worker subclasses",
)


def well_behaved(payload, ctl):
    ctl.heartbeat("working")
    return payload * 10


def failing(payload, ctl):
    raise ValueError(f"bad payload {payload}")


def hang_on_two(payload, ctl):
    if payload == 2:
        ctl.heartbeat("hanging")
        time.sleep(600)
    return payload * 10


def sigkill_on_two(payload, ctl):
    if payload == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * 10


def crash_once_then_succeed(payload, ctl):
    # A *transient* crash: the marker file exists only on the first
    # attempt, so the one-shot re-dispatch rescues the task.
    marker, value = payload
    if os.path.exists(marker):
        os.unlink(marker)
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


class TestInProcessPath:
    def test_runs_all_tasks_in_order(self):
        engine = LeaseExecutor(well_behaved, jobs=1)
        result = engine.run([("a", 1), ("b", 2), ("c", 3)])
        assert [o.value for o in result.outcomes.values()] == [10, 20, 30]
        assert list(result.outcomes) == ["a", "b", "c"]
        assert not result.interrupted
        assert not result.quarantined

    def test_error_isolation(self):
        engine = LeaseExecutor(failing, jobs=1)
        result = engine.run([("a", 1)])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.ERROR
        assert "ValueError: bad payload 1" in outcome.error

    def test_stop_flag_interrupts_between_tasks(self):
        shutdown = GracefulShutdown()
        seen = []

        def fn(payload, ctl):
            seen.append(payload)
            if payload == 2:
                shutdown.request()
            return payload

        result = LeaseExecutor(fn, jobs=1).run(
            [(k, k) for k in (1, 2, 3)], stop=shutdown
        )
        assert result.interrupted
        assert seen == [1, 2]  # task 3 never dispatched
        assert 3 not in result.outcomes

    def test_duplicate_keys_rejected(self):
        engine = LeaseExecutor(well_behaved, jobs=1)
        with pytest.raises(ValueError, match="unique"):
            engine.run([("a", 1), ("a", 2)])

    def test_on_complete_fires_per_task(self):
        completions = []
        LeaseExecutor(well_behaved, jobs=1).run(
            [("a", 1), ("b", 2)], on_complete=completions.append
        )
        assert [c.key for c in completions] == ["a", "b"]


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LeaseExecutor(well_behaved, jobs=0)
        with pytest.raises(ValueError):
            LeaseExecutor(well_behaved, timeout=0)
        with pytest.raises(ValueError):
            LeaseExecutor(well_behaved, watch_interval=0)
        with pytest.raises(ValueError):
            LeaseExecutor(well_behaved, max_redispatch=-1)


@_needs_fork
class TestSupervisedPool:
    def test_parallel_results_match_serial(self):
        tasks = [(k, k) for k in range(6)]
        serial = LeaseExecutor(well_behaved, jobs=1).run(tasks)
        parallel = LeaseExecutor(well_behaved, jobs=3).run(tasks)
        assert {k: o.value for k, o in parallel.outcomes.items()} == {
            k: o.value for k, o in serial.outcomes.items()
        }

    def test_worker_exception_reported(self):
        result = LeaseExecutor(failing, jobs=2).run([("a", 7)])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.ERROR
        assert "ValueError: bad payload 7" in outcome.error

    def test_hung_worker_is_quarantined_and_rest_complete(self):
        engine = LeaseExecutor(
            hang_on_two,
            jobs=2,
            timeout=0.4,
            watch_interval=0.05,
            max_redispatch=1,
        )
        start = time.monotonic()
        result = engine.run([(k, k) for k in (1, 2, 3)])
        elapsed = time.monotonic() - start
        assert result.outcomes[1].value == 10
        assert result.outcomes[3].value == 30
        victim = result.outcomes[2]
        assert victim.status is TaskStatus.TIMEOUT
        assert victim.attempts == 2  # one re-dispatch, then quarantine
        assert victim.reason == "timeout"
        assert 2 in result.quarantined
        assert result.quarantined[2].reason == "timeout"
        # Two 0.4s deadlines plus watchdog slack, nowhere near the
        # 600s the task wanted to sleep.
        assert elapsed < 5

    def test_heartbeat_watchdog_catches_silent_worker_early(self):
        engine = LeaseExecutor(
            hang_on_two,
            jobs=2,
            timeout=30,  # generous deadline: the lease must trip first
            lease_timeout=0.3,
            watch_interval=0.05,
        )
        start = time.monotonic()
        result = engine.run([(2, 2)])
        elapsed = time.monotonic() - start
        assert result.outcomes[2].status is TaskStatus.TIMEOUT
        assert result.outcomes[2].reason == "hung"
        assert result.quarantined[2].reason == "hung"
        assert elapsed < 5

    def test_sigkilled_worker_is_contained(self):
        engine = LeaseExecutor(sigkill_on_two, jobs=2, watch_interval=0.05)
        result = engine.run([(k, k) for k in (1, 2, 3)])
        assert result.outcomes[1].value == 10
        assert result.outcomes[3].value == 30
        victim = result.outcomes[2]
        assert victim.status is TaskStatus.CRASH
        assert "died without a result" in victim.error
        assert result.quarantined[2].reason == "crash"
        assert result.quarantined[2].attempts == 2

    def test_transient_crash_survives_via_redispatch(self, tmp_path):
        marker = tmp_path / "crash-once"
        marker.touch()
        engine = LeaseExecutor(
            crash_once_then_succeed, jobs=2, watch_interval=0.05
        )
        result = engine.run([("a", (str(marker), 4))])
        outcome = result.outcomes["a"]
        assert outcome.status is TaskStatus.OK
        assert outcome.value == 40
        assert outcome.attempts == 2
        assert not result.quarantined

    def test_stage_heartbeats_surface_in_outcome(self):
        result = LeaseExecutor(well_behaved, jobs=2).run([("a", 1)])
        assert result.outcomes["a"].last_stage == "working"


# -- deadline vs lease, end to end through the portfolio ---------------------

VICTIM = 27
KNOBS = dict(seed=1, vps_per_as=2, targets_per_as=8)


class HeartbeatsForeverOnVictim(CampaignRunner):
    """Keeps renewing its lease every 50 ms, never finishing the AS."""

    def run_as(self, as_id, telemetry_dir=None):
        if as_id == VICTIM:
            while True:
                self._set_stage("probe")
                time.sleep(0.05)
        return super().run_as(as_id, telemetry_dir)


class SilentOnVictim(CampaignRunner):
    """Goes silent inside the probe stage of the victim AS."""

    def run_as(self, as_id, telemetry_dir=None):
        if as_id == VICTIM:
            self._set_stage("probe")
            time.sleep(600)
        return super().run_as(as_id, telemetry_dir)


def _banked_quarantine(path):
    for line in path.read_text().splitlines()[1:]:
        record = json.loads(line)
        if record["as_id"] == VICTIM:
            return record["quarantine"]
    raise AssertionError(f"AS#{VICTIM} not banked as a quarantine")


@_needs_fork
class TestPortfolioQuarantineReasons:
    def test_heartbeating_worker_still_hits_its_deadline(self, tmp_path):
        ckpt = tmp_path / "campaign.ckpt"
        start = time.monotonic()
        report = HeartbeatsForeverOnVictim(**KNOBS).run_portfolio(
            as_ids=[VICTIM],
            checkpoint=ckpt,
            jobs=2,
            timeout_per_as=0.4,
            lease_timeout=0.3,  # heartbeats keep renewing it
        )
        assert time.monotonic() - start < 30
        assert list(report) == []
        quarantine = report.quarantined[VICTIM]
        assert quarantine.reason == "timeout"
        assert quarantine.attempts == 2
        assert quarantine.last_stage == "probe"
        assert _banked_quarantine(ckpt)["reason"] == "timeout"

    def test_silent_worker_is_quarantined_as_hung(self, tmp_path):
        ckpt = tmp_path / "campaign.ckpt"
        start = time.monotonic()
        report = SilentOnVictim(**KNOBS).run_portfolio(
            as_ids=[VICTIM],
            checkpoint=ckpt,
            jobs=2,
            timeout_per_as=60,  # generous deadline: the lease trips first
            lease_timeout=0.3,
        )
        assert time.monotonic() - start < 30
        assert list(report) == []
        quarantine = report.quarantined[VICTIM]
        assert quarantine.reason == "hung"
        assert quarantine.attempts == 2
        assert _banked_quarantine(ckpt)["reason"] == "hung"


class TestFailedAsRecyclesItsWorker:
    def test_only_a_failed_as_asks_for_a_fresh_process(self):
        spawn = CampaignRunner(**KNOBS)._spawn_config()
        for as_id, failed in ((9999, True), (46, False)):  # 9999: unknown
            ctl = WorkerControl()
            message = _campaign_worker(
                (CampaignRunner, spawn, as_id, False, None), ctl
            )
            assert (message["status"] == "error") is failed
            assert ctl.recycle_requested is failed
