"""Measurement campaign orchestration.

- :mod:`repro.campaign.vantage_points` -- the 50-VP fleet of Table 4.
- :mod:`repro.campaign.dataset` -- trace dataset container and JSONL
  (de)serialization.
- :mod:`repro.campaign.runner` -- per-AS campaign execution: topology
  build, TNT probing from every VP, fingerprinting, AReST analysis and
  ground-truth extraction.
- :mod:`repro.campaign.shardexec` -- the one campaign executor: a
  work-stealing pool of persistent, leased workers with per-attempt
  deadlines, crash recovery and quarantine; the classic portfolio and
  scale campaigns both run on it.
  :mod:`repro.campaign.executor` holds the outcome types it shares
  with its callers and :class:`GracefulShutdown`.
- :mod:`repro.campaign.shards` / :mod:`repro.campaign.scale` --
  paper-scale execution: deterministic ``(as_id, vp_bucket)`` shards
  and the two-phase (probe, analyze) scale campaign with spill-file
  streaming and shard-scoped checkpointing.
"""

from repro.campaign.vantage_points import VantagePoint, default_vantage_points
from repro.campaign.dataset import TraceDataset
from repro.campaign.anonymize import PrefixPreservingAnonymizer
from repro.campaign.checkpoint import (
    CampaignCheckpoint,
    CheckpointEntry,
    CheckpointMismatchError,
    FailureStub,
    QuarantineStub,
)
from repro.campaign.executor import (
    ExecutionResult,
    GracefulShutdown,
    Quarantine,
    TaskOutcome,
    TaskStatus,
)
from repro.campaign.runner import (
    AsCampaignResult,
    AsFailure,
    AsQuarantine,
    CampaignReport,
    CampaignRunner,
)
from repro.campaign.checkpoint import ShardCheckpoint
from repro.campaign.scale import ScaleCampaign, ScaleReport
from repro.campaign.shardexec import LeaseExecutor, WorkerControl
from repro.campaign.shards import (
    ShardProbeRecord,
    ShardSpec,
    VpProbe,
    shard_plan,
)

__all__ = [
    "VantagePoint",
    "default_vantage_points",
    "TraceDataset",
    "PrefixPreservingAnonymizer",
    "AsCampaignResult",
    "AsFailure",
    "AsQuarantine",
    "CampaignReport",
    "CampaignRunner",
    "CampaignCheckpoint",
    "CheckpointEntry",
    "CheckpointMismatchError",
    "FailureStub",
    "QuarantineStub",
    "ExecutionResult",
    "GracefulShutdown",
    "Quarantine",
    "TaskOutcome",
    "TaskStatus",
    "LeaseExecutor",
    "WorkerControl",
    "ScaleCampaign",
    "ScaleReport",
    "ShardCheckpoint",
    "ShardProbeRecord",
    "ShardSpec",
    "VpProbe",
    "shard_plan",
]
