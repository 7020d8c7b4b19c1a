"""JSON checkpointing for interrupted portfolio runs.

The checkpoint persists, per completed AS, exactly what the paper's
campaign would have banked on disk: the collected trace dataset and the
interface fingerprints (plus the fault/retry tallies incurred while
collecting them).  Everything downstream -- bdrmapIT annotation, the
AReST pipeline, alias resolution, ground truth -- is deterministic given
that data and the campaign seed, so resuming re-derives the analysis
without re-firing a single probe and produces a bit-identical report.

The file embeds a config signature (seed, probing knobs, fault plan,
retry policy); resuming under a different configuration raises
:class:`CheckpointMismatchError` rather than silently mixing campaigns.

Since version 2 the on-disk format is JSONL: a header line (kind,
version, config) followed by one line per banked AS.  Banking an AS
appends a single line instead of rewriting the whole file, and a run
killed mid-append at worst truncates the final line -- :meth:`load`
salvages every intact line before the damage, logs what it discarded,
and compacts the file, so ``--resume`` keeps working after a crash or
a partially-synced copy.  Version-1 checkpoints (one JSON object) are
rejected with an error naming the version.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.dataset import TraceDataset, _trace_from_json, _trace_to_json
from repro.fingerprint.records import Fingerprint, FingerprintMethod
from repro.netsim.addressing import IPv4Address
from repro.netsim.faults import FaultCounters
from repro.netsim.vendors import Vendor
from repro.util.journal import (
    append_json_line,
    rewrite_json_lines,
    salvage_decode,
)
from repro.util.retry import RetryAccounting

_KIND = "arest-checkpoint"
_VERSION = 3

logger = logging.getLogger(__name__)


class CheckpointMismatchError(ValueError):
    """The checkpoint was written by a differently-configured campaign."""


@dataclass(slots=True)
class CheckpointEntry:
    """Banked measurement data for one completed AS."""

    dataset: TraceDataset
    fingerprints: dict[IPv4Address, Fingerprint]
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    retry_accounting: RetryAccounting = field(default_factory=RetryAccounting)


@dataclass(slots=True)
class FailureStub:
    """Banked record of one AS that failed deterministically mid-stage.

    Carries the fault/retry tallies the AS had already incurred when it
    failed, so a resumed run folds in exactly the same partial cost and
    reproduces the original report without re-running the failure.
    """

    stage: str
    error: str
    fault_counters: FaultCounters = field(default_factory=FaultCounters)
    retry_accounting: RetryAccounting = field(default_factory=RetryAccounting)

    def as_dict(self) -> dict:
        return {
            "stage": self.stage,
            "error": self.error,
            "fault_counters": self.fault_counters.as_dict(),
            "retry_accounting": self.retry_accounting.as_dict(),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "FailureStub":
        return cls(
            stage=str(record["stage"]),
            error=str(record["error"]),
            fault_counters=FaultCounters.from_dict(
                record.get("fault_counters", {})
            ),
            retry_accounting=RetryAccounting.from_dict(
                record.get("retry_accounting", {})
            ),
        )


@dataclass(slots=True)
class QuarantineStub:
    """Banked record of a poison AS (deadline/crash circuit breaker).

    Resume restores the quarantine instead of re-dispatching: an AS
    that hung or killed its worker twice has proven itself poisonous.
    Delete the checkpoint (or drop the line) to force a re-attempt.
    """

    reason: str
    attempts: int
    detail: str
    #: heartbeat stage the worker last reported before it was killed
    last_stage: str | None = None
    #: supervisor-observed seconds per heartbeat stage (post-mortem)
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        record = {
            "reason": self.reason,
            "attempts": self.attempts,
            "detail": self.detail,
        }
        if self.last_stage is not None:
            record["last_stage"] = self.last_stage
        if self.stage_seconds:
            record["stage_seconds"] = {
                stage: round(seconds, 3)
                for stage, seconds in sorted(self.stage_seconds.items())
            }
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "QuarantineStub":
        last_stage = record.get("last_stage")
        return cls(
            reason=str(record["reason"]),
            attempts=int(record["attempts"]),
            detail=str(record.get("detail", "")),
            last_stage=str(last_stage) if last_stage is not None else None,
            stage_seconds={
                str(stage): float(seconds)
                for stage, seconds in record.get(
                    "stage_seconds", {}
                ).items()
            },
        )


def _fingerprint_to_json(address: IPv4Address, fp: Fingerprint) -> dict:
    return {
        "addr": str(address),
        "method": fp.method.value,
        "vendor": fp.exact_vendor.value if fp.exact_vendor else None,
        "class": sorted(v.value for v in fp.vendor_class),
    }


def _fingerprint_from_json(record: dict) -> tuple[IPv4Address, Fingerprint]:
    address = IPv4Address.from_string(record["addr"])
    fp = Fingerprint(
        method=FingerprintMethod(record["method"]),
        exact_vendor=Vendor(record["vendor"]) if record["vendor"] else None,
        vendor_class=frozenset(Vendor(v) for v in record["class"]),
    )
    return address, fp


def _dataset_to_json(dataset: TraceDataset) -> dict:
    return {
        "target_asn": dataset.target_asn,
        "metadata": dataset.metadata,
        "traces": [_trace_to_json(t) for t in dataset],
    }


def _dataset_from_json(record: dict) -> TraceDataset:
    dataset = TraceDataset(
        target_asn=int(record["target_asn"]),
        metadata=dict(record.get("metadata", {})),
    )
    for trace in record.get("traces", ()):
        dataset.add(_trace_from_json(trace))
    return dataset


def _entry_to_json(entry: CheckpointEntry) -> dict:
    return {
        "dataset": _dataset_to_json(entry.dataset),
        "fingerprints": [
            _fingerprint_to_json(addr, fp)
            for addr, fp in sorted(
                entry.fingerprints.items(), key=lambda item: str(item[0])
            )
        ],
        "fault_counters": entry.fault_counters.as_dict(),
        "retry_accounting": entry.retry_accounting.as_dict(),
    }


def _entry_from_json(record: dict) -> CheckpointEntry:
    return CheckpointEntry(
        dataset=_dataset_from_json(record["dataset"]),
        fingerprints=dict(
            _fingerprint_from_json(fp) for fp in record.get("fingerprints", ())
        ),
        fault_counters=FaultCounters.from_dict(
            record.get("fault_counters", {})
        ),
        retry_accounting=RetryAccounting.from_dict(
            record.get("retry_accounting", {})
        ),
    )


#: discriminator key -> codec for each banked record kind
_RECORD_KINDS = {
    "entry": (_entry_to_json, _entry_from_json),
    "failure": (FailureStub.as_dict, FailureStub.from_dict),
    "quarantine": (QuarantineStub.as_dict, QuarantineStub.from_dict),
}


class CampaignCheckpoint:
    """One checkpoint file bound to one campaign configuration.

    Besides successful entries the file banks *failure stubs* (an AS
    that errored mid-stage, with its partial fault/retry tallies) and
    *quarantine stubs* (an AS whose worker hung or crashed past its
    re-dispatch budget), so a resumed run reproduces the original
    report exactly instead of re-running known-bad ASes.
    """

    def __init__(self, path: str | Path, config: dict) -> None:
        self._path = Path(path)
        self._config = config
        #: as_id -> (record kind, decoded object), in banking order
        self._records: dict[int, tuple[str, object]] = {}
        #: does the on-disk file hold exactly ``_records`` in JSONL form?
        self._synced = False

    @property
    def path(self) -> Path:
        """Location of the checkpoint file."""
        return self._path

    @property
    def _entries(self) -> dict[int, CheckpointEntry]:
        return {
            as_id: obj
            for as_id, (kind, obj) in self._records.items()
            if kind == "entry"
        }

    @property
    def completed_as_ids(self) -> list[int]:
        """ASes banked successfully so far, in completion order."""
        return list(self._entries)

    @property
    def banked_failures(self) -> dict[int, FailureStub]:
        """Failure stubs banked so far (populated by :meth:`load`)."""
        return {
            as_id: obj
            for as_id, (kind, obj) in self._records.items()
            if kind == "failure"
        }

    @property
    def banked_quarantines(self) -> dict[int, QuarantineStub]:
        """Quarantine stubs banked so far (populated by :meth:`load`)."""
        return {
            as_id: obj
            for as_id, (kind, obj) in self._records.items()
            if kind == "quarantine"
        }

    def load(self) -> dict[int, CheckpointEntry]:
        """Read banked entries; missing file means a fresh start.

        A truncated or garbled tail (crash mid-append, partial copy)
        does not lose the campaign: every intact line before the first
        damaged one is salvaged, the discard is logged, and the file is
        compacted to the salvaged prefix so the next append starts from
        a clean state.

        Raises :class:`CheckpointMismatchError` when the file was
        written under a different campaign configuration.
        """
        if not self._path.exists():
            return {}
        with self._path.open("r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header_line = lines[0] if lines else ""
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise ValueError(
                f"not an AReST checkpoint (unparseable header): "
                f"{self._path}"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != _KIND:
            raise ValueError(f"not an AReST checkpoint: {self._path}")
        version = header.get("version")
        if version not in (2, 3) or "completed" in header:
            # A v1 file (one JSON object) would otherwise load as an
            # empty bank, and appending to it would corrupt it.
            raise ValueError(
                f"unsupported checkpoint version {version!r} in "
                f"{self._path}: only JSONL versions 2 and 3 are readable"
            )
        if header.get("config") != self._config:
            raise CheckpointMismatchError(
                f"checkpoint {self._path} was written by a different "
                f"campaign configuration; delete it or rerun with the "
                f"original settings"
            )
        self._records = {}

        def decode(record: dict) -> tuple[int, str, object]:
            as_id = int(record["as_id"])
            kind = next(k for k in _RECORD_KINDS if k in record)
            return as_id, kind, _RECORD_KINDS[kind][1](record[kind])

        # First damaged line: everything after it is suspect too --
        # salvage the intact prefix and drop the rest.
        decoded, damaged = salvage_decode(
            lines[1:],
            decode,
            path=self._path,
            label="checkpoint",
            noun="banked AS(es)",
            logger=logger,
        )
        for as_id, kind, obj in decoded:
            self._records[as_id] = (kind, obj)
        if damaged:
            self._flush()  # compact away the damaged tail
        else:
            self._synced = True
        return dict(self._entries)

    def record(self, as_id: int, entry: CheckpointEntry) -> None:
        """Bank one completed AS."""
        self._bank(as_id, "entry", entry)

    def record_failure(self, as_id: int, stub: FailureStub) -> None:
        """Bank one deterministic per-AS failure with its partial tallies."""
        self._bank(as_id, "failure", stub)

    def record_quarantine(self, as_id: int, stub: QuarantineStub) -> None:
        """Bank one circuit-broken AS so resume does not re-dispatch it."""
        self._bank(as_id, "quarantine", stub)

    def _bank(self, as_id: int, kind: str, obj: object) -> None:
        """Durably append one record (or rewrite when out of sync).

        Appends are flushed and fsynced before returning, so a crash
        after :meth:`record` returns can never lose the banked AS; a
        crash *during* the append at worst truncates the final line,
        which :meth:`load` salvages.
        """
        replacing = self._synced and as_id in self._records
        self._records[as_id] = (kind, obj)
        if self._synced and not replacing:
            encode = _RECORD_KINDS[kind][0]
            append_json_line(self._path, {"as_id": as_id, kind: encode(obj)})
        else:
            self._flush()

    def compact(self, order: list[int] | None = None) -> None:
        """Atomically rewrite the file, optionally in canonical order.

        ``order`` lists as_ids in the desired on-disk order (ids not in
        the list keep their banking order, after the ordered prefix).
        Runs that finish cleanly compact in portfolio order, so a
        checkpoint's bytes are identical however the campaign got there
        -- serial, parallel, or interrupted-then-resumed.
        """
        if order is not None:
            ordered = {
                as_id: self._records[as_id]
                for as_id in order
                if as_id in self._records
            }
            for as_id, record in self._records.items():
                ordered.setdefault(as_id, record)
            if list(ordered) == list(self._records) and self._synced:
                return  # already canonical on disk
            self._records = ordered
        self._flush()

    def _flush(self) -> None:
        """Atomically rewrite header + one line per banked AS."""
        rewrite_json_lines(
            self._path,
            {"kind": _KIND, "version": _VERSION, "config": self._config},
            (
                {"as_id": as_id, _kind: _RECORD_KINDS[_kind][0](obj)}
                for as_id, (_kind, obj) in self._records.items()
            ),
        )
        self._synced = True


# -- shard-scoped checkpointing (format v4) ------------------------------------

_SHARD_KIND = "arest-shard-checkpoint"
_SHARD_VERSION = 4


class ShardCheckpoint:
    """Shard-scoped checkpoint for paper-scale campaigns (format v4).

    Where the per-AS checkpoint banks whole trace datasets, the shard
    checkpoint banks only *facts about* the data -- per-shard probe
    records (spill file name, per-VP trace counts and SHA-256 digests,
    fault/retry tallies) and per-AS analysis summaries -- while the
    traces themselves live in the spill files the records point at.
    That keeps the checkpoint tiny at a million traces and makes resume
    O(records), not O(traces).

    Crash-safety contract (the order matters):

    1. a shard's spill file is atomically renamed into place *first*;
    2. its probe record is durably appended *second*.

    A crash between the two leaves a spill with no record: resume
    re-runs the shard and the atomic re-write replaces the orphan with
    byte-identical content.  A crash mid-append truncates at most the
    final line, which :meth:`load` salvages.  Either way: zero traces
    lost, zero traces duplicated.

    Canonical form: while a run is live, records sit in banking order
    and the header carries the shard ``layout`` (so resume re-derives
    the same shard plan).  On clean completion
    :meth:`compact_canonical` rewrites the file as per-VP probe lines
    plus per-AS analysis lines, sorted, with every partition-dependent
    detail (bucket numbers, spill names, layout) dropped -- so the
    final checkpoint bytes are identical for **any** ``--jobs`` or
    ``--shards`` value, serial, parallel, or crashed-and-resumed.

    Like the v3 format, the header embeds a config signature and
    resuming under a different configuration raises
    :class:`CheckpointMismatchError`.  The layout is deliberately
    *outside* that comparison: re-sharding a resumed run is legal (the
    banked layout simply wins).
    """

    def __init__(
        self,
        path: str | Path,
        config: dict,
        vps_per_shard: int | None = None,
    ) -> None:
        self._path = Path(path)
        self._config = config
        #: shard-plan layout; resume adopts the banked value
        self.vps_per_shard = vps_per_shard
        #: record key -> decoded object, in banking order; keys are
        #: ("probe", (as_id, bucket)), ("vp", (as_id, vp_index)),
        #: ("analysis", as_id), ("failure", as_id),
        #: ("quarantine", (as_id, bucket))
        self._records: dict[tuple, object] = {}
        self._synced = False
        #: True once the file holds the canonical (completed) form
        self.complete = False

    @property
    def path(self) -> Path:
        return self._path

    # -- typed views ----------------------------------------------------------

    @property
    def probed(self) -> dict[tuple[int, int], "ShardProbeRecord"]:
        """Banked per-shard probe records, keyed ``(as_id, bucket)``."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "probe"
        }

    @property
    def vp_probes(self) -> dict[tuple[int, int], "VpProbe"]:
        """Canonical per-VP probe facts, keyed ``(as_id, vp_index)``."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "vp"
        }

    @property
    def analyses(self) -> dict[int, dict]:
        """Banked per-AS analysis summaries (opaque canonical JSON)."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "analysis"
        }

    @property
    def failures(self) -> dict[int, dict]:
        """Banked per-AS analysis failures (stage + error)."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "failure"
        }

    @property
    def quarantines(self) -> dict[tuple[int, int], dict]:
        """Banked per-shard quarantines, keyed ``(as_id, bucket)``."""
        return {
            key[1]: obj
            for key, obj in self._records.items()
            if key[0] == "quarantine"
        }

    # -- load -----------------------------------------------------------------

    def load(self) -> None:
        """Read banked records; missing file means a fresh start.

        Adopts the banked shard layout, salvages a torn tail exactly
        like the v3 loader, and raises
        :class:`CheckpointMismatchError` on a config mismatch.
        """
        if not self._path.exists():
            return
        with self._path.open("r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header_line = lines[0] if lines else ""
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise ValueError(
                f"not an AReST shard checkpoint (unparseable header): "
                f"{self._path}"
            ) from None
        if (
            not isinstance(header, dict)
            or header.get("kind") != _SHARD_KIND
        ):
            raise ValueError(
                f"not an AReST shard checkpoint: {self._path}"
            )
        if header.get("config") != self._config:
            raise CheckpointMismatchError(
                f"shard checkpoint {self._path} was written by a "
                f"different campaign configuration; delete it or rerun "
                f"with the original settings"
            )
        layout = header.get("layout")
        if isinstance(layout, dict) and "vps_per_shard" in layout:
            self.vps_per_shard = int(layout["vps_per_shard"])
        self.complete = bool(header.get("complete", False))
        self._records = {}
        decoded, damaged = salvage_decode(
            lines[1:],
            _shard_record_decode,
            path=self._path,
            label="shard checkpoint",
            noun="shard record(s)",
            logger=logger,
        )
        for key, obj in decoded:
            self._records[key] = obj
        if damaged:
            self._flush()  # compact away the damaged tail
        else:
            self._synced = True

    # -- banking --------------------------------------------------------------

    def record_probe(self, record: "ShardProbeRecord") -> None:
        """Durably bank one completed shard (spill already in place)."""
        self._bank(("probe", record.key), record)

    def record_analysis(self, as_id: int, summary: dict) -> None:
        """Durably bank one AS's canonical analysis summary."""
        self._bank(("analysis", as_id), summary)

    def record_failure(self, as_id: int, stub: dict) -> None:
        """Durably bank one AS whose analysis failed deterministically."""
        self._bank(("failure", as_id), stub)

    def record_quarantine(
        self, key: tuple[int, int], detail: dict
    ) -> None:
        """Durably bank one shard past its re-dispatch budget."""
        self._bank(("quarantine", key), detail)

    def _bank(self, key: tuple, obj: object) -> None:
        replacing = self._synced and key in self._records
        self._records[key] = obj
        if self._synced and not replacing:
            append_json_line(self._path, _shard_record_encode(key, obj))
        else:
            self._flush()

    # -- canonicalization ------------------------------------------------------

    def compact_canonical(self, as_ids: list[int]) -> None:
        """Rewrite the completed checkpoint in its canonical form.

        Per-shard probe records are exploded into per-VP lines (sorted
        by ``(as_id, vp_index)``) with the bucket number and spill name
        dropped; analysis/failure lines follow each AS; quarantines (a
        degraded run only) close the file.  The layout leaves the
        header and ``complete`` enters it.  The result is the same
        byte sequence for every partitioning of the same campaign.
        """
        canonical: dict[tuple, object] = {}
        vp_facts: dict[tuple[int, int], VpProbe] = dict(self.vp_probes)
        for record in self.probed.values():
            for vp in record.vps:
                vp_facts[(record.as_id, vp.vp_index)] = vp
        analyses = self.analyses
        failures = self.failures
        for as_id in as_ids:
            for (a, vp_index) in sorted(
                k for k in vp_facts if k[0] == as_id
            ):
                canonical[("vp", (a, vp_index))] = vp_facts[(a, vp_index)]
            if as_id in analyses:
                canonical[("analysis", as_id)] = analyses[as_id]
            if as_id in failures:
                canonical[("failure", as_id)] = failures[as_id]
        for key in sorted(self.quarantines):
            canonical[("quarantine", key)] = self.quarantines[key]
        self.complete = True
        self._records = canonical
        self._flush()

    def _header(self) -> dict:
        header: dict = {
            "kind": _SHARD_KIND,
            "version": _SHARD_VERSION,
            "config": self._config,
        }
        if self.complete:
            header["complete"] = True
        elif self.vps_per_shard is not None:
            header["layout"] = {"vps_per_shard": self.vps_per_shard}
        return header

    def _flush(self) -> None:
        rewrite_json_lines(
            self._path,
            self._header(),
            (
                _shard_record_encode(key, obj)
                for key, obj in self._records.items()
            ),
        )
        self._synced = True


def _shard_record_encode(key: tuple, obj: object) -> dict:
    """One banked shard-checkpoint record as its JSONL line."""
    kind, ident = key
    if kind == "probe":
        return {"shard": list(ident), "probe": obj.as_dict()}
    if kind == "vp":
        return {"vp": list(ident), "probe": obj.as_dict()}
    if kind == "analysis":
        return {"as_id": ident, "analysis": obj}
    if kind == "failure":
        return {"as_id": ident, "failure": obj}
    if kind == "quarantine":
        return {"shard": list(ident), "quarantine": obj}
    raise ValueError(f"unknown shard record kind: {kind!r}")


def _shard_record_decode(record: dict) -> tuple[tuple, object]:
    """Inverse of :func:`_shard_record_encode` (raises on damage)."""
    from repro.campaign.shards import ShardProbeRecord, VpProbe

    if "vp" in record:
        as_id, vp_index = (int(v) for v in record["vp"])
        return ("vp", (as_id, vp_index)), VpProbe.from_dict(
            record["probe"]
        )
    if "shard" in record:
        as_id, bucket = (int(v) for v in record["shard"])
        if "quarantine" in record:
            return ("quarantine", (as_id, bucket)), dict(
                record["quarantine"]
            )
        return ("probe", (as_id, bucket)), ShardProbeRecord.from_dict(
            as_id, bucket, record["probe"]
        )
    as_id = int(record["as_id"])
    if "analysis" in record:
        return ("analysis", as_id), dict(record["analysis"])
    return ("failure", as_id), dict(record["failure"])
