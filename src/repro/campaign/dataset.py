"""Trace dataset container with JSONL (de)serialization.

The paper publishes its collected traces; this container plays that
role for the simulated campaign.  Serialization is line-oriented JSON
(one trace per line) so datasets stream without loading whole files.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.netsim.addressing import IPv4Address
from repro.probing.records import QuotedLse, Trace, TraceHop
from repro.util.atomicio import atomic_writer

#: entries per decode memo.  Archives repeat a small vocabulary of
#: interface addresses and label stack entries across many hops; the
#: bound keeps :meth:`TraceDataset.iter_jsonl` constant-memory on
#: paper-scale archives (~1.9M distinct addresses).
_DECODE_MEMO_SIZE = 16384

#: what a JSON object that is not a well-formed trace record raises
_DECODE_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


@dataclass(slots=True)
class TraceDataset:
    """A batch of traces collected toward one AS of interest."""

    target_asn: int
    traces: list[Trace] = field(default_factory=list)
    #: free-form campaign metadata (seed, VP list, dates, ...)
    metadata: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def add(self, trace: Trace) -> None:
        """Append one trace."""
        self.traces.append(trace)

    def extend(self, traces: Iterable[Trace]) -> None:
        """Append many traces."""
        self.traces.extend(traces)

    # -- aggregate views -----------------------------------------------------

    def distinct_addresses(self) -> set[IPv4Address]:
        """Every responding address across all traces."""
        addresses: set[IPv4Address] = set()
        for trace in self.traces:
            addresses.update(trace.addresses())
        return addresses

    def traces_from_vp(self, vp: str) -> list[Trace]:
        """The traces one vantage point collected."""
        return [t for t in self.traces if t.vp == vp]

    def vantage_points(self) -> list[str]:
        """Sorted names of the contributing VPs."""
        return sorted({t.vp for t in self.traces})

    # -- serialization ----------------------------------------------------------

    def dump_jsonl(self, path: str | Path) -> None:
        """Write the dataset as line-oriented JSON.

        The write is atomic (tmp file + fsync + rename): a crash at any
        instant leaves either the previous file or the complete new
        one, never a torn dataset.
        """
        with atomic_writer(path) as fh:
            header = {
                "kind": "header",
                "target_asn": self.target_asn,
                "metadata": self.metadata,
            }
            fh.write(json.dumps(header) + "\n")
            for trace in self.traces:
                fh.write(json.dumps(_trace_to_json(trace)) + "\n")

    @classmethod
    def read_header(cls, path: str | Path) -> "TraceDataset":
        """Read only the header line: an *empty* dataset shell.

        Constant-cost access to ``target_asn`` and ``metadata`` --
        what `arest detect`-style consumers need before deciding how to
        stream the body.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
        if not header_line:
            raise ValueError(f"empty dataset file: {path}")
        header = _parse_dataset_line(header_line, path, lineno=1)
        if header.get("kind") != "header":
            raise ValueError(f"missing dataset header in {path}")
        return cls(
            target_asn=int(header["target_asn"]),
            metadata=dict(header.get("metadata", {})),
        )

    @classmethod
    def iter_jsonl(cls, path: str | Path) -> Iterator[Trace]:
        """Stream traces from a :meth:`dump_jsonl` file, one at a time.

        Constant memory: each line is decoded, yielded and dropped, so
        paper-scale datasets never need to fit in RAM.  The header is
        validated (use :meth:`read_header` to read it); a malformed
        body line -- bad JSON, or a record that does not decode to a
        trace -- raises :class:`ValueError` naming the file and the
        1-based line number, exactly like the eager loader.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line:
                raise ValueError(f"empty dataset file: {path}")
            header = _parse_dataset_line(header_line, path, lineno=1)
            if header.get("kind") != "header":
                raise ValueError(f"missing dataset header in {path}")
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    record = _parse_dataset_line(line, path, lineno)
                    try:
                        trace = _trace_from_json(record)
                    except _DECODE_ERRORS as exc:
                        raise ValueError(
                            f"{path}: line {lineno}: malformed trace "
                            f"record ({type(exc).__name__}: {exc})"
                        ) from exc
                    yield trace

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "TraceDataset":
        """Read a whole dataset eagerly (thin wrapper over streaming).

        A malformed line raises a :class:`ValueError` naming the file
        and the 1-based line number, so quarantine and salvage logs
        point straight at the damage.  Prefer :meth:`iter_jsonl` when
        the dataset may not fit in memory.
        """
        dataset = cls.read_header(path)
        for trace in cls.iter_jsonl(path):
            dataset.add(trace)
        return dataset


def trace_to_json(trace: Trace) -> dict:
    """Public wire codec: one trace as a JSON-able dict.

    This is the exact per-line schema :meth:`TraceDataset.dump_jsonl`
    writes, re-exported for wire surfaces (the streaming service's
    ``POST /trace`` body) so datasets on disk and traces on the wire
    can never drift apart.
    """
    return _trace_to_json(trace)


def trace_from_json(record: dict) -> Trace:
    """Inverse of :func:`trace_to_json` (raises ``ValueError``/``KeyError``
    on records that are not well-formed trace objects)."""
    return _trace_from_json(record)


def _parse_dataset_line(line: str, path: Path, lineno: int) -> dict:
    """Parse one JSONL line, contextualizing any decode error."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: line {lineno}: malformed JSON ({exc.msg} at "
            f"column {exc.colno})"
        ) from exc


def _hop_to_json(hop: TraceHop) -> dict:
    record: dict = {"ttl": hop.probe_ttl}
    if hop.address is not None:
        record["addr"] = str(hop.address)
    if hop.rtt_ms is not None:
        record["rtt"] = hop.rtt_ms
    if hop.reply_ip_ttl is not None:
        record["rttl"] = hop.reply_ip_ttl
    if hop.lses:
        record["lses"] = [
            [e.label, e.tc, int(e.bottom_of_stack), e.ttl] for e in hop.lses
        ]
    if hop.tnt_revealed:
        record["tnt"] = True
    if hop.destination_reply:
        record["dst"] = True
    if hop.truth_router_id is not None:
        record["t_rid"] = hop.truth_router_id
    if hop.truth_asn is not None:
        record["t_asn"] = hop.truth_asn
    if hop.truth_planes:
        record["t_planes"] = list(hop.truth_planes)
    if not hop.truth_uniform:
        record["t_pipe"] = True
    return record


@functools.lru_cache(maxsize=_DECODE_MEMO_SIZE, typed=True)
def _address(dotted: str) -> IPv4Address:
    """Parse (and range-check) a dotted quad once per distinct value.

    Exceptions are not cached: a malformed value raises again on every
    line that carries it.
    """
    return IPv4Address.from_string(dotted)


@functools.lru_cache(maxsize=_DECODE_MEMO_SIZE, typed=True)
def _lse(label: int, tc: int, bos: int, ttl: int) -> QuotedLse:
    """Build (and range-check) a quoted LSE once per distinct value.

    ``typed=True`` keeps ``16005`` and ``16005.0`` (or ``1`` and
    ``True``) apart, so a memo hit never changes a field's type.
    """
    return QuotedLse(label=label, tc=tc, bottom_of_stack=bool(bos), ttl=ttl)


def _hop_from_json(record: dict) -> TraceHop:
    lses = None
    if "lses" in record:
        lses = tuple(
            _lse(label, tc, bos, ttl)
            for label, tc, bos, ttl in record["lses"]
        )
    return TraceHop(
        probe_ttl=record["ttl"],
        address=_address(record["addr"]) if "addr" in record else None,
        rtt_ms=record.get("rtt"),
        reply_ip_ttl=record.get("rttl"),
        lses=lses,
        tnt_revealed=record.get("tnt", False),
        destination_reply=record.get("dst", False),
        truth_router_id=record.get("t_rid"),
        truth_asn=record.get("t_asn"),
        truth_planes=tuple(record.get("t_planes", ())),
        truth_uniform=not record.get("t_pipe", False),
    )


def _trace_to_json(trace: Trace) -> dict:
    record = {
        "kind": "trace",
        "vp": trace.vp,
        "vp_rid": trace.vp_router_id,
        "dst": str(trace.destination),
        "flow": trace.flow_id,
        "reached": trace.reached,
        "hops": [_hop_to_json(h) for h in trace.hops],
    }
    if trace.epoch_span is not None:
        # only churned campaigns carry the key: static datasets (and
        # their checkpoints) stay byte-identical to the pre-churn format
        record["epochs"] = list(trace.epoch_span)
    return record


def _trace_from_json(record: dict) -> Trace:
    if record.get("kind") != "trace":
        raise ValueError(f"not a trace record: {record.get('kind')!r}")
    epochs = record.get("epochs")
    return Trace(
        vp=record["vp"],
        vp_router_id=record["vp_rid"],
        destination=_address(record["dst"]),
        flow_id=record["flow"],
        hops=tuple(_hop_from_json(h) for h in record["hops"]),
        reached=record["reached"],
        epoch_span=(epochs[0], epochs[1]) if epochs is not None else None,
    )
