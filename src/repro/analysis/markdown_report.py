"""Full campaign report generation (markdown).

Bundles every per-AS analysis into one self-describing document: the
deliverable a measurement team would circulate after a campaign run,
and the artifact ``arest report`` writes.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import TYPE_CHECKING, Mapping

from repro.analysis.deployment import deployment_rows
from repro.analysis.fingerprint_stats import (
    fingerprint_share_rows,
    overall_method_split,
    vendor_heatmap,
    vendor_totals,
)
from repro.analysis.stack_stats import (
    aggregate_share_at_least,
    stack_size_rows,
)
from repro.analysis.tunnel_stats import tunnel_type_rows
from repro.analysis.validation import (
    headline_detection,
    validate_against_truth,
)
from repro.campaign.runner import AsCampaignResult
from repro.core.flags import Flag
from repro.core.interworking import InterworkingMode
from repro.probing.tunnels import TunnelType

if TYPE_CHECKING:  # avoid a hard runtime dependency on the obs package
    from repro.obs.summary import TelemetrySummary


def _md_table(headers: list[str], rows: list[list[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def render_markdown_report(
    results: Mapping[int, AsCampaignResult],
    title: str = "AReST campaign report",
    telemetry: "TelemetrySummary | None" = None,
) -> str:
    """One markdown document covering the whole campaign.

    ``telemetry`` (a :class:`~repro.obs.summary.TelemetrySummary`)
    appends a Performance section with per-stage wall-clock totals;
    without it the document is exactly the deterministic core.
    """
    if not results:
        raise ValueError("no campaign results to report on")
    sections = [f"# {title}", ""]
    sections += _headline_section(results)
    sections += _execution_section(results)
    sections += _flags_section(results)
    sections += _deployment_section(results)
    sections += _interworking_section(results)
    sections += _tunnels_section(results)
    sections += _fingerprint_section(results)
    sections += _vendor_breakdown_section(results)
    sections += _data_quality_section(results)
    sections += _validation_section(results)
    if telemetry is not None:
        from repro.obs.summary import performance_section

        sections += performance_section(telemetry)
    return "\n".join(sections) + "\n"


def _headline_section(results) -> list[str]:
    headline = headline_detection(results)
    traces = sum(r.analysis.traces_total for r in results.values())
    addresses = sum(
        len(r.dataset.distinct_addresses()) for r in results.values()
    )
    return [
        "## Headline",
        "",
        f"- {len(results)} ASes analyzed, {traces:,} traces, "
        f"{addresses:,} distinct addresses",
        f"- SR-MPLS detected in {headline.confirmed_detected}/"
        f"{headline.confirmed_total} confirmed ASes "
        f"({headline.confirmed_rate:.0%})",
        f"- evidence in {headline.unconfirmed_detected}/"
        f"{headline.unconfirmed_total} unconfirmed ASes "
        f"({headline.unconfirmed_rate:.0%}), "
        f"{headline.unconfirmed_lso_dominated} of them LSO-dominated",
        "",
    ]


def _execution_section(results) -> list[str]:
    """Execution-plane incidents: failures, quarantines, interrupts.

    Rendered only for a :class:`~repro.campaign.runner.CampaignReport`
    that actually recorded incidents, so reports over clean runs (or
    plain result dicts) are unchanged.
    """
    failures = getattr(results, "failures", {})
    quarantined = getattr(results, "quarantined", {})
    interrupted = getattr(results, "interrupted", False)
    if not failures and not quarantined and not interrupted:
        return []
    lines = ["## Execution incidents", ""]
    if interrupted:
        lines.append(
            "- **run interrupted** (SIGINT/SIGTERM): partial report; "
            "resume from the checkpoint to complete it"
        )
    for failure in failures.values():
        lines.append(
            f"- AS#{failure.as_id} failed during {failure.stage}: "
            f"{failure.error}"
        )
    for quarantine in quarantined.values():
        line = (
            f"- AS#{quarantine.as_id} quarantined ({quarantine.reason} "
            f"after {quarantine.attempts} attempts): {quarantine.detail}"
        )
        last_stage = getattr(quarantine, "last_stage", None)
        if last_stage:
            line += f"; last stage: {last_stage}"
        stage_seconds = getattr(quarantine, "stage_seconds", None)
        if stage_seconds:
            spent = ", ".join(
                f"{stage} {seconds:.1f}s"
                for stage, seconds in sorted(stage_seconds.items())
            )
            line += f" (time per stage: {spent})"
        lines.append(line)
    lines.append("")
    return lines


def _flags_section(results) -> list[str]:
    rows = []
    for as_id in sorted(results):
        result = results[as_id]
        counts = result.analysis.flag_counts()
        rows.append(
            [
                result.spec.label,
                result.spec.name,
                str(result.spec.confirmation),
                *(counts[f] for f in Flag),
            ]
        )
    return [
        "## Detection flags per AS (Fig. 8)",
        "",
        _md_table(
            ["AS", "Name", "Confirmed", *(f.name for f in Flag)], rows
        ),
        "",
    ]


def _deployment_section(results) -> list[str]:
    rows = [
        [
            f"AS#{r.as_id}",
            r.name,
            f"{r.share_hitting_sr:.2f}",
            f"{r.share_hitting_mpls:.2f}",
            r.sr_interfaces,
            r.mpls_interfaces,
            r.ip_interfaces,
        ]
        for r in deployment_rows(results)
    ]
    return [
        "## Deployment view (Fig. 10)",
        "",
        _md_table(
            ["AS", "Name", "hit-SR", "hit-MPLS", "SR if.", "MPLS if.",
             "IP if."],
            rows,
        ),
        "",
    ]


def _interworking_section(results) -> list[str]:
    modes: Counter = Counter()
    sr_sizes: list[int] = []
    ldp_sizes: list[int] = []
    for result in results.values():
        modes.update(result.analysis.interworking_modes)
        sr_sizes.extend(result.analysis.sr_cloud_sizes)
        ldp_sizes.extend(result.analysis.ldp_cloud_sizes)
    hybrid = sum(
        c
        for m, c in modes.items()
        if m not in (InterworkingMode.FULL_SR, InterworkingMode.FULL_LDP)
    )
    lines = [
        "## Interworking (Figs. 11-12)",
        "",
        f"- full-SR tunnels: {modes[InterworkingMode.FULL_SR]}, "
        f"hybrid: {hybrid}",
    ]
    if hybrid:
        for mode in (
            InterworkingMode.SR_TO_LDP,
            InterworkingMode.LDP_TO_SR,
            InterworkingMode.LDP_SR_LDP,
            InterworkingMode.SR_LDP_SR,
            InterworkingMode.OTHER,
        ):
            if modes[mode]:
                lines.append(
                    f"- {mode}: {modes[mode]} "
                    f"({modes[mode] / hybrid:.0%} of hybrids)"
                )
    if sr_sizes and ldp_sizes:
        lines.append(
            f"- cloud sizes: SR mean {statistics.mean(sr_sizes):.2f}, "
            f"LDP mean {statistics.mean(ldp_sizes):.2f}"
        )
    lines.append("")
    return lines


def _tunnels_section(results) -> list[str]:
    totals: Counter = Counter()
    for row in tunnel_type_rows(results):
        for tunnel_type, count in row.counts:
            totals[tunnel_type] += count
    total = sum(totals.values()) or 1
    stack_rows = stack_size_rows(results)
    return [
        "## Tunnel taxonomy (Fig. 13) and stack sizes (Fig. 9)",
        "",
        *(
            f"- {t.value}: {totals[t]} ({totals[t] / total:.0%})"
            for t in TunnelType
            if totals[t]
        ),
        f"- stacks >= 2: {aggregate_share_at_least(stack_rows, 'strong-sr', 2):.0%}"
        f" in strong-SR contexts vs "
        f"{aggregate_share_at_least(stack_rows, 'mpls-lso', 2):.0%} in "
        "MPLS/LSO contexts",
        "",
    ]


def _fingerprint_section(results) -> list[str]:
    rows = fingerprint_share_rows(results)
    ttl_share, snmp_share = overall_method_split(rows)
    totals = vendor_totals(vendor_heatmap(results))
    vendor_bits = ", ".join(
        f"{vendor.value}: {count}" for vendor, count in totals.most_common()
    )
    return [
        "## Fingerprinting (Figs. 14-15)",
        "",
        f"- method split among identified interfaces: TTL {ttl_share:.0%}, "
        f"SNMPv3 {snmp_share:.0%}",
        f"- SNMPv3 vendor totals: {vendor_bits or 'none'}",
        "",
    ]


def _vendor_breakdown_section(results) -> list[str]:
    """Per-vendor segment/flag tallies (Table 1 evidence applied).

    Computed over the segments the campaign already detected; rendered
    only when any segment exists, so empty campaigns are unchanged.
    """
    from repro.analysis.vendor_breakdown import campaign_vendor_breakdown

    doc = campaign_vendor_breakdown(results)
    if not doc["vendors"]:
        return []
    rows = [
        [
            # vendor-class tokens contain "|", which would split the
            # markdown table cell
            vendor.replace("|", "\\|"),
            entry["distinct_segments"],
            entry["occurrences"],
            ", ".join(
                f"{flag} {count}" for flag, count in entry["flags"].items()
            ),
        ]
        for vendor, entry in doc["vendors"].items()
    ]
    return [
        "## Vendor breakdown (Table 1 evidence per segment)",
        "",
        _md_table(
            ["Vendor evidence", "Distinct segments", "Occurrences",
             "Flags"],
            rows,
        ),
        "",
        "- `range:` rows are label-range inference only (overlapping "
        "Table 1 ranges give a vendor class, not an identification)",
        "",
    ]


def _data_quality_section(results) -> list[str]:
    """Sanitizer outcome: anomalies and quarantines, per AS.

    Rendered only when the sanitizer found something, so reports over
    clean campaigns are unchanged.
    """
    rows = []
    kind_totals: Counter = Counter()
    for as_id in sorted(results):
        analysis = results[as_id].analysis
        if not analysis.anomalies and not analysis.traces_quarantined:
            continue
        counts = analysis.anomaly_counts()
        kind_totals.update(counts)
        rows.append(
            [
                f"AS#{as_id}",
                analysis.traces_total,
                analysis.traces_analyzed,
                analysis.traces_quarantined,
                len(analysis.anomalies),
                sum(1 for a in analysis.anomalies if a.repaired),
            ]
        )
    if not rows:
        return []
    kinds = ", ".join(
        f"{kind}: {count}" for kind, count in kind_totals.most_common()
    )
    return [
        "## Data quality (sanitization & quarantine)",
        "",
        _md_table(
            ["AS", "Collected", "Analyzed", "Quarantined", "Anomalies",
             "Repaired"],
            rows,
        ),
        "",
        f"- anomaly kinds: {kinds}",
        "",
    ]


def _validation_section(results) -> list[str]:
    rows = []
    for as_id in sorted(results):
        report = validate_against_truth(results[as_id])
        total = report.total_segments()
        if total == 0:
            continue
        fps = sum(v.false_positives for v in report.per_flag.values())
        rows.append(
            [
                f"AS#{as_id}",
                total,
                fps,
                f"{report.interface_precision:.2f}",
                f"{report.interface_recall:.2f}",
            ]
        )
    return [
        "## Ground-truth validation (Table 3 generalized)",
        "",
        _md_table(
            ["AS", "Distinct segments", "Seg. FPs", "If. precision",
             "If. recall"],
            rows,
        ),
        "",
    ]
