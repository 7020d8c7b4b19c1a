"""Fig. 5 / Table 2 -- the operator survey (N = 46).

Regenerates both panels: vendor shares (5a) and SR-MPLS usage (5b),
plus the SRGB/SRLB default-retention shares quoted in Sec. 3.
"""

import pytest

from repro.analysis.survey import generate_survey, summarize_survey
from repro.util.tables import format_table

from benchmarks.conftest import emit


def test_bench_fig5_survey(benchmark):
    summary = benchmark(
        lambda: summarize_survey(generate_survey(seed=0))
    )
    emit(
        format_table(
            ["Vendor", "Share"],
            [(v, f"{s:.2f}") for v, s in summary.vendors_ranked()],
            title="Fig. 5a -- hardware equipment used for SR-MPLS",
        )
    )
    emit(
        format_table(
            ["Usage", "Share"],
            [(u, f"{s:.2f}") for u, s in summary.usages_ranked()],
            title="Fig. 5b -- SR-MPLS usage",
        )
    )
    emit(
        format_table(
            ["Question", "Keep default"],
            [
                ("SRGB", f"{summary.srgb_default_share:.0%}"),
                ("SRLB", f"{summary.srlb_default_share:.0%}"),
            ],
            title="Sec. 3 -- default range retention",
        )
    )

    # Shape: N = 46; Cisco & Juniper dominate; resilience ranks first;
    # simplification beats TE; best-effort ~40%; 70% / 67% defaults.
    assert summary.num_respondents == 46
    ranked_vendors = [v for v, _ in summary.vendors_ranked()]
    assert set(ranked_vendors[:2]) == {"Cisco", "Juniper"}
    usages = summary.usage_shares
    assert usages["Network Resilience"] == max(usages.values())
    assert usages["Simplify MPLS Management"] > usages["Traffic Engineering"]
    assert usages["Carry Best Effort Traffic"] == pytest.approx(0.4, abs=0.1)
    # exact: 32 of 46 keep the default SRGB (70%), 31 of 46 the SRLB (67%)
    assert summary.srgb_default_share == 32 / 46
    assert summary.srlb_default_share == 31 / 46
    assert round(100 * summary.srgb_default_share) == 70
    assert round(100 * summary.srlb_default_share) == 67
