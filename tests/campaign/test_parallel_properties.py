"""Property: parallel execution is invisible in the results.

For any portfolio and any ``jobs`` setting, the canonical report JSON
and the checkpoint bytes must be identical to the serial run.  This is
the acceptance criterion for running the portfolio on the lease
executor's persistent worker pool: concurrency is purely an
execution-plane concern.
"""

import json
import multiprocessing
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignRunner

from tests.conftest import scaled_examples

# One AS per flavour keeps each campaign tiny while still exercising
# heterogeneous results (includes 9999: unknown AS -> banked failure).
_AS_POOL = (7, 15, 27, 31, 46, 59, 9999)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required for the worker pool",
)

_serial_cache: dict[tuple, tuple[str, bytes]] = {}


def _run(as_ids, seed, jobs) -> tuple[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.ckpt"
        runner = CampaignRunner(seed=seed, vps_per_as=1, targets_per_as=4)
        report = runner.run_portfolio(
            as_ids=as_ids, checkpoint=path, jobs=jobs, timeout_per_as=120
        )
        return (
            json.dumps(report.as_dict(), sort_keys=True),
            path.read_bytes(),
        )


def _serial_reference(as_ids, seed) -> tuple[str, bytes]:
    key = (tuple(as_ids), seed)
    if key not in _serial_cache:
        _serial_cache[key] = _run(as_ids, seed, jobs=1)
    return _serial_cache[key]


@settings(max_examples=scaled_examples(4), deadline=None)
@given(
    as_ids=st.lists(
        st.sampled_from(_AS_POOL), min_size=1, max_size=4, unique=True
    ),
    seed=st.sampled_from((1, 3)),
    jobs=st.sampled_from((2, 4)),
)
def test_parallel_report_and_checkpoint_match_serial(as_ids, seed, jobs):
    serial_report, serial_bytes = _serial_reference(as_ids, seed)
    parallel_report, parallel_bytes = _run(as_ids, seed, jobs)
    assert parallel_report == serial_report
    assert parallel_bytes == serial_bytes
