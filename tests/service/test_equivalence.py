"""The service's headline contract, Hypothesis-enforced.

Streaming the same traces -- in any arrival order, any batch split,
with compaction landing at any point, even across a recovery -- must
produce ``GET /segments`` bytes identical to the batch pipeline over
the same set.  The batch pipeline folds the whole set through one
accumulator while the service merges one delta per trace, so these
properties are a real differential between two folds, not a
restatement of one.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings, strategies as st

from repro.service.state import (
    SegmentAggregate,
    ServiceState,
    analyze_trace,
    batch_aggregate,
)
from tests.conftest import scaled_examples
from tests.service.conftest import trace_lists


@st.composite
def _shuffled_with_splits(draw):
    """A trace list, an arrival order, and batch boundaries."""
    traces = draw(trace_lists)
    order = draw(st.permutations(range(len(traces))))
    boundaries = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(len(traces), 1)),
            max_size=3,
        )
    )
    return traces, order, sorted(set(boundaries))


class TestStreamingEqualsBatch:
    @settings(max_examples=scaled_examples(30), deadline=None)
    @given(_shuffled_with_splits())
    def test_any_order_merges_to_the_batch_bytes(self, case):
        traces, order, _boundaries = case
        total = SegmentAggregate()
        for index in order:
            total.merge(analyze_trace(traces[index]))
        assert total.segments_json(65001) == batch_aggregate(
            traces
        ).segments_json(65001)

    @settings(max_examples=scaled_examples(15), deadline=None)
    @given(_shuffled_with_splits())
    def test_durable_store_preserves_the_bytes_across_recovery(self, case):
        traces, order, boundaries = case
        expected = batch_aggregate(traces).segments_json()
        with tempfile.TemporaryDirectory() as tmp:
            state = ServiceState(tmp, snapshot_every=2)
            # accept in the drawn batch splits (journal order)...
            splits = [0, *boundaries, len(traces)]
            seqs: list[int] = []
            for lo, hi in zip(splits, splits[1:]):
                seqs.extend(state.accept(traces[lo:hi]))
            assert sorted(seqs) == list(range(1, len(traces) + 1))
            # ...fold in the drawn arrival order, compacting when due
            for index in order:
                state.ingest(
                    seqs[index], analyze_trace(traces[index])
                )
                if state.compaction_due:
                    state.compact()
            assert state.aggregate.segments_json() == expected

            # a restart (snapshot + journal tail replay) keeps the bytes
            recovered = ServiceState(tmp, snapshot_every=2)
            recovered.recover()
            assert recovered.aggregate.segments_json() == expected
