"""The merge algebra of :class:`SegmentAggregate`, Hypothesis-enforced.

``batch_aggregate`` folds a trace list through one accumulator; the
service builds the same aggregate by merging deltas.  Splitting the
list into chunks, aggregating each chunk and merging the chunk
aggregates in any order, under either grouping, must give the
whole-list aggregate field for field -- merge is commutative and
associative, and the one-accumulator fold agrees with it.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.pipeline import ArestPipeline
from repro.service.state import SegmentAggregate, batch_aggregate
from tests.conftest import TARGET_ASN, scaled_examples
from tests.service.conftest import trace_lists


@st.composite
def _chunked(draw):
    """A trace list and its chunks, in a random merge order."""
    traces = draw(trace_lists)
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=len(traces)), max_size=4)
    )
    bounds = [0, *sorted(cuts), len(traces)]
    chunks = [traces[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    order = draw(st.permutations(range(len(chunks))))
    return traces, [chunks[i] for i in order]


def _copy(aggregate: SegmentAggregate) -> SegmentAggregate:
    """A deep copy, so a fold that merges into a part leaves it intact."""
    return SegmentAggregate.from_state_dict(aggregate.as_state_dict())


def _left_fold(parts: list[SegmentAggregate]) -> SegmentAggregate:
    """``((a + b) + c) + ...``"""
    total = SegmentAggregate()
    for part in parts:
        total.merge(part)
    return total


def _right_fold(parts: list[SegmentAggregate]) -> SegmentAggregate:
    """``a + (b + (c + ...))``"""
    total = SegmentAggregate()
    for part in reversed(parts):
        head = _copy(part)
        head.merge(total)
        total = head
    return total


class TestMergeAlgebra:
    @settings(max_examples=scaled_examples(30), deadline=None)
    @given(_chunked(), st.sampled_from([None, TARGET_ASN]))
    def test_chunk_merges_equal_the_whole_batch(self, case, asn):
        traces, chunks = case
        whole = batch_aggregate(traces, asn=asn)
        parts = [batch_aggregate(chunk, asn=asn) for chunk in chunks]
        for merged in (_left_fold(parts), _right_fold(parts)):
            assert merged.as_state_dict() == whole.as_state_dict()
            assert merged.segments_json(asn) == whole.segments_json(asn)

        # the observation tally counts every occurrence the detector
        # emitted -- an oracle that does not share the tally's code
        sink = []
        ArestPipeline().analyze_as(asn, traces, {}, segment_sink=sink)
        assert whole.observations == Counter(
            segment.flag.name for _trace, segments in sink
            for segment in segments
        )
