"""The benchmark's own arithmetic: self time, generator spans, percentiles,
metric names.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

#: the BENCHMARK.json name rule
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    """A clock that moves only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


def test_nested_self_time_subtracts_children(clock):
    rec = layers.Recorder(clock)

    def converge():
        clock.advance(3.0)

    converge = rec.wrap("netsim.converge", converge)

    def build():
        clock.advance(1.0)
        converge()
        clock.advance(0.5)
        converge()

    build = rec.wrap("topogen.build", build)
    build()
    assert rec.self_s["topogen.build"] == pytest.approx(1.5)
    assert rec.self_s["netsim.converge"] == pytest.approx(6.0)
    assert rec.calls == {"netsim.converge": 2, "topogen.build": 1}
    assert sum(rec.self_s.values()) == pytest.approx(7.5)


def test_reentrant_self_time_counts_each_second_once(clock):
    rec = layers.Recorder(clock)

    def walk(depth):
        clock.advance(1.0)
        if depth:
            walk(depth - 1)
        clock.advance(1.0)

    walk = rec.wrap("probing.trace", walk, sample=True)
    walk(2)
    # three nested activations, 2 s of own work each
    assert rec.self_s["probing.trace"] == pytest.approx(6.0)
    assert rec.calls["probing.trace"] == 3
    assert sorted(rec.samples["probing.trace"]) == pytest.approx([2.0, 4.0, 6.0])


def test_self_time_survives_exceptions(clock):
    rec = layers.Recorder(clock)

    def inner():
        clock.advance(2.0)
        raise KeyError("boom")

    inner = rec.wrap("core.detect", inner)

    def outer():
        clock.advance(1.0)
        with pytest.raises(KeyError):
            inner()

    rec.wrap("core.accumulate", outer)()
    assert rec.self_s == {
        "core.detect": pytest.approx(2.0),
        "core.accumulate": pytest.approx(1.0),
    }
    assert rec.stack == []


def test_generator_spans_are_timed_inside_next(clock):
    rec = layers.Recorder(clock)

    def decode(n):
        clock.advance(0.25)  # opening the file, on the first next()
        for i in range(n):
            clock.advance(2.0)
            yield i
        clock.advance(0.5)  # closing, on the final next()

    decode = rec.wrap_generator("campaign.spill_decode", decode)

    def consume():
        total = 0
        for item in decode(3):
            clock.advance(5.0)  # the consumer's own work
            total += item
        return total

    assert rec.wrap("core.accumulate", consume)() == 3
    assert rec.self_s["campaign.spill_decode"] == pytest.approx(6.75)
    assert rec.self_s["core.accumulate"] == pytest.approx(15.0)
    assert rec.calls["campaign.spill_decode"] == 4  # 3 items + exhaustion


def test_nested_generators_split_decode_from_build(clock):
    rec = layers.Recorder(clock)

    def decode():
        for i in range(4):
            clock.advance(1.0)
            yield i

    decode = rec.wrap_generator("campaign.spill_decode", decode)

    def batches():
        batch = []
        for item in decode():
            clock.advance(0.5)
            batch.append(item)
            if len(batch) == 2:
                yield batch
                batch = []

    batches = rec.wrap_generator("core.batch_build", batches)
    assert [b for b in batches()] == [[0, 1], [2, 3]]
    assert rec.self_s["campaign.spill_decode"] == pytest.approx(4.0)
    assert rec.self_s["core.batch_build"] == pytest.approx(2.0)


def test_abandoned_generator_is_closed(clock):
    rec = layers.Recorder(clock)
    closed = []

    def source():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = rec.wrap_generator("campaign.spill_decode", source)()
    assert next(gen) == 1
    gen.close()
    assert closed == [True]
    assert rec.stack == []


def test_patch_rebinds_from_imports():
    home = types.ModuleType("repro_benchtest_home")
    user = types.ModuleType("repro_benchtest_user")

    def build():
        return "built"

    home.build = build
    user.build = build  # as ``from repro_benchtest_home import build``
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        rec = layers.Recorder()
        assert layers.patch(
            "repro_benchtest_home:build",
            lambda fn: rec.wrap("topogen.build", fn),
        )
        assert user.build() == "built"
        assert home.build is user.build
        assert rec.calls["topogen.build"] == 1
        assert not layers.patch("repro_benchtest_home:gone", lambda fn: fn)
        assert not layers.patch("repro_benchtest_missing:build", lambda fn: fn)
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_patch_keeps_classmethods():
    module = types.ModuleType("repro_benchtest_cls")

    class Dataset:
        @classmethod
        def iter_jsonl(cls, n):
            yield from range(n)

    module.Dataset = Dataset
    sys.modules[module.__name__] = module
    try:
        rec = layers.Recorder()
        assert layers.patch(
            "repro_benchtest_cls:Dataset.iter_jsonl",
            lambda fn: rec.wrap_generator("campaign.spill_decode", fn),
        )
        assert list(Dataset.iter_jsonl(3)) == [0, 1, 2]
        assert rec.calls["campaign.spill_decode"] == 4
    finally:
        del sys.modules[module.__name__]


@pytest.mark.parametrize(
    "n, wanted, expected",
    [
        (2000, 99.0, 99.0),  # 20 samples beyond p99
        (1000, 99.0, 99.0),  # exactly 10 beyond
        (999, 99.0, 98.0),   # 9 beyond p99: fall back
        (500, 99.0, 98.0),   # 10 beyond p98
        (120, 99.0, 90.0),
        (20, 50.0, 50.0),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, wanted, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    used, value = layers.tail_percentile(samples, wanted)
    assert used == expected
    assert sum(1 for s in samples if s > value) >= 10
    # nearest rank: the value is the ceil(q n)-th smallest sample
    assert value == float(-(-used * n // 100))


def test_tail_percentile_refuses_tiny_samples():
    with pytest.raises(ValueError):
        layers.tail_percentile([1.0] * 19, 50.0)


def test_layer_metrics_report_unattributed_time():
    trace = {
        "self_s": {"probing.trace": 6.0, "campaign.executor": 0.5,
                   "netsim.converge": 2.0},
        "calls": {"probing.trace": 1200, "netsim.converge": 4},
        "samples": {"probing.trace": [i * 1e-6 for i in range(1, 1201)]},
        "counts": {"fingerprint.identified": 3},
    }
    pooled = {"self_s": {"campaign.executor": 7.0}, "calls": {},
              "samples": {}, "counts": {"campaign.workers_spawned": 2}}
    metrics = layers.layer_metrics(trace, pooled, 10.0, 8.0, 123, 45)
    assert metrics["obs.unattributed_s"]["value"] == pytest.approx(2.0)
    assert metrics["obs.trace_overhead_ratio"]["value"] == pytest.approx(1.25)
    assert metrics["campaign.executor_wait_s"]["value"] == 7.0
    assert metrics["campaign.workers_spawned"]["value"] == 2
    assert metrics["probing.trace_p50_us"]["value"] == pytest.approx(600.0)
    assert metrics["probing.trace_p99_us"]["value"] == pytest.approx(1188.0)
    assert metrics["fingerprint.identified_ratio"]["value"] == 0.0
    assert list(metrics) == list(layers.LAYER_METRICS)
    # with the executor in the same trace its self time is a layer
    same = layers.layer_metrics(trace, trace, 10.0, 8.0, 0, 0)
    assert same["obs.unattributed_s"]["value"] == pytest.approx(1.5)


def test_metric_names_follow_the_benchmark_rule():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    names += list(layers.LAYER_METRICS) + list(run.END_TO_END_UNITS)
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert len(set(m["name"] for m in spec["per_layer"])) == len(spec["per_layer"])


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _source) in layers.LAYER_METRICS.items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS
    )
