"""Fast tests of the benchmark harness on a tiny config.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types

import pytest

import harness
import tracer
from harness import Workload, measure

TINY = Workload(
    name="tiny",
    why="40 peers, 3,000 simulated seconds",
    preset="smoke",
    overrides=dict(exchange_mechanism="2-5-way", duration=3_000.0, warmup=500.0),
    child_s=1.0,
    completes_downloads=False,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def traced_run():
    return measure(TINY, seed=3, seconds=0, trace=True, run=harness.in_process)


def test_metric_names_and_units_are_valid(traced_run):
    metrics = dict(harness.end_to_end(traced_run), **harness.per_layer(traced_run))
    assert set(harness.end_to_end(traced_run)) == {
        "events_per_s", "wall_s", "setup_s", "peak_rss_mb"
    }
    for name, (value, unit) in metrics.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert isinstance(value, (int, float)), name


def test_benchmark_json_lists_exactly_the_printed_metrics(traced_run):
    with open(harness.HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"] for m in spec["end_to_end"]} == set(harness.end_to_end(traced_run))
    assert {m["name"] for m in spec["per_layer"]} == set(harness.per_layer(traced_run))
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
    units = dict(harness.end_to_end(traced_run), **harness.per_layer(traced_run))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]][1], metric["name"]


def test_traced_and_untraced_runs_agree(traced_run):
    assert traced_run.failed == 0, traced_run.problems
    plain, traced = traced_run.plain[0], traced_run.traced[0]
    assert plain["events_fired"] == traced["events_fired"] > 0
    assert plain["summary_sha256"] == traced["summary_sha256"]
    wall = traced["host_s"]["wall"]
    shares = sum(layer["self_s"] for layer in traced["layers"].values()) / wall
    assert shares == pytest.approx(1.0, abs=0.01)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9];  gap 9..10
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = tracer.span_self_times(starts, ends, parents)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == 10.0


def test_tracer_records_spans_and_restores_originals():
    def leaf():
        return 1

    def generator():
        yield module.leaf()
        yield module.leaf()

    module = types.ModuleType("repro_fake_layers")
    module.leaf, module.generator = leaf, generator
    sys.modules[module.__name__] = module
    try:
        with tracer.Tracer(
            [("leaf", "repro_fake_layers:leaf"), ("gen", "repro_fake_layers:generator")]
        ) as t:
            assert list(module.generator()) == [1, 1]
            assert module.leaf() == 1
        assert module.leaf is leaf and module.generator is generator
    finally:
        del sys.modules[module.__name__]
    ledger = t.ledger()
    assert ledger["leaf"]["calls"] == 3
    assert ledger["gen"]["calls"] == 1
    # Two yielded items plus the final StopIteration: three resumptions.
    assert list(t.layer_of).count(t.layers.index("gen")) == 3
    assert t.min_self_s() >= 0


def test_raising_layer_counts_as_failed(monkeypatch):
    from repro.core import request_tree

    def broken(*args, **kwargs):
        raise RuntimeError("planted fault")

    monkeypatch.setattr(request_tree, "tree_peer_set", broken)
    monkeypatch.setattr("repro.core.irq.tree_peer_set", broken)
    out = measure(TINY, seed=3, seconds=0, trace=False, run=harness.in_process)
    assert out.attempted == harness.MIN_REPEATS
    assert out.failed == out.attempted
    assert out.error_rate == 1.0
    assert "planted fault" in out.problems[0]


def test_failed_output_check_counts_as_failed():
    pinned = dataclasses.replace(TINY, pin_seed42=1)
    out = measure(pinned, seed=42, seconds=0, trace=False, run=harness.in_process)
    # Only the first child simulates seed 42 itself; the others use
    # derived seeds and pass.
    assert out.attempted == harness.MIN_REPEATS
    assert out.failed == 1
    assert "seed-42 pin" in out.problems[0]


def test_child_process_reports_one_record():
    record = harness.spawn(TINY.spec(seed=3, traced=False), timeout=60)
    assert record["events_fired"] > 0
    assert record["peak_rss_mb"] > 0
