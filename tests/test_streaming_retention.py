"""Streaming retention: flat-memory folds, byte-identical summaries.

``metrics_retention="streaming"`` releases frozen columnar chunks after
folding them into the running aggregates, so it must be *invisible* in
every output it still serves: the summary-input queries and the full
``summarize()`` dict have to match a full-retention collector byte for
byte — same floats (same IEEE fold order), same dict key order.  Views
that need raw record rows must fail loudly, never silently return less,
and the config layer must reject combinations that cannot work
(dataclass backend, adaptive strategy dynamics).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.columnar as columnar_module
from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.experiments.presets import preset
from repro.metrics.columnar import ColumnarCollector, StreamingRetentionError
from repro.metrics.records import TerminationReason, TrafficClass
from repro.metrics.summary import summarize
from repro.population import PeerClassSpec
from repro.simulation import run_simulation
from repro.strategy import StrategySpec

from test_collector_equivalence import stream, summary_json

WARMUPS = [0.0, 1_000.0, 10_000.0]


@contextlib.contextmanager
def chunk_size(chunk: int):
    """Temporarily set the columnar freeze threshold.

    Tiny thresholds force many freeze-fold-release cycles; identity
    must hold for any chunking (a plain fixture cannot carry the
    per-example value under hypothesis, hence a context manager).
    """
    original = columnar_module._CHUNK
    columnar_module._CHUNK = chunk
    try:
        yield
    finally:
        columnar_module._CHUNK = original


def _feed(collector, events):
    for kind, kwargs in events:
        if kind == "session":
            collector.add_session(**kwargs)
        elif kind == "download":
            collector.add_download(**kwargs)
        elif kind == "count":
            collector.count(kwargs["name"], kwargs["n"])
        else:
            collector.add_strategy_epoch(**kwargs)


def _assert_query_surface_identical(streaming, full, warmup):
    for sharer in (None, True, False):
        assert streaming.download_times(
            sharer=sharer, warmup=warmup
        ) == full.download_times(sharer=sharer, warmup=warmup)
    for view in ("download_times_by_class", "download_times_by_phase"):
        left = getattr(streaming, view)(warmup=warmup)
        right = getattr(full, view)(warmup=warmup)
        assert list(left.items()) == list(right.items())
    assert dataclasses.asdict(
        streaming.session_aggregates(warmup)
    ) == dataclasses.asdict(full.session_aggregates(warmup))
    assert streaming.strategy_epochs == full.strategy_epochs
    assert streaming.counters == full.counters
    assert streaming.num_sessions == full.num_sessions
    assert streaming.num_downloads == full.num_downloads
    assert summary_json(streaming, warmup) == summary_json(full, warmup)


@settings(max_examples=60, deadline=None)
@given(
    events=stream,
    warmup=st.sampled_from(WARMUPS),
    chunk=st.sampled_from([1, 3, 7, 4096]),
)
def test_property_streaming_equals_full(events, warmup, chunk):
    """Any stream, any chunking: streaming answers == full answers.

    Tiny chunk sizes force many freeze-fold-release cycles plus a
    partial staging tail; queries are asked mid-stream *and* at the end
    so a query-time drain must not double-fold or lose rows.
    """
    with chunk_size(chunk):
        streaming = ColumnarCollector(retention="streaming", warmup=warmup)
        full = ColumnarCollector()
        half = len(events) // 2
        _feed(streaming, events[:half])
        _feed(full, events[:half])
        # Mid-stream query (forces a tail drain), then keep appending.
        streaming.download_times(warmup=warmup)
        streaming.session_aggregates(warmup)
        _feed(streaming, events[half:])
        _feed(full, events[half:])
        _assert_query_surface_identical(streaming, full, warmup)
        # Asking twice must be idempotent (no re-fold, no mutation leaks).
        _assert_query_surface_identical(streaming, full, warmup)


def test_mutating_a_returned_aggregate_does_not_corrupt_state():
    with chunk_size(2):
        streaming = ColumnarCollector(retention="streaming", warmup=0.0)
        full = ColumnarCollector()
        for collector in (streaming, full):
            for i in range(9):
                collector.add_download(
                    peer_id=i,
                    object_id=i,
                    request_time=10.0 * i,
                    complete_time=10.0 * i + 5.0,
                    size_kbit=100.0,
                    peer_is_sharer=i % 2 == 0,
                )
                collector.add_session(
                    provider_id=i,
                    requester_id=i + 1,
                    object_id=i,
                    traffic_class=list(TrafficClass)[i % 2],
                    ring_size=2,
                    ring_id=None,
                    request_time=10.0 * i,
                    start_time=10.0 * i + 1.0,
                    end_time=10.0 * i + 2.0,
                    kbit_transferred=50.0,
                    reason=list(TerminationReason)[0],
                    requester_is_sharer=True,
                )
        agg = streaming.session_aggregates(0.0)
        agg.session_counts.clear()
        for values in agg.volume_kb_by_class.values():
            values.append(1e9)
        times = streaming.download_times(warmup=0.0)
        times.append(1e9)
        _assert_query_surface_identical(streaming, full, 0.0)


class TestGuards:
    def _streaming(self):
        return ColumnarCollector(retention="streaming", warmup=100.0)

    def test_record_views_raise(self):
        collector = self._streaming()
        with pytest.raises(StreamingRetentionError):
            collector.sessions
        with pytest.raises(StreamingRetentionError):
            collector.downloads
        with pytest.raises(StreamingRetentionError):
            collector.sessions_after(0.0)
        with pytest.raises(StreamingRetentionError):
            collector.downloads_after(0.0)
        with pytest.raises(StreamingRetentionError):
            collector.sessions_by_class()
        with pytest.raises(StreamingRetentionError):
            collector.sessions_by_phase()
        with pytest.raises(StreamingRetentionError):
            list(collector.session_rows_since(0))
        with pytest.raises(StreamingRetentionError):
            list(collector.download_rows_since(0))

    def test_warmup_mismatch_raises(self):
        collector = self._streaming()
        with pytest.raises(ValueError, match="warmup"):
            collector.download_times(warmup=0.0)
        with pytest.raises(ValueError, match="warmup"):
            collector.session_aggregates(0.0)
        # The construction-time warmup works.
        assert collector.download_times(warmup=100.0) == []

    def test_unknown_retention_rejected(self):
        with pytest.raises(ValueError, match="retention"):
            ColumnarCollector(retention="sometimes")

    def test_strategy_epochs_always_available(self):
        collector = self._streaming()
        collector.add_strategy_epoch(
            time=1.0,
            epoch=1,
            enrolled=10,
            sharing=5,
            revised=2,
            switched_to_sharing=1,
            switched_to_freeloading=1,
            mean_payoff_sharing=None,
            mean_payoff_freeloading=2.0,
        )
        assert len(collector.strategy_epochs) == 1


class TestConfigGates:
    def test_streaming_rejects_global_strategy_dynamics(self):
        with pytest.raises(ConfigError, match="strategy"):
            SimulationConfig(
                metrics_retention="streaming",
                strategy=StrategySpec(rule="best-response"),
            )

    def test_streaming_rejects_per_class_strategy_dynamics(self):
        with pytest.raises(ConfigError, match="strategy"):
            SimulationConfig(
                metrics_retention="streaming",
                population=(
                    PeerClassSpec(name="a", fraction=0.5, behavior="sharer"),
                    PeerClassSpec(
                        name="b",
                        behavior="freeloader",
                        strategy=StrategySpec(rule="imitate"),
                    ),
                ),
            )

    def test_streaming_allows_static_strategy(self):
        config = SimulationConfig(
            metrics_retention="streaming",
            strategy=StrategySpec(rule="static"),
        )
        assert config.metrics_retention == "streaming"

    def test_unknown_retention_rejected(self):
        with pytest.raises(ConfigError, match="metrics_retention"):
            SimulationConfig(metrics_retention="sporadic")


def test_end_to_end_streaming_run_identical_to_full():
    """A real run: same trajectory, byte-identical summary, less storage."""
    config = preset("smoke", duration=9_000.0, warmup=3_000.0)
    full_run = run_simulation(config.replace(metrics_retention="full"))
    streaming_run = run_simulation(config.replace(metrics_retention="streaming"))
    assert streaming_run.metrics.retention == "streaming"
    assert streaming_run.events_fired == full_run.events_fired
    assert dict(streaming_run.metrics.counters) == dict(full_run.metrics.counters)
    left = json.dumps(streaming_run.summary.to_dict(), sort_keys=False)
    right = json.dumps(full_run.summary.to_dict(), sort_keys=False)
    assert left == right


def test_streaming_retains_a_fraction_of_full_storage():
    """Past the chunk threshold, streaming keeps only the value arrays.

    A full-retention session row is 15 columns wide; the streaming fold
    keeps two float64 values (volume, waiting) plus per-download time
    rows — well under a third of the frozen footprint.
    """
    streaming = ColumnarCollector(retention="streaming", warmup=0.0)
    full = ColumnarCollector()
    for collector in (streaming, full):
        for i in range(10_000):
            collector.add_session(
                provider_id=i,
                requester_id=i + 1,
                object_id=i % 50,
                traffic_class=list(TrafficClass)[i % 2],
                ring_size=2,
                ring_id=None,
                request_time=float(i),
                start_time=float(i) + 1.0,
                end_time=float(i) + 2.0,
                kbit_transferred=50.0,
                reason=list(TerminationReason)[0],
                requester_is_sharer=i % 2 == 0,
            )
    # Flush both staging tails so the footprints compare frozen rows.
    streaming._sessions.drain()
    full._sessions.drain()
    assert streaming.storage_nbytes() < full.storage_nbytes() / 3


@pytest.mark.parametrize(
    "cell",
    [("credit", "whitewash"), ("participation", "sybil"), ("exchange", "collusion")],
    ids=lambda c: c[1],
)
def test_adversarial_cells_streaming_identical_to_full(cell):
    """Streaming retention is invisible under every attack cell too:
    same trajectory, same counters (the adversary.* names included),
    byte-identical summary with the robustness fields populated."""
    from test_collector_equivalence import _shrunk_adversarial

    mechanism, attack = cell
    full_run = run_simulation(_shrunk_adversarial(mechanism, attack))
    streaming_run = run_simulation(
        _shrunk_adversarial(mechanism, attack, retention="streaming")
    )
    assert streaming_run.events_fired == full_run.events_fired
    assert dict(streaming_run.metrics.counters) == dict(full_run.metrics.counters)
    left = json.dumps(streaming_run.summary.to_dict(), sort_keys=False)
    right = json.dumps(full_run.summary.to_dict(), sort_keys=False)
    assert left == right
    assert streaming_run.summary.adversary_classes == ["adversary"]


def test_summarize_accepts_streaming_collector_directly():
    collector = ColumnarCollector(retention="streaming", warmup=50.0)
    collector.add_download(
        peer_id=1,
        object_id=2,
        request_time=60.0,
        complete_time=120.0,
        size_kbit=100.0,
        peer_is_sharer=True,
    )
    summary = summarize(collector, warmup=50.0, num_sharers=1, num_freeloaders=1)
    assert summary.completed_downloads_sharers == 1
    assert summary.mean_download_time_sharers_min == 1.0
