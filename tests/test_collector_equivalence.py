"""Collector equivalence: columnar vs the dataclass reference, bit for bit.

The columnar collector's whole contract is *invisibility*: any run
summarized through :class:`~repro.metrics.columnar.ColumnarCollector`
must produce output byte-identical to the historical dataclass
collector (kept in ``tests/reference_collector.py``) — every float (same IEEE ops in the same order), every dict
key (same first-occurrence order), every by-class/by-phase/by-epoch
breakdown.  Two layers of evidence:

* a hypothesis property over synthetic record streams, feeding both
  collectors the same scalars and comparing every view plus the full
  ``summarize()`` dict serialized to JSON (key order included);
* end-to-end runs at (shortened) smoke scale across mechanisms, a
  scenario timeline, and strategy dynamics, comparing the summary
  JSON and the counters of a run with the reference collector injected
  into its context against a default (columnar) run of the same config.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.presets import (
    adversarial_config,
    adversarial_scenario,
    flash_crowd_scenario,
    preset,
)
from repro.metrics.columnar import ColumnarCollector
from repro.metrics.records import TerminationReason, TrafficClass
from repro.metrics.summary import summarize
from repro.simulation import FileSharingSimulation, run_simulation
from repro.strategy import StrategySpec
from tests.reference_collector import MetricsCollector

CLASSES = list(TrafficClass)
REASONS = list(TerminationReason)
PHASES = ["", "steady", "flash", "decay"]
PEER_CLASSES = ["", "sharer", "freeloader", "broadband"]

# Record invariants (records.py __post_init__): sessions end at or
# after they start, downloads complete at or after the request, epoch
# sharing counts stay within the enrolled population.  Timestamps are
# built as base + non-negative deltas so generated records are valid.
session_args = st.builds(
    lambda request_time, wait, length, rest: dict(
        request_time=request_time,
        start_time=request_time + wait,
        end_time=request_time + wait + length,
        **rest,
    ),
    request_time=st.floats(0.0, 5_000.0),
    wait=st.floats(0.0, 5_000.0),
    length=st.floats(0.0, 10_000.0),
    rest=st.fixed_dictionaries(
        {
            "provider_id": st.integers(0, 40),
            "requester_id": st.integers(0, 40),
            "object_id": st.integers(0, 200),
            "traffic_class": st.sampled_from(CLASSES),
            "ring_size": st.integers(0, 6),
            "ring_id": st.one_of(st.none(), st.integers(1, 500)),
            "kbit_transferred": st.floats(0.0, 1e6),
            "reason": st.sampled_from(REASONS),
            "requester_is_sharer": st.booleans(),
            "requester_class": st.sampled_from(PEER_CLASSES),
            "phase": st.sampled_from(PHASES),
        }
    ),
)

download_args = st.builds(
    lambda request_time, length, rest: dict(
        request_time=request_time,
        complete_time=request_time + length,
        **rest,
    ),
    request_time=st.floats(0.0, 5_000.0),
    length=st.floats(0.0, 15_000.0),
    rest=st.fixed_dictionaries(
        {
            "peer_id": st.integers(0, 40),
            "object_id": st.integers(0, 200),
            "size_kbit": st.floats(0.0, 1e6),
            "peer_is_sharer": st.booleans(),
            "class_name": st.sampled_from(PEER_CLASSES),
            "phase": st.sampled_from(PHASES),
        }
    ),
)

epoch_args = st.builds(
    lambda enrolled, sharing_fraction, rest: dict(
        enrolled=enrolled,
        sharing=min(enrolled, int(enrolled * sharing_fraction)),
        **rest,
    ),
    enrolled=st.integers(0, 40),
    sharing_fraction=st.floats(0.0, 1.0),
    rest=st.fixed_dictionaries(
        {
            "time": st.floats(0.0, 20_000.0),
            "epoch": st.integers(1, 50),
            "revised": st.integers(0, 40),
            "switched_to_sharing": st.integers(0, 10),
            "switched_to_freeloading": st.integers(0, 10),
            "mean_payoff_sharing": st.one_of(
                st.none(), st.floats(-100.0, 100.0)
            ),
            "mean_payoff_freeloading": st.one_of(
                st.none(), st.floats(-100.0, 100.0)
            ),
            "phase": st.sampled_from(PHASES),
        }
    ),
)

# Adversary bookkeeping arrives through the counter surface; the
# summary's robustness fields read these names plus the by-class views.
ADVERSARY_COUNTERS = [
    "adversary.whitewash",
    "adversary.blacklist_hit",
    "adversary.blacklist_evasion",
    "adversary.sybil_identities",
    "adversary.collusion_refusal",
]

counter_args = st.fixed_dictionaries(
    {
        "name": st.sampled_from(ADVERSARY_COUNTERS),
        "n": st.integers(1, 50),
    }
)

stream = st.lists(
    st.one_of(
        st.tuples(st.just("session"), session_args),
        st.tuples(st.just("download"), download_args),
        st.tuples(st.just("epoch"), epoch_args),
        st.tuples(st.just("count"), counter_args),
    ),
    max_size=60,
)


def summary_json(collector, warmup: float) -> str:
    summary = summarize(
        collector, warmup=warmup, num_sharers=20, num_freeloaders=20
    )
    # A second pass with one class marked adversarial exercises the
    # robustness fields (volumes, honest/adversary means, hit counts)
    # over the same synthetic records.
    adversarial = summarize(
        collector,
        warmup=warmup,
        num_sharers=20,
        num_freeloaders=20,
        adversary_classes=("freeloader",),
    )
    return json.dumps(
        [summary.to_dict(), adversarial.to_dict()], sort_keys=False
    )


@settings(max_examples=80, deadline=None)
@given(events=stream, warmup=st.sampled_from([0.0, 1_000.0, 10_000.0]))
def test_property_identical_over_synthetic_streams(events, warmup):
    dataclass_backend = MetricsCollector()
    columnar_backend = ColumnarCollector()
    for kind, kwargs in events:
        for collector in (dataclass_backend, columnar_backend):
            if kind == "session":
                collector.add_session(**kwargs)
            elif kind == "download":
                collector.add_download(**kwargs)
            elif kind == "count":
                collector.count(kwargs["name"], kwargs["n"])
            else:
                collector.add_strategy_epoch(**kwargs)

    # Record-level views: the columnar materialization restores the
    # exact dataclasses (None sentinels included).
    assert columnar_backend.sessions == dataclass_backend.sessions
    assert columnar_backend.downloads == dataclass_backend.downloads
    assert columnar_backend.strategy_epochs == dataclass_backend.strategy_epochs
    assert columnar_backend.counters == dataclass_backend.counters

    # Summary-input views, including dict key order.
    for sharer in (None, True, False):
        assert columnar_backend.download_times(
            sharer=sharer, warmup=warmup
        ) == dataclass_backend.download_times(sharer=sharer, warmup=warmup)
    for view in ("download_times_by_class", "download_times_by_phase"):
        left = getattr(columnar_backend, view)(warmup=warmup)
        right = getattr(dataclass_backend, view)(warmup=warmup)
        assert list(left.items()) == list(right.items())
    assert dataclasses.asdict(
        columnar_backend.session_aggregates(warmup)
    ) == dataclasses.asdict(dataclass_backend.session_aggregates(warmup))

    # Incremental row feeds (the strategy layer's ingestion surface).
    assert columnar_backend.num_sessions == dataclass_backend.num_sessions
    half = dataclass_backend.num_sessions // 2
    assert list(columnar_backend.session_rows_since(half)) == list(
        dataclass_backend.session_rows_since(half)
    )
    assert list(columnar_backend.download_rows_since(0)) == list(
        dataclass_backend.download_rows_since(0)
    )

    # The headline contract: byte-identical summarize() serialization.
    assert summary_json(columnar_backend, warmup) == summary_json(
        dataclass_backend, warmup
    )


def _shrunk_smoke(**overrides):
    """Smoke preset with a third of the window so 8 runs stay fast."""
    return preset("smoke", duration=9_000.0, warmup=3_000.0, **overrides)


def _run_both(config):
    columnar = run_simulation(config)
    # Inject before build(): every component reads ctx.metrics from there.
    sim = FileSharingSimulation(config)
    sim.ctx.metrics = MetricsCollector()
    dataclass_run = sim.run()
    return columnar, dataclass_run


CELLS = {
    "exchange-2-5-way": lambda: _shrunk_smoke(exchange_mechanism="2-5-way"),
    "pairwise-credit": lambda: _shrunk_smoke(
        exchange_mechanism="pairwise", scheduler_mode="credit"
    ),
    "flashcrowd-scenario": lambda: (
        lambda base: dataclasses.replace(
            base, scenario=flash_crowd_scenario(base)
        )
    )(_shrunk_smoke(exchange_mechanism="2-5-way")),
    "strategy-dynamics": lambda: _shrunk_smoke(
        exchange_mechanism="2-5-way",
        strategy=StrategySpec(
            rule="best-response",
            start=3_000.0,
            revision_period=1_000.0,
            window=3_000.0,
        ),
    ),
    # Adversarial cells: every attack must be collector-invariant too.
    "adversarial-whitewash": lambda: _shrunk_adversarial("credit", "whitewash"),
    "adversarial-sybil": lambda: _shrunk_adversarial("participation", "sybil"),
    "adversarial-collusion": lambda: _shrunk_adversarial("exchange", "collusion"),
}


def _shrunk_adversarial(mechanism, attack, retention="full"):
    """An adversarial robustness cell with a third of the smoke window."""
    config = adversarial_config("smoke", mechanism, attack, 42).replace(
        scenario=(),
        duration=12_000.0,
        warmup=3_000.0,
        metrics_retention=retention,
    )
    return config.replace(scenario=adversarial_scenario(attack, config))


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_end_to_end_runs_identical(cell):
    config = CELLS[cell]()
    columnar, dataclass_run = _run_both(config)
    assert isinstance(columnar.metrics, ColumnarCollector)
    assert isinstance(dataclass_run.metrics, MetricsCollector)
    # Identical trajectory: the collector must not touch the event stream.
    assert columnar.events_fired == dataclass_run.events_fired
    assert dict(columnar.metrics.counters) == dict(dataclass_run.metrics.counters)
    # Identical summaries, serialization order included.
    left = json.dumps(columnar.summary.to_dict(), sort_keys=False)
    right = json.dumps(dataclass_run.summary.to_dict(), sort_keys=False)
    assert left == right
