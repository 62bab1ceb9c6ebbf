"""Adversarial-pack benchmark: one whitewash robustness cell end to end.

Tracks the PR-over-PR cost of the attacker layer (paper §V): the
``credit x whitewash`` robustness cell — a hostile population laundering
identities against the cooperative-blacklist defense — timed and
published as machine-readable ``BENCH_adversarial_<scale>.json``.  CI's
``adversarial-smoke`` job runs it on every push and uploads the json;
the committed baseline under ``benchmarks/baselines/`` keeps the
trajectory non-empty from day one.

Honours ``REPRO_BENCH_SCALE`` like the figure benches (default
``smoke``).
"""

from __future__ import annotations

import time

from repro.experiments.presets import adversarial_config
from repro.simulation import run_simulation

from conftest import SCALE, SEED, publish_bench, run_once


def _run_adversarial():
    config = adversarial_config(SCALE, "credit", "whitewash", SEED).replace(
        perf_counters=True
    )
    started = time.perf_counter()
    result = run_simulation(config)
    wall = time.perf_counter() - started
    return result, wall


def test_adversarial_cell(benchmark):
    result, wall = run_once(benchmark, _run_adversarial)
    summary = result.summary
    publish_bench(
        "adversarial",
        wall_seconds=wall,
        events_fired=result.events_fired,
        num_peers=result.config.num_peers,
        scenario_events=len(result.config.scenario),
        whitewashes=summary.counters.get("adversary.whitewash", 0),
        blacklisted=summary.counters.get("adversary.blacklisted", 0),
        blacklist_hits=summary.blacklist_hits,
        blacklist_evasions=summary.blacklist_evasions,
        honest_download_inflation=summary.honest_download_inflation,
        counters=result.perf_counters,
    )
    # The attack and the defense must both actually engage.
    assert summary.adversary_classes == ["adversary"]
    assert summary.counters.get("adversary.whitewash", 0) > 0
    assert summary.counters.get("adversary.blacklisted", 0) > 0
    assert summary.blacklist_hits > 0
    assert summary.blacklist_evasions > 0
    assert summary.adversary_volume_mb_by_class["adversary"] > 0.0
    assert summary.honest_download_inflation is not None
