"""Runtime complement to simlint's FPR001: fingerprints see every knob.

FPR001 proves *statically* that no spec field can escape
``SimulationConfig.to_dict``; this module proves it *dynamically* — for
every field of ``SimulationConfig`` (and of every nested spec dataclass:
``PeerClassSpec``, the scenario event types, ``StrategySpec``), mutating
just that field must change :func:`config_fingerprint`.  A field whose
mutation leaves the hash unchanged would let two different experiments
share one result-cache entry — the exact bug class the cache's
``CACHE_SCHEMA_VERSION`` history exists to remember.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.experiments.orchestrator import config_fingerprint
from repro.population import PeerClassSpec
from repro.scenario import (
    EVENT_TYPES,
    FlashCrowd,
    IdentityWhitewash,
    Phase,
    StrategyShock,
    SybilSpawn,
)
from repro.strategy import StrategySpec


def base_config() -> SimulationConfig:
    """A config exercising every nested spec: population, scenario, strategy."""
    return SimulationConfig(
        num_peers=20,
        population=(
            PeerClassSpec(name="a", fraction=0.5, behavior="sharer"),
            PeerClassSpec(
                name="b",
                behavior="freeloader",
                strategy=StrategySpec(rule="best-response"),
            ),
            # Adversary-capable classes so IdentityWhitewash / SybilSpawn
            # events validate; two sybil classes so class_name mutation
            # can stay within the required kind.
            PeerClassSpec(name="ww", fraction=0.1, behavior="freeloader", adversary="whitewash"),
            PeerClassSpec(name="syb", fraction=0.1, behavior="freeloader", adversary="sybil"),
            PeerClassSpec(name="syb2", fraction=0.05, behavior="freeloader", adversary="sybil"),
        ),
        scenario=(
            Phase(time=0.0, name="steady"),
            FlashCrowd(time=1_000.0, count=2),
            StrategyShock(time=2_000.0, flip_fraction=0.1),
        ),
        strategy=StrategySpec(rule="imitate"),
    )


def mutate(value, field: dataclasses.Field):
    """A different-but-valid value for one dataclass field."""
    name = field.name
    if name == "seed":
        return value + 1
    if name == "exchange_mechanism":
        return "pairwise" if value != "pairwise" else "2-5-way"
    if name == "scheduler_mode":
        return "credit" if value != "credit" else "participation"
    if name == "ring_break_policy":
        return "downgrade" if value != "downgrade" else "terminate"
    if name == "rule":
        return "epsilon-greedy" if value != "epsilon-greedy" else "imitate"
    if name == "behavior":
        return "freeloader" if value != "freeloader" else "sharer"
    if name == "name":
        return str(value) + "-renamed"
    if name == "class_name":
        return "a" if value != "a" else "b"
    if name == "service_discipline":
        return "credit" if value != "credit" else "fifo"
    if name == "adversary":
        return "whitewash" if value != "whitewash" else "sybil"
    if name in ("initial_fill_fraction", "lookup_coverage"):
        return 0.5 if value != 0.5 else 0.75  # stay inside the validated (0,1] range
    if isinstance(value, StrategySpec):
        return dataclasses.replace(value, revision_period=value.revision_period + 1.0)
    if isinstance(value, PeerClassSpec):
        return dataclasses.replace(value, name=value.name + "-x")
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.125
    if isinstance(value, str):
        return value + "-x"
    if value is None:
        # Optional fields: give them a real value of the annotated kind.
        if name in ("count",):
            return 3
        if name in ("category_id",):
            return 0
        if name in ("fraction", "start"):
            return 0.25
        if name.endswith("_kbit"):
            return 640.0
        if name.endswith("_min") or name.endswith("_max") or name.endswith("_objects"):
            return 7
        if name == "strategy":
            return StrategySpec(rule="best-response")
        if name == "spec":
            return PeerClassSpec(name="inline", behavior="sharer")
        return 1
    if isinstance(value, dict):
        return {**value, "extra-knob": 1}
    if isinstance(value, tuple):
        return value + value[-1:] if value else value
    raise AssertionError(f"no mutation strategy for field {name}={value!r}")


def fingerprints_differ(base: SimulationConfig, mutated: SimulationConfig) -> bool:
    return config_fingerprint(base) != config_fingerprint(mutated)


@pytest.mark.parametrize(
    "field", dataclasses.fields(SimulationConfig), ids=lambda f: f.name
)
def test_every_top_level_field_moves_the_fingerprint(field):
    base = base_config()
    value = getattr(base, field.name)
    if field.name == "metrics_retention":
        # Streaming retention is invalid alongside the dynamic-strategy
        # base config, so flip the field on a static variant — the
        # field must still move the hash there.
        base = base.replace(strategy=None, population=(), scenario=())
        mutated = base.replace(metrics_retention="streaming")
        assert fingerprints_differ(base, mutated), (
            "mutating SimulationConfig.metrics_retention left the cache "
            "fingerprint unchanged"
        )
        return
    if field.name == "population":
        mutated_value = value + (PeerClassSpec(name="c", count=0),)
    elif field.name == "scenario":
        mutated_value = value + (Phase(time=3_000.0, name="late"),)
    elif field.name == "freeloader_fraction":
        # The derived legacy split is overridden by the explicit
        # population above, but the field must still be fingerprinted.
        mutated_value = 0.25
    else:
        mutated_value = mutate(value, field)
    mutated = base.replace(**{field.name: mutated_value})
    assert fingerprints_differ(base, mutated), (
        f"mutating SimulationConfig.{field.name} left the cache fingerprint "
        "unchanged — two different experiments would share a cache entry"
    )


@pytest.mark.parametrize(
    "field",
    [f for f in dataclasses.fields(PeerClassSpec) if f.name not in ("count", "fraction")],
    ids=lambda f: f.name,
)
def test_every_peer_class_field_moves_the_fingerprint(field):
    base = base_config()
    spec = base.population[1]  # the remainder class: sizing stays consistent
    mutated_spec = dataclasses.replace(spec, **{field.name: mutate(getattr(spec, field.name), field)})
    mutated = base.replace(population=(base.population[0], mutated_spec))
    assert fingerprints_differ(base, mutated), (
        f"mutating PeerClassSpec.{field.name} left the cache fingerprint unchanged"
    )


def test_peer_class_sizing_fields_move_the_fingerprint():
    base = base_config()
    resized = dataclasses.replace(base.population[0], fraction=0.25)
    mutated = base.replace(population=(resized, base.population[1]))
    assert fingerprints_differ(base, mutated)
    counted = dataclasses.replace(base.population[0], fraction=None, count=10)
    mutated = base.replace(population=(counted, base.population[1]))
    assert fingerprints_differ(base, mutated)


@pytest.mark.parametrize(
    "field", dataclasses.fields(StrategySpec), ids=lambda f: f.name
)
def test_every_strategy_field_moves_the_fingerprint(field):
    base = base_config()
    spec = base.strategy
    mutated_spec = dataclasses.replace(
        spec, **{field.name: mutate(getattr(spec, field.name), field)}
    )
    mutated = base.replace(strategy=mutated_spec)
    assert fingerprints_differ(base, mutated), (
        f"mutating StrategySpec.{field.name} left the cache fingerprint unchanged"
    )


@pytest.mark.parametrize("event_type", EVENT_TYPES, ids=lambda t: t.__name__)
def test_every_scenario_event_field_moves_the_fingerprint(event_type):
    """Each field of each event type (including nested spec) is covered."""
    base = base_config()
    for field in dataclasses.fields(event_type):
        if field.name == "kind":
            continue  # init=False discriminator, fixed per type
        event = _example_event(event_type)
        if field.name == "spec":
            # A spec-based arrival must not also carry a class_name.
            event = dataclasses.replace(
                event,
                class_name=None,
                spec=PeerClassSpec(name="inline", behavior="sharer"),
            )
        if field.name == "class_name" and event_type in (IdentityWhitewash, SybilSpawn):
            # The generic class_name mutation swaps between "a" and "b",
            # but these events demand a class of the matching adversary
            # kind — move to a different same-kind class instead.
            alternates = {IdentityWhitewash: "ww", SybilSpawn: "syb2"}
            mutated_event = dataclasses.replace(
                event, class_name=alternates[event_type]
            )
        else:
            mutated_event = dataclasses.replace(
                event, **{field.name: mutate(getattr(event, field.name), field)}
            )
        with_event = base.replace(scenario=base.scenario + (event,))
        with_mutated = base.replace(scenario=base.scenario + (mutated_event,))
        assert fingerprints_differ(with_event, with_mutated), (
            f"mutating {event_type.__name__}.{field.name} left the cache "
            "fingerprint unchanged"
        )


def _example_event(event_type):
    """A valid instance of each scenario event type for ``base_config``."""
    from repro.scenario import (
        CapacityChange,
        DemandShift,
        MechanismRamp,
        PeerArrival,
        PeerDeparture,
    )

    examples = {
        Phase: Phase(time=4_000.0, name="probe"),
        PeerArrival: PeerArrival(time=4_000.0, count=2, class_name="a"),
        PeerDeparture: PeerDeparture(time=4_000.0, count=1, class_name="a"),
        FlashCrowd: FlashCrowd(time=4_000.0, count=1),
        DemandShift: DemandShift(time=4_000.0, fraction=0.5),
        MechanismRamp: MechanismRamp(
            time=4_000.0, class_name="a", exchange_mechanism="pairwise"
        ),
        CapacityChange: CapacityChange(
            time=4_000.0, class_name="a", upload_capacity_kbit=160.0
        ),
        StrategyShock: StrategyShock(
            time=4_000.0, flip_fraction=0.2, payoff_bias=0.5, duration=500.0
        ),
        IdentityWhitewash: IdentityWhitewash(time=4_000.0, count=1),
        SybilSpawn: SybilSpawn(time=4_000.0, count=2, class_name="syb"),
    }
    return examples[event_type]
