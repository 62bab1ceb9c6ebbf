"""Initial object placement.

"We initially place objects on each peer based on the peer's category
preferences" (§IV-A).  Each peer's store is filled up to
``fill_fraction`` of its capacity with distinct objects drawn the same
way requests are drawn: category from the local preference, object from
the category's rank popularity.  Rejection-sampling with a bounded
number of attempts handles small categories gracefully.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import List

from repro.content.catalog import Catalog
from repro.content.interests import InterestProfile
from repro.content.popularity import PopularityCache
from repro.content.storage import ObjectStore
from repro.errors import ConfigError

#: Draw attempts per placement slot before giving up on filling it; a
#: peer interested only in a 3-object category simply ends up with
#: fewer initial objects than capacity, which is fine.
_MAX_ATTEMPTS_PER_SLOT = 50


def place_objects_for_peer(
    catalog: Catalog,
    profile: InterestProfile,
    store: ObjectStore,
    rand: random.Random,
    object_factor: float,
    popularity_cache: PopularityCache,
    fill_fraction: float = 1.0,
) -> List[int]:
    """Fill one peer's store; returns the placed object ids."""
    if not 0.0 <= fill_fraction <= 1.0:
        raise ConfigError(f"fill_fraction must be in [0, 1], got {fill_fraction}")
    target = int(round(store.capacity * fill_fraction))
    placed: List[int] = []
    attempts = 0
    budget = max(target, 1) * _MAX_ATTEMPTS_PER_SLOT
    # Each attempt is InterestProfile.choose_category followed by
    # RankPopularity.sample_index over the category's objects, inlined
    # over tables resolved once per call (not cached across calls: a
    # flash-crowd injection may resize a category mid-run).  The draws
    # and bisects are exactly theirs, so the RNG stream is unchanged;
    # their end clamps never fire, since random() < 1.0 == bounds[-1].
    tables = []
    for category_id in profile.category_ids:
        objects = catalog.category(category_id).objects
        ranks = popularity_cache.get(len(objects), object_factor).cumulative
        tables.append((ranks, objects))
    bounds = profile.cumulative
    draw = rand.random
    missing = target - len(store)
    while missing > 0 and attempts < budget:
        attempts += 1
        ranks, objects = tables[bisect_right(bounds, draw())]
        object_id = objects[bisect_left(ranks, draw())].object_id
        if store.add_if_absent(object_id):
            placed.append(object_id)
            missing -= 1
    return placed


def initial_placement(
    catalog: Catalog,
    profiles: List[InterestProfile],
    stores: List[ObjectStore],
    rand: random.Random,
    object_factor: float,
    fill_fraction: float = 1.0,
) -> List[List[int]]:
    """Place initial objects for every peer; returns per-peer placements."""
    if len(profiles) != len(stores):
        raise ConfigError(
            f"{len(profiles)} profiles but {len(stores)} stores in placement"
        )
    cache = PopularityCache()
    placements: List[List[int]] = []
    for profile, store in zip(profiles, stores):
        placements.append(
            place_objects_for_peer(
                catalog,
                profile,
                store,
                rand,
                object_factor,
                cache,
                fill_fraction=fill_fraction,
            )
        )
    return placements
