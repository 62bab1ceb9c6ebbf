"""Initial placement: the per-call draw tables against the original loop.

``place_objects_for_peer`` resolves each interest category once per call
and inlines the category and object draws.  The oracle below is the
loop it replaced, kept verbatim (with the linear category scan
``InterestProfile.choose_category`` used to do), so the property can
demand the same placed ids in the same order *and* the same RNG state
afterwards — the placement stream feeds every later peer's placement.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.content.catalog import Catalog, Category, ContentObject
from repro.content.interests import InterestProfile
from repro.content.placement import _MAX_ATTEMPTS_PER_SLOT, place_objects_for_peer
from repro.content.popularity import PopularityCache
from repro.content.storage import ObjectStore


def linear_choose_category(profile, rand):
    """The original ``InterestProfile.choose_category``: a linear scan."""
    point = rand.random()
    for index, bound in enumerate(profile.cumulative):
        if point < bound:
            return profile.category_ids[index]
    return profile.category_ids[-1]


def reference_place(
    catalog, profile, store, rand, object_factor, popularity_cache, fill_fraction=1.0
):
    """The original placement loop: one category lookup per attempt."""
    target = int(round(store.capacity * fill_fraction))
    placed = []
    attempts = 0
    budget = max(target, 1) * _MAX_ATTEMPTS_PER_SLOT
    while len(store) < target and attempts < budget:
        attempts += 1
        category = catalog.category(linear_choose_category(profile, rand))
        distribution = popularity_cache.get(category.size, object_factor)
        obj = category.objects[distribution.sample_index(rand)]
        if store.add_if_absent(obj.object_id):
            placed.append(obj.object_id)
    return placed


def make_catalog(sizes):
    """A catalog whose category ``i`` holds ``sizes[i]`` objects."""
    categories = []
    next_id = 0
    for category_id, size in enumerate(sizes):
        objects = tuple(
            ContentObject(next_id + rank, category_id, rank + 1, 1024.0)
            for rank in range(size)
        )
        next_id += size
        categories.append(Category(category_id, category_id + 1, objects))
    return Catalog(categories)


class FixedPoint:
    """A stand-in RNG whose ``random()`` returns one chosen point."""

    def __init__(self, point):
        self.point = point

    def random(self):
        return self.point


@st.composite
def placement_cases(draw, max_category_size=12):
    sizes = draw(st.lists(st.integers(1, max_category_size), min_size=1, max_size=8))
    catalog = make_catalog(sizes)
    # Flash-crowd injections resize categories before the draw.
    for category_id, position in draw(
        st.lists(
            st.tuples(st.integers(0, len(sizes) - 1), st.integers(0, max_category_size)),
            max_size=3,
        )
    ):
        catalog.inject_object(category_id, 1024.0, position=position)
    ids = draw(
        st.lists(
            st.integers(0, len(sizes) - 1), min_size=1, max_size=len(sizes), unique=True
        )
    )
    # Zero weights give repeated cumulative bounds.
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=len(ids), max_size=len(ids)
        ).filter(lambda ws: sum(ws) > 0)
    )
    profile = InterestProfile(ids, weights)
    if draw(st.booleans()):
        profile = profile.with_category(
            draw(st.integers(0, len(sizes) - 1)), boost=draw(st.sampled_from([0.5, 1.0, 3.0]))
        )
    capacity = draw(st.integers(1, 40))
    fill_fraction = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    object_factor = draw(st.sampled_from([0.0, 0.2, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return catalog, profile, capacity, fill_fraction, object_factor, seed


def place_both(case):
    """Run the production and the reference loop on identical inputs."""
    catalog, profile, capacity, fill_fraction, object_factor, seed = case
    runs = []
    for place in (place_objects_for_peer, reference_place):
        store = ObjectStore(capacity)
        rand = random.Random(seed)
        placed = place(
            catalog, profile, store, rand, object_factor, PopularityCache(),
            fill_fraction=fill_fraction,
        )
        runs.append((placed, sorted(store.object_ids()), rand.getstate()))
    return runs


class TestPlacementEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(placement_cases())
    def test_same_placement_and_rng_state_as_reference(self, case):
        fast, reference = place_both(case)
        assert fast == reference

    @settings(max_examples=100, deadline=None)
    @given(placement_cases(max_category_size=3))
    def test_exhausted_attempt_budget_matches_reference(self, case):
        fast, reference = place_both(case)
        assert fast == reference

    def test_injection_between_calls_is_seen(self):
        """No draw table outlives a call: a category resized between two
        peers' placements is drawn at its new size by the second."""
        runs = []
        for place in (place_objects_for_peer, reference_place):
            catalog = make_catalog([4, 6])
            profile = InterestProfile([0, 1], [0.5, 0.5])
            cache = PopularityCache()
            rand = random.Random(3)
            placed = [place(catalog, profile, ObjectStore(5), rand, 0.2, cache)]
            catalog.inject_object(1, 1024.0, position=0)
            placed.append(place(catalog, profile, ObjectStore(5), rand, 0.2, cache))
            runs.append((placed, rand.getstate()))
        assert runs[0] == runs[1]
        assert 10 in runs[0][0][1]  # the injected object was placed

    def test_tiny_categories_exhaust_the_budget(self):
        catalog = make_catalog([1, 2, 3])
        profile = InterestProfile([0, 2], [0.3, 0.7])
        case = (catalog, profile, 20, 1.0, 0.2, 11)
        fast, reference = place_both(case)
        assert fast == reference
        assert len(fast[0]) == 4  # every object of categories 0 and 2, short of 20


class TestChooseCategory:
    @pytest.mark.parametrize(
        "weights",
        [
            [0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.25, 0.25, 0.0, 0.5],
        ],
    )
    def test_bisect_matches_linear_scan_on_repeated_bounds(self, weights):
        profile = InterestProfile(list(range(len(weights))), weights)
        assert len(set(profile.cumulative)) < len(weights)  # bounds repeat
        points = sorted(
            set(profile.cumulative)
            | {0.0, 0.1, 0.25, 0.4999999, 0.5, 0.75, 0.9999999999999999}
        )
        for point in points:
            if point >= 1.0:
                continue
            assert profile.choose_category(FixedPoint(point)) == linear_choose_category(
                profile, FixedPoint(point)
            ), point
