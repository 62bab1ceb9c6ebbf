"""Per-peer interest profiles.

Each peer is interested in ``k ~ uniform(1, categories_per_peer_max)``
categories, chosen at initialization according to the *global* category
popularity, and weighted by a *local preference distribution* with
uniformly random weights that is independent of global popularity
(paper §IV-A).  Requests draw a category from the local preference and
then an object from the category's rank distribution.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple

from repro.content.catalog import Catalog
from repro.content.popularity import RankPopularity
from repro.errors import ConfigError


class InterestProfile:
    """A peer's categories of interest and its local preference weights."""

    __slots__ = ("category_ids", "weights", "_cumulative")

    def __init__(self, category_ids: Sequence[int], weights: Sequence[float]) -> None:
        if not category_ids:
            raise ConfigError("interest profile needs at least one category")
        if len(category_ids) != len(weights):
            raise ConfigError(
                f"{len(category_ids)} categories but {len(weights)} weights"
            )
        if len(set(category_ids)) != len(category_ids):
            raise ConfigError(f"duplicate categories in profile: {category_ids}")
        total = float(sum(weights))
        if total <= 0:
            raise ConfigError("interest weights must have positive total")
        self.category_ids: Tuple[int, ...] = tuple(category_ids)
        self.weights: Tuple[float, ...] = tuple(w / total for w in weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w
            self._cumulative.append(acc)
        self._cumulative[-1] = 1.0

    @property
    def cumulative(self) -> List[float]:
        """Cumulative preference bounds, ending at exactly 1.0 (read-only).

        Index ``i`` of :attr:`category_ids` is drawn for a uniform
        ``point`` when it is the first index with ``point < bound``.
        """
        return self._cumulative

    def choose_category(self, rand: random.Random) -> int:
        """Draw a category id from the local preference distribution."""
        # bisect_right is the first index whose bound exceeds the point,
        # the same index a linear ``point < bound`` scan stops at.
        index = bisect.bisect_right(self._cumulative, rand.random())
        return self.category_ids[min(index, len(self.category_ids) - 1)]

    def with_category(
        self, category_id: int, boost: float = 1.0
    ) -> "InterestProfile":
        """A new profile with ``category_id`` at the favourite's weight.

        Flash-crowd attraction: the category enters (or is promoted in)
        the profile at ``boost`` times the current maximum weight, so
        the drawn-in peer requests the hot category about as often as
        its favourite.  The receiver is unchanged — callers swap the
        returned profile in via
        :meth:`repro.network.peer.Peer.retarget_interests`.
        """
        if boost <= 0:
            raise ConfigError(f"boost must be positive, got {boost}")
        target = max(self.weights) * boost
        ids = list(self.category_ids)
        weights = list(self.weights)
        if category_id in self.category_ids:
            weights[ids.index(category_id)] = target
        else:
            ids.append(category_id)
            weights.append(target)
        return InterestProfile(ids, weights)

    def __contains__(self, category_id: int) -> bool:
        return category_id in self.category_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InterestProfile(categories={self.category_ids})"


def build_interest_profile(
    catalog: Catalog,
    category_popularity: RankPopularity,
    rand: random.Random,
    num_categories: int,
) -> InterestProfile:
    """Build one peer's profile.

    Categories are sampled *without replacement* proportionally to the
    global category popularity (rank r has weight 1/r^f): repeated draws
    from the rank distribution, skipping duplicates.  Local preference
    weights are independent uniform(0, 1) draws, normalized.
    """
    if num_categories <= 0:
        raise ConfigError(f"num_categories must be positive, got {num_categories}")
    num_categories = min(num_categories, catalog.num_categories)
    chosen: List[int] = []
    seen = set()
    # Rejection sampling terminates quickly because num_categories is
    # small (<= 8 in the paper) relative to the catalog (300 categories).
    while len(chosen) < num_categories:
        rank = category_popularity.sample_rank(rand)
        category_id = rank - 1  # category ids are 0-based, ranks 1-based
        if category_id in seen:
            continue
        seen.add(category_id)
        chosen.append(category_id)
    weights = [rand.random() for _ in chosen]
    # A pathological all-zero draw is astronomically unlikely but cheap
    # to guard: fall back to uniform weights.
    if sum(weights) <= 0:
        weights = [1.0] * len(chosen)
    return InterestProfile(chosen, weights)
