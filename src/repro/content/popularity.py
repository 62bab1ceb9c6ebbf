"""Rank-based power-law popularity (the paper's factor *f* model).

The probability of rank ``r`` among ``n`` ranks is::

    p(r) = (1 / r**f) / sum_{i=1..n} (1 / i**f)

With ``f = 0`` the distribution is uniform; with ``f = 1`` it is
zipf-like.  The paper uses the same family for category popularity and
for object popularity within a category (both with f = 0.2 by default).

Sampling uses a precomputed cumulative table and binary search, because
workload generation draws from these distributions millions of times per
run.
"""

from __future__ import annotations

import bisect
import random
from typing import List

from repro.errors import ConfigError


class RankPopularity:
    """Power-law distribution over ranks ``1..n`` with skew factor ``f``."""

    def __init__(self, num_ranks: int, factor: float) -> None:
        if num_ranks <= 0:
            raise ConfigError(f"num_ranks must be positive, got {num_ranks}")
        if factor < 0:
            raise ConfigError(f"popularity factor must be >= 0, got {factor}")
        self.num_ranks = num_ranks
        self.factor = factor
        weights = [1.0 / (rank ** factor) for rank in range(1, num_ranks + 1)]
        total = sum(weights)
        self._probabilities = [w / total for w in weights]
        self._cumulative: List[float] = []
        acc = 0.0
        for p in self._probabilities:
            acc += p
            self._cumulative.append(acc)
        # Guard against floating point drift so bisect never falls off the end.
        self._cumulative[-1] = 1.0

    # ------------------------------------------------------------------
    def probability(self, rank: int) -> float:
        """Probability of ``rank`` (1-based)."""
        if not 1 <= rank <= self.num_ranks:
            raise ConfigError(f"rank {rank} outside [1, {self.num_ranks}]")
        return self._probabilities[rank - 1]

    @property
    def cumulative(self) -> List[float]:
        """Cumulative rank probabilities, ending at exactly 1.0 (read-only).

        :meth:`sample_rank` draws index ``bisect_left(cumulative, point)``,
        clamped to the last rank.
        """
        return self._cumulative

    def probabilities(self) -> List[float]:
        """All rank probabilities (copy), in rank order 1..n."""
        return list(self._probabilities)

    def sample_rank(self, rand: random.Random) -> int:
        """Draw a rank in ``1..n`` from the distribution."""
        point = rand.random()
        index = bisect.bisect_left(self._cumulative, point)
        if index >= self.num_ranks:  # point == 1.0 edge case
            index = self.num_ranks - 1
        return index + 1

    def sample_index(self, rand: random.Random) -> int:
        """Draw a 0-based index (``rank - 1``), handy for list lookups."""
        return self.sample_rank(rand) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankPopularity(n={self.num_ranks}, f={self.factor})"


class PopularityCache:
    """Memoized :class:`RankPopularity` instances keyed by ``(n, f)``.

    Categories frequently share the same object count, and every request
    draw needs the category's object distribution; caching avoids
    rebuilding cumulative tables in the hot path.
    """

    def __init__(self) -> None:
        self._cache: dict = {}

    def get(self, num_ranks: int, factor: float) -> RankPopularity:
        """The (cached) rank distribution for ``(num_ranks, factor)``."""
        key = (num_ranks, factor)
        dist = self._cache.get(key)
        if dist is None:
            dist = RankPopularity(num_ranks, factor)
            self._cache[key] = dist
        return dist

    def __len__(self) -> int:
        return len(self._cache)
