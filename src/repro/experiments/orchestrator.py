"""Parallel experiment orchestration.

The paper's evaluation is a grid of *independent* simulations —
mechanism × sweep point × seed.  Each :class:`~repro.experiments.figures.FigureSpec`
declares its grid as ``cell key → SimulationConfig``; this module
schedules those cells:

* **fan-out** — cells run across a ``multiprocessing`` pool
  (``jobs > 1``) or in-process (``jobs = 1``); simulations are
  deterministic functions of their config, so execution order cannot
  change results and parallel tables are bit-identical to serial ones;
* **dedup** — cells are keyed by a SHA-256 fingerprint of the full
  config, so cells shared between figures (Fig. 4 ⊃ Fig. 5's grid,
  Fig. 9 = Fig. 10's grid) run once per batch;
* **caching** — a :class:`ResultCache` persists each finished cell as
  one JSON file keyed by the same fingerprint, so re-runs and
  partially-failed sweeps resume instantly;
* **replication** — ``reps = N`` runs every cell under seeds
  ``seed .. seed+N-1`` and aggregates the per-seed tables into
  mean ± stderr via :func:`~repro.experiments.report.aggregate_tables`.

Typical use::

    from repro.experiments.orchestrator import ResultCache, run_figure

    table = run_figure("fig4", scale="small", jobs=4, reps=3,
                       cache=ResultCache(".repro-cache"))
    print(table.render())
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.experiments.figures import FIGURES, CellGrid
from repro.experiments.report import SeriesTable, aggregate_tables
from repro.metrics.summary import SimulationSummary
from repro.simulation import run_summary

#: Called after each finished cell with (completed, total).
ProgressFn = Callable[[int, int], None]

#: Result-cache schema stamp, bumped whenever the simulation's outcome
#: for an unchanged config fingerprint can change (the population
#: refactor did: fingerprints now cover ``population`` and summaries
#: carry per-class breakdowns; the scenario refactor did again:
#: fingerprints now cover ``scenario``/``max_miss_attempts`` and
#: summaries carry per-phase breakdowns; the strategy layer did again:
#: fingerprints now cover ``strategy`` / per-class strategy specs and
#: summaries carry sharing-fraction trajectories; the flat-cost event
#: loop did again: fingerprints now cover ``metrics_retention`` /
#: ``perf_counters``; dropping the ``metrics_backend`` field did again:
#: it changed every config's canonical JSON).  Entries stamped with any
#: other value are treated as misses, so stale pre-refactor results are
#: never replayed.
CACHE_SCHEMA_VERSION = 8


def config_fingerprint(config: SimulationConfig) -> str:
    """Stable SHA-256 over the config's canonical JSON form.

    The seed is a config field, so the fingerprint keys exactly one
    deterministic simulation outcome — the invariant the result cache
    and the cross-figure dedup both rely on.
    """
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """One-JSON-file-per-cell result store under a root directory.

    Files are named ``<fingerprint>.json`` and written atomically
    (temp file + rename), so a run killed mid-write never poisons the
    cache; unreadable or malformed entries are treated as misses.
    Entries record the package version they were computed with and are
    invalidated when it changes — the fingerprint hashes only the
    config, so without the version check a cache populated by older
    simulation code would silently answer for newer code.
    """

    #: Ignore ``.tmp`` orphans younger than this during the init sweep:
    #: they may be another live run's in-flight atomic write.
    ORPHAN_MIN_AGE_SECONDS = 3600.0

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Drop stale temp files left by a previous hard-killed writer."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        cutoff = time.time() - self.ORPHAN_MIN_AGE_SECONDS  # simlint: disable=DET003 -- sanctioned: cache-orphan aging compares file mtimes, not sim state
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.root, name)
            try:
                if os.path.getmtime(path) < cutoff:
                    os.unlink(path)
            except OSError:
                pass

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.json")

    def load(
        self,
        config: SimulationConfig,
        fingerprint: Optional[str] = None,
    ) -> Optional[SimulationSummary]:
        """The cached summary for ``config``, or ``None`` on a miss."""
        path = self._path(fingerprint or config_fingerprint(config))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != repro.__version__:
                raise ValueError("cache entry from a different code version")
            if payload.get("cache_version") != CACHE_SCHEMA_VERSION:
                raise ValueError("cache entry from a different cache schema")
            summary = SimulationSummary.from_dict(payload["summary"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(
        self,
        config: SimulationConfig,
        summary: SimulationSummary,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Persist one finished cell (config dump kept for inspection)."""
        os.makedirs(self.root, exist_ok=True)
        fingerprint = fingerprint or config_fingerprint(config)
        payload = {
            "fingerprint": fingerprint,
            "version": repro.__version__,
            "cache_version": CACHE_SCHEMA_VERSION,
            "config": config.to_dict(),
            "summary": summary.to_dict(),
        }
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self._path(fingerprint))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        try:
            return sum(1 for n in os.listdir(self.root) if n.endswith(".json"))
        except OSError:
            return 0


class MemoryCache:
    """In-process cell store with the :class:`ResultCache` interface.

    Holds results for the lifetime of one invocation and writes nothing
    to disk.  The CLI uses it under ``--no-cache`` so cells shared
    between figures (or replications) still run once per invocation.
    """

    def __init__(self) -> None:
        self._store: Dict[str, SimulationSummary] = {}
        self.hits = 0
        self.misses = 0

    def load(
        self,
        config: SimulationConfig,
        fingerprint: Optional[str] = None,
    ) -> Optional[SimulationSummary]:
        """The stored summary for ``config``, or None on a miss."""
        summary = self._store.get(fingerprint or config_fingerprint(config))
        if summary is None:
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(
        self,
        config: SimulationConfig,
        summary: SimulationSummary,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Keep one finished cell for the rest of this invocation."""
        self._store[fingerprint or config_fingerprint(config)] = summary

    def __len__(self) -> int:
        return len(self._store)


#: Anything with the ResultCache load/store interface.
CellCache = Union[ResultCache, MemoryCache]


def _run_cell(
    payload: Tuple[str, SimulationConfig]
) -> Tuple[str, Dict[str, object]]:
    """Worker entry point: run one cell, return (fingerprint, summary dict).

    Must stay a module-level function — ``multiprocessing`` pickles it
    by reference under every start method.
    """
    fingerprint, config = payload
    return fingerprint, run_summary(config).to_dict()


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (no re-import cost); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_grid(
    grid: CellGrid,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, SimulationSummary]:
    """Run every cell of ``grid`` and return ``cell key → summary``.

    Identical configs (same fingerprint) are simulated once no matter
    how many keys map to them.  With a cache, finished cells are loaded
    instead of re-run and fresh results are stored as they complete —
    an interrupted sweep loses only its in-flight cells.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    key_to_fp = {key: config_fingerprint(config) for key, config in grid.items()}
    unique: Dict[str, SimulationConfig] = {}
    for key, config in grid.items():
        unique.setdefault(key_to_fp[key], config)

    summaries: Dict[str, SimulationSummary] = {}
    if cache is not None:
        for fingerprint, config in unique.items():
            cached = cache.load(config, fingerprint=fingerprint)
            if cached is not None:
                summaries[fingerprint] = cached

    pending = [
        (fingerprint, config)
        for fingerprint, config in unique.items()
        if fingerprint not in summaries
    ]
    total = len(unique)
    completed = total - len(pending)
    if progress is not None and completed:
        progress(completed, total)

    def record(fingerprint: str, summary: SimulationSummary) -> None:
        nonlocal completed
        summaries[fingerprint] = summary
        if cache is not None:
            cache.store(unique[fingerprint], summary, fingerprint=fingerprint)
        completed += 1
        if progress is not None:
            progress(completed, total)

    if jobs == 1 or len(pending) <= 1:
        for fingerprint, config in pending:
            record(fingerprint, run_summary(config))
    else:
        context = _pool_context()
        with context.Pool(processes=min(jobs, len(pending))) as pool:
            for fingerprint, summary_dict in pool.imap_unordered(
                _run_cell, pending
            ):
                record(fingerprint, SimulationSummary.from_dict(summary_dict))

    return {key: summaries[fingerprint] for key, fingerprint in key_to_fp.items()}


def _rep_seeds(seed: int, reps: int) -> List[int]:
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    return [seed + rep for rep in range(reps)]


def run_figure(
    figure_id: str,
    scale: str = "smoke",
    seed: int = 42,
    reps: int = 1,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: Optional[ProgressFn] = None,
) -> SeriesTable:
    """Run one figure: fan out its cells, assemble, aggregate over reps."""
    return run_figures(
        [figure_id],
        scale=scale,
        seed=seed,
        reps=reps,
        jobs=jobs,
        cache=cache,
        progress=progress,
    )[figure_id]


def run_figures(
    figure_ids: Sequence[str],
    scale: str = "smoke",
    seed: int = 42,
    reps: int = 1,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: Optional[ProgressFn] = None,
) -> Dict[str, SeriesTable]:
    """Run several figures as one batch of cells.

    Batching all figures' grids into a single fan-out keeps the pool
    saturated across figure boundaries and lets cells shared between
    figures (or between replications) run exactly once.
    """
    unknown = [figure_id for figure_id in figure_ids if figure_id not in FIGURES]
    if unknown:
        raise ConfigError(
            f"unknown figure(s) {sorted(unknown)}; expected one of {sorted(FIGURES)}"
        )
    seeds = _rep_seeds(seed, reps)

    # Flatten figure × seed × cell into one namespaced grid.
    batch: CellGrid = {}
    grids: Dict[Tuple[str, int], CellGrid] = {}
    for figure_id in figure_ids:
        spec = FIGURES[figure_id]
        for rep_seed in seeds:
            grid = spec.build_grid(scale, rep_seed)
            grids[(figure_id, rep_seed)] = grid
            for key, config in grid.items():
                batch[f"{figure_id}/s{rep_seed}/{key}"] = config

    summaries = run_grid(batch, jobs=jobs, cache=cache, progress=progress)

    tables: Dict[str, SeriesTable] = {}
    for figure_id in figure_ids:
        spec = FIGURES[figure_id]
        per_seed: List[SeriesTable] = []
        for rep_seed in seeds:
            cell_summaries = {
                key: summaries[f"{figure_id}/s{rep_seed}/{key}"]
                for key in grids[(figure_id, rep_seed)]
            }
            per_seed.append(spec.assemble(scale, rep_seed, cell_summaries))
        tables[figure_id] = aggregate_tables(per_seed)
    return tables
