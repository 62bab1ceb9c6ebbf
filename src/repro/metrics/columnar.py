"""Columnar metrics collector: numpy struct-of-arrays record storage.

The simulation's metrics sink.  Records land as scalars appended to a
staging row list that is flushed into fixed-size numpy column chunks
(amortized growth, 8 bytes per float instead of a boxed dataclass per
record), and every summary input — filtered time lists, per-class
groupings, session aggregates — is extracted straight from the arrays.

Equivalence contract (pinned by ``tests/test_collector_equivalence.py``):
for any record stream, :func:`~repro.metrics.summary.summarize` over
this collector is **byte-identical** to the historical one-dataclass-
per-record collector, which the tests keep as a reference.  That
is why every float transform below is elementwise (``/ 8.0``,
``- request_time``, ``/ 60.0`` — IEEE-identical to the per-record
Python expressions) and every accumulation is a sequential left-fold
``sum(values, 0.0)`` over ``.tolist()`` extractions in record order —
*never* ``np.sum``, whose pairwise reduction rounds differently.

The dataclass records stay as a thin view API: :attr:`sessions`,
:attr:`downloads` and :attr:`strategy_epochs` materialize
``List[SessionRecord]``-shaped views on demand for tests and tools;
nothing on the hot path allocates them.

Sentinels: ``ring_id=None`` is stored as ``-1`` (real ring ids start at
1), and ``None`` epoch payoffs are stored as NaN; both are restored on
view materialization.

Retention modes: ``retention="full"`` (default) keeps every frozen
chunk resident and queryable.  ``retention="streaming"`` hands each
frozen session/download chunk to the running folds in
:mod:`repro.metrics.aggregates` and releases it, so the collector's
memory is flat in run length; only the summary-input queries remain
(byte-identical to full retention, pinned by
``tests/test_streaming_retention.py``), and they must be asked at the
collector's construction-time warmup.  Record-level views raise
:class:`StreamingRetentionError`.  The tiny strategy-epoch table always
keeps full retention.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.aggregates import (
    RunningDownloadTimes,
    RunningSessionAggregates,
    SessionAggregates,
    first_occurrence_codes as _first_occurrence_codes,
)
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    StrategyEpochRecord,
    TerminationReason,
    TrafficClass,
)

#: Rows staged as Python tuples before being frozen into numpy chunks.
_CHUNK = 4096

_TRAFFIC_CLASSES: Tuple[TrafficClass, ...] = tuple(TrafficClass)
_TRAFFIC_CODE: Dict[TrafficClass, int] = {tc: i for i, tc in enumerate(_TRAFFIC_CLASSES)}
_NON_EXCHANGE_CODE = _TRAFFIC_CODE[TrafficClass.NON_EXCHANGE]
_REASONS: Tuple[TerminationReason, ...] = tuple(TerminationReason)
_REASON_CODE: Dict[TerminationReason, int] = {r: i for i, r in enumerate(_REASONS)}

_Schema = Tuple[Tuple[str, type], ...]

_SESSION_SCHEMA: _Schema = (
    ("provider_id", np.int64),
    ("requester_id", np.int64),
    ("object_id", np.int64),
    ("traffic_class", np.int8),
    ("ring_size", np.int32),
    ("ring_id", np.int64),
    ("request_time", np.float64),
    ("start_time", np.float64),
    ("end_time", np.float64),
    ("kbit", np.float64),
    ("reason", np.int8),
    ("sharer", np.bool_),
    ("req_class", np.int32),
    ("phase", np.int32),
    ("eff_class", np.int32),
)

_DOWNLOAD_SCHEMA: _Schema = (
    ("peer_id", np.int64),
    ("object_id", np.int64),
    ("request_time", np.float64),
    ("complete_time", np.float64),
    ("size_kbit", np.float64),
    ("sharer", np.bool_),
    ("class_name", np.int32),
    ("phase", np.int32),
    ("eff_class", np.int32),
)

_EPOCH_SCHEMA: _Schema = (
    ("time", np.float64),
    ("epoch", np.int64),
    ("enrolled", np.int64),
    ("sharing", np.int64),
    ("revised", np.int64),
    ("to_sharing", np.int64),
    ("to_freeloading", np.int64),
    ("payoff_sharing", np.float64),
    ("payoff_freeloading", np.float64),
    ("phase", np.int32),
)


class StreamingRetentionError(RuntimeError):
    """A record-level view was asked of a streaming-retention collector.

    Streaming retention releases frozen chunks after folding them into
    running aggregates, so anything that needs raw record rows —
    materialized record views, arbitrary-warmup filters, the strategy
    layer's incremental row feeds — cannot be served.  Use
    ``metrics_retention="full"`` for those.
    """


class _ColumnTable:
    """Chunked struct-of-arrays store with a tuple-per-row staging tail.

    The hot path is :meth:`append`: one list append per record.  Every
    ``_CHUNK`` rows the staging tail is transposed and frozen into one
    immutable numpy array per column.  In the default retaining mode
    :meth:`column` concatenates the chunks (plus the current tail) on
    demand and caches the result until the next append.  With an
    ``on_freeze`` fold and ``retain=False`` (streaming retention) each
    frozen chunk is handed to the fold and released instead, and the
    column accessors go dark.
    """

    __slots__ = (
        "_schema",
        "_index",
        "_chunks",
        "_staging",
        "_count",
        "_cache",
        "_on_freeze",
        "_retain",
        "_perf",
        "_perf_key",
    )

    def __init__(
        self,
        schema: _Schema,
        on_freeze: Optional[Callable[[Dict[str, np.ndarray]], None]] = None,
        retain: bool = True,
        perf=None,
        perf_key: str = "collector.chunks",
    ) -> None:
        self._schema = schema
        self._index = {name: i for i, (name, _) in enumerate(schema)}
        self._chunks: Dict[str, List[np.ndarray]] = {name: [] for name, _ in schema}
        self._staging: List[Tuple[object, ...]] = []
        self._count = 0
        self._cache: Optional[Dict[str, np.ndarray]] = None
        self._on_freeze = on_freeze
        self._retain = retain
        #: Perf-counter sink (kept only when enabled) tallying chunk
        #: freezes under ``perf_key`` — the collector's unit of
        #: amortized work.
        self._perf = perf if perf is not None and perf.enabled else None
        self._perf_key = perf_key

    def __len__(self) -> int:
        return self._count

    def append(self, row: Tuple[object, ...]) -> None:
        """Stage one row (positional, matching the schema order)."""
        staging = self._staging
        staging.append(row)
        self._count += 1
        self._cache = None
        if len(staging) >= _CHUNK:
            self._flush()

    def _flush(self) -> None:
        columns = zip(*self._staging)
        frozen = {  # simlint: disable=HOT001 -- amortized once per _CHUNK rows
            name: np.asarray(values, dtype=dtype)
            for (name, dtype), values in zip(self._schema, columns)
        }
        if self._on_freeze is not None:
            self._on_freeze(frozen)
        if self._retain:
            for name, array in frozen.items():
                self._chunks[name].append(array)
        self._staging.clear()
        if self._perf is not None:
            self._perf.bump(self._perf_key)

    def drain(self) -> None:
        """Freeze the staging tail now (partial chunk; query-time use).

        Chunk boundaries are not observable — every fold is elementwise
        or a carried left-fold — so draining early changes no value.
        """
        if self._staging:
            self._flush()

    def column(self, name: str) -> np.ndarray:
        """The full column as one array (cached until the next append)."""
        if not self._retain:
            raise StreamingRetentionError(
                f"column {name!r} was released under streaming retention"
            )
        cache = self._cache
        if cache is None:
            cache = {}
            self._cache = cache
        array = cache.get(name)
        if array is None:
            parts = list(self._chunks[name])
            dtype = dict(self._schema)[name]
            if self._staging:
                index = self._index[name]
                parts.append(
                    np.asarray([row[index] for row in self._staging], dtype=dtype)
                )
            if not parts:
                array = np.empty(0, dtype=dtype)
            elif len(parts) == 1:
                array = parts[0]
            else:
                array = np.concatenate(parts)
            cache[name] = array
        return array

    def lists(self, names: Sequence[str]) -> List[List[object]]:
        """Python-scalar extractions of several columns (record order)."""
        return [self.column(name).tolist() for name in names]

    def nbytes(self) -> int:
        """Approximate frozen-storage footprint in bytes (chunks only)."""
        return sum(
            (arr.nbytes for chunks in self._chunks.values() for arr in chunks),
            0,
        )


class ColumnarCollector:
    """Numpy-backed metrics sink.

    The ``add_*`` scalar hot path, counters, phase stamping, the
    filtered-view queries, and :meth:`session_aggregates` for
    :func:`~repro.metrics.summary.summarize`.
    """

    def __init__(
        self,
        retention: str = "full",
        warmup: float = 0.0,
        perf_counters=None,
    ) -> None:
        if retention not in ("full", "streaming"):
            raise ValueError(f"unknown retention {retention!r}")
        #: Shared string-interning table for class and phase labels.
        self._labels: List[str] = [""]
        self._codes: Dict[str, int] = {"": 0}
        self.retention = retention
        #: Warmup boundary the streaming folds censor at; summary-input
        #: queries on a streaming collector must ask for exactly this.
        self.warmup = warmup
        self._session_fold: Optional[RunningSessionAggregates] = None
        self._download_fold: Optional[RunningDownloadTimes] = None
        if retention == "streaming":
            traffic_labels = tuple(tc.value for tc in _TRAFFIC_CLASSES)
            self._session_fold = RunningSessionAggregates(
                warmup, traffic_labels, self._labels, _NON_EXCHANGE_CODE
            )
            self._download_fold = RunningDownloadTimes(warmup)
            self._sessions = _ColumnTable(
                _SESSION_SCHEMA,
                on_freeze=self._session_fold.fold,
                retain=False,
                perf=perf_counters,
                perf_key="collector.session_chunks",
            )
            self._downloads = _ColumnTable(
                _DOWNLOAD_SCHEMA,
                on_freeze=self._download_fold.fold,
                retain=False,
                perf=perf_counters,
                perf_key="collector.download_chunks",
            )
        else:
            self._sessions = _ColumnTable(
                _SESSION_SCHEMA,
                perf=perf_counters,
                perf_key="collector.session_chunks",
            )
            self._downloads = _ColumnTable(
                _DOWNLOAD_SCHEMA,
                perf=perf_counters,
                perf_key="collector.download_chunks",
            )
        # Strategy epochs stay fully retained in either mode: one row
        # per revision epoch, never a memory concern, and the summary
        # reads them as records.
        self._epochs = _ColumnTable(_EPOCH_SCHEMA)
        self.counters: Counter = Counter()
        #: Scenario-phase label stamped onto records as they land (same
        #: contract as the reference collector).
        self.current_phase: str = ""

    # ------------------------------------------------------------------
    # retention guards
    # ------------------------------------------------------------------
    def _require_full(self, what: str) -> None:
        if self.retention != "full":
            raise StreamingRetentionError(
                f"{what} needs raw record rows, which streaming retention "
                "releases; run with metrics_retention='full'"
            )

    def _check_warmup(self, warmup: float, what: str) -> None:
        if warmup != self.warmup:
            raise ValueError(
                f"streaming retention folded {what} at warmup={self.warmup}; "
                f"cannot re-filter at warmup={warmup}"
            )

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def _intern(self, label: str) -> int:
        code = self._codes.get(label)
        if code is None:
            code = len(self._labels)
            self._labels.append(label)
            self._codes[label] = code
        return code

    # ------------------------------------------------------------------
    # recording — scalar hot path
    # ------------------------------------------------------------------
    def add_session(
        self,
        provider_id: int,
        requester_id: int,
        object_id: int,
        traffic_class: TrafficClass,
        ring_size: int,
        ring_id: Optional[int],
        request_time: float,
        start_time: float,
        end_time: float,
        kbit_transferred: float,
        reason: TerminationReason,
        requester_is_sharer: bool,
        requester_class: str = "",
        phase: str = "",
    ) -> None:
        """Append one transfer-session row without building a record."""
        if end_time < start_time:
            raise ValueError(
                f"session ends before it starts: [{start_time}, {end_time}]"
            )
        if kbit_transferred < 0:
            raise ValueError(f"negative session volume {kbit_transferred}")
        if self.current_phase and not phase:
            phase = self.current_phase
        effective = requester_class or (
            "sharer" if requester_is_sharer else "freeloader"
        )
        self._sessions.append(
            (
                provider_id,
                requester_id,
                object_id,
                _TRAFFIC_CODE[traffic_class],
                ring_size,
                -1 if ring_id is None else ring_id,
                request_time,
                start_time,
                end_time,
                kbit_transferred,
                _REASON_CODE[reason],
                requester_is_sharer,
                self._intern(requester_class),
                self._intern(phase),
                self._intern(effective),
            )
        )
        self.counters[f"session.{traffic_class.value}"] += 1
        self.counters[f"session.reason.{reason.value}"] += 1

    def add_download(
        self,
        peer_id: int,
        object_id: int,
        request_time: float,
        complete_time: float,
        size_kbit: float,
        peer_is_sharer: bool,
        class_name: str = "",
        phase: str = "",
    ) -> None:
        """Append one completed-download row without building a record."""
        if complete_time < request_time:
            raise ValueError(
                "download completes before request: "
                f"[{request_time}, {complete_time}]"
            )
        if self.current_phase and not phase:
            phase = self.current_phase
        effective = class_name or ("sharer" if peer_is_sharer else "freeloader")
        self._downloads.append(
            (
                peer_id,
                object_id,
                request_time,
                complete_time,
                size_kbit,
                peer_is_sharer,
                self._intern(class_name),
                self._intern(phase),
                self._intern(effective),
            )
        )
        key = "download.sharer" if peer_is_sharer else "download.freeloader"
        self.counters[key] += 1

    def add_strategy_epoch(
        self,
        time: float,
        epoch: int,
        enrolled: int,
        sharing: int,
        revised: int,
        switched_to_sharing: int,
        switched_to_freeloading: int,
        mean_payoff_sharing: Optional[float],
        mean_payoff_freeloading: Optional[float],
        phase: str = "",
    ) -> None:
        """Append one strategy-revision epoch row."""
        if not 0 <= sharing <= enrolled:
            raise ValueError(f"sharing count {sharing} outside [0, {enrolled}]")
        if self.current_phase and not phase:
            phase = self.current_phase
        self._epochs.append(
            (
                time,
                epoch,
                enrolled,
                sharing,
                revised,
                switched_to_sharing,
                switched_to_freeloading,
                np.nan if mean_payoff_sharing is None else mean_payoff_sharing,
                np.nan if mean_payoff_freeloading is None else mean_payoff_freeloading,
                self._intern(phase),
            )
        )

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a free-form counter (ring attempts, token failures, ...)."""
        self.counters[name] += delta

    # ------------------------------------------------------------------
    # dataclass views (thin API for tests and tools; not on any hot path)
    # ------------------------------------------------------------------
    @property
    def sessions(self) -> List[SessionRecord]:
        """All session rows materialized as records (fresh list)."""
        self._require_full("the sessions record view")
        table = self._sessions
        labels = self._labels
        names = [name for name, _ in _SESSION_SCHEMA]
        rows = zip(*table.lists(names))
        return [
            SessionRecord(
                provider_id=pid,
                requester_id=rid,
                object_id=oid,
                traffic_class=_TRAFFIC_CLASSES[tc],
                ring_size=ring_size,
                ring_id=None if ring_id < 0 else ring_id,
                request_time=request_time,
                start_time=start_time,
                end_time=end_time,
                kbit_transferred=kbit,
                reason=_REASONS[reason],
                requester_is_sharer=sharer,
                requester_class=labels[req_class],
                phase=labels[phase],
            )
            for (
                pid, rid, oid, tc, ring_size, ring_id, request_time,
                start_time, end_time, kbit, reason, sharer, req_class,
                phase, _eff,
            ) in rows
        ]

    @property
    def downloads(self) -> List[DownloadRecord]:
        """All download rows materialized as records (fresh list)."""
        self._require_full("the downloads record view")
        table = self._downloads
        labels = self._labels
        names = [name for name, _ in _DOWNLOAD_SCHEMA]
        rows = zip(*table.lists(names))
        return [
            DownloadRecord(
                peer_id=pid,
                object_id=oid,
                request_time=request_time,
                complete_time=complete_time,
                size_kbit=size_kbit,
                peer_is_sharer=sharer,
                class_name=labels[class_name],
                phase=labels[phase],
            )
            for (
                pid, oid, request_time, complete_time, size_kbit, sharer,
                class_name, phase, _eff,
            ) in rows
        ]

    @property
    def strategy_epochs(self) -> List[StrategyEpochRecord]:
        """All strategy-epoch rows materialized as records (fresh list)."""
        table = self._epochs
        labels = self._labels
        names = [name for name, _ in _EPOCH_SCHEMA]
        rows = zip(*table.lists(names))
        return [
            StrategyEpochRecord(
                time=time,
                epoch=epoch,
                enrolled=enrolled,
                sharing=sharing,
                revised=revised,
                switched_to_sharing=to_sharing,
                switched_to_freeloading=to_freeloading,
                mean_payoff_sharing=None if payoff_s != payoff_s else payoff_s,
                mean_payoff_freeloading=None if payoff_f != payoff_f else payoff_f,
                phase=labels[phase],
            )
            for (
                time, epoch, enrolled, sharing, revised, to_sharing,
                to_freeloading, payoff_s, payoff_f, phase,
            ) in rows
        ]

    # ------------------------------------------------------------------
    # filtered views (array-backed)
    # ------------------------------------------------------------------
    def sessions_after(self, warmup: float) -> List[SessionRecord]:
        """Sessions that *ended* after the warmup boundary (records)."""
        return [s for s in self.sessions if s.end_time >= warmup]

    def downloads_after(self, warmup: float) -> List[DownloadRecord]:
        """Downloads that *completed* after the warmup boundary (records)."""
        return [d for d in self.downloads if d.complete_time >= warmup]

    def sessions_by_class(
        self, warmup: float = 0.0
    ) -> Dict[TrafficClass, List[SessionRecord]]:
        """Post-warmup sessions grouped by :class:`TrafficClass`."""
        grouped: Dict[TrafficClass, List[SessionRecord]] = {}
        for session in self.sessions_after(warmup):
            grouped.setdefault(session.traffic_class, []).append(session)
        return grouped

    def download_times(
        self, sharer: Optional[bool] = None, warmup: float = 0.0
    ) -> List[float]:
        """Download times in seconds, optionally filtered by peer class."""
        fold = self._download_fold
        if fold is not None:
            self._check_warmup(warmup, "download times")
            self._downloads.drain()
            return fold.times(sharer)
        table = self._downloads
        complete = table.column("complete_time")
        mask = complete >= warmup
        if sharer is not None:
            mask = mask & (table.column("sharer") == sharer)
        request = table.column("request_time")
        times: List[float] = (complete[mask] - request[mask]).tolist()
        return times

    def download_times_by_class(self, warmup: float = 0.0) -> Dict[str, List[float]]:
        """Download times (seconds) per population-class label.

        Same fallback as the reference collector: unlabeled records read
        as sharer/freeloader.  Keys appear in first-occurrence order.
        """
        fold = self._download_fold
        if fold is not None:
            self._check_warmup(warmup, "download times")
            self._downloads.drain()
            labels = self._labels
            return {
                labels[code]: times
                for code, times in fold.times_by_code("eff_class").items()
            }
        table = self._downloads
        complete = table.column("complete_time")
        keep = np.flatnonzero(complete >= warmup)
        codes = table.column("eff_class")[keep]
        times = (complete[keep] - table.column("request_time")[keep])
        labels = self._labels
        grouped: Dict[str, List[float]] = {}
        for code in _first_occurrence_codes(codes):
            grouped[labels[code]] = times[codes == code].tolist()
        return grouped

    def download_times_by_phase(self, warmup: float = 0.0) -> Dict[str, List[float]]:
        """Download times (seconds) per scenario-phase label ("" skipped)."""
        fold = self._download_fold
        if fold is not None:
            self._check_warmup(warmup, "download times")
            self._downloads.drain()
            labels = self._labels
            return {
                labels[code]: times
                for code, times in fold.times_by_code("phase").items()
            }
        table = self._downloads
        complete = table.column("complete_time")
        keep = np.flatnonzero(complete >= warmup)
        codes = table.column("phase")[keep]
        labeled = np.flatnonzero(codes != 0)  # code 0 is the "" label
        codes = codes[labeled]
        keep = keep[labeled]
        times = complete[keep] - table.column("request_time")[keep]
        labels = self._labels
        grouped: Dict[str, List[float]] = {}
        for code in _first_occurrence_codes(codes):
            grouped[labels[code]] = times[codes == code].tolist()
        return grouped

    def sessions_by_phase(
        self, warmup: float = 0.0
    ) -> Dict[str, List[SessionRecord]]:
        """Sessions grouped by scenario-phase label (unlabeled skipped)."""
        grouped: Dict[str, List[SessionRecord]] = {}
        for session in self.sessions_after(warmup):
            if session.phase:
                grouped.setdefault(session.phase, []).append(session)
        return grouped

    def reason_counts(self) -> Dict[TerminationReason, int]:
        """Session count per termination reason (zero counts omitted)."""
        counts: Dict[TerminationReason, int] = {}
        for reason in TerminationReason:
            key = f"session.reason.{reason.value}"
            if self.counters[key]:
                counts[reason] = self.counters[key]
        return counts

    # ------------------------------------------------------------------
    # summary inputs
    # ------------------------------------------------------------------
    def session_aggregates(self, warmup: float) -> SessionAggregates:
        """Array-backed per-class/per-phase session reductions.

        Matches the reference collector's record loop float for float:
        grouped extractions preserve record order, key order is first
        occurrence, and volume sums are sequential left-folds over
        Python scalars (see the module docstring).  Under streaming
        retention the result comes from the running chunk fold — same
        floats, same key order (pinned by the retention-equivalence
        tests) — and ``warmup`` must equal the construction-time value.
        """
        fold = self._session_fold
        if fold is not None:
            self._check_warmup(warmup, "session aggregates")
            self._sessions.drain()
            return fold.result()
        table = self._sessions
        end = table.column("end_time")
        keep = np.flatnonzero(end >= warmup)
        agg = SessionAggregates(total_sessions=int(keep.size))
        if keep.size == 0:
            return agg
        labels = self._labels
        tc_codes = table.column("traffic_class")[keep]
        kbit = table.column("kbit")[keep]
        volume_kb = kbit / 8.0
        waiting_min = (
            table.column("start_time")[keep] - table.column("request_time")[keep]
        ) / 60.0
        for code in _first_occurrence_codes(tc_codes):
            label = _TRAFFIC_CLASSES[code].value
            mask = tc_codes == code
            agg.session_counts[label] = int(np.count_nonzero(mask))
            agg.volume_kb_by_class[label] = volume_kb[mask].tolist()
            agg.waiting_min_by_class[label] = waiting_min[mask].tolist()
        agg.exchange_sessions = int(np.count_nonzero(tc_codes != _NON_EXCHANGE_CODE))
        sharer = table.column("sharer")[keep]
        agg.sharer_kbit = sum(kbit[sharer].tolist(), 0.0)
        agg.freeloader_kbit = sum(kbit[~sharer].tolist(), 0.0)
        eff_codes = table.column("eff_class")[keep]
        for code in _first_occurrence_codes(eff_codes):
            agg.kbit_by_peer_class[labels[code]] = sum(
                kbit[eff_codes == code].tolist(), 0.0
            )
        phase_codes = table.column("phase")[keep]
        labeled = phase_codes != 0  # code 0 is the "" label
        exchange = tc_codes != _NON_EXCHANGE_CODE
        for code in _first_occurrence_codes(phase_codes[labeled]):
            mask = phase_codes == code
            agg.phase_counts[labels[code]] = int(np.count_nonzero(mask))
            agg.phase_exchange_counts[labels[code]] = int(
                np.count_nonzero(mask & exchange)
            )
        return agg

    # ------------------------------------------------------------------
    # incremental row feeds (strategy layer)
    # ------------------------------------------------------------------
    @property
    def num_sessions(self) -> int:
        """Session rows recorded so far (no materialization)."""
        return len(self._sessions)

    @property
    def num_downloads(self) -> int:
        """Download rows recorded so far (no materialization)."""
        return len(self._downloads)

    def session_rows_since(
        self, start: int
    ) -> Iterator[Tuple[int, float, float, bool]]:
        """``(requester_id, request_time, end_time, is_exchange)`` rows.

        Yields rows ``start..`` in record order; the strategy layer's
        epoch ingestion reads these instead of materializing records.
        """
        self._require_full("session_rows_since")
        table = self._sessions
        requester = table.column("requester_id")[start:].tolist()
        request = table.column("request_time")[start:].tolist()
        end = table.column("end_time")[start:].tolist()
        exchange = (
            table.column("traffic_class")[start:] != _NON_EXCHANGE_CODE
        ).tolist()
        return zip(requester, request, end, exchange)

    def download_rows_since(
        self, start: int
    ) -> Iterator[Tuple[int, float, float, float]]:
        """``(peer_id, request_time, complete_time, download_time)`` rows."""
        self._require_full("download_rows_since")
        table = self._downloads
        peer = table.column("peer_id")[start:].tolist()
        request = table.column("request_time")[start:].tolist()
        complete = table.column("complete_time")[start:].tolist()
        times = (
            table.column("complete_time")[start:]
            - table.column("request_time")[start:]
        ).tolist()
        return zip(peer, request, complete, times)

    # ------------------------------------------------------------------
    def storage_nbytes(self) -> int:
        """Resident metrics footprint in bytes (staging tails excluded).

        Full retention counts the frozen chunks; streaming counts what
        the folds retain (the per-class value arrays) instead — the
        chunks themselves were released.
        """
        retained = (
            self._sessions.nbytes()
            + self._downloads.nbytes()
            + self._epochs.nbytes()
        )
        if self._session_fold is not None:
            retained += self._session_fold.nbytes()
        if self._download_fold is not None:
            retained += self._download_fold.nbytes()
        return retained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarCollector(sessions={len(self._sessions)}, "
            f"downloads={len(self._downloads)}, retention={self.retention!r})"
        )
