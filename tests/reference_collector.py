"""Reference metrics collector: one dataclass record per measurement.

:class:`MetricsCollector` is the historical record-list layout the
runtime :class:`~repro.metrics.columnar.ColumnarCollector` must match
byte for byte.  It lives with the tests, not in the package: nothing
in a simulation constructs it.  ``test_collector_equivalence.py``
feeds both collectors the same record stream (or injects this one into
a simulation's context) and compares every view and the summary JSON.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.metrics.aggregates import SessionAggregates
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    StrategyEpochRecord,
    TerminationReason,
    TrafficClass,
)


class MetricsCollector:
    """Append-only store of session and download records plus counters."""

    def __init__(self) -> None:
        self.sessions: List[SessionRecord] = []
        self.downloads: List[DownloadRecord] = []
        self.strategy_epochs: List[StrategyEpochRecord] = []
        self.counters: Counter = Counter()
        #: Scenario-phase label stamped onto records as they land; set
        #: by the :class:`~repro.scenario.ScenarioDirector` on phase
        #: markers ("" = no named phase, the closed-system default).
        self.current_phase: str = ""

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_session(self, record: SessionRecord) -> None:
        """Append one transfer-session record (phase label stamped here)."""
        if self.current_phase and not record.phase:
            record = dataclasses.replace(record, phase=self.current_phase)
        self.sessions.append(record)
        self.counters[f"session.{record.traffic_class.value}"] += 1
        self.counters[f"session.reason.{record.reason.value}"] += 1

    def record_download(self, record: DownloadRecord) -> None:
        """Append one completed-download record (phase label stamped here)."""
        if self.current_phase and not record.phase:
            record = dataclasses.replace(record, phase=self.current_phase)
        self.downloads.append(record)
        key = "download.sharer" if record.peer_is_sharer else "download.freeloader"
        self.counters[key] += 1

    def record_strategy_epoch(self, record: StrategyEpochRecord) -> None:
        """Append one strategy-revision epoch (phase label stamped here)."""
        if self.current_phase and not record.phase:
            record = dataclasses.replace(record, phase=self.current_phase)
        self.strategy_epochs.append(record)

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a free-form counter (ring attempts, token failures, ...)."""
        self.counters[name] += delta

    # ------------------------------------------------------------------
    # recording — the columnar collector's scalar API; here it simply
    # builds the record and delegates
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
        """Append one transfer session from scalar fields."""
        self.record_session(
            SessionRecord(
                provider_id=provider_id,
                requester_id=requester_id,
                object_id=object_id,
                traffic_class=traffic_class,
                ring_size=ring_size,
                ring_id=ring_id,
                request_time=request_time,
                start_time=start_time,
                end_time=end_time,
                kbit_transferred=kbit_transferred,
                reason=reason,
                requester_is_sharer=requester_is_sharer,
                requester_class=requester_class,
                phase=phase,
            )
        )

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
        """Append one completed download from scalar fields."""
        self.record_download(
            DownloadRecord(
                peer_id=peer_id,
                object_id=object_id,
                request_time=request_time,
                complete_time=complete_time,
                size_kbit=size_kbit,
                peer_is_sharer=peer_is_sharer,
                class_name=class_name,
                phase=phase,
            )
        )

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
        """Append one strategy-revision epoch from scalar fields."""
        self.record_strategy_epoch(
            StrategyEpochRecord(
                time=time,
                epoch=epoch,
                enrolled=enrolled,
                sharing=sharing,
                revised=revised,
                switched_to_sharing=switched_to_sharing,
                switched_to_freeloading=switched_to_freeloading,
                mean_payoff_sharing=mean_payoff_sharing,
                mean_payoff_freeloading=mean_payoff_freeloading,
                phase=phase,
            )
        )

    # ------------------------------------------------------------------
    # filtered views (used by summary and by tests)
    # ------------------------------------------------------------------
    def sessions_after(self, warmup: float) -> List[SessionRecord]:
        """Sessions that *ended* after the warmup boundary."""
        return [s for s in self.sessions if s.end_time >= warmup]

    def downloads_after(self, warmup: float) -> List[DownloadRecord]:
        """Downloads that *completed* after the warmup boundary."""
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
        times = []
        for record in self.downloads_after(warmup):
            if sharer is not None and record.peer_is_sharer != sharer:
                continue
            times.append(record.download_time)
        return times

    def download_times_by_class(self, warmup: float = 0.0) -> Dict[str, List[float]]:
        """Download times (seconds) grouped by population-class label.

        Records without a class label (hand-built in unit tests) fall
        back to the behaviour-derived sharer/freeloader label.
        """
        grouped: Dict[str, List[float]] = {}
        for record in self.downloads_after(warmup):
            label = record.class_name or (
                "sharer" if record.peer_is_sharer else "freeloader"
            )
            grouped.setdefault(label, []).append(record.download_time)
        return grouped

    def download_times_by_phase(self, warmup: float = 0.0) -> Dict[str, List[float]]:
        """Download times (seconds) grouped by scenario-phase label.

        Records outside any named phase (label ``""``) are skipped — a
        closed-system run has no phases and yields an empty dict.
        """
        grouped: Dict[str, List[float]] = {}
        for record in self.downloads_after(warmup):
            if record.phase:
                grouped.setdefault(record.phase, []).append(record.download_time)
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

    # ------------------------------------------------------------------
    # summary inputs
    # ------------------------------------------------------------------
    def session_aggregates(self, warmup: float) -> SessionAggregates:
        """Per-class/per-phase reductions over post-warmup sessions.

        The historical :func:`~repro.metrics.summary.summarize` record
        loop.  Computation order is frozen — the columnar collector
        reproduces it bit for bit from arrays.
        """
        agg = SessionAggregates()
        for session in self.sessions_after(warmup):
            agg.total_sessions += 1
            label = session.traffic_class.value
            agg.session_counts[label] = agg.session_counts.get(label, 0) + 1
            agg.volume_kb_by_class.setdefault(label, []).append(
                session.kbit_transferred / 8.0
            )
            agg.waiting_min_by_class.setdefault(label, []).append(
                session.waiting_time / 60.0
            )
            is_exchange = session.traffic_class.is_exchange
            if is_exchange:
                agg.exchange_sessions += 1
            if session.requester_is_sharer:
                agg.sharer_kbit += session.kbit_transferred
            else:
                agg.freeloader_kbit += session.kbit_transferred
            peer_class = session.requester_class or (
                "sharer" if session.requester_is_sharer else "freeloader"
            )
            agg.kbit_by_peer_class[peer_class] = (
                agg.kbit_by_peer_class.get(peer_class, 0.0)
                + session.kbit_transferred
            )
            if session.phase:
                agg.phase_counts[session.phase] = (
                    agg.phase_counts.get(session.phase, 0) + 1
                )
                agg.phase_exchange_counts[session.phase] = (
                    agg.phase_exchange_counts.get(session.phase, 0)
                    + (1 if is_exchange else 0)
                )
        return agg

    # ------------------------------------------------------------------
    # incremental row feeds (strategy layer)
    # ------------------------------------------------------------------
    @property
    def num_sessions(self) -> int:
        """Session records collected so far."""
        return len(self.sessions)

    @property
    def num_downloads(self) -> int:
        """Download records collected so far."""
        return len(self.downloads)

    def session_rows_since(
        self, start: int
    ) -> Iterator[Tuple[int, float, float, bool]]:
        """``(requester_id, request_time, end_time, is_exchange)`` rows.

        Rows ``start..`` in record order; the strategy layer's epoch
        ingestion consumes these, so this collector and the columnar one
        feed it the same scalars.
        """
        return (
            (s.requester_id, s.request_time, s.end_time, s.traffic_class.is_exchange)
            for s in self.sessions[start:]
        )

    def download_rows_since(
        self, start: int
    ) -> Iterator[Tuple[int, float, float, float]]:
        """``(peer_id, request_time, complete_time, download_time)`` rows."""
        return (
            (d.peer_id, d.request_time, d.complete_time, d.download_time)
            for d in self.downloads[start:]
        )

    def reason_counts(self) -> Dict[TerminationReason, int]:
        """Session count per termination reason (zero counts omitted)."""
        counts: Dict[TerminationReason, int] = {}
        for reason in TerminationReason:
            key = f"session.reason.{reason.value}"
            if self.counters[key]:
                counts[reason] = self.counters[key]
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsCollector(sessions={len(self.sessions)}, "
            f"downloads={len(self.downloads)})"
        )
