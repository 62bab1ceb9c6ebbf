"""Shared session-reduction containers and streaming chunk folds.

:func:`~repro.metrics.summary.summarize` used to iterate
``List[SessionRecord]`` itself; the per-session reduction now lives
behind ``collector.session_aggregates(warmup)`` (columnar arrays at
runtime, a record list in the tests' reference collector), and this
module holds the result shape both produce.

Under streaming retention (``SimulationConfig.metrics_retention =
"streaming"``) the columnar collector additionally *folds* every frozen
4096-row chunk into the running reductions here and releases the chunk,
so metrics memory stays flat in run length.  The folds keep only what
the summary needs per record: the per-class volume/waiting value lists
(Fig. 7/8 CDF inputs) and download-time lists, as unboxed float64
chunk arrays until query time.

Bit-identity contract: every float in an aggregate must be built from
the same IEEE operations in the same order as the historical record
loop — elementwise ``/ 8.0`` and ``/ 60.0`` transforms, and sequential
left-fold ``sum(values, start)`` accumulations — so the columnar and
reference collectors *and* the two retention modes summarize to byte-identical JSON (pinned
by the golden figure tests, ``tests/test_collector_equivalence.py`` and
``tests/test_streaming_retention.py``).  Chunking cannot move a float:
the elementwise transforms are per-element, carrying the accumulator
through ``sum(chunk_values, accumulator)`` reassociates nothing
(``((0+a)+b)+c`` either way), and ``np.concatenate`` of chunk arrays
followed by ``.tolist()`` yields the same Python floats as per-chunk
``.tolist()`` extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np


def first_occurrence_codes(codes: np.ndarray) -> List[int]:
    """Distinct codes ordered by first occurrence (record order)."""
    if codes.size == 0:
        return []
    uniq, first = np.unique(codes, return_index=True)
    return [int(code) for code in uniq[np.argsort(first, kind="stable")]]


@dataclass
class SessionAggregates:
    """Per-class/per-phase reductions over post-warmup sessions.

    Dict key order is observable (summaries serialize to JSON): every
    mapping is keyed in *first-occurrence order* over the post-warmup
    sessions, exactly like the historical dict-building record loop.
    """

    #: Sessions per traffic-class label.
    session_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-session volume (KB) lists per traffic-class label.
    volume_kb_by_class: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-session waiting time (minutes) lists per traffic-class label.
    waiting_min_by_class: Dict[str, List[float]] = field(default_factory=dict)
    #: Sessions whose traffic class is an exchange class.
    exchange_sessions: int = 0
    #: All post-warmup sessions (the fraction's denominator).
    total_sessions: int = 0
    #: Volume (kbit) received by sharer / freeloader requesters.
    sharer_kbit: float = 0.0
    freeloader_kbit: float = 0.0
    #: Volume (kbit) received per population-class label (records
    #: without a label fall back to sharer/freeloader).
    kbit_by_peer_class: Dict[str, float] = field(default_factory=dict)
    #: Sessions per scenario-phase label (unlabeled sessions skipped).
    phase_counts: Dict[str, int] = field(default_factory=dict)
    #: Exchange sessions per scenario-phase label.
    phase_exchange_counts: Dict[str, int] = field(default_factory=dict)


def _concat_lists(chunks: Sequence[np.ndarray]) -> List[float]:
    """Record-order Python floats from chunk arrays.

    ``a.tolist() + b.tolist()`` equals ``np.concatenate([a, b]).tolist()``
    float for float; extending per chunk avoids a large concatenate at
    query time.
    """
    values: List[float] = []
    for chunk in chunks:
        values.extend(chunk.tolist())
    return values


class RunningSessionAggregates:
    """Left-fold of frozen session chunks into :class:`SessionAggregates`.

    One instance per streaming collector.  :meth:`fold` consumes one
    frozen chunk (a name → array mapping in schema layout) exactly once;
    :meth:`result` materializes a fresh :class:`SessionAggregates` equal
    — byte for byte — to what a full-retention collector would compute
    over the concatenation of every folded chunk.

    Scalar accumulators are carried *through* the per-chunk left-folds
    (``sum(chunk_values, accumulator)``), which preserves the reference
    fold order; value lists stay as unboxed float64 chunk slices until
    :meth:`result`.
    """

    __slots__ = (
        "_warmup",
        "_traffic_labels",
        "_labels",
        "_non_exchange_code",
        "_counts",
        "_volume_chunks",
        "_waiting_chunks",
        "_exchange",
        "_total",
        "_sharer_kbit",
        "_freeloader_kbit",
        "_kbit_by_class",
        "_phase_counts",
        "_phase_exchange",
    )

    def __init__(
        self,
        warmup: float,
        traffic_labels: Sequence[str],
        labels: List[str],
        non_exchange_code: int,
    ) -> None:
        self._warmup = warmup
        self._traffic_labels = traffic_labels
        #: Live reference to the collector's interning table (grows as
        #: new labels land; codes are stable).
        self._labels = labels
        self._non_exchange_code = non_exchange_code
        self._counts: Dict[str, int] = {}
        self._volume_chunks: Dict[str, List[np.ndarray]] = {}
        self._waiting_chunks: Dict[str, List[np.ndarray]] = {}
        self._exchange = 0
        self._total = 0
        self._sharer_kbit = 0.0
        self._freeloader_kbit = 0.0
        self._kbit_by_class: Dict[str, float] = {}
        self._phase_counts: Dict[str, int] = {}
        self._phase_exchange: Dict[str, int] = {}

    def fold(self, chunk: Mapping[str, np.ndarray]) -> None:
        """Fold one frozen chunk (schema-layout column arrays)."""
        end = chunk["end_time"]
        keep = np.flatnonzero(end >= self._warmup)
        self._total += int(keep.size)
        if keep.size == 0:
            return
        tc_codes = chunk["traffic_class"][keep]
        kbit = chunk["kbit"][keep]
        volume_kb = kbit / 8.0
        waiting_min = (chunk["start_time"][keep] - chunk["request_time"][keep]) / 60.0
        counts = self._counts
        for code in first_occurrence_codes(tc_codes):
            label = self._traffic_labels[code]
            mask = tc_codes == code
            counts[label] = counts.get(label, 0) + int(np.count_nonzero(mask))
            self._volume_chunks.setdefault(label, []).append(volume_kb[mask])
            self._waiting_chunks.setdefault(label, []).append(waiting_min[mask])
        self._exchange += int(np.count_nonzero(tc_codes != self._non_exchange_code))
        sharer = chunk["sharer"][keep]
        self._sharer_kbit = sum(kbit[sharer].tolist(), self._sharer_kbit)
        self._freeloader_kbit = sum(kbit[~sharer].tolist(), self._freeloader_kbit)
        labels = self._labels
        eff_codes = chunk["eff_class"][keep]
        kbit_by_class = self._kbit_by_class
        for code in first_occurrence_codes(eff_codes):
            label = labels[code]
            kbit_by_class[label] = sum(
                kbit[eff_codes == code].tolist(), kbit_by_class.get(label, 0.0)
            )
        phase_codes = chunk["phase"][keep]
        labeled = phase_codes != 0  # code 0 is the "" label
        exchange = tc_codes != self._non_exchange_code
        for code in first_occurrence_codes(phase_codes[labeled]):
            label = labels[code]
            mask = phase_codes == code
            self._phase_counts[label] = self._phase_counts.get(label, 0) + int(
                np.count_nonzero(mask)
            )
            self._phase_exchange[label] = self._phase_exchange.get(label, 0) + int(
                np.count_nonzero(mask & exchange)
            )

    def result(self) -> SessionAggregates:
        """A fresh, caller-owned :class:`SessionAggregates`."""
        return SessionAggregates(
            session_counts=dict(self._counts),
            volume_kb_by_class={
                label: _concat_lists(chunks)
                for label, chunks in self._volume_chunks.items()
            },
            waiting_min_by_class={
                label: _concat_lists(chunks)
                for label, chunks in self._waiting_chunks.items()
            },
            exchange_sessions=self._exchange,
            total_sessions=self._total,
            sharer_kbit=self._sharer_kbit,
            freeloader_kbit=self._freeloader_kbit,
            kbit_by_peer_class=dict(self._kbit_by_class),
            phase_counts=dict(self._phase_counts),
            phase_exchange_counts=dict(self._phase_exchange),
        )

    def nbytes(self) -> int:
        """Bytes retained by the per-class value-chunk arrays."""
        return sum(  # simlint: disable=NUM001 -- int byte tally, no float rounding
            chunk.nbytes
            for chunks in (self._volume_chunks, self._waiting_chunks)
            for per_label in chunks.values()
            for chunk in per_label
        )


class RunningDownloadTimes:
    """Left-fold of frozen download chunks into the summary's time views.

    Retains, per post-warmup download, only the download time plus the
    sharer flag and class/phase codes (as unboxed chunk arrays) — enough
    to serve ``download_times`` / ``download_times_by_class`` /
    ``download_times_by_phase`` byte-identically to full retention.
    """

    __slots__ = ("_warmup", "_times", "_sharer", "_eff", "_phase")

    def __init__(self, warmup: float) -> None:
        self._warmup = warmup
        self._times: List[np.ndarray] = []
        self._sharer: List[np.ndarray] = []
        self._eff: List[np.ndarray] = []
        self._phase: List[np.ndarray] = []

    def fold(self, chunk: Mapping[str, np.ndarray]) -> None:
        """Fold one frozen chunk (schema-layout column arrays)."""
        complete = chunk["complete_time"]
        keep = np.flatnonzero(complete >= self._warmup)
        if keep.size == 0:
            return
        self._times.append(complete[keep] - chunk["request_time"][keep])
        self._sharer.append(chunk["sharer"][keep])
        self._eff.append(chunk["eff_class"][keep])
        self._phase.append(chunk["phase"][keep])

    def _concat(self, chunks: List[np.ndarray], dtype: type) -> np.ndarray:
        if not chunks:
            return np.empty(0, dtype=dtype)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)

    def times(self, sharer: Optional[bool] = None) -> List[float]:
        """Download times in record order, optionally filtered by class."""
        all_times = self._concat(self._times, np.float64)
        if sharer is None:
            return all_times.tolist()
        flags = self._concat(self._sharer, np.bool_)
        values: List[float] = all_times[flags == sharer].tolist()
        return values

    def times_by_code(self, which: str) -> Dict[int, List[float]]:
        """``{code: times}`` keyed in first-occurrence order.

        ``which`` selects the grouping column: ``"eff_class"`` or
        ``"phase"`` (phase grouping skips code 0, the ``""`` label, like
        the full-retention view).
        """
        codes = self._concat(
            self._eff if which == "eff_class" else self._phase, np.int32
        )
        times = self._concat(self._times, np.float64)
        if which == "phase":
            labeled = np.flatnonzero(codes != 0)
            codes = codes[labeled]
            times = times[labeled]
        grouped: Dict[int, List[float]] = {}
        for code in first_occurrence_codes(codes):
            grouped[code] = times[codes == code].tolist()
        return grouped

    def nbytes(self) -> int:
        """Bytes retained by the download-time chunk arrays."""
        return sum(  # simlint: disable=NUM001 -- int byte tally, no float rounding
            chunk.nbytes
            for chunks in (self._times, self._sharer, self._eff, self._phase)
            for chunk in chunks
        )
