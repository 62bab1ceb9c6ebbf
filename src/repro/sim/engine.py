"""Heap-based discrete-event simulation engine.

The engine is deliberately minimal: a clock, one binary heap of
``(time, seq, event)`` entries and a run loop.  Everything
domain-specific (peers, transfers, rings) lives above it and interacts
with the engine only through :meth:`Engine.schedule` /
:meth:`Engine.schedule_at`.

Events fire in exactly the ``(time, seq)`` total order (equal times fire
in scheduling order) and the engine uses no randomness, so a simulation
driven by a seeded :class:`~repro.sim.rng.RandomSource` replays exactly.

Cancellation is **eagerly indexed**: every event knows its engine, so
:meth:`~repro.sim.events.Event.cancel` notifies the engine immediately
instead of leaving a tombstone for the run loop to trip over.  When
cancelled entries outnumber live ones (past a small floor) the engine
compacts the heap in one sweep, so N cancellations cost O(N) amortized
regardless of how many events are pending.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError
from repro.sim.counters import PerfCounters
from repro.sim.events import Event

#: Cancelled entries tolerated before a compaction sweep may trigger
#: (it still requires cancelled > live).  Mirrors the IRQ's compaction
#: floor: tiny queues never pay a rebuild.
_PURGE_FLOOR = 64


class Engine:
    """Discrete-event scheduler with a floating-point clock in seconds.

    The heap holds ``(time, seq, event)`` tuples rather than bare
    events: tuple comparison runs in C, and with millions of heap
    operations per run the Python-level ``Event.__lt__`` dispatch was a
    measurable slice of the whole simulation.
    """

    def __init__(
        self, start_time: float = 0.0, *, counters: Optional[PerfCounters] = None
    ) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._fired = 0
        self._cancelled_skipped = 0
        self._purge_ops = 0
        self._compactions = 0
        self._running = False
        #: Pending non-cancelled events (the heap may briefly hold more
        #: entries than this: cancelled ones awaiting purge).
        self._live = 0
        #: Cancelled entries still inside the heap.
        self._cancelled_pending = 0
        self.counters = counters if counters is not None else PerfCounters()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (excludes cancelled skips)."""
        return self._fired

    @property
    def events_pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_skipped(self) -> int:
        """Number of cancelled events discarded (pops + compactions)."""
        return self._cancelled_skipped

    @property
    def purge_ops(self) -> int:
        """Entries touched while discarding cancelled events.

        The cancellation-cost regression guard asserts this stays O(N)
        in the number of cancellations, independent of how many live
        events are pending around them.
        """
        return self._purge_ops

    @property
    def compactions(self) -> int:
        """Number of eager compaction sweeps performed."""
        return self._compactions

    def schedule(
        self, delay: float, callback: Callable[[], None], name: Optional[str] = None
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may cancel.  A
        negative delay raises :class:`SchedulingError` — events in the
        past indicate a bookkeeping bug upstream, never a valid model.
        """
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {name or callback!r} {-delay:.6f}s in the past"
            )
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: Optional[str] = None
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule {name or callback!r} at t={time:.6f} "
                f"before current time t={self._now:.6f}"
            )
        seq = self._seq
        event = Event(time, seq, callback, name, engine=self)
        heapq.heappush(self._heap, (time, seq, event))  # simlint: disable=SCH001 -- this IS the seq-tie-break API every other push must go through
        self._seq = seq + 1
        self._live += 1
        return event

    def _head(self) -> Optional[Tuple[float, int, Event]]:
        """The next live heap entry (cancelled heads discarded), or None."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry
            heapq.heappop(heap)
            self._cancelled_pending -= 1
            self._cancelled_skipped += 1
            self._purge_ops += 1
        return None

    def _note_cancelled(self) -> None:
        """Eager-cancellation hook called by :meth:`Event.cancel`.

        Keeps the live count exact and compacts the heap once cancelled
        entries outnumber live ones (beyond a small floor), so mass
        cancellation never leaves an O(pending) tombstone field for the
        run loop to wade through.
        """
        self._live -= 1
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= _PURGE_FLOOR
            and self._cancelled_pending > self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap."""
        heap = self._heap
        kept = [entry for entry in heap if not entry[2]._cancelled]
        removed = len(heap) - len(kept)
        heapq.heapify(kept)
        self._heap = kept
        self._cancelled_skipped += removed
        self._cancelled_pending -= removed
        self._purge_ops += removed
        self._compactions += 1

    def step(self) -> Optional[Event]:
        """Fire the next non-cancelled event; return it, or None if empty."""
        if self._head() is None:
            return None
        event = heapq.heappop(self._heap)[2]
        self._live -= 1
        event.engine = None  # fired: a late cancel must not re-account it
        self._now = event.time
        self._fired += 1
        event.fire()
        return event

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the
            clock is advanced to ``until`` (events *at* ``until`` fire)
            unless the loop stopped early on ``max_events`` with
            undrained events at or before ``until`` — advancing past
            those would let the clock move backwards on the next
            :meth:`step`/:meth:`run` and make :meth:`schedule_at`
            reject still-valid times.
        max_events:
            Safety valve for tests: stop after this many fired events.

        Returns the number of events fired by this call.  At least one
        of ``until`` / ``max_events`` must be given, otherwise the loop
        could only end by draining the heap — usually a hang in a
        self-rescheduling simulation.
        """
        if until is None and max_events is None:
            raise SimulationError("run() needs an 'until' time or a max_events bound")
        if self._running:
            raise SimulationError("engine is already running (re-entrant run() call)")
        self._running = True
        fired = 0
        counters = self.counters
        counting = counters.enabled
        event_counts = counters.counts if counting else None
        heappop = heapq.heappop
        try:
            while self._live:
                if max_events is not None and fired >= max_events:
                    break
                # Re-read every pass: a callback's cancel may compact
                # the heap into a new list.
                heap = self._heap
                time, _seq, head = heap[0]
                if head._cancelled:
                    self._head()  # discard the cancelled run at the top
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self._live -= 1
                head.engine = None  # fired: a late cancel must not re-account it
                self._now = time
                self._fired += 1
                fired += 1
                if counting:
                    kind = head.name.partition(".")[0]
                    event_counts[kind] = event_counts.get(kind, 0) + 1  # type: ignore[union-attr]
                head.callback()  # inlined Event.fire(): once per event
        finally:
            self._running = False
        if counting:
            event_counts["engine.fired"] = (  # type: ignore[index]
                event_counts.get("engine.fired", 0) + fired  # type: ignore[union-attr]
            )
        if until is not None and self._now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self._now = until
        return fired

    def peek_time(self) -> Optional[float]:
        """Fire time of the next pending event, skipping cancelled ones."""
        head = self._head()
        return None if head is None else head[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self._now:.3f}, pending={self.events_pending}, "
            f"fired={self._fired})"
        )
