"""Outside-in span tracer for the simulator's layer entry points.

The tracer wraps named functions and methods of the program from the
benchmark's own code; the program itself is not edited.  Each call of a
wrapped entry point records one span: its layer, start, end and the
span that was open when it was called (its parent); following parents
leads to the top-level call (constructor, ``build`` or ``run``) a span
ran under.  Spans are kept in flat in-memory columns and aggregated
once, after the run.

A layer's self time is the duration of its spans minus the time their
child spans cover.  The simulator is single-threaded, so the children
of one span never overlap and the covered time is the sum of their
durations; no layer ever waits on another.

Generator entry points (``IncomingRequestQueue.paths_to``) do their work
while the caller iterates, so each resumption is its own span, parented
to whatever span is open at that moment; ``calls`` still counts one per
invocation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: (layer, "module:qualname") for every traced entry point.  A function
#: is patched in its defining module and in every loaded ``repro``
#: module that imported it by name, since that is where callers look it
#: up.  ``simulation.run`` is the root span of a run; its self time is
#: the part of ``FileSharingSimulation.run`` outside the event loop and
#: the summary (garbage-collector freeze and process shutdown).
ENTRY_POINTS: Tuple[Tuple[str, str], ...] = (
    ("simulation.build", "repro.simulation:FileSharingSimulation.__init__"),
    ("simulation.build", "repro.simulation:FileSharingSimulation.build"),
    ("simulation.build", "repro.content.catalog:Catalog.build"),
    ("simulation.build", "repro.content.placement:place_objects_for_peer"),
    ("simulation.run", "repro.simulation:FileSharingSimulation.run"),
    ("sim.engine", "repro.sim.engine:Engine.run"),
    ("core.request_tree", "repro.core.request_tree:build_snapshot"),
    ("core.request_tree", "repro.core.request_tree:tree_peer_set"),
    ("core.irq", "repro.core.irq:IncomingRequestQueue.add"),
    ("core.irq", "repro.core.irq:IncomingRequestQueue.remove"),
    ("core.irq", "repro.core.irq:IncomingRequestQueue.refresh_tree"),
    ("core.irq", "repro.core.irq:IncomingRequestQueue.paths_to"),
    ("core.ring_search", "repro.core.ring_search:find_candidates"),
    ("core.exchange_manager", "repro.core.exchange_manager:try_form_exchanges"),
    ("core.exchange_manager", "repro.core.exchange_manager:commit_ring"),
    ("core.token_protocol", "repro.core.token_protocol:validate_ring"),
    ("core.token_protocol", "repro.core.token_protocol:edge_veto"),
    ("core.scheduler", "repro.core.scheduler:serve_pending"),
    ("core.scheduler", "repro.core.scheduler:preempt_for_exchange"),
    ("core.peer_table", "repro.core.peer_table:PeerStateTable.sorted_intersection"),
    ("network.transfer", "repro.network.transfer:Transfer.start"),
    ("network.transfer", "repro.network.transfer:Transfer.terminate"),
    ("network.lookup", "repro.network.lookup:LookupService.find_providers"),
    ("network.peer", "repro.network.peer:Peer.scan"),
    ("network.peer", "repro.network.peer:Peer.refresh_outgoing_trees"),
    ("network.peer", "repro.network.peer:Peer.start_download"),
    ("network.peer", "repro.network.peer:Peer.fill_pending"),
    ("network.churn", "repro.network.peer:Peer.disconnect"),
    ("network.churn", "repro.network.peer:Peer.reconnect"),
    ("content.workload", "repro.content.workload:RequestGenerator.next_request"),
    ("metrics.columnar", "repro.metrics.columnar:ColumnarCollector.add_session"),
    ("metrics.columnar", "repro.metrics.columnar:ColumnarCollector.add_download"),
    ("metrics.summary", "repro.metrics.summary:summarize"),
)


def span_self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> np.ndarray:
    """Self seconds of each span in a set of properly nested spans.

    ``parents[i]`` is the index of span ``i``'s parent, or -1 for a
    top-level span.  Children of one span never overlap (one thread),
    so the time they cover is the sum of their durations.
    """
    durations = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parent_index = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(len(durations))
    nested = parent_index >= 0
    np.add.at(covered, parent_index[nested], durations[nested])
    return durations - covered


class Tracer:
    """Records spans around the entry points in :data:`ENTRY_POINTS`.

    Use as a context manager: entering patches every entry point,
    leaving restores the originals.
    """

    def __init__(self, entry_points: Sequence[Tuple[str, str]] = ENTRY_POINTS) -> None:
        self.entry_points = tuple(entry_points)
        self.layers: Tuple[str, ...] = tuple(
            dict.fromkeys(layer for layer, _ in self.entry_points)
        )
        self.layer_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.calls: List[int] = [0] * len(self.layers)
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: int, fn: Callable) -> Callable:
        layer_of, starts, ends = self.layer_of, self.starts, self.ends
        parents, stack, calls = self.parents, self._stack, self.calls
        clock = time.perf_counter

        def open_span() -> int:
            index = len(starts)
            parent = stack[-1] if stack else -1
            layer_of.append(layer)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                calls[layer] += 1
                iterator = fn(*args, **kwargs)
                while True:
                    index = open_span()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            index = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def _patch(self, owner: object, name: str, original: object, value: object) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        targets = [target.split(":") for _, target in self.entry_points]
        for module_name, _ in targets:
            importlib.import_module(module_name)
        for (layer_name, _), (module_name, qualname) in zip(self.entry_points, targets):
            layer = self.layers.index(layer_name)
            module = sys.modules[module_name]
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                self._patch(owner, attr, raw, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(layer, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, qualname, None) is original
                ):
                    self._patch(loaded, qualname, original, wrapped)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def ledger(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over all spans."""
        own = np.bincount(
            np.asarray(self.layer_of, dtype=np.int64),
            weights=span_self_times(self.starts, self.ends, self.parents),
            minlength=len(self.layers),
        )
        return {
            layer: {"calls": self.calls[i], "self_s": float(own[i])}
            for i, layer in enumerate(self.layers)
        }

    def min_self_s(self) -> float:
        """The smallest self time of any span: negative only when a
        child span was recorded outside its parent's interval."""
        own = span_self_times(self.starts, self.ends, self.parents)
        return float(own.min()) if len(own) else 0.0
