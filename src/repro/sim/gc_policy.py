"""The simulator's one cyclic-garbage-collector policy.

A built world is millions of long-lived, cycle-linked objects that
almost never become garbage, so the collector's default schedule only
rescans it.  :func:`build_phase` wraps the build and :func:`run_phase`
the event loop; both restore the caller's collector state on every
exit path.  Collection timing is invisible to the simulation (no RNG
draw, no scheduling, no finalizer), so the policy cannot move a
trajectory.  ``docs/PERFORMANCE.md``, "The cyclic collector", has the
measurements.  simlint ``GC001`` keeps every collector-state call in
``src/repro`` inside this module.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: Gen-0 threshold while the event loop runs (CPython's default is 700).
#: Picked from an in-situ sweep of 700 / 10,000 / 100,000 over the
#: perfbench workloads; see ``docs/PERFORMANCE.md``.
RUN_GEN0_THRESHOLD = 100_000


@contextmanager
def build_phase() -> Iterator[None]:
    """Collect, run the body with automatic collection off, collect.

    The opening full pass frees an earlier simulation's dead world before
    the body allocates the next one, so back-to-back cells do not double
    peak RSS.  The closing pass collects only the young generation: the
    full pass left it empty and nothing ran in between, so it holds
    exactly what the body built, and the rest of the process (a test
    runner's heap, a caller's earlier results) is not rescanned.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
    gc.collect(0)


@contextmanager
def run_phase() -> Iterator[None]:
    """Run the body with the current heap frozen and a raised gen-0
    threshold; objects made inside stay collectable as usual."""
    threshold = gc.get_threshold()
    gc.freeze()
    gc.set_threshold(RUN_GEN0_THRESHOLD, *threshold[1:])
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        gc.unfreeze()
