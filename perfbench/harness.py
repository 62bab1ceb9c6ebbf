"""Workloads, one-simulation child runs and the measuring loop.

Each simulation runs in a fresh child process (``python3 harness.py
<spec>``), so its peak RSS belongs to that one run alone.  The child
drives only the public API -- ``FileSharingSimulation(config).build()``
then ``.run()`` on a :func:`repro.experiments.presets.preset` config --
and prints one JSON record of what it saw.  The parent
(:func:`measure`) runs the children one after another, checks every
record and reduces them to the published figures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: An untraced run has at least this many children, so every median
#: has at least three samples (set-up time included).
MIN_REPEATS = 3

#: Child ``k`` of a run with seed ``s`` simulates seed ``s + k * SEED_STRIDE``:
#: the run's figures average over several inputs, all fixed by ``s``.
SEED_STRIDE = 1_000_000

#: A run must end within 180 s; no child is given time past this.
DEADLINE_S = 160.0

#: Every published time is scaled to a host on which one
#: :func:`speed_kernel` call takes this long.
REFERENCE_KERNEL_S = 2.0e-3

#: How often :class:`SpeedProbe` samples the host's speed.
PROBE_PERIOD_S = 0.1

#: Counts published from ``result.perf_counters`` in a traced run.
PERF_COUNTS = (
    "engine.fired",
    "irq.adds",
    "irq.removes",
    "irq.tree_refreshes",
    "irq.compactions",
    "ring_search.searches",
    "ring_search.candidates",
    "ring_search.rings_formed",
    "ring_search.gated_skips",
    "collector.session_chunks",
    "collector.download_chunks",
)

#: Counts published from the engine's public properties.
ENGINE_COUNTS = ("purge_ops", "compactions", "cancelled_skipped")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One seeded preset cell and what a correct run of it shows."""

    name: str
    why: str
    preset: str
    overrides: Dict[str, object]
    #: Reference seconds of one child, process start included; a run
    #: of ``--seconds S`` has ``max(MIN_REPEATS, round(S / child_s))``.
    child_s: float
    #: Downloads complete inside the window.
    completes_downloads: bool = True
    #: Rings form (True) or none may form (False).
    forms_rings: bool = True
    #: Churn moves peers offline and back.
    churns: bool = False
    #: ``events_fired`` at seed 42.
    pin_seed42: Optional[int] = None

    def spec(self, seed: int, traced: bool) -> Dict[str, object]:
        """The JSON-ready input of one child run."""
        return {
            "preset": self.preset,
            "overrides": dict(self.overrides, seed=seed),
            "traced": traced,
        }


# The 1k workloads share one shortened window of the ``scale`` preset
# (its full 12,000 s window costs 45 s of host time per exchange run,
# too long to repeat within a benchmark run): 2,000 simulated seconds,
# about the shortest in which 8 MB downloads complete, and long enough
# for request trees and IRQs to fill.
_WINDOW_1K = dict(duration=2_000.0, warmup=500.0)
_EXCHANGE_1K = dict(exchange_mechanism="2-5-way", **_WINDOW_1K)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="exchange-1k",
            why="1000 peers, 2-5-way exchanges: request trees, IRQ, ring search "
            "and exchange manager do most of the run",
            preset="scale",
            overrides=_EXCHANGE_1K,
            child_s=9.0,
            pin_seed42=109_521,
        ),
        Workload(
            name="noexchange-1k",
            why="same cell without exchanges: the control on which tree, IRQ and "
            "ring-search changes read flat; engine, transfer and collector dominate",
            preset="scale",
            overrides=dict(_EXCHANGE_1K, exchange_mechanism="none"),
            child_s=3.5,
            forms_rings=False,
            pin_seed42=109_011,
        ),
        Workload(
            name="churn-1k",
            why="exchange-1k under heavy churn: write-heavy IRQ removals, "
            "disconnect, drain and re-lookup",
            preset="scale",
            overrides=dict(
                _EXCHANGE_1K,
                churn_enabled=True,
                churn_mean_online=3_000.0,
                churn_mean_offline=3_000.0,
            ),
            child_s=8.0,
            # With peers offline half the time, some seeds complete no
            # 8 MB download in 2,000 s: check closed sessions instead.
            completes_downloads=False,
            churns=True,
            pin_seed42=89_352,
        ),
        Workload(
            name="swarm-50k",
            why="50,000 peers: the only cell where set-up time and memory carry "
            "weight; its bootstrap burst floods IRQ insertion and lookup",
            preset="huge",
            # Two simulated seconds of the bootstrap burst.  The full
            # 240 s window takes ~290 s of host time and 3.2 GB; no
            # 0.5 MB object can finish before ~80 s, so this cell checks
            # for closed transfer sessions instead of completions.
            overrides=dict(
                exchange_mechanism="2-5-way",
                metrics_retention="streaming",
                duration=2.0,
                warmup=1.0,
            ),
            child_s=15.0,
            completes_downloads=False,
            pin_seed42=45_053,
        ),
    )
}


# ----------------------------------------------------------------------
# child side: one simulation in this process
# ----------------------------------------------------------------------
def speed_kernel() -> None:
    """A fixed slice of dict-and-integer work, about 2 ms of CPU."""
    table: Dict[int, int] = {}
    for i in range(12_000):
        table[i & 255] = table.get(i & 255, 0) + i


class SpeedProbe:
    """Samples the host's CPU speed while a simulation runs.

    Shared virtual hosts change speed by a quarter within seconds, so
    identical runs differ by 10-20% in host seconds.  Every
    :data:`PROBE_PERIOD_S` a timer signal interrupts the run between
    bytecodes and times :func:`speed_kernel` in the same process; the
    mean sample over an interval scales that interval's host seconds to
    the reference host.  The handler touches no simulation state, so it
    cannot move an event; it adds about 2% to the run.
    """

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []

    def sample(self, *_signal_args: object) -> None:
        """Time one kernel call (also the signal handler)."""
        started = time.perf_counter()
        speed_kernel()
        self.at.append(started)
        self.took.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from host to reference seconds over ``[start, end]``
        (over the whole probe when no sample fell inside)."""
        inside = [t for at, t in zip(self.at, self.took) if start <= at <= end]
        return REFERENCE_KERNEL_S / statistics.mean(inside or self.took)


def simulate(spec: Dict[str, object]) -> Dict[str, object]:
    """Run one simulation described by ``spec``; return its record."""
    from repro.experiments.presets import preset
    from repro.simulation import FileSharingSimulation

    overrides = dict(spec["overrides"])
    traced = bool(spec["traced"])
    if traced:
        overrides["perf_counters"] = True
    config = preset(str(spec["preset"]), **overrides)
    with SpeedProbe() as probe, (
        Tracer() if traced else contextlib.nullcontext()
    ) as tracer:
        started = time.perf_counter()
        sim = FileSharingSimulation(config)
        built_at = time.perf_counter()
        sim.build()
        ran_at = time.perf_counter()
        result = sim.run()
        ended = time.perf_counter()
    summary = result.summary
    counters = summary.counters
    intervals = dict(setup=(built_at, ran_at), run=(ran_at, ended), wall=(started, ended))
    record: Dict[str, object] = {
        "events_fired": result.events_fired,
        "summary_sha256": hashlib.sha256(
            json.dumps(summary.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
        "completed_downloads": result.metrics.num_downloads,
        "rings_formed": counters.get("ring.formed", 0),
        "churn_transitions": counters.get("churn.offline", 0)
        + counters.get("churn.online", 0),
        "sessions": sum(v for k, v in counters.items() if k.startswith("session.reason.")),
        "host_s": {phase: end - start for phase, (start, end) in intervals.items()},
        "scale": {phase: probe.scale(*interval) for phase, interval in intervals.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        engine = sim.ctx.engine
        counts = result.perf_counters.get("counts", {})
        record["counts"] = dict(
            {name: int(counts.get(name, 0)) for name in PERF_COUNTS},
            **{f"engine.{name}": int(getattr(engine, name)) for name in ENGINE_COUNTS},
        )
        record["layers"] = tracer.ledger()
        record["min_self_s"] = tracer.min_self_s()
    return record


def child_main(argv: List[str]) -> None:
    """Entry point of a child process: ``harness.py <spec-json>``."""
    sys.path.insert(0, str(SRC))
    record = simulate(json.loads(argv[0]))
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a 50k-peer world takes seconds
    # and is no part of what is measured.
    os._exit(0)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    """A child simulation raised, crashed or printed no record."""


Runner = Callable[[Dict[str, object], float], Dict[str, object]]


def spawn(spec: Dict[str, object], timeout: float) -> Dict[str, object]:
    """Run one child process to completion and return its record."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def in_process(spec: Dict[str, object], timeout: float) -> Dict[str, object]:
    """Run the child's work in this process (tests only: no RSS isolation)."""
    return simulate(spec)


def check(workload: Workload, seed: int, record: Dict[str, object]) -> List[str]:
    """Output checks of one child record; empty when all pass."""
    problems = []
    if workload.completes_downloads and not record["completed_downloads"]:
        problems.append("no download completed")
    if not workload.completes_downloads and not record["sessions"]:
        problems.append("no transfer session closed")
    if workload.forms_rings and not record["rings_formed"]:
        problems.append("no exchange ring formed")
    if not workload.forms_rings and record["rings_formed"]:
        problems.append(f"{record['rings_formed']} rings formed with exchanges off")
    if workload.churns and not record["churn_transitions"]:
        problems.append("no churn transition")
    if seed == 42 and workload.pin_seed42 is not None:
        if record["events_fired"] != workload.pin_seed42:
            problems.append(
                f"events_fired {record['events_fired']} != seed-42 pin {workload.pin_seed42}"
            )
    if "layers" in record:
        wall = record["host_s"]["wall"]
        layer_sum = sum(layer["self_s"] for layer in record["layers"].values())
        if abs(layer_sum - wall) > 0.01 * wall:
            problems.append(f"layer self times sum to {layer_sum:.4f} s, traced wall {wall:.4f} s")
        if record["min_self_s"] < -1e-6:
            problems.append(f"a span ends outside its parent ({record['min_self_s']:.3g} s self)")
    return problems


@dataclasses.dataclass
class Measurement:
    """What one benchmark run saw: checked records and failures."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    plain: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    traced: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Count one failed run."""
        self.failed += 1
        self.problems.append(problem)

    @property
    def error_rate(self) -> float:
        """Failed runs over attempted runs."""
        return self.failed / self.attempted if self.attempted else 0.0


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, run: Runner = spawn
) -> Measurement:
    """Run and check the children of one benchmark run.

    Untraced: ``max(MIN_REPEATS, round(seconds / child_s))`` children on
    seeds derived from ``seed``.  Traced: one untraced and one traced
    child on ``seed`` itself, which must agree on events and summary.
    """
    out = Measurement()
    started = time.perf_counter()
    if trace:
        children = [(seed, False), (seed, True)]
    else:
        count = max(MIN_REPEATS, round(seconds / workload.child_s))
        children = [(seed + k * SEED_STRIDE, False) for k in range(count)]
    for child_seed, traced in children:
        remaining = DEADLINE_S - (time.perf_counter() - started)
        if remaining < 1.0:
            break
        out.attempted += 1
        try:
            record = run(workload.spec(child_seed, traced), remaining)
        except Exception as exc:  # a failed run is data, not a crash
            out.fail(f"{type(exc).__name__}: {exc}")
            continue
        problems = check(workload, child_seed, record)
        if traced and out.plain:
            plain = out.plain[0]
            if (record["events_fired"], record["summary_sha256"]) != (
                plain["events_fired"],
                plain["summary_sha256"],
            ):
                problems.append("traced run differs from the untraced run in events or summary")
        if problems:
            out.fail("; ".join(problems))
        else:
            (out.traced if traced else out.plain).append(record)
    return out


def reference_s(record: Dict[str, object], phase: str) -> float:
    """One phase's host seconds, scaled to the reference host."""
    return record["host_s"][phase] * record["scale"][phase]


def end_to_end(out: Measurement) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of an untraced run: ``{name: (value, unit)}``."""
    plain = out.plain
    return {
        "events_per_s": (
            sum(r["events_fired"] for r in plain) / sum(reference_s(r, "run") for r in plain),
            "events/s",
        ),
        "wall_s": (statistics.mean(reference_s(r, "wall") for r in plain), "s"),
        "setup_s": (statistics.median(reference_s(r, "setup") for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
    }


def per_layer(out: Measurement) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run: ``{name: (value, unit)}``."""
    traced, plain = out.traced[0], out.plain[0]
    wall, scale = traced["host_s"]["wall"], traced["scale"]["wall"]
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, entry in traced["layers"].items():
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"] * scale, "s")
        metrics[f"{layer}.share"] = (entry["self_s"] / wall, "fraction")
    counts = traced["counts"]
    for name, value in counts.items():
        metrics[name] = (value, "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["ring_search.yield"] = (
        ratio(counts["ring_search.rings_formed"], counts["ring_search.candidates"]),
        "fraction",
    )
    metrics["exchange_manager.gate_rate"] = (
        ratio(
            counts["ring_search.gated_skips"],
            counts["ring_search.searches"] + counts["ring_search.gated_skips"],
        ),
        "fraction",
    )
    metrics["irq.compaction_rate"] = (
        ratio(counts["irq.compactions"], counts["irq.removes"] + counts["irq.tree_refreshes"]),
        "fraction",
    )
    metrics["tracing_overhead"] = (
        reference_s(traced, "wall") / reference_s(plain, "wall"),
        "ratio",
    )
    metrics["host.kernel_ms"] = (1e3 * REFERENCE_KERNEL_S / scale, "ms")
    return metrics


if __name__ == "__main__":
    child_main(sys.argv[1:])
