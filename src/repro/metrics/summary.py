"""Run summaries: the numbers the paper's figures are made of.

:func:`summarize` reduces a :class:`~repro.metrics.columnar.ColumnarCollector`
to a :class:`SimulationSummary` holding exactly the quantities plotted in
Figs. 4–12: per-class mean download times (minutes), exchange-session
fraction, per-class session volumes and waiting times, and per-peer-class
transfer volume.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.metrics.columnar import ColumnarCollector
from repro.units import kbit_to_mb, seconds_to_minutes


def _mean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return sum(values) / len(values)


@dataclass
class SimulationSummary:
    """Headline quantities of one run (times in minutes, volumes in MB)."""

    # Fig. 4 / 6 / 9 / 12: mean download times
    mean_download_time_sharers_min: Optional[float]
    mean_download_time_freeloaders_min: Optional[float]
    mean_download_time_all_min: Optional[float]
    completed_downloads_sharers: int
    completed_downloads_freeloaders: int

    # Fig. 5: session class mix
    exchange_session_fraction: Optional[float]
    session_counts: Dict[str, int] = field(default_factory=dict)

    # Fig. 7 / 8 inputs
    session_volume_kb_by_class: Dict[str, List[float]] = field(default_factory=dict)
    waiting_time_min_by_class: Dict[str, List[float]] = field(default_factory=dict)

    # Fig. 10: measured-window transfer volume per peer class (MB / peer)
    volume_per_sharer_mb: float = 0.0
    volume_per_freeloader_mb: float = 0.0

    # Heterogeneous-population breakdowns, keyed by population-class
    # label.  For a legacy two-class run these hold exactly the
    # sharer/freeloader numbers above (which remain as derived views).
    mean_download_time_min_by_class: Dict[str, Optional[float]] = field(
        default_factory=dict
    )
    completed_downloads_by_class: Dict[str, int] = field(default_factory=dict)
    volume_per_peer_mb_by_class: Dict[str, float] = field(default_factory=dict)
    class_sizes: Dict[str, int] = field(default_factory=dict)

    # Scenario-phase breakdowns, keyed by phase label (see
    # :mod:`repro.scenario`).  Empty for closed-system runs: only
    # records completed inside a named phase contribute.
    mean_download_time_min_by_phase: Dict[str, Optional[float]] = field(
        default_factory=dict
    )
    completed_downloads_by_phase: Dict[str, int] = field(default_factory=dict)
    exchange_session_fraction_by_phase: Dict[str, Optional[float]] = field(
        default_factory=dict
    )

    # Strategy-dynamics trajectory (see :mod:`repro.strategy`): one
    # ``[time, sharing_fraction]`` pair per revision epoch, in time
    # order.  Empty for static-population runs.
    sharing_fraction_by_epoch: List[List[float]] = field(default_factory=list)
    #: Mean sharing fraction over the last quarter of revision epochs
    #: (the settled regime); None without any epoch.
    equilibrium_sharing_fraction: Optional[float] = None
    #: Sharing fraction at the final revision epoch; None without any.
    final_sharing_fraction: Optional[float] = None
    #: Total behaviour switches applied by the strategy layer.
    strategy_switches: int = 0

    # Incentive robustness (see :mod:`repro.security.adversaries`).
    # All defaults for runs without adversary classes, so honest
    # summaries are unchanged byte for byte.
    #: Peer-class labels that declared an ``adversary`` kind, sorted.
    adversary_classes: List[str] = field(default_factory=list)
    #: Measured-window volume the adversary classes extracted, MB per
    #: class (total, not per peer — the haul is what the attack is for).
    adversary_volume_mb_by_class: Dict[str, float] = field(default_factory=dict)
    #: Mean download time over the honest (non-adversary) classes.
    mean_download_time_honest_min: Optional[float] = None
    #: Mean download time over the adversary classes.
    mean_download_time_adversary_min: Optional[float] = None
    #: Honest mean / adversary mean: > 1 means the mechanism serves
    #: attackers *better* than the honest crowd — laundering won.
    honest_download_inflation: Optional[float] = None
    #: Requests refused because the requester was cooperatively banned.
    blacklist_hits: int = 0
    #: Whitewashes that shed an already-banned identity (§V's cheap
    #: pseudonyms defeating the blacklist).
    blacklist_evasions: int = 0

    # extras
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def speedup_sharers_vs_freeloaders(self) -> Optional[float]:
        """Fig. 11's y-axis: freeloader mean time / sharer mean time.

        ``None`` means the ratio is undefined: either class recorded no
        completed downloads, or the sharer mean is exactly zero.  A 0.0
        sharer mean is legitimate data, not missing data, so the checks
        are explicit ``is None`` comparisons rather than truthiness.
        """
        sharers = self.mean_download_time_sharers_min
        freeloaders = self.mean_download_time_freeloaders_min
        if sharers is None or freeloaders is None:
            return None
        if sharers == 0.0:
            return None
        return freeloaders / sharers

    # ------------------------------------------------------------------
    # serialization (used by the experiment orchestrator's result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dict holding every field (properties excluded)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationSummary":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown SimulationSummary fields {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]


def summarize(
    collector: ColumnarCollector,
    warmup: float,
    num_sharers: int,
    num_freeloaders: int,
    class_sizes: Optional[Mapping[str, int]] = None,
    adversary_classes: Optional[Sequence[str]] = None,
) -> SimulationSummary:
    """Reduce raw records to the paper's headline metrics.

    ``warmup`` censors everything that finished before the measurement
    window opened.  Per-peer volumes are normalized by the *class size*
    so runs with different freeloader fractions are comparable (Fig. 12).
    ``class_sizes`` (population-class label → peer count) normalizes the
    per-class volume breakdown; when omitted, classes present in the
    records still get download-time and count entries.
    ``adversary_classes`` (class labels running an attack, see
    :mod:`repro.security.adversaries`) switches on the
    incentive-robustness fields — honest/adversary mean split, per-class
    extracted volume, blacklist hit/evasion counts; ``None`` (every
    honest run) leaves them at their defaults.

    All per-record reduction happens inside
    ``collector.session_aggregates`` and the download-time views, so
    the tests' record-list reference collector summarizes through the
    same code (records loop vs. columnar arrays — bit-identical by
    contract).
    """
    sharer_times = collector.download_times(sharer=True, warmup=warmup)
    freeloader_times = collector.download_times(sharer=False, warmup=warmup)
    all_times = sharer_times + freeloader_times
    times_by_peer_class = collector.download_times_by_class(warmup=warmup)

    agg = collector.session_aggregates(warmup)
    session_counts = agg.session_counts
    volume_by_class = agg.volume_kb_by_class
    waiting_by_class = agg.waiting_min_by_class
    sharer_kbit = agg.sharer_kbit
    freeloader_kbit = agg.freeloader_kbit
    kbit_by_peer_class = agg.kbit_by_peer_class

    fraction: Optional[float] = None
    if agg.total_sessions:
        fraction = agg.exchange_sessions / agg.total_sessions

    sizes: Dict[str, int] = dict(class_sizes) if class_sizes else {}
    # Every known class appears in the breakdowns, even with no activity
    # in the window — a zero-adoption class reads as None, not missing.
    class_labels = sorted(set(sizes) | set(times_by_peer_class) | set(kbit_by_peer_class))
    mean_by_peer_class: Dict[str, Optional[float]] = {}
    completed_by_peer_class: Dict[str, int] = {}
    volume_per_peer_by_class: Dict[str, float] = {}
    for label in class_labels:
        times = times_by_peer_class.get(label, [])
        mean_time = _mean(times)
        mean_by_peer_class[label] = (
            seconds_to_minutes(mean_time) if mean_time is not None else None
        )
        completed_by_peer_class[label] = len(times)
        size = sizes.get(label, 0)
        volume_per_peer_by_class[label] = (
            kbit_to_mb(kbit_by_peer_class.get(label, 0.0)) / size if size else 0.0
        )

    # Scenario phases: slice completed downloads and session mix by the
    # phase label active when each record landed.
    times_by_phase = collector.download_times_by_phase(warmup=warmup)
    mean_by_phase: Dict[str, Optional[float]] = {}
    completed_by_phase: Dict[str, int] = {}
    for label, times in times_by_phase.items():
        mean_time = _mean(times)
        mean_by_phase[label] = (
            seconds_to_minutes(mean_time) if mean_time is not None else None
        )
        completed_by_phase[label] = len(times)
    exchange_fraction_by_phase: Dict[str, Optional[float]] = {}
    for label, phase_total in agg.phase_counts.items():
        exchange_fraction_by_phase[label] = (
            agg.phase_exchange_counts.get(label, 0) / phase_total
            if phase_total
            else None
        )

    # Strategy dynamics: the full trajectory (warmup included — the
    # transient is the interesting part) plus settled-regime scalars.
    epochs = sorted(collector.strategy_epochs, key=lambda r: (r.time, r.epoch))
    sharing_by_epoch = [[record.time, record.sharing_fraction] for record in epochs]
    equilibrium_fraction: Optional[float] = None
    final_fraction: Optional[float] = None
    if epochs:
        tail = epochs[-max(1, len(epochs) // 4):]
        equilibrium_fraction = _mean([record.sharing_fraction for record in tail])
        final_fraction = epochs[-1].sharing_fraction
    # Counters rather than epoch records: scenario StrategyShock flips
    # switch peers outside any revision epoch and must still count.
    switches = (
        collector.counters["strategy.switch_to_sharing"]
        + collector.counters["strategy.switch_to_freeloading"]
    )

    # Incentive robustness: split the per-class download times into the
    # honest crowd vs the attacker classes.  Labels are walked in sorted
    # order so every collector concatenates identically.
    adversary_labels = sorted(adversary_classes) if adversary_classes else []
    adversary_volume_by_class: Dict[str, float] = {}
    honest_mean_min: Optional[float] = None
    adversary_mean_min: Optional[float] = None
    inflation: Optional[float] = None
    blacklist_hits = 0
    blacklist_evasions = 0
    if adversary_labels:
        adversary_set = set(adversary_labels)
        adversary_volume_by_class = {
            label: kbit_to_mb(kbit_by_peer_class.get(label, 0.0))
            for label in adversary_labels
        }
        honest_times: List[float] = []
        adversary_times: List[float] = []
        for label in sorted(set(times_by_peer_class) | adversary_set):
            bucket = (
                adversary_times if label in adversary_set else honest_times
            )
            bucket.extend(times_by_peer_class.get(label, []))
        honest_mean = _mean(honest_times)
        adversary_mean = _mean(adversary_times)
        honest_mean_min = (
            seconds_to_minutes(honest_mean) if honest_mean is not None else None
        )
        adversary_mean_min = (
            seconds_to_minutes(adversary_mean)
            if adversary_mean is not None
            else None
        )
        if (
            honest_mean_min is not None
            and adversary_mean_min is not None
            and adversary_mean_min > 0.0
        ):
            inflation = honest_mean_min / adversary_mean_min
        blacklist_hits = collector.counters["adversary.blacklist_hit"]
        blacklist_evasions = collector.counters["adversary.blacklist_evasion"]

    mean_sharer = _mean(sharer_times)
    mean_freeloader = _mean(freeloader_times)
    mean_all = _mean(all_times)
    return SimulationSummary(
        mean_download_time_sharers_min=(
            seconds_to_minutes(mean_sharer) if mean_sharer is not None else None
        ),
        mean_download_time_freeloaders_min=(
            seconds_to_minutes(mean_freeloader) if mean_freeloader is not None else None
        ),
        mean_download_time_all_min=(
            seconds_to_minutes(mean_all) if mean_all is not None else None
        ),
        completed_downloads_sharers=len(sharer_times),
        completed_downloads_freeloaders=len(freeloader_times),
        exchange_session_fraction=fraction,
        session_counts=session_counts,
        session_volume_kb_by_class=volume_by_class,
        waiting_time_min_by_class=waiting_by_class,
        volume_per_sharer_mb=(
            kbit_to_mb(sharer_kbit) / num_sharers if num_sharers else 0.0
        ),
        volume_per_freeloader_mb=(
            kbit_to_mb(freeloader_kbit) / num_freeloaders if num_freeloaders else 0.0
        ),
        mean_download_time_min_by_class=mean_by_peer_class,
        completed_downloads_by_class=completed_by_peer_class,
        volume_per_peer_mb_by_class=volume_per_peer_by_class,
        class_sizes=sizes,
        mean_download_time_min_by_phase=mean_by_phase,
        completed_downloads_by_phase=completed_by_phase,
        exchange_session_fraction_by_phase=exchange_fraction_by_phase,
        sharing_fraction_by_epoch=sharing_by_epoch,
        equilibrium_sharing_fraction=equilibrium_fraction,
        final_sharing_fraction=final_fraction,
        strategy_switches=switches,
        adversary_classes=adversary_labels,
        adversary_volume_mb_by_class=adversary_volume_by_class,
        mean_download_time_honest_min=honest_mean_min,
        mean_download_time_adversary_min=adversary_mean_min,
        honest_download_inflation=inflation,
        blacklist_hits=blacklist_hits,
        blacklist_evasions=blacklist_evasions,
        counters=dict(collector.counters),
    )
