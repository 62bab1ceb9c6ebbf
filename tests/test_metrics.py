"""Unit tests for records, collectors, CDFs and summaries."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import MetricsError
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.columnar import ColumnarCollector
from repro.metrics.records import (
    DownloadRecord,
    SessionRecord,
    TerminationReason,
    TrafficClass,
)
from repro.metrics.summary import SimulationSummary, summarize
from tests.helpers import add_record


def session(
    start=10.0,
    end=20.0,
    request=5.0,
    kbit=100.0,
    traffic=TrafficClass.NON_EXCHANGE,
    ring_size=0,
    sharer=True,
    reason=TerminationReason.COMPLETED,
):
    return SessionRecord(
        provider_id=1,
        requester_id=2,
        object_id=3,
        traffic_class=traffic,
        ring_size=ring_size,
        ring_id=None if ring_size == 0 else 9,
        request_time=request,
        start_time=start,
        end_time=end,
        kbit_transferred=kbit,
        reason=reason,
        requester_is_sharer=sharer,
    )


def download(peer=1, request=0.0, complete=60.0, sharer=True):
    return DownloadRecord(
        peer_id=peer,
        object_id=3,
        request_time=request,
        complete_time=complete,
        size_kbit=100.0,
        peer_is_sharer=sharer,
    )


class TestTrafficClass:
    @pytest.mark.parametrize(
        "size,expected",
        [
            (0, TrafficClass.NON_EXCHANGE),
            (1, TrafficClass.NON_EXCHANGE),
            (2, TrafficClass.PAIRWISE),
            (3, TrafficClass.THREE_WAY),
            (4, TrafficClass.FOUR_WAY),
            (5, TrafficClass.FIVE_WAY),
            (6, TrafficClass.HIGHER_WAY),
            (9, TrafficClass.HIGHER_WAY),
        ],
    )
    def test_for_ring_size(self, size, expected):
        assert TrafficClass.for_ring_size(size) is expected

    def test_is_exchange(self):
        assert not TrafficClass.NON_EXCHANGE.is_exchange
        assert TrafficClass.PAIRWISE.is_exchange
        assert TrafficClass.FIVE_WAY.is_exchange


class TestRecords:
    def test_waiting_time(self):
        assert session(start=10.0, request=4.0).waiting_time == 6.0

    def test_duration(self):
        assert session(start=10.0, end=25.0).duration == 15.0

    def test_session_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            session(start=20.0, end=10.0)

    def test_session_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            session(kbit=-1.0)

    def test_download_time(self):
        assert download(request=10.0, complete=70.0).download_time == 60.0

    def test_download_rejects_time_travel(self):
        with pytest.raises(ValueError):
            download(request=100.0, complete=10.0)


class TestCollector:
    def test_counts_by_class_and_reason(self):
        collector = ColumnarCollector()
        add_record(collector, session())
        add_record(collector, session(traffic=TrafficClass.PAIRWISE, ring_size=2))
        assert collector.counters["session.non-exchange"] == 1
        assert collector.counters["session.pairwise"] == 1
        assert collector.reason_counts()[TerminationReason.COMPLETED] == 2

    def test_warmup_filters_by_end_time(self):
        collector = ColumnarCollector()
        add_record(collector, session(start=1.0, end=5.0))
        add_record(collector, session(start=1.0, end=50.0))
        assert len(collector.sessions_after(10.0)) == 1

    def test_download_times_filtered_by_class(self):
        collector = ColumnarCollector()
        add_record(collector, download(sharer=True, complete=60.0))
        add_record(collector, download(sharer=False, complete=120.0))
        assert collector.download_times(sharer=True) == [60.0]
        assert collector.download_times(sharer=False) == [120.0]
        assert len(collector.download_times()) == 2

    def test_sessions_by_class(self):
        collector = ColumnarCollector()
        add_record(collector, session())
        add_record(collector, session(traffic=TrafficClass.PAIRWISE, ring_size=2))
        grouped = collector.sessions_by_class()
        assert len(grouped[TrafficClass.NON_EXCHANGE]) == 1
        assert len(grouped[TrafficClass.PAIRWISE]) == 1


class TestEmpiricalCDF:
    def test_basic_evaluation(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0
        assert cdf(99.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            EmpiricalCDF([])

    def test_quantiles(self):
        cdf = EmpiricalCDF([10.0, 20.0, 30.0, 40.0])
        assert cdf.quantile(0.25) == 10.0
        assert cdf.quantile(0.5) == 20.0
        assert cdf.quantile(1.0) == 40.0

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF([1.0])
        with pytest.raises(MetricsError):
            cdf.quantile(0.0)
        with pytest.raises(MetricsError):
            cdf.quantile(1.1)

    def test_mean_and_range(self):
        cdf = EmpiricalCDF([2.0, 4.0])
        assert cdf.mean() == 3.0
        assert (cdf.min, cdf.max) == (2.0, 4.0)

    def test_points_are_monotone(self):
        cdf = EmpiricalCDF(range(1000))
        pts = cdf.points(max_points=50)
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0
        assert len(pts) <= 52

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
    def test_cdf_monotone_property(self, samples):
        cdf = EmpiricalCDF(samples)
        lo, hi = min(samples), max(samples)
        assert cdf(lo - 1) == 0.0
        assert cdf(hi) == 1.0
        mid = (lo + hi) / 2
        assert 0.0 <= cdf(mid) <= 1.0


class TestSummarize:
    def test_headline_numbers(self):
        collector = ColumnarCollector()
        add_record(collector, download(sharer=True, complete=60.0))
        add_record(collector, download(sharer=True, complete=120.0))
        add_record(collector, download(sharer=False, complete=360.0))
        add_record(collector, session(sharer=True))
        add_record(
            collector, session(traffic=TrafficClass.PAIRWISE, ring_size=2, sharer=False)
        )
        summary = summarize(collector, warmup=0.0, num_sharers=2, num_freeloaders=2)
        assert summary.mean_download_time_sharers_min == pytest.approx(1.5)
        assert summary.mean_download_time_freeloaders_min == pytest.approx(6.0)
        assert summary.speedup_sharers_vs_freeloaders == pytest.approx(4.0)
        assert summary.exchange_session_fraction == 0.5
        assert summary.completed_downloads_sharers == 2

    def test_empty_run_yields_nones(self):
        summary = summarize(ColumnarCollector(), warmup=0.0, num_sharers=1, num_freeloaders=1)
        assert summary.mean_download_time_sharers_min is None
        assert summary.exchange_session_fraction is None
        assert summary.speedup_sharers_vs_freeloaders is None

    @staticmethod
    def _summary_with_means(sharers, freeloaders):
        return SimulationSummary(
            mean_download_time_sharers_min=sharers,
            mean_download_time_freeloaders_min=freeloaders,
            mean_download_time_all_min=None,
            completed_downloads_sharers=0,
            completed_downloads_freeloaders=0,
            exchange_session_fraction=None,
        )

    def test_speedup_zero_sharer_mean_is_undefined_not_missing(self):
        # Regression: `if not sharers` conflated a legitimate 0.0 mean
        # with missing data and risked dividing by zero.
        summary = self._summary_with_means(0.0, 5.0)
        assert summary.speedup_sharers_vs_freeloaders is None

    def test_speedup_zero_freeloader_mean_is_valid_data(self):
        summary = self._summary_with_means(5.0, 0.0)
        assert summary.speedup_sharers_vs_freeloaders == 0.0

    def test_speedup_none_either_side_is_none(self):
        assert self._summary_with_means(None, 5.0).speedup_sharers_vs_freeloaders is None
        assert self._summary_with_means(5.0, None).speedup_sharers_vs_freeloaders is None

    def test_summary_dict_roundtrip(self):
        collector = ColumnarCollector()
        add_record(collector, download(sharer=True, complete=60.0))
        add_record(collector, session(sharer=True))
        summary = summarize(collector, warmup=0.0, num_sharers=2, num_freeloaders=2)
        data = summary.to_dict()
        import json

        restored = SimulationSummary.from_dict(json.loads(json.dumps(data)))
        assert restored == summary

    def test_summary_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SimulationSummary.from_dict({"definitely_not_a_field": 1})

    def test_warmup_censors_early_records(self):
        collector = ColumnarCollector()
        add_record(collector, download(complete=5.0))
        add_record(collector, download(complete=500.0))
        summary = summarize(collector, warmup=100.0, num_sharers=1, num_freeloaders=1)
        assert summary.completed_downloads_sharers == 1

    def test_volume_per_class_normalized(self):
        collector = ColumnarCollector()
        add_record(collector, session(kbit=8192.0, sharer=True))
        summary = summarize(collector, warmup=0.0, num_sharers=2, num_freeloaders=5)
        assert summary.volume_per_sharer_mb == pytest.approx(0.5)
        assert summary.volume_per_freeloader_mb == 0.0
