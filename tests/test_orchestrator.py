"""Tests for the parallel experiment orchestrator.

Covers config fingerprinting, the JSON result cache, grid execution
(serial and pooled), cross-figure cell dedup, multi-seed replication
with mean ± stderr aggregation, and the CLI flags.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError, MetricsError
from repro.experiments import orchestrator
from repro.experiments.figures import FIGURES, FigureSpec
from repro.experiments.orchestrator import (
    MemoryCache,
    ResultCache,
    config_fingerprint,
    run_figure,
    run_figures,
    run_grid,
)
from repro.experiments.report import SeriesTable, aggregate_tables
from repro.metrics.summary import SimulationSummary
from repro.simulation import run_summary


def tiny_config(**overrides) -> SimulationConfig:
    """A simulation small enough to run in tens of milliseconds."""
    params = dict(
        num_peers=8,
        num_categories=6,
        objects_per_category_min=1,
        objects_per_category_max=6,
        object_size_mb=1.0,
        block_size_kbit=1024.0,
        storage_min_objects=2,
        storage_max_objects=4,
        duration=2000.0,
        warmup=500.0,
        seed=11,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def fake_summary(value: float = 1.0) -> SimulationSummary:
    return SimulationSummary(
        mean_download_time_sharers_min=value,
        mean_download_time_freeloaders_min=2 * value,
        mean_download_time_all_min=1.5 * value,
        completed_downloads_sharers=1,
        completed_downloads_freeloaders=1,
        exchange_session_fraction=0.5,
    )


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        assert config_fingerprint(tiny_config()) == config_fingerprint(tiny_config())

    def test_seed_changes_fingerprint(self):
        assert config_fingerprint(tiny_config(seed=1)) != config_fingerprint(
            tiny_config(seed=2)
        )

    def test_any_field_changes_fingerprint(self):
        assert config_fingerprint(tiny_config()) != config_fingerprint(
            tiny_config(exchange_mechanism="pairwise")
        )

    def test_scenario_changes_fingerprint(self):
        """Stale-cache regression: a cached closed-system cell must
        never answer for the same config with a scenario attached (and
        different scenarios must never collide)."""
        from repro.scenario import FlashCrowd, PeerArrival, Phase

        plain = tiny_config()
        crowd = tiny_config(
            scenario=(Phase(0.0, "s"), FlashCrowd(600.0, seed_providers=1))
        )
        waves = tiny_config(
            scenario=(Phase(0.0, "s"), PeerArrival(600.0, count=2, class_name="sharer"))
        )
        fingerprints = {
            config_fingerprint(plain),
            config_fingerprint(crowd),
            config_fingerprint(waves),
        }
        assert len(fingerprints) == 3

    def test_scenario_cache_schema_bumped(self, tmp_path):
        """Entries written before the strategy layer (schema <= 3) are
        misses; the current stamp covers strategy-bearing summaries,
        the retention/perf-counter knobs, the adversary metrics, and
        configs without the removed metrics_backend field."""
        assert orchestrator.CACHE_SCHEMA_VERSION == 8
        cache = ResultCache(str(tmp_path))
        plain = tiny_config()
        cache.store(plain, fake_summary())
        from repro.scenario import Phase

        with_scenario = tiny_config(scenario=(Phase(0.0, "s"),))
        # Same everything but the scenario: must not hit the plain entry.
        assert cache.load(with_scenario) is None
        assert cache.load(plain) == fake_summary()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        config = tiny_config()
        assert cache.load(config) is None
        cache.store(config, fake_summary())
        assert cache.load(config) == fake_summary()
        assert len(cache) == 1

    @pytest.mark.parametrize("garbage", ["{not json", "[]", "null", '"str"'])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(str(tmp_path))
        config = tiny_config()
        cache.store(config, fake_summary())
        path = os.path.join(str(tmp_path), f"{config_fingerprint(config)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(garbage)
        assert cache.load(config) is None

    def test_entries_are_valid_json_with_config_dump(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = tiny_config()
        cache.store(config, fake_summary())
        path = os.path.join(str(tmp_path), f"{config_fingerprint(config)}.json")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["config"]["num_peers"] == config.num_peers
        assert payload["fingerprint"] == config_fingerprint(config)

    def test_stale_orphan_tmp_files_swept_on_init(self, tmp_path):
        import time as time_mod

        orphan = tmp_path / "deadbeef.tmp"
        orphan.write_text("partial write from a killed run")
        stale = time_mod.time() - 2 * ResultCache.ORPHAN_MIN_AGE_SECONDS
        os.utime(orphan, (stale, stale))
        cache = ResultCache(str(tmp_path))
        assert not orphan.exists()
        assert len(cache) == 0

    def test_fresh_orphan_tmp_files_survive_init(self, tmp_path):
        # A young .tmp may be a concurrent run's in-flight write.
        orphan = tmp_path / "deadbeef.tmp"
        orphan.write_text("in-flight write from a live run")
        ResultCache(str(tmp_path))
        assert orphan.exists()

    def test_entries_from_other_code_versions_are_misses(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        config = tiny_config()
        cache.store(config, fake_summary())
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-different")
        assert ResultCache(str(tmp_path)).load(config) is None

    def test_entries_from_other_cache_schemas_are_misses(self, tmp_path):
        # Pre-population cache entries carry no (or an older) schema
        # stamp and must never be replayed.
        cache = ResultCache(str(tmp_path))
        config = tiny_config()
        cache.store(config, fake_summary())
        path = os.path.join(str(tmp_path), f"{config_fingerprint(config)}.json")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["cache_version"] == orchestrator.CACHE_SCHEMA_VERSION
        payload["cache_version"] = orchestrator.CACHE_SCHEMA_VERSION - 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert ResultCache(str(tmp_path)).load(config) is None
        del payload["cache_version"]  # pre-stamp entries lack the key entirely
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert ResultCache(str(tmp_path)).load(config) is None

    def test_precomputed_fingerprint_respected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = tiny_config()
        fingerprint = config_fingerprint(config)
        cache.store(config, fake_summary(), fingerprint=fingerprint)
        assert cache.load(config, fingerprint=fingerprint) == fake_summary()
        assert cache.load(config) == fake_summary()  # same key either way

    def test_hit_miss_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = tiny_config()
        cache.load(config)
        cache.store(config, fake_summary())
        cache.load(config)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_memory_cache_dedupes_without_touching_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = MemoryCache()
        config = tiny_config()
        assert cache.load(config) is None
        cache.store(config, fake_summary())
        assert cache.load(config) == fake_summary()
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere


class TestRunGrid:
    def test_serial_matches_direct_run(self):
        config = tiny_config()
        results = run_grid({"cell": config})
        assert results["cell"] == run_summary(config)

    def test_identical_configs_run_once(self, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return fake_summary()

        monkeypatch.setattr(
            "repro.experiments.orchestrator.run_summary", counting
        )
        config = tiny_config()
        results = run_grid({"a": config, "b": tiny_config()})
        assert len(calls) == 1
        assert results["a"] == results["b"] == fake_summary()

    def test_cache_skips_execution_on_rerun(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        grid = {"cell": tiny_config()}
        first = run_grid(grid, cache=cache)

        def explode(config):
            raise AssertionError("cache should have answered")

        monkeypatch.setattr("repro.experiments.orchestrator.run_summary", explode)
        second = run_grid(grid, cache=ResultCache(str(tmp_path)))
        assert second == first

    def test_parallel_matches_serial(self):
        grid = {
            f"seed={seed}": tiny_config(seed=seed) for seed in (1, 2, 3)
        }
        serial = run_grid(grid, jobs=1)
        parallel = run_grid(grid, jobs=2)
        assert parallel == serial

    def test_progress_reports_every_cell(self, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.orchestrator.run_summary",
            lambda config: fake_summary(),
        )
        seen = []
        run_grid(
            {"a": tiny_config(seed=1), "b": tiny_config(seed=2)},
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError):
            run_grid({"cell": tiny_config()}, jobs=0)


def _tiny_spec(figure_id: str = "figtest") -> FigureSpec:
    """A two-cell figure over tiny configs for end-to-end tests."""

    def build_grid(scale, seed):
        return {
            "pairwise": tiny_config(exchange_mechanism="pairwise", seed=seed),
            "none": tiny_config(exchange_mechanism="none", seed=seed),
        }

    def assemble(scale, seed, summaries):
        table = SeriesTable("tiny figure", "x", ["pairwise", "none"])
        table.add_row(
            0.0,
            {
                "pairwise": summaries["pairwise"].mean_download_time_all_min,
                "none": summaries["none"].mean_download_time_all_min,
            },
        )
        return table

    return FigureSpec(figure_id, "tiny test figure", build_grid, assemble)


class TestRunFigures:
    @pytest.fixture
    def figtest(self, monkeypatch):
        monkeypatch.setitem(FIGURES, "figtest", _tiny_spec())
        return "figtest"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError):
            run_figures(["fig99"])

    def test_invalid_reps_rejected(self, figtest):
        with pytest.raises(ConfigError):
            run_figure(figtest, reps=0)

    def test_parallel_table_identical_to_serial(self, figtest):
        serial = run_figure(figtest, seed=7, jobs=1)
        parallel = run_figure(figtest, seed=7, jobs=2)
        assert parallel.render() == serial.render()

    def test_reps_aggregate_mean_and_stderr(self, figtest):
        table = run_figure(figtest, seed=7, reps=3)
        assert table.has_errors
        singles = [run_figure(figtest, seed=7 + rep) for rep in range(3)]
        values = [t.rows[0][1]["pairwise"] for t in singles]
        mean = sum(values) / len(values)
        assert table.rows[0][1]["pairwise"] == pytest.approx(mean)
        assert "±" in table.render()

    def test_reps_share_cache_with_single_runs(self, figtest, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path))
        run_figure(figtest, seed=7, reps=2, cache=cache)

        def explode(config):
            raise AssertionError("cache should have answered")

        monkeypatch.setattr("repro.experiments.orchestrator.run_summary", explode)
        run_figure(figtest, seed=8, cache=ResultCache(str(tmp_path)))

    def test_batch_dedups_cells_shared_between_figures(self):
        # Figs. 9 and 10 sweep the same grid: one batch must plan each
        # unique config once.
        fig9 = FIGURES["fig9"].build_grid("smoke", 42)
        fig10 = FIGURES["fig10"].build_grid("smoke", 42)
        fingerprints9 = {config_fingerprint(c) for c in fig9.values()}
        fingerprints10 = {config_fingerprint(c) for c in fig10.values()}
        assert fingerprints9 == fingerprints10

    def test_fig5_cells_are_subset_of_fig4(self):
        fig4 = {config_fingerprint(c) for c in FIGURES["fig4"].build_grid("smoke", 42).values()}
        fig5 = {config_fingerprint(c) for c in FIGURES["fig5"].build_grid("smoke", 42).values()}
        assert fig5 < fig4


class TestAggregateTables:
    def _table(self, values, errors=None, title="t"):
        table = SeriesTable(title, "x", ["a"])
        table.add_row(1.0, {"a": values}, errors=errors)
        return table

    def test_mean_and_stderr(self):
        tables = [self._table(v) for v in (1.0, 2.0, 3.0)]
        out = aggregate_tables(tables)
        assert out.rows[0][1]["a"] == pytest.approx(2.0)
        # sample std = 1.0, stderr = 1/sqrt(3)
        assert out.row_errors[0]["a"] == pytest.approx(1.0 / 3 ** 0.5)

    def test_single_table_passthrough(self):
        table = self._table(1.0)
        assert aggregate_tables([table]) is table

    def test_missing_cells_use_present_replications_only(self):
        tables = [self._table(v) for v in (2.0, None, 4.0)]
        out = aggregate_tables(tables)
        assert out.rows[0][1]["a"] == pytest.approx(3.0)

    def test_all_missing_stays_none(self):
        out = aggregate_tables([self._table(None), self._table(None)])
        assert out.rows[0][1]["a"] is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            aggregate_tables([self._table(1.0), self._table(1.0, title="other")])
        short = SeriesTable("t", "x", ["a"])
        with pytest.raises(MetricsError):
            aggregate_tables([self._table(1.0), short])

    def test_empty_input_rejected(self):
        with pytest.raises(MetricsError):
            aggregate_tables([])

    def test_x_values_averaged_positionally(self):
        left = SeriesTable("t", "x", ["a"])
        left.add_row(1.0, {"a": 1.0})
        right = SeriesTable("t", "x", ["a"])
        right.add_row(3.0, {"a": 2.0})
        out = aggregate_tables([left, right])
        assert out.rows[0][0] == pytest.approx(2.0)


class TestSeriesTableErrors:
    def test_series_errors_align_with_rows(self):
        table = SeriesTable("t", "x", ["a", "b"])
        table.add_row(1.0, {"a": 1.0, "b": 2.0}, errors={"a": 0.1})
        table.add_row(2.0, {"a": 3.0})
        assert table.series_errors("a") == [(1.0, 0.1), (2.0, None)]
        assert table.series_errors("b") == [(1.0, None), (2.0, None)]

    def test_unknown_error_series_rejected(self):
        table = SeriesTable("t", "x", ["a"])
        with pytest.raises(MetricsError):
            table.add_row(1.0, {"a": 1.0}, errors={"zzz": 0.1})

    def test_render_shows_error_bars(self):
        table = SeriesTable("t", "x", ["a"])
        table.add_row(1.0, {"a": 1.234}, errors={"a": 0.567})
        assert "1.23±0.57" in table.render()


class TestRunnerCli:
    def test_unknown_figure_exits_2(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig99", "--no-cache"]) == 2

    def test_invalid_jobs_exits_2(self):
        from repro.experiments.runner import main

        assert main(["fig4", "--jobs", "0", "--no-cache"]) == 2

    def test_invalid_reps_exits_2(self):
        from repro.experiments.runner import main

        assert main(["fig4", "--reps", "0", "--no-cache"]) == 2

    def test_runs_tiny_figure_end_to_end(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(FIGURES, "figtest", _tiny_spec())
        from repro.experiments.runner import main

        out_dir = tmp_path / "results"
        code = main(
            [
                "figtest",
                "--jobs",
                "2",
                "--reps",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--out",
                str(out_dir),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "tiny figure" in captured.out
        assert "jobs=2, reps=2" in captured.out
        assert (out_dir / "figtest_smoke.txt").exists()

    def test_later_figures_reuse_earlier_figures_cells_via_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        # figtest2 shares figtest's grid: with the cache on, the second
        # figure's cells must be answered entirely from disk.
        monkeypatch.setitem(FIGURES, "figtest", _tiny_spec())
        monkeypatch.setitem(FIGURES, "figtest2", _tiny_spec("figtest2"))
        from repro.experiments.runner import main

        cache_dir = str(tmp_path / "cache")
        assert main(["figtest", "--cache-dir", cache_dir]) == 0
        assert main(["figtest2", "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "cache 2 hit / 0 miss" in captured.out.split("figtest2")[-1]
