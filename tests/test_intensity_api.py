"""CarbonIntensityService: history, forecasts, region queries, and the
process-wide window-table memo with its byte-identical score builder."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.score_table import build_score_table

from repro.core.errors import TraceError
from repro.intensity import api
from repro.intensity.api import (
    CarbonIntensityService,
    table_cache_clear,
    table_cache_info,
)
from repro.intensity.generator import generate_trace
from repro.intensity.regions import REGIONS
from repro.intensity.trace import IntensityTrace


@pytest.fixture()
def two_region_service():
    a = IntensityTrace("A", 0, np.tile([100.0, 300.0], 24))
    b = IntensityTrace("B", 0, np.full(48, 200.0))
    return CarbonIntensityService({"A": a, "B": b}, forecast_error=0.0)


class TestCatalog:
    def test_default_regions_cover_table3(self):
        service = CarbonIntensityService()
        assert set(service.regions) == {"KN", "TK", "ESO", "CISO", "PJM", "MISO", "ERCOT"}

    def test_unknown_region_rejected(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.trace("Z")

    def test_empty_service_rejected(self):
        with pytest.raises(TraceError):
            CarbonIntensityService({})

    def test_negative_forecast_error_rejected(self):
        with pytest.raises(TraceError):
            CarbonIntensityService(forecast_error=-0.1)

    def test_horizon(self, two_region_service):
        assert two_region_service.horizon_hours() == 48


class TestQueries:
    def test_intensity_at_wraps(self, two_region_service):
        assert two_region_service.intensity_at("A", 0) == 100.0
        assert two_region_service.intensity_at("A", 48) == 100.0  # wrap
        assert two_region_service.intensity_at("A", 49) == 300.0

    def test_history_matches_truth(self, two_region_service):
        hist = two_region_service.history("A", 0, 4)
        assert list(hist) == [100.0, 300.0, 100.0, 300.0]

    def test_cleanest_region(self, two_region_service):
        assert two_region_service.cleanest_region(0) == "A"  # 100 < 200
        assert two_region_service.cleanest_region(1) == "B"  # 300 > 200

    def test_cleanest_region_subset(self, two_region_service):
        assert two_region_service.cleanest_region(1, regions=["A"]) == "A"

    def test_cleanest_region_empty_rejected(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.cleanest_region(0, regions=[])


class TestForecasts:
    def test_oracle_forecast_equals_truth(self, two_region_service):
        forecast = two_region_service.forecast("A", 0, 6)
        truth = two_region_service.history("A", 0, 6)
        assert np.array_equal(forecast, truth)

    def test_noisy_forecast_differs_but_tracks(self):
        trace = IntensityTrace("A", 0, np.full(8760, 200.0))
        service = CarbonIntensityService({"A": trace}, forecast_error=0.05)
        forecast = service.forecast("A", 0, 48)
        assert not np.allclose(forecast, 200.0)
        assert forecast.mean() == pytest.approx(200.0, rel=0.15)
        assert float(forecast.min()) >= 0.0

    def test_error_grows_with_lead_time(self):
        trace = IntensityTrace("A", 0, np.full(8760, 200.0))
        service = CarbonIntensityService({"A": trace}, forecast_error=0.05, seed=1)
        errors_near, errors_far = [], []
        for start in range(0, 4000, 40):
            forecast = service.forecast("A", start, 48)
            errors_near.append(abs(forecast[0] - 200.0))
            errors_far.append(abs(forecast[-1] - 200.0))
        assert np.mean(errors_far) > 2.0 * np.mean(errors_near)

    def test_zero_horizon(self, two_region_service):
        assert two_region_service.forecast("A", 0, 0).size == 0

    def test_negative_horizon_rejected(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.forecast("A", 0, -1)

    def test_window_mean(self, two_region_service):
        mean = two_region_service.forecast_window_mean("A", 0, 2)
        assert mean == pytest.approx(200.0)

    def test_window_mean_needs_positive_window(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.forecast_window_mean("A", 0, 0)


class TestScoreTableBuilder:
    """The in-place builder reproduces the pinned oracle's bytes."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        forecast_error=st.one_of(
            st.just(0.0), st.floats(min_value=1e-3, max_value=0.5)
        ),
        region=st.sampled_from(sorted(REGIONS)),
        window=st.sampled_from([1, 511, 512, 513, 1100]),
        n_hours=st.integers(24, 1500),
    )
    # A trace shorter than the window: every row wraps three times.
    @example(seed=7, forecast_error=0.1, region="ESO", window=1100, n_hours=300)
    # A full study year, the shape every scenario builds.
    @example(seed=2021, forecast_error=0.03, region="PJM", window=513, n_hours=8760)
    def test_matches_oracle_bytes(self, seed, forecast_error, region, window, n_hours):
        trace = generate_trace(region, n_hours=n_hours, seed=seed)
        service = CarbonIntensityService(
            {region: trace}, forecast_error=forecast_error, seed=seed
        )
        fast = service._build_score_table(region, window)
        reference = build_score_table(
            trace, window, seed=seed, forecast_error=forecast_error
        )
        assert fast.dtype == reference.dtype and fast.shape == reference.shape
        assert fast.tobytes() == reference.tobytes()


def _traces(n_hours=1024, codes=("ESO", "CISO")):
    return {
        code: IntensityTrace(
            code, 0, np.random.default_rng(i).uniform(50.0, 500.0, n_hours)
        )
        for i, code in enumerate(codes)
    }


class TestTableMemo:
    """One process-wide, content-keyed, byte-bounded LRU of tables."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        table_cache_clear()
        yield
        table_cache_clear()

    @pytest.fixture()
    def builds(self, monkeypatch):
        counts = {"score": 0, "truth": 0}
        for kind in counts:
            name = f"_build_{kind}_table"
            build = getattr(CarbonIntensityService, name)

            def counted(self, region, window, _build=build, _kind=kind):
                counts[_kind] += 1
                return _build(self, region, window)

            monkeypatch.setattr(CarbonIntensityService, name, counted)
        return counts

    def test_second_service_over_same_content_builds_nothing(self, builds):
        traces = _traces()
        first = CarbonIntensityService(traces, forecast_error=0.05, seed=11)
        tables = {
            (code, window): first.window_score_table(code, window)
            for code in traces
            for window in (1, 24, 600)
        }
        first.truth_window_table("ESO", 24)
        assert builds == {"score": 6, "truth": 1}
        # Equal content in distinct trace objects: keyed on bytes.
        copies = {
            code: IntensityTrace(code, 0, trace.values.copy())
            for code, trace in traces.items()
        }
        second = CarbonIntensityService(copies, forecast_error=0.05, seed=11)
        for (code, window), table in tables.items():
            assert second.window_score_table(code, window) is table
        second.truth_window_table("ESO", 24)
        assert builds == {"score": 6, "truth": 1}
        assert table_cache_info().hits == 7

    @pytest.mark.parametrize("change", ["seed", "forecast_error", "sample"])
    def test_any_content_change_is_a_miss(self, builds, change):
        traces = _traces()
        knobs = {"forecast_error": 0.05, "seed": 11}
        CarbonIntensityService(traces, **knobs).window_score_table("ESO", 24)
        if change == "sample":
            values = traces["ESO"].values.copy()
            values[500] += 1.0
            traces = dict(traces, ESO=IntensityTrace("ESO", 0, values))
        else:
            knobs[change] = {"seed": 12, "forecast_error": 0.06}[change]
        CarbonIntensityService(traces, **knobs).window_score_table("ESO", 24)
        assert builds["score"] == 2
        assert table_cache_info().currsize == 2

    def test_score_and_truth_keys_never_collide(self, builds):
        service = CarbonIntensityService(_traces(), forecast_error=0.0, seed=3)
        assert service._table_key("score", "ESO", 24) != service._table_key(
            "truth", "ESO", 24
        )
        score = service.window_score_table("ESO", 24)
        truth = service.truth_window_table("ESO", 24)
        assert score is not truth
        assert builds == {"score": 1, "truth": 1}
        assert table_cache_info().currsize == 2
        other = CarbonIntensityService(_traces(), forecast_error=0.0, seed=3)
        assert other.truth_window_table("ESO", 24) is truth
        assert other.window_score_table("ESO", 24) is score

    def test_budget_evicts_oldest_first(self, builds, monkeypatch):
        traces = _traces()
        table_bytes = len(traces["ESO"]) * 8
        monkeypatch.setattr(api, "_TABLE_MEMO_BYTES", 4 * table_bytes)
        service = CarbonIntensityService(traces, forecast_error=0.05, seed=11)
        for window in range(1, 7):
            service.window_score_table("ESO", window)
            assert table_cache_info().nbytes <= 4 * table_bytes
        info = table_cache_info()
        assert (info.currsize, info.nbytes) == (4, 4 * table_bytes)
        keys = [service._table_key("score", "ESO", w) for w in range(1, 7)]
        assert list(api._tables) == keys[2:]
        # A hit refreshes an entry: window 3 now outlives window 4.
        fresh = CarbonIntensityService(traces, forecast_error=0.05, seed=11)
        fresh.window_score_table("ESO", 3)
        fresh.window_score_table("ESO", 7)
        assert keys[3] not in api._tables and keys[2] in api._tables

    def test_real_budget_is_16_mib(self):
        assert table_cache_info().maxbytes == 16 * 1024 * 1024

    def test_evicted_table_rebuilds_byte_identical(self, builds, monkeypatch):
        traces = _traces()
        monkeypatch.setattr(api, "_TABLE_MEMO_BYTES", len(traces["ESO"]) * 8)
        first = CarbonIntensityService(traces, forecast_error=0.05, seed=11)
        original = first.window_score_table("ESO", 600)
        first.window_score_table("ESO", 601)  # evicts window 600
        second = CarbonIntensityService(traces, forecast_error=0.05, seed=11)
        rebuilt = second.window_score_table("ESO", 600)
        assert builds["score"] == 3
        assert rebuilt is not original
        assert rebuilt.tobytes() == original.tobytes()
        # The first service's pin outlives the eviction.
        assert first.window_score_table("ESO", 600) is original

    def test_tables_are_read_only(self):
        service = CarbonIntensityService(_traces(), forecast_error=0.05, seed=11)
        for table in (
            service.window_score_table("ESO", 24),
            service.truth_window_table("ESO", 24),
            CarbonIntensityService(
                _traces(), forecast_error=0.0, seed=11
            ).window_score_table("ESO", 24),
        ):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    def test_clear_empties_the_memo(self, builds):
        traces = _traces()
        CarbonIntensityService(traces, seed=11).window_score_table("ESO", 24)
        CarbonIntensityService(traces, seed=11).truth_window_table("ESO", 24)
        assert table_cache_info().currsize == 2
        table_cache_clear()
        assert table_cache_info()[:4] == (0, 0, 0, 0)
        CarbonIntensityService(traces, seed=11).window_score_table("ESO", 24)
        assert builds["score"] == 2

    def test_threads_keep_the_byte_count_exact(self, monkeypatch):
        traces = _traces(n_hours=256)
        budget = 8 * 256 * 8
        monkeypatch.setattr(api, "_TABLE_MEMO_BYTES", budget)
        errors = []

        def work(offset):
            try:
                for i in range(300):
                    service = CarbonIntensityService(
                        traces, forecast_error=0.05, seed=11
                    )
                    service.window_score_table("ESO", 1 + (offset + i) % 24)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = table_cache_info()
        assert info.nbytes == sum(t.nbytes for t in api._tables.values())
        assert info.nbytes <= budget
        assert info.hits + info.misses == 12 * 300
