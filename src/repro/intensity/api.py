"""Carbon-intensity service facade (ESO Carbon Intensity API substitute).

The paper obtains UK data from National Grid ESO's public Carbon
Intensity API and other regions from Electricity Maps.  Schedulers need
the same two capabilities those services expose: *current/historical*
intensity and a *short-horizon forecast*.  :class:`CarbonIntensityService`
provides both, backed by the synthetic traces.

Forecasts are intentionally imperfect: forecast error grows with lead
time (a calibrated random walk around the true future value), so
carbon-aware scheduling policies are evaluated against realistic,
degradable information rather than an oracle.  Pass
``forecast_error=0.0`` to get oracle forecasts for upper-bound studies.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict, namedtuple
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.errors import TraceError
from repro.intensity.generator import DEFAULT_SEED, generate_all_traces
from repro.intensity.trace import IntensityTrace

__all__ = ["CarbonIntensityService", "table_cache_info", "table_cache_clear"]

#: Lead-time chunk width for noisy score-table construction: caps the
#: dense per-chunk work arrays at (trace length × this) elements.
_SCORE_CHUNK_HOURS = 512

#: Byte budget of the process-wide window-table memo: room for ~240
#: full-year tables (70 KiB each), twice the 120 score tables of the
#: perfbench canonical scenario, while a stream of one-off seeds cannot
#: grow the process without bound.
_TABLE_MEMO_BYTES = 16 << 20

#: The process-wide window-table memo, oldest entry first.  Keys are
#: content-addressed (:meth:`CarbonIntensityService._table_key`), so
#: every service over the same traces and noise inputs shares one copy
#: of each table, whichever session built it first.
_tables: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
_table_stats = {"hits": 0, "misses": 0, "bytes": 0}
_table_lock = threading.Lock()

TableCacheInfo = namedtuple(
    "TableCacheInfo", ["hits", "misses", "currsize", "nbytes", "maxbytes"]
)


def table_cache_info() -> TableCacheInfo:
    """Hit/miss counts, entries and bytes held by the window-table memo."""
    with _table_lock:
        return TableCacheInfo(
            _table_stats["hits"],
            _table_stats["misses"],
            len(_tables),
            _table_stats["bytes"],
            _TABLE_MEMO_BYTES,
        )


def table_cache_clear() -> None:
    """Drop every memoized window table and reset the counters."""
    with _table_lock:
        _tables.clear()
        _table_stats.update(hits=0, misses=0, bytes=0)


def _memo_table(key: Tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
    """The memoized table for ``key``, built (read-only) on a miss.

    Least recently used tables go first once the memo holds more than
    :data:`_TABLE_MEMO_BYTES`; a caller keeps its table either way.
    The build runs outside the lock; when two threads race on one key,
    the first table stored is the one both return.
    """
    with _table_lock:
        table = _tables.get(key)
        if table is not None:
            _tables.move_to_end(key)
            _table_stats["hits"] += 1
            return table
        _table_stats["misses"] += 1
    built = build()
    built.setflags(write=False)
    with _table_lock:
        table = _tables.setdefault(key, built)
        if table is built:
            _table_stats["bytes"] += table.nbytes
            while _table_stats["bytes"] > _TABLE_MEMO_BYTES:
                _, evicted = _tables.popitem(last=False)
                _table_stats["bytes"] -= evicted.nbytes
    return table


class CarbonIntensityService:
    """Query interface over a set of regional intensity traces.

    Parameters
    ----------
    traces:
        Mapping of region code to trace.  Defaults to generating the
        full Table 3 set with the library seed.
    forecast_error:
        Relative 1-hour-ahead forecast error; error std grows with the
        square root of lead time (random-walk model).  0.0 = oracle.
    seed:
        Seed for the forecast error stream (kept separate from the
        trace-generation seed so changing one does not change the other).
    """

    def __init__(
        self,
        traces: Optional[Mapping[str, IntensityTrace]] = None,
        *,
        forecast_error: float = 0.03,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if forecast_error < 0.0:
            raise TraceError(
                f"forecast error must be non-negative, got {forecast_error!r}"
            )
        self._traces: Dict[str, IntensityTrace] = dict(
            traces if traces is not None else generate_all_traces(seed=seed)
        )
        if not self._traces:
            raise TraceError("service needs at least one region trace")
        self._forecast_error = forecast_error
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed + 777)
        self._score_tables: Dict[Tuple[str, int], np.ndarray] = {}
        self._score_matrices: Dict[Tuple[Tuple[str, ...], int], np.ndarray] = {}
        self._truth_tables: Dict[Tuple[str, int], np.ndarray] = {}
        self._trace_digests: Dict[str, str] = {}

    def _table_key(self, kind: str, region: str, window: int) -> Tuple:
        """The process-wide memo key of one window table.

        Truth tables are pure functions of the trace content; score
        tables also fold in the noise inputs (seed, forecast error), so
        services that differ only in forecast error share truth tables.
        """
        digest = self._trace_digests.get(region)
        if digest is None:
            import hashlib

            values = np.ascontiguousarray(self.trace(region).values)
            digest = hashlib.sha256(values.tobytes()).hexdigest()
            self._trace_digests[region] = digest
        if kind == "truth":
            return (kind, digest, region, window)
        return (kind, digest, region, window, self._seed, repr(self._forecast_error))

    # --- catalog ------------------------------------------------------------
    @property
    def regions(self) -> list[str]:
        return list(self._traces)

    def trace(self, region: str) -> IntensityTrace:
        try:
            return self._traces[region]
        except KeyError:
            known = ", ".join(sorted(self._traces))
            raise TraceError(
                f"unknown region {region!r}; known regions: {known}"
            ) from None

    def horizon_hours(self) -> int:
        return min(len(trace) for trace in self._traces.values())

    # --- queries ----------------------------------------------------------
    def intensity_at(self, region: str, hour: int) -> float:
        """True intensity (gCO2/kWh) at a UTC hour (wraps at year end)."""
        trace = self.trace(region)
        return float(trace.values[int(hour) % len(trace)])

    def history(self, region: str, start_hour: int, n_hours: int) -> np.ndarray:
        """True intensity over ``[start, start+n)`` UTC hours."""
        return self.trace(region).slice_hours(int(start_hour), int(n_hours))

    def forecast(self, region: str, start_hour: int, horizon_hours: int) -> np.ndarray:
        """Forecast intensity over ``[start, start+horizon)`` UTC hours.

        Lead-time ``k`` (1-based) carries multiplicative noise with std
        ``forecast_error * sqrt(k)``, floored at zero intensity.
        """
        if horizon_hours < 0:
            raise TraceError(f"horizon must be non-negative, got {horizon_hours}")
        truth = self.history(region, start_hour, horizon_hours)
        if self._forecast_error == 0.0 or horizon_hours == 0:
            return truth.copy()
        lead = np.arange(1, horizon_hours + 1, dtype=float)
        noise = self._rng.standard_normal(horizon_hours)
        factor = 1.0 + self._forecast_error * np.sqrt(lead) * noise
        return np.maximum(truth * factor, 0.0)

    def cleanest_region(self, hour: int, regions: Optional[Iterable[str]] = None) -> str:
        """The region with the lowest true intensity at a UTC hour."""
        codes = list(regions) if regions is not None else self.regions
        if not codes:
            raise TraceError("no regions to compare")
        return min(codes, key=lambda code: self.intensity_at(code, hour))

    # --- placement score tables -------------------------------------------
    def window_score_table(self, region: str, window_hours: int) -> np.ndarray:
        """Per-start-hour forecast window means: the placement score table.

        ``table[t]`` is the mean *forecast* intensity over ``[t, t+window)``
        for a forecast issued at hour ``t`` (lead times ``1..window``,
        wrapping at the year boundary).  Built from cumulative sums over
        the trace (oracle) plus a deterministic per-``(seed, region,
        window)`` noise draw (imperfect forecasts), then memoized — any
        candidate placement grid scores as a single gather + ``argmin``
        against this table instead of per-candidate forecast calls.  Both the scalar policy ``place`` reference path
        (via :meth:`forecast_window_mean`) and the vectorized
        ``place_all`` kernels read the same table, which is what makes
        their placements byte-identical.

        Tables live in one process-wide LRU memo keyed on content (trace
        sha256, region, window, seed and forecast error), so every
        service over the same traces shares each build, whichever
        session made it.  The memo holds at most
        :data:`_TABLE_MEMO_BYTES` (16 MiB) and drops least recently used
        tables first; each service also pins the tables it has served.
        See :func:`table_cache_info` / :func:`table_cache_clear`.

        The returned array is read-only and shared; copy before writing.
        """
        if window_hours < 1:
            raise TraceError(f"window must be >= 1 hour, got {window_hours}")
        window = int(window_hours)
        table = self._score_tables.get((region, window))
        if table is None:
            table = _memo_table(
                self._table_key("score", region, window),
                lambda: self._build_score_table(region, window),
            )
            self._score_tables[(region, window)] = table
        return table

    def _build_score_table(self, region: str, window: int) -> np.ndarray:
        trace = self.trace(region)
        if self._forecast_error == 0.0:
            return trace.forward_window_mean(window)
        n = len(trace)
        rng = np.random.default_rng(
            (self._seed, zlib.crc32(region.encode("utf-8")), window)
        )
        # Row t of the view is the trace from hour t on, wrapped as many
        # times as the window needs.
        reps = -(-(n + window - 1) // n)
        ahead = sliding_window_view(np.tile(trace.values, reps), window)
        buffer = np.empty(n * min(window, _SCORE_CHUNK_HOURS))
        acc = np.zeros(n)
        # Chunk the lead-time axis so the dense (n, chunk) work buffer
        # stays bounded for multi-week windows; the chunk width is a
        # fixed constant, so the noise stream (and therefore the table)
        # is deterministic.  Each step is the in-place form of
        # max(truth * (1 + error * sqrt(lead) * noise), 0), bit for bit.
        for k0 in range(0, window, _SCORE_CHUNK_HOURS):
            k1 = min(k0 + _SCORE_CHUNK_HOURS, window)
            block = buffer[: n * (k1 - k0)].reshape(n, k1 - k0)
            rng.standard_normal(out=block)
            block *= self._forecast_error * np.sqrt(
                np.arange(k0 + 1, k1 + 1, dtype=float)
            )
            block += 1.0
            block *= ahead[:n, k0:k1]
            np.maximum(block, 0.0, out=block)
            acc += block.sum(axis=1)
        return acc / window

    def window_score_matrix(
        self, regions: Sequence[str], window_hours: int
    ) -> np.ndarray:
        """Stacked score tables, shape ``(len(regions), horizon)``.

        Row ``i`` is ``window_score_table(regions[i], window_hours)``;
        the 2-D gather a joint (region, start) policy takes its
        ``unravel_index(argmin)`` over.  Memoized per (regions, window);
        requires every region's trace to share one length (the Table 3
        sets do).  Read-only.
        """
        key = (tuple(regions), int(window_hours))
        matrix = self._score_matrices.get(key)
        if matrix is not None:
            return matrix
        rows = [self.window_score_table(code, window_hours) for code in key[0]]
        lengths = {row.shape[0] for row in rows}
        if len(lengths) > 1:
            raise TraceError(
                f"regions {list(key[0])} have unequal trace lengths "
                f"{sorted(lengths)}; a joint score matrix needs one horizon"
            )
        matrix = np.vstack(rows)
        matrix.setflags(write=False)
        self._score_matrices[key] = matrix
        return matrix

    # --- accounting truth tables -------------------------------------------
    def truth_table_cached(self, region: str, window_hours: int) -> bool:
        """Whether :meth:`truth_window_table` has already been built for
        ``(region, window)`` — charging engines use this to prefer a
        free gather over a fresh table build for small job groups."""
        return (region, int(window_hours)) in self._truth_tables

    def truth_window_table(self, region: str, window_hours: int) -> np.ndarray:
        """Per-start-hour *true* window means: the charging truth table.

        ``table[t]`` is the mean ground-truth intensity over
        ``[t, t+window)`` (wrapping at the year boundary) — exactly
        ``history(region, t, window).mean()`` for every start hour.  The
        accounting twin of :meth:`window_score_table`: policies decide
        against the forecast score tables, the carbon ledger charges
        realized placements against these.  Built once per ``(region,
        window)`` and memoized, so charging a batch of placed jobs is a
        single gather instead of a per-job slice-and-mean.  Shares the
        process-wide, 16 MiB-bounded memo of :meth:`window_score_table`
        under a key of the trace content, region and window alone.

        Each row is reduced with the same pairwise summation ``numpy``
        applies to a 1-D slice, so table entries are *bit-identical* to
        the scalar ``float(history(...).mean())`` reference — a cumsum
        formulation would be O(n) cheaper to build but drifts in the
        last float bits, and the ledger's contract is byte-identical
        totals.  The build is chunked over start hours to bound the
        dense ``(chunk, window)`` intermediate.

        The returned array is read-only and shared; copy before writing.
        """
        if window_hours < 1:
            raise TraceError(f"window must be >= 1 hour, got {window_hours}")
        window = int(window_hours)
        table = self._truth_tables.get((region, window))
        if table is None:
            table = _memo_table(
                self._table_key("truth", region, window),
                lambda: self._build_truth_table(region, window),
            )
            self._truth_tables[(region, window)] = table
        return table

    def _build_truth_table(self, region: str, window: int) -> np.ndarray:
        values = self.trace(region).values
        n = values.shape[0]
        table = np.empty(n)
        offsets = np.arange(window)[None, :]
        chunk = max(_SCORE_CHUNK_HOURS * 512 // max(window, 1), 1)
        for t0 in range(0, n, chunk):
            t1 = min(t0 + chunk, n)
            idx = (np.arange(t0, t1)[:, None] + offsets) % n
            table[t0:t1] = values[idx].mean(axis=1)
        return table

    def forecast_window_mean(
        self, region: str, start_hour: int, window_hours: int
    ) -> float:
        """Mean forecast intensity over a job-length window — the score a
        temporal-shifting scheduler minimizes.

        Served from :meth:`window_score_table`, so repeated queries for
        one ``(region, hour, window)`` are deterministic and O(1); the
        scalar and vectorized placement paths therefore score candidates
        identically.
        """
        table = self.window_score_table(region, window_hours)
        return float(table[int(start_hour) % table.shape[0]])
