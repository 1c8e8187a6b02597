"""Layer boundaries of the benchmark: wrappers, counts and spans.

The wrappers sit around each layer's public entry points and are
installed from the benchmark, not from the program: ``src/`` carries no
instrumentation.  Every wrapper counts its calls (and, where the layer
does work on jobs, tables or cache entries, that work) in every pass; in
the traced pass it also records a span (id, parent, name, start, end).
Untraced passes therefore only count: they read no clock and record no
span.  Counts and spans are only taken inside a timed op.

A layer's *busy* time is the sum of its spans; its *self* time
subtracts the time covered by its direct child spans.  A call made
while a span of the same name is open (a method that calls its
sibling, such as ``section_fingerprints`` calling ``fingerprint``) is
counted but opens no second span, so busy time never counts an interval
twice.

Where the registry captured a callable at load time (the cluster
simulators, the sweep executors), the wrapper replaces the registry
entry; elsewhere it replaces the module or class attribute the caller
looks up at call time.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.intensity import trace_cache_info

#: Per-op counts both passes record; the traced pass must match the
#: untraced one op for op.
WORK_COUNTS = {
    "cells": ("work.cells",),
    "jobs": ("workloads.generate.jobs",),
    "tables": ("intensity.score_table.distinct", "intensity.truth_table.distinct"),
    "cache_hits": ("sweep.cache.get.hits", "sweep.cache.get_section.hits"),
    "cache_writes": ("sweep.cache.put.calls", "sweep.cache.put_section.calls"),
    "builds": ("session.build.calls",),
}


def work_counts(counts: Dict[str, float]) -> Dict[str, float]:
    return {
        label: sum(counts.get(key, 0) for key in keys)
        for label, keys in WORK_COUNTS.items()
    }


def agreement_problems(untraced: List[dict], traced: List[dict]) -> List[str]:
    """Op ``i`` of both passes must report the same work counts."""
    problems = []
    for index, (a, b) in enumerate(zip(untraced, traced)):
        wa, wb = work_counts(a), work_counts(b)
        if wa != wb:
            problems.append(f"op {index} work counts differ: untraced {wa}, traced {wb}")
    return problems


def describe_counts(op_counts: List[dict]) -> str:
    """The first op's work counts, and whether every op repeated them."""
    per_op = [work_counts(c) for c in op_counts]
    text = ", ".join(f"{k} {v:g}" for k, v in per_op[0].items())
    same = all(w == per_op[0] for w in per_op)
    return f"{text} ({'every op' if same else 'op 0; ops differ'})"


class Tracer:
    """Counts per op, and spans while ``timing`` is on."""

    def __init__(self) -> None:
        self.timing = False
        self.armed = False
        #: ``[id, parent id, name, start, end]`` per span, in open order.
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._open_names: set = set()
        self.counts: Counter = Counter()
        self._distinct: Dict[str, set] = defaultdict(set)
        self._trace_misses = 0

    # --- ops ----------------------------------------------------------------
    def begin_op(self, label: str) -> None:
        self.counts = Counter()
        self._distinct = defaultdict(set)
        self._trace_misses = trace_cache_info().misses
        self.armed = True
        if self.timing:
            self._open(label)

    def end_op(self) -> Dict[str, float]:
        """Close the op; return its counts."""
        if self.timing:
            self._close(self._stack[0])
        self.armed = False
        counts = dict(self.counts)
        for name, keys in self._distinct.items():
            counts[f"{name}.distinct"] = len(keys)
        counts["intensity.traces.generated"] = (
            trace_cache_info().misses - self._trace_misses
        )
        return counts

    # --- spans --------------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        record = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record)
        self._open_names.add(name)
        return record

    def _close(self, record: list) -> None:
        record[4] = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self._open_names.discard(top[2])
            if top is record:
                break

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None):
        """``fn`` counted as ``<name>.calls`` and spanned as ``name``.

        ``count(counts, distinct, args, kwargs, result)`` adds the
        layer's own work counts after a call returns.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.armed:
                return fn(*args, **kwargs)
            tracer.counts[f"{name}.calls"] += 1
            if not tracer.timing or name in tracer._open_names:
                result = fn(*args, **kwargs)
            else:
                record = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(record)
            if count is not None:
                count(tracer.counts, tracer._distinct, args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path: pathlib.Path, origin: float) -> None:
        """The spans as JSON lines, times in seconds since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin,
                }) + "\n")


# --- count hooks ---------------------------------------------------------------
def _jobs_at(position: int, key: str):
    def count(counts, distinct, args, kwargs, result):
        counts[key] += len(args[position])
    return count


def _table_key(name: str):
    def count(counts, distinct, args, kwargs, result):
        service, region, window = args[0], args[1], int(args[2])
        distinct[name].add(
            (service._seed, service._forecast_error, region, window)
        )
    return count


def _generated_jobs(counts, distinct, args, kwargs, result):
    counts["workloads.generate.jobs"] += len(result)


def _cache_get(counts, distinct, args, kwargs, result):
    counts["sweep.cache.get.hits"] += result is not None


def _cache_get_section(counts, distinct, args, kwargs, result):
    counts["sweep.cache.get_section.hits"] += bool(result[0])


def _written(counts, key, cache, path_of):
    # The cache reports no sizes, so read the entry it has just written.
    if cache.cache_dir is not None and not cache.readonly:
        counts[key] += os.stat(path_of()).st_size


def _cache_put(counts, distinct, args, kwargs, result):
    cache, fingerprint = args[0], args[1]
    _written(counts, "sweep.cache.put.bytes", cache,
             lambda: cache._path_for(fingerprint))


def _cache_put_section(counts, distinct, args, kwargs, result):
    cache, section, fingerprint = args[0], args[1], args[2]
    _written(counts, "sweep.cache.put_section.bytes", cache,
             lambda: cache._section_path(section, fingerprint))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (once per process)."""
    import repro.accounting.engines as engines
    import repro.intensity.api as intensity_api
    import repro.scheduler.evaluation as evaluation
    import repro.sweep.runner as sweep_runner
    import repro.workloads.runner as training
    import repro.workloads.sources as sources
    from repro.analysis.audit import CenterAuditor
    from repro.session import Scenario, Session
    from repro.session.registry import available_backends, registry, resolve_backend
    from repro.session.result import ScenarioResult
    from repro.sweep.cache import ResultCache
    from repro.sweep.store import SharedTraceStore
    from repro.upgrade.advisor import UpgradeAdvisor

    def patch(owner: Any, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    service = intensity_api.CarbonIntensityService
    patch(intensity_api, "generate_all_traces", "intensity.traces")
    patch(service, "window_score_table", "intensity.score_table",
          _table_key("intensity.score_table"))
    patch(service, "window_score_matrix", "intensity.score_matrix")
    patch(service, "truth_window_table", "intensity.truth_table",
          _table_key("intensity.truth_table"))
    for source in (sources.SyntheticSource, sources.DiurnalSource,
                   sources.BurstySource, sources.TraceReplaySource):
        patch(source, "generate", "workloads.generate", _generated_jobs)
    patch(training, "simulate_training_run", "workloads.training")
    patch(evaluation, "evaluate_policy", "scheduler.evaluate")
    patch(evaluation, "place_jobs", "scheduler.place",
          _jobs_at(1, "scheduler.place.jobs"))
    for engine in (engines.VectorizedChargingEngine,
                   engines.ScalarReferenceChargingEngine):
        patch(engine, "charge", "accounting.charge",
              _jobs_at(1, "accounting.charge.jobs"))
    for key in available_backends("simulator"):
        registry.add("simulator", key, tracer.wrap(
            "cluster.simulate", resolve_backend("simulator", key),
            _jobs_at(0, "cluster.simulate.jobs"),
        ), replace=True)
    patch(CenterAuditor, "audit", "analysis.audit")
    patch(UpgradeAdvisor, "evaluate", "upgrade.evaluate")
    patch(Scenario, "build", "session.build")
    patch(Session, "run", "session.run")
    patch(Session, "fingerprint", "session.fingerprint")
    patch(Session, "section_fingerprints", "session.fingerprint")
    patch(ScenarioResult, "to_dict", "session.serialize")
    patch(sweep_runner, "plan_sweep", "sweep.plan")
    patch(ResultCache, "get", "sweep.cache.get", _cache_get)
    patch(ResultCache, "get_section", "sweep.cache.get_section", _cache_get_section)
    patch(ResultCache, "put", "sweep.cache.put", _cache_put)
    patch(ResultCache, "put_section", "sweep.cache.put_section", _cache_put_section)
    patch(SharedTraceStore, "ensure_traces", "sweep.store.ensure_traces")

    def timed_engine(factory):
        @functools.wraps(factory)
        def make(**opts):
            return tracer.wrap("executor", factory(**opts))
        return make

    for key in available_backends("executor"):
        registry.add("executor", key,
                     timed_engine(resolve_backend("executor", key)), replace=True)


# --- per-layer metrics ---------------------------------------------------------
def span_times(spans: List[list]):
    """``(busy, self, child)``: busy and self seconds per span name, and
    the seconds covered by each span's direct children."""
    child: Dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    busy: Counter = Counter()
    own: Counter = Counter()
    for sid, parent, name, start, end in spans:
        busy[name] += end - start
        own[name] += end - start - child[sid]
    return busy, own, child


def attributed_fraction(spans: List[list]) -> float:
    """Share of ``session.run`` time covered by named child layer spans."""
    _, _, child = span_times(spans)
    total = covered = 0.0
    for sid, parent, name, start, end in spans:
        if name == "session.run":
            total += end - start
            covered += child[sid]
    return covered / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(op_counts: List[Dict[str, float]], spans: List[list]) -> Dict[str, float]:
    """Every per-layer metric, per op of the traced pass."""
    n = max(len(op_counts), 1)
    total: Counter = Counter()
    for counts in op_counts:
        total.update(counts)
    busy, own, _ = span_times(spans)
    metrics: Dict[str, float] = {}

    def count(*names: str) -> None:
        for metric in names:
            metrics[metric] = total[metric] / n

    def timed(layer: str, *, self_time: bool = False) -> None:
        metrics[f"{layer}.busy_s"] = busy[layer] / n
        if self_time:
            metrics[f"{layer}.self_s"] = own[layer] / n

    count("intensity.traces.calls", "intensity.traces.generated")
    timed("intensity.traces")
    count("intensity.score_table.calls", "intensity.score_table.distinct")
    timed("intensity.score_table", self_time=True)
    count("intensity.truth_table.calls", "intensity.truth_table.distinct")
    timed("intensity.truth_table")
    count("workloads.generate.calls", "workloads.generate.jobs")
    timed("workloads.generate")
    timed("workloads.training")
    timed("scheduler.evaluate", self_time=True)
    count("scheduler.place.jobs")
    timed("scheduler.place", self_time=True)
    count("accounting.charge.jobs")
    timed("accounting.charge")
    count("cluster.simulate.jobs")
    timed("cluster.simulate")
    timed("analysis.audit")
    timed("upgrade.evaluate")
    count("session.build.calls")
    timed("session.build")
    metrics["session.builds_per_cell"] = _ratio(
        total["session.build.calls"], total["work.cells"]
    )
    timed("session.run", self_time=True)
    count("session.fingerprint.calls")
    timed("session.fingerprint")
    timed("session.serialize")
    timed("sweep.plan")
    for tier in ("get", "get_section"):
        count(f"sweep.cache.{tier}.calls", f"sweep.cache.{tier}.hits")
        timed(f"sweep.cache.{tier}")
    for tier in ("put", "put_section"):
        count(f"sweep.cache.{tier}.calls", f"sweep.cache.{tier}.bytes")
        timed(f"sweep.cache.{tier}")
    metrics["sweep.cache.hit_ratio"] = _ratio(
        total["sweep.cache.get.hits"], total["sweep.cache.get.calls"]
    )
    metrics["sweep.cache.section_hit_ratio"] = _ratio(
        total["sweep.cache.get_section.hits"], total["sweep.cache.get_section.calls"]
    )
    metrics["sweep.cache.errors"] = total["program.cache_errors"] / n
    timed("sweep.store.ensure_traces")
    metrics["sweep.store.tables_written"] = total["program.store_tables"] / n
    timed("executor")
    metrics["sweep.failures"] = total["program.sweep_failures"] / n
    metrics["sweep.rebuilds"] = total["program.sweep_rebuilds"] / n
    metrics["trace.attributed_frac"] = attributed_fraction(spans)
    return metrics
