"""repro.sweep — the sharded, cache-aware sweep service.

The subsystem behind ``repro-hpc sweep``: declarative grid specs
(:class:`SweepSpec`), a fingerprint-deduplicating planner
(:func:`plan_sweep`), a provenance-keyed result cache
(:class:`ResultCache`), a memory-mapped shared trace store for process
workers (:class:`SharedTraceStore`), and the :class:`SweepService` that
ties them together (``SweepService(cache=False)`` for cache-free runs).
"""

from repro.sweep.cache import (
    CacheClearance,
    CacheStats,
    ResultCache,
    default_cache_dir,
)
from repro.sweep.planner import SweepPlan, WorkUnit, plan_sweep
from repro.sweep.runner import SweepOutcome, SweepReport, SweepService
from repro.sweep.spec import SweepSpec, load_spec_mapping
from repro.sweep.store import SharedTraceStore

__all__ = [
    "CacheClearance",
    "CacheStats",
    "ResultCache",
    "SharedTraceStore",
    "SweepOutcome",
    "SweepPlan",
    "SweepReport",
    "SweepService",
    "SweepSpec",
    "WorkUnit",
    "default_cache_dir",
    "load_spec_mapping",
    "plan_sweep",
]
