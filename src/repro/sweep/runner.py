"""The sweep service: plan, look up, run, cache.

:class:`SweepService` is what the ``sweep`` registry kind constructs —
``cached`` (the default, result cache on) and ``direct`` (cache off,
still deduplicated) are thin factory variants.  A run is:

1. **normalize** — a :class:`~repro.sweep.spec.SweepSpec`, a spec
   mapping, a spec file path, or an explicit Scenario/Session list all
   become one scenario list;
2. **plan** — fingerprint and deduplicate into work units
   (:func:`repro.sweep.planner.plan_sweep`);
3. **look up** — each cacheable unit checks the provenance-keyed
   :class:`~repro.sweep.cache.ResultCache` first;
4. **run** — the remaining units go, in one call, to the engine the
   ``executor`` registry builds (serial by default; ``process`` /
   ``shared`` fan out one future per unit), the same engines
   :meth:`Session.run_many` runs through, so serial sweep results are
   byte-identical to ``run_many``'s output;
5. **cache** — fresh results are written back under their fingerprints
   once the pass is over.

Every unit runs under the engine's attempt loop (see
:mod:`repro.session.executors`).  The resilience knobs — a retry budget,
a per-attempt timeout, a fault injector, a checkpoint journal, a resume,
a rebuild budget — configure that loop: units are isolated (a failing
cell yields a :class:`~repro.resilience.CellFailure` in the returned
:class:`SweepReport` instead of aborting the campaign), worker crashes
rebuild the pool and re-dispatch only the unfinished units, and every
completion is cached and then journaled as it settles, so a later
``resume=`` run recomputes nothing already finished.  With none of
those knobs set, a cell that raises aborts the run with its own
exception once the pass is over, exactly as it would when run alone.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.errors import ResilienceError, SweepError
from repro.resilience.journal import SweepJournal
from repro.resilience.policy import CellFailure, RetryPolicy
from repro.resilience.runner import DEFAULT_MAX_REBUILDS, ResilientUnit
from repro.session.fingerprint import RESULT_SECTIONS
from repro.session.registry import resolve_backend
from repro.session.result import ScenarioResult
from repro.session.scenario import Scenario
from repro.session.session import Session
from repro.sweep.cache import CacheStats, ResultCache, default_cache_dir
from repro.sweep.planner import SweepPlan, plan_sweep
from repro.sweep.spec import SweepSpec

__all__ = [
    "SweepOutcome",
    "SweepReport",
    "SweepService",
    "cached_sweep_service",
    "direct_sweep_service",
    "register_backends",
]

#: What a run may be asked to sweep.
SweepInput = Union[
    SweepSpec,
    Mapping[str, Any],
    str,
    pathlib.Path,
    Sequence[Union[Scenario, Session]],
]


@dataclass(frozen=True)
class SweepOutcome:
    """Results of one sweep run, in input (grid) order."""

    results: Tuple[ScenarioResult, ...]
    stats: CacheStats
    n_cells: int
    n_unique: int
    n_ran: int
    executor: str
    #: Per-section hit/miss deltas this run generated in the section
    #: tier; ``None`` when the run did not use delta evaluation.  Pooled
    #: workers read the section tier in their own processes, so these
    #: counters reflect the parent process (inline runs + write-backs).
    section_stats: Optional[Dict[str, CacheStats]] = None

    @property
    def n_hits(self) -> int:
        return self.n_unique - self.n_ran

    def summary_lines(self) -> List[str]:
        lines = [
            f"sweep: {self.n_cells} cell{'s' if self.n_cells != 1 else ''} "
            f"-> {self.n_unique} unique, {self.n_hits} served from cache, "
            f"{self.n_ran} ran (executor {self.executor})",
            f"cache: {self.stats.summary()}",
        ]
        if self.section_stats is not None:
            hits = sum(s.hits for s in self.section_stats.values())
            misses = sum(s.misses for s in self.section_stats.values())
            lines.append(
                f"sections: {hits} payload{'s' if hits != 1 else ''} "
                f"reused, {misses} recomputed"
            )
        return lines


@dataclass(frozen=True)
class SweepReport(SweepOutcome):
    """A :class:`SweepOutcome` plus what fault tolerance observed.

    Failed units leave ``None`` at their cells in ``results`` and a
    :class:`~repro.resilience.CellFailure` here; ``n_skipped`` counts
    units a ``resume=`` journal retired without recomputation (and
    without a cache copy to serve — journaled units *with* a cached
    result count as hits and fill their cells); ``n_rebuilds`` counts
    process-pool rebuilds after worker crashes.
    """

    failures: Tuple[CellFailure, ...] = ()
    n_skipped: int = 0
    n_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def n_hits(self) -> int:
        return self.n_unique - self.n_ran - self.n_skipped

    def summary_lines(self) -> List[str]:
        lines = super().summary_lines()
        if self.n_skipped:
            lines.append(
                f"resume: {self.n_skipped} journaled "
                f"unit{'s' if self.n_skipped != 1 else ''} skipped"
            )
        if self.n_rebuilds:
            lines.append(
                f"recovery: process pool rebuilt {self.n_rebuilds} "
                f"time{'s' if self.n_rebuilds != 1 else ''} after worker "
                "crashes"
            )
        if self.failures:
            n = len(self.failures)
            lines.append(
                f"failures: {n} unit{'s' if n != 1 else ''} exhausted "
                f"{'their' if n != 1 else 'its'} retry budget"
            )
            lines.extend(f"  {failure.summary()}" for failure in self.failures)
        return lines


def _coerce_injector(value):
    """Normalize the fault-injector spellings the service accepts.

    A string is a ``faults`` registry key; a mapping is
    ``{"kind": <key>, **factory_opts}``; anything exposing ``action``
    passes through as-is.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return resolve_backend("faults", value)()
    if isinstance(value, Mapping):
        opts = dict(value)
        kind = opts.pop("kind", None)
        if not isinstance(kind, str):
            raise ResilienceError(
                "a faults mapping needs a 'kind' registry key, "
                f"got {value!r}"
            )
        try:
            return resolve_backend("faults", kind)(**opts)
        except TypeError as exc:
            raise ResilienceError(
                f"invalid faults options for {kind!r}: {exc}"
            ) from None
    if callable(getattr(value, "action", None)):
        return value
    raise ResilienceError(
        f"cannot build a fault injector from {type(value).__name__} "
        f"{value!r}; pass a faults registry key, a {{'kind': ...}} "
        "mapping, or an injector object"
    )


#: Per-process readonly caches pooled delta workers open, memoized by
#: directory so a worker reuses one memory tier across its units.
_WORKER_CACHES: Dict[str, ResultCache] = {}


def _worker_cache(cache_dir: pathlib.Path) -> ResultCache:
    key = str(cache_dir)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        cache = ResultCache(cache_dir, readonly=True)
        _WORKER_CACHES[key] = cache
    return cache


class _DeltaItem:
    """A work-unit wrapper that routes execution through the delta path.

    Executors treat it like a Session (it exposes ``run()`` and a
    ``_scenario`` for seed warming).  Run in the parent process, it
    holds the service's live cache and writes fresh sections back
    immediately, so later cells in the same pass reuse them, and marks
    itself ``ran_inline``.  A copy pickled into a pool worker drops the
    live cache, reopens the directory readonly, and ships fresh sections
    home on ``result.fresh_sections`` for the parent to absorb.
    """

    def __init__(
        self, item: Union[Scenario, Session], *, cache: ResultCache, writeback: bool
    ) -> None:
        self._item = item
        self._cache: Optional[ResultCache] = cache
        self._cache_dir = cache.cache_dir
        self._writeback = bool(writeback)
        self.ran_inline = False

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_cache"] = None  # live caches never cross process bounds
        return state

    @property
    def _scenario(self) -> Scenario:
        item = self._item
        return item if isinstance(item, Scenario) else item._scenario

    def run(self) -> ScenarioResult:
        session = (
            self._item.build()
            if isinstance(self._item, Scenario)
            else self._item
        )
        if self._cache is None:
            if self._cache_dir is None:
                return session.run()  # a memory-only cache stays home
            return session.run(reuse=_worker_cache(self._cache_dir))
        self.ran_inline = True
        result = session.run(reuse=self._cache)
        if self._writeback and result.fresh_sections:
            for name, (fp, payload) in result.fresh_sections.items():
                self._cache.put_section(name, fp, payload)
        return result


class SweepService:
    """The sharded, cache-aware sweep engine.

    Parameters
    ----------
    cache:
        ``False`` disables the result cache entirely (the ``direct``
        backend); deduplication still applies.
    cache_dir:
        On-disk tier location (default ``~/.cache/repro-hpc``); ``None``
        with ``disk=False`` keeps the cache memory-only.
    disk:
        ``False`` skips the on-disk tier (memory LRU only).
    executor / max_workers:
        Default execution engine for :meth:`run`; per-call arguments and
        swept scenarios' explicit ``executor`` knobs override it the
        same way :meth:`Session.run_many` resolves engines.
    retry / faults / max_rebuilds:
        Default resilience configuration for :meth:`run` (per-call
        arguments override, then a spec's ``resilience`` section fills
        whatever is still unset).  ``retry`` takes anything
        :meth:`~repro.resilience.RetryPolicy.coerce` accepts; ``faults``
        anything :func:`_coerce_injector` accepts.
    cache_writeback:
        ``False`` stops fresh results from being written back to the
        result cache (reads still hit) — the escape hatch for runs whose
        outputs should not poison a shared cache.
    delta:
        Section-level delta evaluation: units missing the whole-result
        cache assemble from cached section payloads and recompute only
        stale sections.  Defaults to on whenever the cache is on;
        ``delta=True`` with ``cache=False`` is a configuration error.
    """

    def __init__(
        self,
        *,
        cache: bool = True,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        disk: bool = True,
        memory_slots: Optional[int] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        retry: Union[RetryPolicy, Mapping[str, Any], int, None] = None,
        faults: Any = None,
        max_rebuilds: Optional[int] = None,
        cache_writeback: bool = True,
        delta: Optional[bool] = None,
    ) -> None:
        self._cache: Optional[ResultCache] = None
        if cache:
            directory: Optional[pathlib.Path] = None
            if disk:
                directory = (
                    pathlib.Path(cache_dir)
                    if cache_dir is not None
                    else default_cache_dir()
                )
            kwargs = {} if memory_slots is None else {"memory_slots": memory_slots}
            self._cache = ResultCache(directory, **kwargs)
        elif cache_dir is not None:
            raise SweepError("cache_dir is meaningless with cache=False")
        if delta and self._cache is None:
            raise SweepError(
                "delta evaluation needs the result cache; use cache=True"
            )
        self._delta = (self._cache is not None) if delta is None else bool(delta)
        self._executor = executor
        self._max_workers = max_workers
        self._retry = retry
        self._faults = faults
        self._max_rebuilds = max_rebuilds
        self._cache_writeback = bool(cache_writeback)

    # --- introspection ----------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def delta(self) -> bool:
        return self._delta

    def _resolve_delta(self, delta: Optional[bool]) -> bool:
        use_delta = self._delta if delta is None else bool(delta)
        if use_delta and self._cache is None:
            raise SweepError(
                "delta evaluation needs the result cache; use cache=True"
            )
        return use_delta

    # --- input normalization ----------------------------------------------
    @staticmethod
    def _normalize_full(
        sweep_input: SweepInput,
    ) -> Tuple[List[Union[Scenario, Session]], Optional[SweepSpec]]:
        """Normalize to an item list, keeping the spec (if there is one)
        so :meth:`run` can consume its ``resilience`` section."""
        if isinstance(sweep_input, SweepSpec):
            return list(sweep_input.scenarios()), sweep_input
        if isinstance(sweep_input, (str, pathlib.Path)):
            from repro.sweep.spec import load_spec_mapping

            sweep_input = load_spec_mapping(sweep_input)
        if isinstance(sweep_input, Mapping):
            if set(sweep_input) <= {"name", "base", "axes", "resilience"}:
                spec = SweepSpec.from_mapping(sweep_input)
                return list(spec.scenarios()), spec
            # A flat knob mapping: a grid of one.
            return [Scenario.from_spec(sweep_input)], None
        try:
            items = list(sweep_input)
        except TypeError:
            raise SweepError(
                f"cannot sweep a {type(sweep_input).__name__}; pass a "
                "SweepSpec, a spec mapping/path, or Scenario/Session items"
            ) from None
        return items, None

    @classmethod
    def _normalize(
        cls, sweep_input: SweepInput
    ) -> List[Union[Scenario, Session]]:
        return cls._normalize_full(sweep_input)[0]

    # --- planning ---------------------------------------------------------
    def plan(
        self, sweep_input: SweepInput, *, delta: Optional[bool] = None
    ) -> SweepPlan:
        """Expand + fingerprint + deduplicate, without running anything.

        With delta evaluation active, every cacheable unit is annotated
        with predicted per-section reuse (``unit.section_hits``) by
        peeking at the section tier — stat-free, so planning never skews
        the hit/miss counters a later :meth:`run` reports.
        """
        plan = plan_sweep(self._normalize(sweep_input))
        if not self._resolve_delta(delta) or self._cache is None:
            return plan
        units = []
        for unit in plan.units:
            if unit.session is None or unit.fingerprint is None:
                units.append(unit)
                continue
            try:
                fps = unit.session.section_fingerprints()
            except SweepError:
                units.append(unit)
                continue
            hits = tuple(
                (name, self._cache.has_section(name, fps[name]))
                for name in RESULT_SECTIONS
            )
            units.append(dataclass_replace(unit, section_hits=hits))
        return SweepPlan(units=tuple(units), n_cells=plan.n_cells)

    # --- execution --------------------------------------------------------
    def _resolve_executor(
        self,
        items: Sequence[Union[Scenario, Session]],
        executor: Optional[str],
        max_workers: Optional[int],
    ) -> Tuple[str, dict]:
        key = executor if executor is not None else self._executor
        opts: dict = {}
        if key is None:
            for item in items:
                knobs = item if isinstance(item, Scenario) else item._scenario
                if "executor" in knobs._explicit:
                    key = knobs._executor
                    opts = dict(knobs._executor_opts)
                    break
        if key is None:
            key = "serial"
        workers = max_workers if max_workers is not None else self._max_workers
        if workers is not None:
            opts["max_workers"] = int(workers)
        return key, opts

    #: ``resilience``-section keys that configure the RetryPolicy.
    _RETRY_KEYS = frozenset(
        {
            "retries", "max_attempts", "backoff_s", "backoff_factor",
            "jitter", "unit_timeout_s", "seed",
        }
    )

    def run(
        self,
        sweep_input: SweepInput,
        *,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        retry: Union[RetryPolicy, Mapping[str, Any], int, None] = None,
        faults: Any = None,
        journal: Optional[Union[str, pathlib.Path]] = None,
        resume: Optional[Union[str, pathlib.Path]] = None,
        max_rebuilds: Optional[int] = None,
        cache_writeback: Optional[bool] = None,
        delta: Optional[bool] = None,
    ) -> SweepReport:
        """Evaluate the grid: cache lookups first, then one executor pass.

        ``retry`` / ``faults`` / ``max_rebuilds`` override the service
        defaults, which override a spec's ``resilience`` section.
        ``journal`` appends every completed unit's fingerprint to a
        JSONL checkpoint; ``resume`` skips units already journaled
        ``done`` (and journals new completions to the same file unless
        ``journal`` points elsewhere).  With none of these knobs set, a
        failed cell re-raises its exception after the pass (and after
        the other cells' results are cached) instead of being reported.

        ``delta`` overrides the service default: units that miss the
        whole-result cache assemble from cached section payloads and
        recompute only stale sections (results stay byte-identical to a
        full recompute — the delta contract).
        """
        items, spec = self._normalize_full(sweep_input)
        plan = plan_sweep(items)
        use_delta = self._resolve_delta(delta)

        # --- resolve the resilience configuration -------------------------
        section: Dict[str, Any] = (
            dict(spec.resilience)
            if spec is not None and spec.resilience
            else {}
        )
        spec_retry: Optional[Dict[str, Any]] = {
            k: v for k, v in section.items() if k in self._RETRY_KEYS
        } or None
        retry_cfg = retry if retry is not None else self._retry
        if retry_cfg is None:
            retry_cfg = spec_retry
        policy = RetryPolicy.coerce(retry_cfg)
        faults_cfg = faults if faults is not None else self._faults
        if faults_cfg is None:
            faults_cfg = section.get("faults")
        injector = _coerce_injector(faults_cfg)
        rebuild_budget = next(
            (
                int(value)
                for value in (
                    max_rebuilds,
                    self._max_rebuilds,
                    section.get("max_rebuilds"),
                )
                if value is not None
            ),
            None,
        )
        writeback = (
            self._cache_writeback
            if cache_writeback is None
            else bool(cache_writeback)
        )
        journal_path = journal if journal is not None else resume
        fail_fast = not (
            policy.active
            or injector is not None
            or journal_path is not None
            or rebuild_budget is not None
        )

        journal_obj: Optional[SweepJournal] = None
        completed: frozenset = frozenset()
        if journal_path is not None:
            journal_obj = SweepJournal(journal_path)
        if resume is not None:
            if (
                journal_obj is not None
                and pathlib.Path(resume) == journal_obj.path
            ):
                completed = frozenset(journal_obj.load_completed())
            else:
                completed = frozenset(
                    SweepJournal(resume).load_completed()
                )

        # --- cache lookups + resume skips ---------------------------------
        before = self._cache.stats if self._cache is not None else CacheStats()
        before_sections = (
            self._cache.section_stats if self._cache is not None else {}
        )
        results: List[Optional[ScenarioResult]] = [None] * plan.n_cells
        to_run = []
        n_skipped = 0
        for unit in plan.units:
            if self._cache is not None and unit.fingerprint is not None:
                hit = self._cache.get(unit.fingerprint)
                if hit is not None:
                    for index in unit.indices:
                        results[index] = hit
                    if journal_obj is not None:
                        journal_obj.record_done(
                            unit.fingerprint, name=unit.name, cached=True
                        )
                    continue
            if unit.fingerprint is not None and unit.fingerprint in completed:
                # Journaled done but not in cache: retired, not re-run.
                n_skipped += 1
                continue
            to_run.append(unit)

        # --- execute --------------------------------------------------------
        key = "none"
        failures: List[CellFailure] = []
        n_rebuilds = 0
        if to_run:
            key, opts = self._resolve_executor(items, executor, max_workers)
            run_items = self._wrap_items(
                [unit.item for unit in to_run], use_delta, writeback
            )
            units = [
                ResilientUnit(
                    item=run_item,
                    index=unit.indices[0],
                    indices=tuple(unit.indices),
                    name=unit.name,
                    fingerprint=unit.fingerprint,
                )
                for unit, run_item in zip(to_run, run_items)
            ]

            def _write_back(outcome) -> None:
                if (
                    self._cache is not None
                    and writeback
                    and outcome.fingerprint is not None
                ):
                    self._cache.put(outcome.fingerprint, outcome.result)
                if use_delta and not outcome.unit.item.ran_inline:
                    self._absorb_sections(outcome.result, writeback)

            def _on_unit_done(outcome) -> None:
                if outcome.ok:
                    for index in outcome.unit.indices:
                        results[index] = outcome.result
                    if journal_obj is not None:
                        # resume serves journaled units from the cache,
                        # so cache before journaling, as each settles.
                        _write_back(outcome)
                        journal_obj.record_done(
                            outcome.fingerprint, name=outcome.unit.name
                        )
                else:
                    failures.append(outcome.failure)
                    if journal_obj is not None:
                        journal_obj.record_failed(outcome.failure)

            engine = resolve_backend("executor", key)(**opts)
            run = engine(
                units,
                policy=policy,
                injector=injector,
                max_rebuilds=(
                    rebuild_budget
                    if rebuild_budget is not None
                    else DEFAULT_MAX_REBUILDS
                ),
                on_unit_done=_on_unit_done,
            )
            n_rebuilds = run.rebuilds
            if journal_obj is None:
                # Whole results are written back after the pass rather
                # than interleaved with unit runs.
                for outcome in run.outcomes:
                    if outcome.ok:
                        _write_back(outcome)
            if fail_fast:
                run.raise_first_failure()

        after = self._cache.stats if self._cache is not None else CacheStats()
        section_stats: Optional[Dict[str, CacheStats]] = None
        if use_delta and self._cache is not None:
            section_stats = {
                name: CacheStats(
                    hits=counts.hits - before_sections[name].hits,
                    misses=counts.misses - before_sections[name].misses,
                    evictions=(
                        counts.evictions - before_sections[name].evictions
                    ),
                    errors=counts.errors - before_sections[name].errors,
                )
                for name, counts in self._cache.section_stats.items()
            }
        return SweepReport(
            results=tuple(results),
            stats=CacheStats(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                evictions=after.evictions - before.evictions,
                errors=after.errors - before.errors,
            ),
            n_cells=plan.n_cells,
            n_unique=plan.n_unique,
            n_ran=len(to_run),
            executor=key,
            section_stats=section_stats,
            failures=tuple(failures),
            n_skipped=n_skipped,
            n_rebuilds=n_rebuilds,
        )

    def _wrap_items(
        self,
        raw_items: List[Union[Scenario, Session]],
        use_delta: bool,
        writeback: bool,
    ) -> List[Any]:
        """Wrap work items for delta execution (see :class:`_DeltaItem`)."""
        if not use_delta or self._cache is None:
            return list(raw_items)
        return [
            _DeltaItem(item, cache=self._cache, writeback=writeback)
            for item in raw_items
        ]

    def _absorb_sections(self, result: Any, writeback: bool) -> None:
        """Write a pooled worker's fresh section payloads to the cache."""
        fresh = getattr(result, "fresh_sections", None)
        if self._cache is None or not writeback or not fresh:
            return
        for name, (fingerprint, payload) in fresh.items():
            self._cache.put_section(name, fingerprint, payload)


def cached_sweep_service(**opts) -> SweepService:
    """The default ``sweep`` backend: dedup + provenance-keyed cache."""
    return SweepService(**opts)


def direct_sweep_service(**opts) -> SweepService:
    """The cache-free variant: dedup only, every unique cell recomputes."""
    return SweepService(cache=False, **opts)


def register_backends(registry) -> None:
    """Self-register the built-in sweep services.

    A ``sweep`` backend is a factory ``(**opts) -> service`` exposing
    ``plan(grid)`` and ``run(grid, ...) -> SweepOutcome`` over a
    SweepSpec / spec mapping / spec path / Scenario list, with results
    in input order.  ``run`` of an empty grid must return an empty
    outcome without touching disk.
    """
    registry.add("sweep", "cached", cached_sweep_service, aliases=("default",))
    registry.add(
        "sweep", "direct", direct_sweep_service, aliases=("nocache", "no-cache")
    )
