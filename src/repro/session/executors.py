"""Sweep executors: the engines every sweep runs its work units through.

An ``executor`` backend factory takes engine options and returns an
engine, a callable over :class:`~repro.resilience.ResilientUnit` work
units::

    engine(units, *, policy=None, injector=None,
           max_rebuilds=DEFAULT_MAX_REBUILDS, on_unit_done=None)
        -> ResilientRun

Every unit runs under the attempt loop: up to ``policy.max_attempts``
attempts (a :class:`~repro.resilience.RetryPolicy`; the default is one
attempt), each bounded by the policy's per-attempt deadline and preceded
by the fault injector's verdict (default
:class:`~repro.resilience.NoFaults`).  A unit that exhausts its budget
settles as a :class:`~repro.resilience.CellFailure` instead of raising.
``on_unit_done(outcome)`` fires as each unit settles, and the returned
:class:`~repro.resilience.ResilientRun` holds one outcome per unit, in
input order.  :meth:`SweepService.run <repro.sweep.SweepService.run>`,
:meth:`Session.run_many` and :func:`repro.resilience.run_resilient` all
run through these engines; a caller that wants a plain run's exception
re-raises it with :meth:`~repro.resilience.ResilientRun.raise_first_failure`.

Built-ins:

* ``serial`` — units run in this process, one after another, sharing
  the parent's memoized trace sets, so a 5-region × 3-policy sweep still
  generates traces once per seed.  The deadline is a real ``SIGALRM``
  timer on the main thread.  An injected ``crash`` degrades to a raised
  :class:`~repro.resilience.InjectedFault`: killing the only process
  would abort the host, not simulate a lost worker.
* ``process`` — one future per unit on a
  :class:`~concurrent.futures.ProcessPoolExecutor` of ``max_workers``
  workers (default: the CPU count; always a real pool, even with one
  worker).  The pool initializer warms each worker's trace memo once
  per sweep seed.  Attempts retry inside the worker, and an injected
  ``crash`` is a real ``os._exit``.  When the pool breaks (an
  OOM-killed or segfaulted worker), the engine rebuilds it and
  re-dispatches only the unfinished units, each charged one attempt;
  more than ``max_rebuilds`` rebuilds raise
  :class:`~repro.core.errors.ResilienceError`.  A parent-side backstop
  deadline fails a unit whose worker hangs past every in-worker
  deadline, and an interrupt terminates the workers before cancelling
  queued units, so no worker outlives the sweep.  Items and their
  payloads must be picklable; registry-keyed scenarios always are.
* ``shared`` — ``process``, but the parent first writes every sweep
  seed's trace set to a :class:`~repro.sweep.store.SharedTraceStore`
  and each worker attaches it, memory-mapping traces and window tables
  instead of regenerating them.

Results are deterministic per scenario seed (each Session draws a
freshly seeded forecast stream), so every engine returns results equal
to the same units run serially.

Select an executor per sweep with
``Scenario.executor("process", max_workers=N)`` on any swept scenario,
or explicitly via ``Session.run_many(..., executor="process")``.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

from repro.core.errors import ResilienceError, SessionError
from repro.resilience.faults import InjectedFault, NoFaults
from repro.resilience.policy import CellFailure, RetryPolicy
from repro.resilience.runner import (
    DEFAULT_MAX_REBUILDS,
    ResilientRun,
    ResilientUnit,
    UnitOutcome,
    UnitTimeout,
    _attempt_deadline,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.result import ScenarioResult

__all__ = [
    "SweepExecutor",
    "serial_executor",
    "process_executor",
    "shared_executor",
    "register_backends",
]

#: What an ``executor`` backend factory returns.
SweepExecutor = Callable[..., ResilientRun]

#: The exit code injected crashes die with (distinguishable in logs).
CRASH_EXIT_CODE = 77

#: Parent-side slack added to the per-unit backstop deadline.
_BACKSTOP_SLACK_S = 30.0


def _run_one(item) -> "ScenarioResult":
    from repro.session.scenario import Scenario

    if isinstance(item, Scenario):
        return item.build().run()
    return item.run()


def _sweep_seeds(items: Sequence[Any]) -> Tuple[int, ...]:
    seeds = set()
    for item in items:
        # Scenarios carry _seed directly; built Sessions carry their
        # builder snapshot under _scenario.
        knobs = getattr(item, "_scenario", item)
        seed = getattr(knobs, "_seed", None)
        if seed is not None:
            seeds.add(seed)
    return tuple(sorted(seeds))


def _warm_worker(seeds: Tuple[int, ...]) -> None:
    """Pool initializer: prime this worker's trace memo once per seed."""
    from repro.intensity.generator import generate_all_traces

    for seed in seeds:
        generate_all_traces(seed=seed)


def _attach_store_worker(store_dir: str, seeds: Tuple[int, ...]) -> None:
    """Pool initializer: attach the shared store, then warm the memos.

    With the store attached, ``generate_all_traces`` loads each seed's
    set from the parent's memory-mapped ``.npy`` file instead of
    re-running the generator.
    """
    from repro.sweep.store import SharedTraceStore

    SharedTraceStore(store_dir).attach()
    _warm_worker(seeds)


def _terminate_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool's worker processes (interrupt / hung-worker path).

    Must run *before* ``pool.shutdown`` — shutdown drops the pool's
    process table, and a worker that survives it keeps grinding until
    its current task ends.
    """
    for process in tuple((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already reaped
            pass


# --- the attempt loop (parent and pool workers) -----------------------------
def _attempt_once(
    unit: ResilientUnit, attempt: int, injector, timeout_s, allow_crash: bool
):
    action = injector.action(
        token=unit.token, index=unit.index, attempt=attempt
    )
    with _attempt_deadline(timeout_s):
        if action is not None:
            if action.kind == "delay":
                time.sleep(action.delay_s)
            elif action.kind == "crash" and allow_crash:
                # A real lost worker: no cleanup, no exception — the
                # parent only ever sees BrokenProcessPool.
                os._exit(CRASH_EXIT_CODE)
            elif action.kind in ("crash", "error"):
                raise InjectedFault(
                    f"injected {action.kind} "
                    f"(unit {unit.index}, attempt {attempt})"
                )
        result = _run_one(unit.item)
        if action is not None and action.kind == "corrupt":
            # The unit computed, but its payload is "lost in flight".
            raise InjectedFault(
                "injected result corruption "
                f"(unit {unit.index}, attempt {attempt})"
            )
    return result


def _run_attempts(
    unit: ResilientUnit,
    policy: RetryPolicy,
    injector,
    first_attempt: int = 1,
    allow_crash: bool = False,
) -> Dict[str, Any]:
    """Run attempts ``first_attempt..max_attempts``; never raises.

    Returns a picklable payload for :func:`_settle`: ``{"result",
    "attempts", "fingerprint"}`` on success, ``{"failure", "attempts",
    "error"}`` once the budget is spent.
    """
    last_exc = None
    for attempt in range(first_attempt, policy.max_attempts + 1):
        if attempt > first_attempt:
            delay = policy.delay_s(attempt=attempt, token=unit.token)
            if delay > 0.0:
                time.sleep(delay)
        try:
            result = _attempt_once(
                unit, attempt, injector, policy.unit_timeout_s, allow_crash
            )
        except Exception as exc:  # KeyboardInterrupt/SystemExit propagate
            last_exc = exc
            continue
        return {
            "result": result,
            "attempts": attempt,
            "fingerprint": getattr(result, "provenance_hash", None),
        }
    attempts = policy.max_attempts - first_attempt + 1
    return {
        "failure": CellFailure.from_exception(
            last_exc,
            index=unit.index,
            indices=unit.indices,
            name=unit.name,
            fingerprint=unit.fingerprint,
            attempts=attempts,
            kind="timeout" if isinstance(last_exc, UnitTimeout) else "error",
        ),
        "attempts": attempts,
        "error": last_exc,
    }


def _pooled_unit(
    unit: ResilientUnit, policy: RetryPolicy, injector, first_attempt: int
) -> Dict[str, Any]:
    """The per-unit pool task: the attempt loop with real crashes."""
    payload = _run_attempts(
        unit, policy, injector, first_attempt, allow_crash=True
    )
    if payload.get("error") is not None:
        try:
            pickle.loads(pickle.dumps(payload["error"]))
        except Exception:
            payload["error"] = None  # the CellFailure still describes it
    return payload


def _lost(
    unit: ResilientUnit, attempts: int, kind: str, error_type: str, message: str
) -> Dict[str, Any]:
    """The payload of a unit whose worker never answered."""
    failure = CellFailure(
        index=unit.index,
        indices=unit.indices,
        name=unit.name,
        fingerprint=unit.fingerprint,
        kind=kind,
        error_type=error_type,
        message=message,
        attempts=attempts,
        digest="",
    )
    return {"failure": failure, "attempts": attempts}


def _settle(
    unit: ResilientUnit, payload: Dict[str, Any], on_unit_done
) -> UnitOutcome:
    outcome = UnitOutcome(
        unit=unit,
        result=payload.get("result"),
        failure=payload.get("failure"),
        attempts=payload["attempts"],
        fingerprint=payload.get("fingerprint") or unit.fingerprint,
        error=payload.get("error"),
    )
    if on_unit_done is not None:
        on_unit_done(outcome)
    return outcome


# --- engines ----------------------------------------------------------------
class _Engine:
    """The calling convention every built-in engine shares."""

    def __call__(
        self,
        units: Sequence[ResilientUnit],
        *,
        policy=None,
        injector=None,
        max_rebuilds: int = DEFAULT_MAX_REBUILDS,
        on_unit_done=None,
    ) -> ResilientRun:
        if int(max_rebuilds) < 0:
            raise ResilienceError(
                f"max_rebuilds must be >= 0, got {max_rebuilds!r}"
            )
        units = list(units)
        if not units:
            return ResilientRun(outcomes=(), rebuilds=0)  # touch no disk
        return self._run(
            units,
            RetryPolicy.coerce(policy),
            injector if injector is not None else NoFaults(),
            int(max_rebuilds),
            on_unit_done,
        )


class _SerialEngine(_Engine):
    def _run(self, units, policy, injector, max_rebuilds, on_unit_done):
        outcomes = [
            _settle(unit, _run_attempts(unit, policy, injector), on_unit_done)
            for unit in units
        ]
        return ResilientRun(outcomes=tuple(outcomes), rebuilds=0)


class _PoolEngine(_Engine):
    """One future per unit on a rebuildable process pool."""

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers

    def _initializer(self, seeds: Tuple[int, ...]) -> Tuple[Callable, Tuple]:
        return _warm_worker, (seeds,)

    def _run(self, units, policy, injector, max_rebuilds, on_unit_done):
        initializer, initargs = self._initializer(
            _sweep_seeds([unit.item for unit in units])
        )
        workers = min(self.max_workers, len(units))

        def _make_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers, initializer=initializer, initargs=initargs
            )

        backstop = None
        if policy.unit_timeout_s is not None:
            backstop = (
                policy.max_attempts
                * (
                    policy.unit_timeout_s
                    + policy.delay_s(attempt=policy.max_attempts, token="")
                )
                + _BACKSTOP_SLACK_S
            )
        #: Next first attempt per unit index (crashes consume attempts).
        next_attempt: Dict[int, int] = {unit.index: 1 for unit in units}
        settled: Dict[int, UnitOutcome] = {}
        pending: List[ResilientUnit] = units
        rebuilds = 0
        stuck = False  # a worker blew through the parent-side backstop
        pool = _make_pool()
        try:
            while pending:
                futures = [
                    (
                        pool.submit(
                            _pooled_unit,
                            unit,
                            policy,
                            injector,
                            next_attempt[unit.index],
                        ),
                        unit,
                    )
                    for unit in pending
                ]
                pending = []
                broken: List[ResilientUnit] = []
                for future, unit in futures:
                    try:
                        payload = future.result(timeout=backstop)
                    except BrokenExecutor:
                        broken.append(unit)
                        continue
                    except FutureTimeoutError:
                        # A worker hung past every in-worker deadline:
                        # give up on the unit, poison the pool.
                        stuck = True
                        future.cancel()
                        payload = _lost(
                            unit,
                            policy.max_attempts,
                            "timeout",
                            "TimeoutError",
                            f"worker unresponsive past the {backstop:g}s "
                            "parent-side backstop",
                        )
                    settled[unit.index] = _settle(unit, payload, on_unit_done)
                if not broken:
                    continue
                rebuilds += 1
                if rebuilds > max_rebuilds:
                    names = ", ".join(unit.name for unit in broken)
                    raise ResilienceError(
                        f"process pool broke {rebuilds} times (budget "
                        f"{max_rebuilds}); giving up on unfinished units: "
                        f"{names}"
                    )
                pool.shutdown(wait=False, cancel_futures=True)
                pool = _make_pool()
                for unit in broken:
                    # One attempt consumed per pool break: the parent
                    # cannot see which in-flight unit crashed, so every
                    # re-dispatched unit is charged one.
                    next_attempt[unit.index] += 1
                    if next_attempt[unit.index] <= policy.max_attempts:
                        pending.append(unit)
                        continue
                    settled[unit.index] = _settle(
                        unit,
                        _lost(
                            unit,
                            policy.max_attempts,
                            "crash",
                            "BrokenProcessPool",
                            "worker process died (crash/OOM); retry budget "
                            "exhausted",
                        ),
                        on_unit_done,
                    )
        except BaseException as exc:
            # Interrupts must not leave queued units grinding in zombie
            # workers: hard-stop the workers first (shutdown drops the
            # process table), then cancel everything not started.
            if not isinstance(exc, Exception):
                _terminate_pool_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        if stuck:
            _terminate_pool_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True, cancel_futures=True)
        outcomes = tuple(settled[unit.index] for unit in units)
        return ResilientRun(outcomes=outcomes, rebuilds=rebuilds)


class _SharedPoolEngine(_PoolEngine):
    """The pool engine over a shared memory-mapped trace store."""

    def __init__(self, max_workers: int, store_dir=None) -> None:
        super().__init__(max_workers)
        self.store_dir = store_dir

    def _initializer(self, seeds: Tuple[int, ...]) -> Tuple[Callable, Tuple]:
        from repro.sweep.store import SharedTraceStore

        store = SharedTraceStore(self.store_dir)
        for seed in seeds:
            # Parent-side pre-warm: the files exist before any worker
            # forks, so workers only ever mmap-attach.
            store.ensure_traces(seed=seed)
        return _attach_store_worker, (str(store.directory), seeds)


# --- factories --------------------------------------------------------------
def _worker_count(max_workers) -> int:
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if int(max_workers) < 1:
        raise SessionError(f"max_workers must be >= 1, got {max_workers!r}")
    return int(max_workers)


def serial_executor(**_opts) -> SweepExecutor:
    """The in-process engine (default): units run one after another."""
    return _SerialEngine()


def process_executor(*, max_workers: int | None = None) -> SweepExecutor:
    """The process-pool engine: one future per unit, ``max_workers``
    workers (default: the machine's CPU count)."""
    return _PoolEngine(_worker_count(max_workers))


def shared_executor(
    *, max_workers: int | None = None, store_dir=None
) -> SweepExecutor:
    """The process-pool engine backed by the shared trace store.

    Like ``process``, but the parent writes every sweep seed's trace set
    to memory-mapped ``.npy`` files under ``store_dir`` before the
    workers start, and each worker attaches a
    :class:`repro.sweep.store.SharedTraceStore` instead of regenerating
    traces and window tables.  ``store_dir`` defaults to
    ``default_cache_dir() / "store"`` (``$REPRO_HPC_CACHE_DIR/store``,
    else ``~/.cache/repro-hpc/store``), whatever ``cache_dir`` the
    sweep service was given.
    """
    return _SharedPoolEngine(_worker_count(max_workers), store_dir)


def register_backends(registry) -> None:
    """Self-register the built-in sweep executors.

    An ``executor`` backend is a factory ``(**opts) -> engine`` whose
    engine runs :class:`~repro.resilience.ResilientUnit` lists under the
    attempt loop (see the module docstring).
    """
    registry.add("executor", "serial", serial_executor, aliases=("inline",))
    registry.add(
        "executor", "process", process_executor, aliases=("processes", "parallel")
    )
    registry.add(
        "executor", "shared", shared_executor, aliases=("shared-store",)
    )
