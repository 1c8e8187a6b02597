"""Resilient unit execution: the vocabulary and the entry point.

Every sweep runs its work units through one of the ``executor`` engines
in :mod:`repro.session.executors`; this module defines what those
engines consume and produce:

* :class:`ResilientUnit` — one deduplicated work unit (the item to run,
  the grid cells it serves, its fingerprint);
* :class:`UnitOutcome` — how one unit ended: a result, or a structured
  :class:`~repro.resilience.policy.CellFailure` after its whole retry
  budget (plus the exception that ended its last attempt, when it could
  be carried home);
* :class:`ResilientRun` — every outcome of one pass, in unit order,
  plus the number of process-pool rebuilds it took.

:func:`run_resilient` is a thin call onto a registered engine.  Units
run under a :class:`~repro.resilience.policy.RetryPolicy` (retries,
backoff, per-attempt deadline) with a fault injector consulted at the
start of every attempt; failures settle as ``CellFailure`` values
instead of propagating, and completions are reported through
``on_unit_done`` *as they settle*, so a caller can journal checkpoints
before a later crash can lose them.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.core.errors import ResilienceError
from repro.resilience.policy import CellFailure, RetryPolicy

__all__ = [
    "ResilientUnit",
    "UnitOutcome",
    "ResilientRun",
    "UnitTimeout",
    "run_resilient",
    "DEFAULT_MAX_REBUILDS",
]

#: Pool rebuilds tolerated per run before surfacing ResilienceError.
DEFAULT_MAX_REBUILDS = 3


class UnitTimeout(Exception):
    """One attempt exceeded its wall-clock deadline."""


@dataclass(frozen=True)
class ResilientUnit:
    """One work unit as the resilience layer addresses it."""

    item: Any  # Scenario | Session
    index: int
    indices: Tuple[int, ...]
    name: str
    fingerprint: Optional[str]

    @property
    def token(self) -> str:
        """The stable identity fault injectors and jitter key off."""
        return self.fingerprint or f"{self.name}#{self.index}"


@dataclass(frozen=True)
class UnitOutcome:
    """How one unit ended: a result or a structured failure."""

    unit: ResilientUnit
    result: Optional[Any]  # ScenarioResult on success
    failure: Optional[CellFailure]
    attempts: int
    #: Worker-reported fingerprint (falls back to the planner's).
    fingerprint: Optional[str]
    #: The exception that ended the last attempt of a failed unit;
    #: ``None`` for crashes and for exceptions that cannot be pickled
    #: home from a pool worker.
    error: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ResilientRun:
    """Everything one resilient pass produced."""

    outcomes: Tuple[UnitOutcome, ...]
    rebuilds: int

    def raise_first_failure(self) -> None:
        """Re-raise the first failed unit's exception, if any failed.

        The plain-run contract: with no retry budget, no faults and no
        journal, a cell that raises aborts the caller with the same
        exception type and message it would raise when run alone.  A
        failure without a carried exception (a worker crash) raises a
        :class:`~repro.core.errors.ResilienceError` with its summary.
        """
        for outcome in self.outcomes:
            if outcome.ok:
                continue
            if outcome.error is not None:
                raise outcome.error
            raise ResilienceError(outcome.failure.summary())


# --- deadline enforcement ---------------------------------------------------
@contextlib.contextmanager
def _attempt_deadline(timeout_s: Optional[float]):
    """Bound one attempt to ``timeout_s`` wall-clock seconds.

    Preemptive (``SIGALRM`` interval timer) on POSIX main threads;
    elsewhere a post-hoc elapsed check — the attempt completes, but its
    result is discarded as a timeout.
    """
    if not timeout_s:
        yield
        return
    preemptive = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not preemptive:
        started = time.perf_counter()
        yield
        if time.perf_counter() - started > timeout_s:
            raise UnitTimeout(
                f"attempt exceeded its {timeout_s:g}s deadline (post-hoc)"
            )
        return

    def _expired(signum, frame):
        raise UnitTimeout(f"attempt exceeded its {timeout_s:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# --- entry point ------------------------------------------------------------
def run_resilient(
    units: Sequence[ResilientUnit],
    *,
    executor: str = "serial",
    executor_opts: Optional[Dict[str, Any]] = None,
    policy: Union[RetryPolicy, Dict[str, Any], int, None] = None,
    injector=None,
    max_rebuilds: int = DEFAULT_MAX_REBUILDS,
    on_unit_done=None,
) -> ResilientRun:
    """Run work units fault-tolerantly through an executor backend.

    ``executor`` is an ``executor`` registry key and ``executor_opts``
    its factory options; the engine it builds runs every unit.
    ``on_unit_done(outcome)`` fires as each unit settles.
    """
    from repro.session.registry import resolve_backend

    engine = resolve_backend("executor", executor)(**dict(executor_opts or {}))
    return engine(
        units,
        policy=policy,
        injector=injector,
        max_rebuilds=max_rebuilds,
        on_unit_done=on_unit_done,
    )
