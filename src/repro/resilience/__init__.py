"""Fault-tolerant sweep execution: retries, timeouts, resume, chaos.

The :mod:`repro.resilience` layer defines the machinery every sweep
executor engine (:mod:`repro.session.executors`) runs its units under,
which long campaigns need on real infrastructure:

* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  deterministic seeded jitter, and per-attempt wall-clock timeouts;
* :class:`CellFailure` — the structured record a unit leaves behind
  when its whole retry budget is exhausted, instead of an exception
  aborting the campaign;
* :func:`run_resilient` — a thin call onto a registered executor
  engine: per-unit isolation, with process-pool crash detection,
  bounded pool rebuilds, and re-dispatch of only the unfinished units;
* :class:`SweepJournal` — the append-only JSONL checkpoint behind
  ``repro-hpc sweep run --resume``;
* the ``faults`` registry kind (:class:`NoFaults`,
  :class:`RandomFaults`, :class:`ScriptedFaults`) — byte-reproducible
  fault injection at the executor boundary, for chaos tests that
  actually replay.

:class:`~repro.sweep.runner.SweepService` consumes all of this; see
its ``retry`` / ``faults`` / ``journal`` / ``resume`` knobs.
"""

from __future__ import annotations

from repro.resilience.faults import (
    FAULT_KINDS,
    FaultAction,
    InjectedFault,
    NoFaults,
    RandomFaults,
    ScriptedFaults,
)
from repro.resilience.faults import register_backends as _register_faults
from repro.resilience.journal import JOURNAL_SCHEMA, SweepJournal
from repro.resilience.policy import CellFailure, RetryPolicy, traceback_digest
from repro.resilience.runner import (
    DEFAULT_MAX_REBUILDS,
    ResilientRun,
    ResilientUnit,
    UnitOutcome,
    UnitTimeout,
    run_resilient,
)

__all__ = [
    "RetryPolicy",
    "CellFailure",
    "traceback_digest",
    "FaultAction",
    "InjectedFault",
    "NoFaults",
    "RandomFaults",
    "ScriptedFaults",
    "FAULT_KINDS",
    "SweepJournal",
    "JOURNAL_SCHEMA",
    "ResilientUnit",
    "UnitOutcome",
    "ResilientRun",
    "UnitTimeout",
    "run_resilient",
    "DEFAULT_MAX_REBUILDS",
    "register_backends",
]


def register_backends(registry) -> None:
    """Self-register the resilience layer's backends (``faults`` kind)."""
    _register_faults(registry)
