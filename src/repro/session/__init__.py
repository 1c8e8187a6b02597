"""The canonical public API: scenarios, sessions, and the backend registry.

One coherent surface over the whole pipeline (embodied modeling →
regional intensity → operational characterization → carbon-aware
scheduling → upgrade analysis)::

    from repro.session import Scenario

    result = (
        Scenario()
        .system("perlmutter")
        .region("CISO")
        .lifetime(years=5)
        .run()
    )
    print("\\n".join(result.summary_lines()))

Swappable backends live in :data:`registry`
(:class:`~repro.session.registry.BackendRegistry`): hardware systems,
node generations, intensity sources, scheduling policies, cluster
simulators, report renderers, and sweep executors all resolve by string
key, and third-party backends plug in with :func:`register_backend`
without touching core.  Batch sweeps go through
:meth:`Session.run_many`, which shares memoized trace generation across
scenarios and fans out over a process pool when a scenario selects
``.executor("shared", max_workers=N)`` (``"process"`` is an alias):
the parent writes each sweep seed's trace set once, and every worker
memory-maps it.
"""

from repro.session.registry import (
    BACKEND_KINDS,
    BackendRegistry,
    available_backends,
    ensure_default_backends,
    register_backend,
    registry,
    resolve_backend,
)
from repro.session.result import (
    CarbonSection,
    ClusterSection,
    EmbodiedSection,
    PolicyOutcome,
    Provenance,
    ScenarioResult,
    SchedulingSection,
    TrainingSection,
    UpgradeSection,
)
from repro.session.scenario import Scenario
from repro.session.session import Session, run_scenario
from repro.session.types import SystemDeployment

__all__ = [
    "Scenario",
    "Session",
    "run_scenario",
    "ScenarioResult",
    "EmbodiedSection",
    "TrainingSection",
    "SchedulingSection",
    "PolicyOutcome",
    "ClusterSection",
    "UpgradeSection",
    "CarbonSection",
    "Provenance",
    "SystemDeployment",
    "BackendRegistry",
    "registry",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "ensure_default_backends",
    "BACKEND_KINDS",
]
