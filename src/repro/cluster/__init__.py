"""Cluster simulation substrate: jobs, columnar job batches, and a
discrete-event simulator with energy/carbon accounting.

(Workload *generation* lives in :mod:`repro.workloads.sources` behind
the ``workload`` registry kind; ``WorkloadParams``/``generate_workload``
stay re-exported here for compatibility.)
"""

from repro.cluster.engine import (
    ColumnarSimulationResult,
    simulate_cluster_backfill,
    simulate_cluster_carbon_aware,
    simulate_cluster_columnar,
    simulate_cluster_power_cap,
)
from repro.cluster.job import Job, JobBatch, Placement
from repro.cluster.simulator import (
    Cluster,
    ScheduledJob,
    SimulationResult,
    simulate_cluster,
)
from repro.cluster.traceio import (
    SCHEMA_VERSION,
    SWF_COLUMNS,
    jobs_from_json,
    jobs_to_json,
    load_jobs,
    load_swf,
    read_workload,
    save_jobs,
)
__all__ = [
    "Job",
    "JobBatch",
    "Placement",
    "WorkloadParams",
    "generate_workload",
    "Cluster",
    "ScheduledJob",
    "SimulationResult",
    "ColumnarSimulationResult",
    "simulate_cluster",
    "simulate_cluster_columnar",
    "simulate_cluster_backfill",
    "simulate_cluster_carbon_aware",
    "simulate_cluster_power_cap",
    "SCHEMA_VERSION",
    "SWF_COLUMNS",
    "jobs_to_json",
    "jobs_from_json",
    "save_jobs",
    "load_jobs",
    "load_swf",
    "read_workload",
]


def __getattr__(name: str):
    # WorkloadParams/generate_workload live in repro.workloads.sources
    # now; re-export lazily (PEP 562) because sources itself imports
    # repro.cluster.job — an eager import here would be circular.
    if name in ("WorkloadParams", "generate_workload"):
        from repro.workloads import sources

        return getattr(sources, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- session-facade backends ------------------------------------------------
def register_backends(registry) -> None:
    """Self-register cluster simulators for the Scenario/Session facade.

    A simulator backend is the simulation callable itself:
    ``(jobs, cluster, *, horizon_h, intensity, pue, config)`` returning a
    :class:`SimulationResult` (or duck-typed equivalent); discipline
    options are extra optional keywords.  ``fcfs`` (aliases
    ``default``, ``fcfs-columnar``, ``columnar``) is FCFS with
    earliest fit, run by the event-driven engine on ``JobBatch``
    columns; the scalar :func:`simulate_cluster` stays importable as
    the oracle it is pinned byte-identical to, but no key resolves to
    it.  ``backfill`` is EASY backfill on the same columnar substrate;
    ``carbon-aware`` delays jobs within their slack toward
    low-intensity hours; ``power-cap`` holds the cluster's busy-GPU
    profile under a capacity fraction.
    """
    registry.add(
        "simulator",
        "fcfs",
        simulate_cluster_columnar,
        aliases=("default", "fcfs-columnar", "columnar"),
    )
    registry.add(
        "simulator", "backfill", simulate_cluster_backfill, aliases=("easy",)
    )
    registry.add(
        "simulator",
        "carbon-aware",
        simulate_cluster_carbon_aware,
        aliases=("green",),
    )
    registry.add(
        "simulator",
        "power-cap",
        simulate_cluster_power_cap,
        aliases=("capped",),
    )


__all__.append("register_backends")
