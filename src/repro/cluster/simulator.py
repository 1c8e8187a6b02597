"""Discrete-event GPU-cluster simulator.

Simulates a homogeneous cluster of Table 5 nodes serving a job stream
under FCFS-with-earliest-fit placement, then accounts energy and
operational carbon for the whole horizon.  This is the substrate behind
the paper's utilization analysis (RQ8: low GPU usage stretches upgrade
amortization) and the carbon-aware-scheduler evaluation (RQ6).

Modeling notes (kept deliberately explicit):

* GPUs are allocated whole, on a single node per job (the dominant case
  in the cited production traces).
* A node's CPUs are modeled busy in proportion to its busy-GPU
  fraction; DRAM/storage draw their active power whenever the node is
  powered (always, in this study).
* Energy accounting is vectorized: per-hour busy-GPU occupancy is
  accumulated with ``numpy`` bin operations, then carbon is one dot
  product against the intensity trace (Eq. 6).
* Placement is incremental: each node keeps a bisect-maintained
  occupancy timeline (:class:`_NodeTimeline`), so a stream of J jobs
  places in O(J log E) events total rather than re-sorting the event
  list for every job.

:func:`simulate_cluster` is the scalar semantics oracle.  The ``fcfs``
simulator key runs :func:`repro.cluster.engine.simulate_cluster_columnar`,
which the tests pin byte-identical to it; both share :class:`Cluster`,
:class:`ScheduledJob` and the :func:`_account_horizon` accounting tail.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accounting import CarbonLedger
from repro.accounting.pue import PUELike, align_pue_profile, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import SimulationError
from repro.core.units import CarbonMass, Energy
from repro.cluster.job import Job, JobBatch
from repro.hardware.node import NodeSpec
from repro.intensity.trace import IntensityTrace
from repro.power.node import NodePowerModel

__all__ = ["Cluster", "ScheduledJob", "SimulationResult", "simulate_cluster"]


@dataclass(frozen=True, slots=True)
class ScheduledJob:
    """A job with its realized start time and node assignment."""

    job: Job
    node_index: int
    start_h: float

    @property
    def end_h(self) -> float:
        return self.start_h + self.job.duration_h

    @property
    def wait_h(self) -> float:
        return self.start_h - self.job.submit_h


class Cluster:
    """A homogeneous cluster of ``n_nodes`` copies of one node spec."""

    def __init__(self, node: NodeSpec, n_nodes: int) -> None:
        if n_nodes < 1:
            raise SimulationError(f"cluster needs >= 1 node, got {n_nodes}")
        self.node = node
        self.n_nodes = n_nodes
        self.power_model = NodePowerModel(node)

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpu_count

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node


class _NodeTimeline:
    """Incrementally maintained free-GPU timeline for one node.

    GPU occupancy on a node is piecewise constant, so the timeline keeps
    the sorted breakpoint times plus the running occupancy between
    consecutive breakpoints: ``occ[i]`` GPUs are busy on
    ``[times[i], times[i+1])`` and zero GPUs outside ``[times[0],
    times[-1])``.  Committing a job bisect-inserts its two boundaries
    and bumps the occupancy of the spanned segments; finding the
    earliest feasible start is a single forward scan that jumps past
    each blocking segment.  No per-job sorting — the per-placement cost
    is O(log segments + segments scanned) instead of the former
    sort-all-events-per-candidate sweep, and results are identical: the
    earliest feasible start is unique regardless of how candidates are
    enumerated.
    """

    __slots__ = ("capacity", "times", "occ")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.times: List[float] = []  # sorted breakpoints
        self.occ: List[int] = []  # occ[i] busy GPUs on [times[i], times[i+1])

    def _ensure_breakpoint(self, t: float) -> int:
        """Index of breakpoint ``t``, splitting a segment to create it."""
        times = self.times
        i = bisect.bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return i
        times.insert(i, t)
        if len(times) == 1:
            pass  # first breakpoint: no segment yet
        elif i == 0:
            self.occ.insert(0, 0)  # new segment before the old first event
        elif i == len(times) - 1:
            self.occ.append(0)  # new segment after the old last event
        else:
            self.occ.insert(i, self.occ[i - 1])  # split: same occupancy
        return i

    def earliest_start(self, ready_h: float, duration_h: float, gpus: int) -> float:
        if gpus > self.capacity:
            raise SimulationError(
                f"job requesting {gpus} GPUs exceeds node capacity {self.capacity}"
            )
        times, occ = self.times, self.occ
        free = self.capacity - gpus
        t = ready_h
        seg = bisect.bisect_right(times, t) - 1
        while True:
            end = t + duration_h
            k = seg
            while True:
                seg_occ = occ[k] if 0 <= k < len(occ) else 0
                if seg_occ > free:
                    # Blocked: every start before this segment's end still
                    # overlaps it, so the next candidate is that boundary.
                    t = times[k + 1]
                    seg = k + 1
                    break
                seg_end = times[k + 1] if k + 1 < len(times) else None
                if seg_end is None or seg_end >= end:
                    return t  # window fits to the right of all events
                k += 1

    def commit(self, start_h: float, end_h: float, gpus: int) -> None:
        i0 = self._ensure_breakpoint(start_h)
        i1 = self._ensure_breakpoint(end_h)
        for k in range(i0, i1):
            self.occ[k] += gpus
            if self.occ[k] > self.capacity:
                raise SimulationError(
                    "internal placement error: capacity violated"
                )


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a cluster simulation over a horizon."""

    cluster: Cluster
    horizon_h: float
    scheduled: Tuple[ScheduledJob, ...]
    busy_gpu_hours_per_hour: np.ndarray = field(repr=False)
    ic_energy_kwh: float
    carbon_g: float
    pue: float
    #: Itemized charge behind ``carbon_g`` (shared accounting currency);
    #: not part of equality.
    ledger: Optional[CarbonLedger] = field(default=None, compare=False, repr=False)

    # --- service metrics -------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.scheduled)

    def mean_wait_h(self) -> float:
        if not self.scheduled:
            return 0.0
        return float(np.mean([s.wait_h for s in self.scheduled]))

    def makespan_h(self) -> float:
        if not self.scheduled:
            return 0.0
        return max(s.end_h for s in self.scheduled)

    # --- utilization ------------------------------------------------------
    def utilization(self) -> np.ndarray:
        """Per-hour GPU usage rate (busy GPU-hours / total GPU-hours)."""
        return self.busy_gpu_hours_per_hour / self.cluster.total_gpus

    def average_usage(self) -> float:
        """Horizon-average GPU usage rate (the paper's 40% medium level)."""
        return float(self.utilization().mean())

    # --- footprint -------------------------------------------------------------
    @property
    def energy(self) -> Energy:
        return Energy(self.ic_energy_kwh)

    @property
    def carbon(self) -> CarbonMass:
        return CarbonMass(self.carbon_g)


def _place_fcfs(jobs: Sequence[Job], cluster: Cluster) -> List[ScheduledJob]:
    """FCFS earliest-fit placement across nodes."""
    states = [_NodeTimeline(cluster.gpus_per_node) for _ in range(cluster.n_nodes)]
    scheduled: List[ScheduledJob] = []
    ordered = sorted(jobs, key=lambda j: (j.submit_h, j.job_id))
    for job in ordered:
        if job.n_gpus > cluster.gpus_per_node:
            raise SimulationError(
                f"job {job.job_id} requests {job.n_gpus} GPUs; nodes have "
                f"{cluster.gpus_per_node}"
            )
        best_start = None
        best_node = -1
        for idx, state in enumerate(states):
            start = state.earliest_start(job.submit_h, job.duration_h, job.n_gpus)
            if best_start is None or start < best_start:
                best_start, best_node = start, idx
                if start <= job.submit_h:
                    # No node can admit before the submit time, so the
                    # first timeline yielding start == submit is the
                    # global minimum *and* the lowest-index tie-break:
                    # scanning the remaining nodes cannot change the
                    # choice (identical schedules by construction).
                    break
        assert best_start is not None
        states[best_node].commit(best_start, best_start + job.duration_h, job.n_gpus)
        scheduled.append(ScheduledJob(job=job, node_index=best_node, start_h=best_start))
    return scheduled


def _busy_gpu_hours(
    scheduled: Sequence[ScheduledJob], n_hours: int
) -> np.ndarray:
    """Accumulate busy GPU-hours into hourly bins, fractional at edges."""
    busy = np.zeros(n_hours)
    # One bin-index buffer for the whole schedule: per-job windows slice
    # views out of it instead of allocating a fresh ``np.arange`` each.
    all_hours = np.arange(n_hours)
    for entry in scheduled:
        start, end = entry.start_h, entry.end_h
        gpus = entry.job.n_gpus
        first = int(np.floor(start))
        last = int(np.ceil(end))
        if first >= n_hours:
            continue
        last = min(last, n_hours)
        hours = all_hours[first:last]
        lo = np.maximum(hours, start)
        hi = np.minimum(hours + 1, end)
        busy[first:last] += gpus * np.maximum(hi - lo, 0.0)
    return busy


def _account_horizon(
    busy: np.ndarray,
    cluster: Cluster,
    n_hours: int,
    intensity: Union[float, IntensityTrace],
    eff_pue: float,
    pue_profile,
) -> Tuple[float, float, CarbonLedger]:
    """Charge a simulated horizon's busy-GPU profile: energy + carbon.

    The single accounting tail shared by every ``simulator`` backend —
    the scalar oracle and the columnar engines charge through this exact
    code, so their energy/carbon/ledger outputs are identical whenever
    their busy arrays are.
    """
    if float(busy.max(initial=0.0)) > cluster.total_gpus + 1e-9:
        raise SimulationError("GPU occupancy exceeded cluster capacity")

    # Hourly power: busy GPUs at busy power, the rest idle; CPUs busy in
    # proportion to the busy-GPU fraction; memory/storage always active.
    node_power = cluster.power_model
    gpu_busy_w_node = node_power.gpu_power_w(busy=True)
    gpu_idle_w_node = node_power.gpu_power_w(busy=False)
    gpu_busy_w = gpu_busy_w_node / cluster.gpus_per_node
    gpu_idle_w = gpu_idle_w_node / cluster.gpus_per_node
    busy_frac = busy / cluster.total_gpus
    non_gpu_idle_w = cluster.n_nodes * (
        node_power.power_w(0.0, 0.0) - gpu_idle_w_node
    )
    non_gpu_busy_w = cluster.n_nodes * (
        node_power.busy_power_w() - gpu_busy_w_node
    )
    power_w = (
        busy * gpu_busy_w
        + (cluster.total_gpus - busy) * gpu_idle_w
        + busy_frac * non_gpu_busy_w
        + (1.0 - busy_frac) * non_gpu_idle_w
    )

    ic_energy_kwh = float(power_w.sum()) / 1000.0
    if isinstance(intensity, IntensityTrace):
        profile = intensity.slice_hours(0, n_hours)
        region = intensity.region_code
    else:
        if float(intensity) < 0.0:
            raise SimulationError("carbon intensity must be non-negative")
        profile = np.full(n_hours, float(intensity))
        region = None

    # Charge the simulated horizon through the shared carbon ledger (the
    # exact historical dot product — see CarbonLedger.charge_power_profile's
    # exactness contract), so cluster results speak the same accounting
    # currency as scheduling evaluations and audits.
    ledger = CarbonLedger()
    carbon_g = ledger.charge_power_profile(
        "cluster",
        power_w,
        profile,
        pue=(
            eff_pue
            if pue_profile is None
            else align_pue_profile(pue_profile, n_hours)
        ),
        region=region,
    )
    return ic_energy_kwh, carbon_g, ledger


def simulate_cluster(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
) -> SimulationResult:
    """Run the full pipeline: place jobs, account energy and carbon.

    Jobs still running at ``horizon_h`` contribute only their in-horizon
    portion to energy/carbon (the tail is truncated, as a fixed-window
    accounting period would).  ``pue`` takes a float (the legacy exact
    path) or an hourly profile / :class:`~repro.power.pue.SeasonalPUE`,
    which weights each simulated hour's charge by that hour's facility
    overhead.  A columnar :class:`JobBatch` is accepted and materialized
    into scalar views once (the simulator's schedule bookkeeping is
    per-job by nature).
    """
    if horizon_h <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_h!r}")
    if isinstance(jobs, JobBatch):
        jobs = jobs.to_jobs()
    eff_pue, pue_profile = resolve_pue(pue, config=config, error=SimulationError)

    scheduled = _place_fcfs(jobs, cluster)
    n_hours = int(np.ceil(horizon_h))
    busy = _busy_gpu_hours(scheduled, n_hours)
    ic_energy_kwh, carbon_g, ledger = _account_horizon(
        busy, cluster, n_hours, intensity, eff_pue, pue_profile
    )

    return SimulationResult(
        cluster=cluster,
        horizon_h=horizon_h,
        scheduled=tuple(scheduled),
        busy_gpu_hours_per_hour=busy,
        ic_energy_kwh=ic_energy_kwh,
        carbon_g=carbon_g,
        pue=eff_pue,
        ledger=ledger,
    )
