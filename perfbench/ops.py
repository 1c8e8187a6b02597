"""The benchmark's workloads: the canonical scenario, the sweep grids,
one closed-loop operation per workload, and the checks on its outputs.

Nothing here imports ``repro`` at module level, so ``probe.py`` can time
``import repro`` in a fresh interpreter after importing this module.

The canonical scenario ``C`` at seed ``S``: system ``frontier``, node
``A100``, home region ``ESO``, candidate regions ``ESO, CISO, PJM``,
policies ``carbon-oblivious`` and ``temporal+geographic``, BERT
training for 3 epochs, a ``P100 -> A100`` upgrade, and a 16-node
``carbon-aware`` cluster over the default 28-day ``synthetic``
workload drawn at seed 2021 (2,325 jobs).  ``S`` seeds the intensity
traces (op ``i`` of ``scenario`` uses ``S + i``); the program sees only
the knobs derived from it.

The workload draw stays at seed 2021 in every op: score-table work
grows with the summed lengths of the distinct job windows, which range
from 682 to 1,187 hours over workload seeds 1 to 10, so a per-seed
draw would make op times differ by up to 1.7x between seeds, more than
any bound the benchmark may set.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent

#: The sweep grid over ``C``: 2 systems x 2 PUEs x 2 lifetimes = 8 cells.
GRID_AXES: Dict[str, list] = {
    "system": ["frontier", "perlmutter"],
    "pue": [1.1, 1.25],
    "lifetime_years": [4, 6],
}
GRID_CELLS = 8
RENDERERS = ["text", "json", "markdown"]

#: The pooled workload's worker count.
POOL_WORKERS = min(2, os.cpu_count() or 1)

#: The workload draw of ``C`` (see the module docstring).
WORKLOAD_SEED = 2021

#: Every section a ``C`` result carries.
SECTIONS = (
    "embodied", "audit", "training", "scheduling", "cluster", "upgrade",
    "carbon",
)


def canonical_knobs(seed: int) -> Dict[str, Any]:
    """``C`` at ``seed`` as a flat spec mapping, without the system axis
    (the one definition of ``C``; the grids sweep ``system``).

    The renderer is set explicitly: the explicit-knob set is part of a
    result's fingerprint and of its serialized provenance, and the
    ``text`` cells of the renderer grid must share both with the plain
    grid for whole-result cache hits and byte-identical hashes.
    """
    return {
        "node": "A100",
        "region": "ESO",
        "regions": ["ESO", "CISO", "PJM"],
        "policies": ["carbon-oblivious", "temporal+geographic"],
        "seed": seed,
        "workload": "synthetic",
        "workload_seed": WORKLOAD_SEED,
        "training": {"model": "BERT", "epochs": 3},
        "upgrade": {"old": "P100", "new": "A100"},
        "cluster": {"n_nodes": 16, "simulator": "carbon-aware"},
        "renderer": "text",
    }


def canonical(seed: int):
    """``C`` at ``seed`` as one Scenario builder (a one-off what-if)."""
    from repro import Scenario

    return Scenario.from_spec(dict(canonical_knobs(seed), system="frontier"))


def grid_spec(seed: int) -> Dict[str, Any]:
    """The 8-cell grid over ``C`` as a sweep spec mapping."""
    return {"name": "C", "base": canonical_knobs(seed), "axes": dict(GRID_AXES)}


def rerun_spec(seed: int) -> Dict[str, Any]:
    """The grid x renderer (24 cells); cell ``3k`` is grid cell ``k``."""
    base = canonical_knobs(seed)
    del base["renderer"]
    return {"name": "C", "base": base, "axes": {**GRID_AXES, "renderer": RENDERERS}}


def result_hash(result) -> str:
    """sha256 of the canonical JSON of a result's ``to_dict``."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def invariants(result) -> List[str]:
    """What every ``C`` result must satisfy, as a list of violations."""
    missing = [name for name in SECTIONS if getattr(result, name) is None]
    if missing:
        return [f"missing sections {missing}"]
    problems = []
    carbon = result.carbon
    for label, value in (
        ("operational_g", carbon.operational_g),
        ("embodied_g", carbon.embodied_g),
        ("total_g", carbon.total_g),
    ):
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"carbon.{label} = {value!r}")
    if result.cluster.n_jobs != result.scheduling.n_jobs:
        problems.append(
            f"cluster.n_jobs {result.cluster.n_jobs} != "
            f"scheduling.n_jobs {result.scheduling.n_jobs}"
        )
    outcomes = {o.policy: o.carbon_g for o in result.scheduling.outcomes}
    best = result.scheduling.best().carbon_g
    if best > outcomes[result.scheduling.baseline]:
        problems.append("best policy emits more than the baseline")
    return problems


def count_files(directory: pathlib.Path) -> int:
    if not directory.is_dir():
        return 0
    return sum(1 for path in directory.rglob("*") if path.is_file())


def run_grid(spec, cache_dir: pathlib.Path, *, executor: Optional[str] = None):
    """One ``SweepService.run`` into ``cache_dir``.

    A pooled run also points ``REPRO_HPC_CACHE_DIR`` beside the cache:
    the shared executor's trace/table store ignores ``cache_dir`` and
    lands under that variable, so this is what gives each pooled op a
    cold store of its own.
    """
    from repro.sweep import SweepService

    if executor is None:
        return SweepService(cache_dir=cache_dir).run(spec)
    saved = os.environ["REPRO_HPC_CACHE_DIR"]
    os.environ["REPRO_HPC_CACHE_DIR"] = str(cache_dir.parent / "home-cache")
    try:
        service = SweepService(
            cache_dir=cache_dir, executor=executor, max_workers=POOL_WORKERS
        )
        return service.run(spec)
    finally:
        os.environ["REPRO_HPC_CACHE_DIR"] = saved


def grid_problems(report, n_cells: int) -> List[str]:
    """Violations in one sweep report of ``n_cells`` ``C`` cells."""
    problems = [f"sweep failure: {f.summary()}" for f in report.failures]
    if len(report.results) != n_cells:
        problems.append(f"{len(report.results)} results for {n_cells} cells")
    for index, result in enumerate(report.results):
        if result is None:
            problems.append(f"cell {index} has no result")
        else:
            problems.extend(f"cell {index}: {p}" for p in invariants(result))
    return problems


def compare_hashes(label: str, got: List[str], want: List[str]) -> List[str]:
    if got == want:
        return []
    diff = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    return [f"{label}: cells {diff or 'count'} differ ({len(got)} vs {len(want)})"]


class OpOutcome:
    """What one timed op delivered, as the loop and the checks need it."""

    def __init__(self, cells: int, problems: List[str], extra: Dict[str, int]):
        self.cells = cells
        self.problems = problems
        #: Per-op counts the program reports itself (cache stats, files).
        self.extra = extra


class Workload:
    """One closed-loop workload: one client, one op at a time.

    ``prepare`` runs once; ``before_op`` and ``after_op`` run around
    each timed ``op``.  None of them is timed.  ``final_checks`` runs
    once after the timed ops and returns the run-level violations.
    ``index`` counts the ops of one pass from 0.
    """

    name = ""
    #: Untimed ops run after ``prepare`` (see ``GridRerunWorkload``).
    warmup_ops = 0

    def __init__(self, seed: int, tmp: pathlib.Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def prepare(self) -> None:
        pass

    def before_op(self, index: int) -> None:
        pass

    def op(self, index: int):
        raise NotImplementedError

    def after_op(self, index: int, output) -> OpOutcome:
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        return []


class ScenarioWorkload(Workload):
    """One fresh Session of ``C`` per op at seed ``S + i``, each starting
    from an empty trace memo: no op shares traces or tables with
    another, so this is what a one-off what-if costs.  Both passes of a
    traced run replay the same seeds."""

    name = "scenario"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.first_json: Optional[str] = None

    def before_op(self, index):
        from repro.intensity import trace_cache_clear

        trace_cache_clear()

    def op(self, index):
        return canonical(self.seed + index).build().run()

    def after_op(self, index, output):
        problems = invariants(output)
        if index == 0:
            text = json.dumps(output.to_dict(), sort_keys=True)
            if self.first_json is None:
                self.first_json = text
            elif text != self.first_json:
                problems.append("op 0 differs from an earlier run of op 0")
        return OpOutcome(1, problems, {})

    def final_checks(self):
        again = canonical(self.seed).build().run()
        if json.dumps(again.to_dict(), sort_keys=True) != self.first_json:
            return ["scenario op 0 recomputed in a fresh Session differs"]
        return []


class _GridWorkload(Workload):
    """Shared bookkeeping of the three sweep workloads.

    Every op works in a directory of its own.  Every op's per-cell
    hashes must equal the first op's; the first op's cache directory is
    kept as the starting point of the re-run leg.
    """

    n_cells = GRID_CELLS
    executor: Optional[str] = None

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.first_hashes: Optional[List[str]] = None
        self.kept_dir: Optional[pathlib.Path] = None
        self.n_dirs = 0

    def before_op(self, index):
        self.n_dirs += 1
        self.dir = self.tmp / "ops" / str(self.n_dirs)
        self.dir.mkdir(parents=True)

    def op(self, index):
        return run_grid(grid_spec(self.seed), self.dir / "cache", executor=self.executor)

    def after_op(self, index, output):
        extra = {
            "cache_errors": output.stats.errors
            + sum(s.errors for s in (output.section_stats or {}).values()),
            "sweep_failures": len(output.failures),
            "sweep_rebuilds": output.n_rebuilds,
            "store_tables": count_files(self.dir / "home-cache" / "store" / "tables"),
        }
        problems = grid_problems(output, self.n_cells)
        if not problems:
            hashes = [result_hash(r) for r in output.results]
            if self.first_hashes is None:
                self.first_hashes = hashes
            problems = compare_hashes(f"op {index} vs the first op", hashes,
                                      self.first_hashes)
        if self.kept_dir is None and not problems:
            self.kept_dir = self.dir / "cache"
        else:
            shutil.rmtree(self.dir, ignore_errors=True)
        return OpOutcome(len(output.results), problems, extra)

    def grid_hashes(self, leg: str, executor=None) -> List[str]:
        report = run_grid(grid_spec(self.seed), self.tmp / "legs" / leg / "cache",
                          executor=executor)
        problems = grid_problems(report, GRID_CELLS)
        if problems:
            raise AssertionError("; ".join(problems))
        return [result_hash(r) for r in report.results]

    def rerun_text_hashes(self) -> List[str]:
        target = self.tmp / "legs" / "rerun"
        shutil.copytree(self.kept_dir, target)
        report = run_grid(rerun_spec(self.seed), target)
        problems = grid_problems(report, GRID_CELLS * len(RENDERERS))
        if problems:
            raise AssertionError("; ".join(problems))
        return [result_hash(r) for r in report.results[:: len(RENDERERS)]]

    def own_grid_hashes(self) -> List[str]:
        """This workload's hashes of the 8 grid cells."""
        return self.first_hashes

    def legs(self) -> Dict[str, List[str]]:
        """The per-cell hashes of the other paths this run computes.

        ``grid-cold`` runs both other paths, so every ``grid-cold`` run
        checks all three; ``grid-pool`` and ``grid-rerun`` run the one
        other path that costs them little (the serial grid costs a
        ``grid-pool`` run as much as its timed ops).
        """
        raise NotImplementedError

    def final_checks(self):
        """The grid check: the paths give the same 8 cell hashes."""
        if self.first_hashes is None:
            return [f"{self.name}: no op finished cleanly"]
        own = self.own_grid_hashes()
        problems = []
        for label, hashes in self.legs().items():
            problems.extend(compare_hashes(f"{label} vs {self.name}", hashes, own))
        return problems


class GridColdWorkload(_GridWorkload):
    """One serial sweep of the 8-cell grid into an empty cache per op."""

    name = "grid-cold"

    def legs(self):
        return {
            "grid-pool": self.grid_hashes("pool", "shared"),
            "grid-rerun text cells": self.rerun_text_hashes(),
        }


class GridPoolWorkload(_GridWorkload):
    """The 8-cell grid through the ``shared`` executor; every op starts
    with an empty cache and an empty trace/table store."""

    name = "grid-pool"
    executor = "shared"

    def legs(self):
        return {"grid-rerun text cells": self.rerun_text_hashes()}


class GridRerunWorkload(_GridWorkload):
    """Grid x renderer over a copy of a computed 8-cell fixture cache."""

    name = "grid-rerun"
    n_cells = GRID_CELLS * len(RENDERERS)
    # The first ops of a process run up to a fifth slower (a growing
    # heap, cold file metadata); ops are cheap, so settle them first.
    warmup_ops = 10

    def prepare(self):
        # The fixture is computed in a child process, so its memory does
        # not count in this process's peak RSS.
        self.fixture = self.tmp / "fixture"
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "grid",
             "--seed", str(self.seed), "--cache-dir", str(self.fixture)],
            stdout=subprocess.PIPE, check=True, text=True, timeout=170,
        )
        self.fixture_hashes = json.loads(done.stdout.splitlines()[-1])["hashes"]

    def before_op(self, index):
        super().before_op(index)
        shutil.copytree(self.fixture, self.dir / "cache")

    def op(self, index):
        return run_grid(rerun_spec(self.seed), self.dir / "cache")

    def own_grid_hashes(self):
        return self.first_hashes[:: len(RENDERERS)]

    def legs(self):
        return {"grid-cold fixture": self.fixture_hashes}

    def final_checks(self):
        problems = super().final_checks()
        if self.first_hashes is not None:
            # One renderer-flipped cell (grid cell 0 with the json
            # renderer), recomputed with no cache at all.
            from repro import Scenario

            cell = dict(canonical_knobs(self.seed), system="frontier", pue=1.1,
                        lifetime_years=4, renderer="json")
            if result_hash(Scenario.from_spec(cell).build().run()) != self.first_hashes[1]:
                problems.append("renderer-flipped cell recomputed without cache differs")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (ScenarioWorkload, GridColdWorkload, GridPoolWorkload, GridRerunWorkload)
}
