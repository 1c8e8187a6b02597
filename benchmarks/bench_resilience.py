"""Resilience benchmarks: the fault-tolerance machinery must be ~free.

Every sweep runs its units through the executor engines' attempt loop
(:mod:`repro.session.executors`), which buys isolation, retries, and
checkpointing — but a *fault-free* run must not pay for faults that
never happen.  Two pins:

1. *Retry-budget overhead* — wall-time of the canonical 8-cell grid
   with no resilience knob (the plain leg: the same engine with zero
   retries and no faults) vs with a retry budget and no faults, as the
   median per-round ratio of interleaved passes.  The committed
   baseline pins the overhead under 5%; the quick-mode floor is looser
   for CI noise on tiny absolute times.
2. *Resume skip-through* — a run whose journal already holds every
   fingerprint must retire the whole grid without recomputing a cell,
   far faster than computing it.

``python benchmarks/bench_resilience.py --write`` records the numbers
to ``BENCH_resilience.json`` at the repo root; the committed file is
the perf baseline future PRs regress against (see ROADMAP's
BENCH_*.json convention).
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_resilience.json"

#: The committed-baseline pin: fault-free wrapper overhead under 5%.
OVERHEAD_PCT_PIN = 5.0

#: Quick-mode (CI smoke) tolerance: absolute times are small and the
#: runners are noisy, so only a gross wrapper cost fails the job.
OVERHEAD_PCT_QUICK_FLOOR = 30.0

#: Resume must retire a fully-journaled grid at least this much faster
#: than computing it (it runs zero cells; this is pure bookkeeping).
RESUME_SPEEDUP_FLOOR = 10.0

#: A "hard regression" vs the committed baseline (CI machines vary).
BASELINE_FRACTION = 0.15

#: The canonical grid (bench_sweep's, for comparability with PR 6).
_GRID_SPEC = {
    "name": "bench",
    "base": {
        "node": "V100",
        "region": "ESO",
        "seed": 7,
        "workload_opts": {"horizon_h": 48.0, "total_gpus": 8},
    },
    "axes": {
        "system": ["frontier", "perlmutter"],
        "policy": ["carbon-oblivious", "temporal+geographic"],
        "workload": ["synthetic", "diurnal"],
    },
}

#: Interleaved plain/retry rounds of the overhead pin.  One pass of the
#: memo-warm grid takes ~0.03 s, so a single pair is noise-bound; the
#: median of many per-round ratios is not.
_ROUNDS = 41


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_retry_overhead() -> dict:
    """Fault-free grid: no resilience knob vs a one-retry budget.

    The two legs alternate within each of ``_ROUNDS`` rounds (their
    order flips every round, so neither leg always runs second), and the
    overhead is the median of the per-round ``retry / plain`` ratios:
    drift on a shared machine moves both legs of a round together.
    """
    import statistics

    from repro.sweep import SweepService

    service = SweepService(cache=False)
    service.run(_GRID_SPEC)  # warm the trace memos (untimed)

    def plain():
        service.run(_GRID_SPEC)

    def resilient():
        service.run(_GRID_SPEC, retry=1)

    plain_times, resilient_times, ratios = [], [], []
    for round_index in range(_ROUNDS):
        if round_index % 2:
            resilient_s = _timed(resilient)
            plain_s = _timed(plain)
        else:
            plain_s = _timed(plain)
            resilient_s = _timed(resilient)
        plain_times.append(plain_s)
        resilient_times.append(resilient_s)
        ratios.append(resilient_s / plain_s)
    return {
        "n_cells": len(_GRID_SPEC["axes"]["system"])
        * len(_GRID_SPEC["axes"]["policy"])
        * len(_GRID_SPEC["axes"]["workload"]),
        "rounds": _ROUNDS,
        "plain_s": statistics.median(plain_times),
        "resilient_s": statistics.median(resilient_times),
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }


def bench_resume_skip() -> dict:
    """A fully-journaled grid resumes without recomputing any cell.

    The trace and window-table memos are emptied first, so the compute
    leg computes every cell from scratch even after an earlier
    benchmark in the same process ran the grid.
    """
    from repro.intensity import table_cache_clear, trace_cache_clear
    from repro.sweep import SweepService

    trace_cache_clear()
    table_cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        journal = pathlib.Path(tmp) / "journal.jsonl"
        service = SweepService(cache=False)
        t0 = time.perf_counter()
        first = service.run(_GRID_SPEC, journal=journal)
        compute_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        resumed = service.run(_GRID_SPEC, resume=journal)
        resume_s = time.perf_counter() - t0

    return {
        "compute_s": compute_s,
        "resume_s": resume_s,
        "speedup": compute_s / resume_s,
        "first_ran": first.n_ran,
        "resume_ran": resumed.n_ran,
        "resume_skipped": resumed.n_skipped,
    }


def collect() -> dict:
    return {
        "schema": 1,
        "retry_overhead": bench_retry_overhead(),
        "resume_skip": bench_resume_skip(),
        "python": sys.version.split()[0],
    }


# --- pytest entry points ----------------------------------------------------
def test_fault_free_wrapper_overhead_is_small():
    """The PR 7 acceptance pin, at quick-mode (CI noise) tolerance."""
    stats = bench_retry_overhead()
    assert stats["overhead_pct"] <= OVERHEAD_PCT_QUICK_FLOOR, (
        f"fault-free resilient run costs {stats['overhead_pct']:.1f}% over "
        f"the plain run (quick floor {OVERHEAD_PCT_QUICK_FLOOR:.0f}%): "
        f"plain {stats['plain_s']:.2f}s, resilient {stats['resilient_s']:.2f}s"
    )
    print(
        f"\nretry wrapper: plain {stats['plain_s']:.2f}s -> resilient "
        f"{stats['resilient_s']:.2f}s ({stats['overhead_pct']:+.1f}%)"
    )


def test_resume_retires_the_grid_without_recomputation():
    stats = bench_resume_skip()
    assert stats["resume_ran"] == 0
    assert stats["resume_skipped"] == stats["first_ran"]
    assert stats["speedup"] >= RESUME_SPEEDUP_FLOOR, (
        f"resume only {stats['speedup']:.1f}x faster than computing "
        f"(floor {RESUME_SPEEDUP_FLOOR:.0f}x): compute "
        f"{stats['compute_s']:.2f}s, resume {stats['resume_s']:.3f}s"
    )
    print(
        f"\nresume skip: compute {stats['compute_s']:.2f}s -> resume "
        f"{stats['resume_s'] * 1e3:.0f}ms ({stats['speedup']:.0f}x)"
    )


def test_no_hard_regression_vs_baseline():
    """The committed BENCH_resilience.json is the perf floor."""
    if not BASELINE_PATH.exists():
        import pytest

        pytest.skip("no committed BENCH_resilience.json baseline")
    baseline = json.loads(BASELINE_PATH.read_text())
    # The committed pin itself: the recorded overhead must honor <5%.
    assert baseline["retry_overhead"]["overhead_pct"] < OVERHEAD_PCT_PIN, (
        "the committed baseline violates the <5% wrapper-overhead pin; "
        "re-measure on a quiet machine before committing"
    )
    current = bench_resume_skip()
    floor = baseline["resume_skip"]["speedup"] * BASELINE_FRACTION
    assert current["speedup"] >= floor, (
        f"resume speedup {current['speedup']:.1f}x fell below "
        f"{BASELINE_FRACTION:.0%} of the committed baseline "
        f"({baseline['resume_skip']['speedup']:.1f}x)"
    )


if __name__ == "__main__":
    stats = collect()
    print(json.dumps(stats, indent=2))
    if "--write" in sys.argv:
        BASELINE_PATH.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
