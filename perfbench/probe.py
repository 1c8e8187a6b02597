"""Child-process probes of the benchmark, each in a fresh interpreter.

``probe.py setup --seed S`` times what a new process pays before its
first scenario: ``import repro``, the backend registry load, the first
trace generation for seed ``S``, and building ``C`` at ``S``.  It prints
one JSON line of the split as soon as the Session is built.

``probe.py grid --seed S --cache-dir DIR`` runs the 8-cell grid
serially into ``DIR`` (the ``grid-rerun`` fixture) and prints one JSON
line with the sha256 of every cell, computed from the live results.

``run.py`` starts both with the environment it set up (thread pools
pinned to 1, ``HOME`` and ``REPRO_HPC_CACHE_DIR`` inside its sandbox).
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402  (stdlib only at import time)


def setup(seed: int) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401

    t1 = time.perf_counter()
    from repro.session.registry import ensure_default_backends

    ensure_default_backends()
    t2 = time.perf_counter()
    from repro.intensity.generator import generate_all_traces

    generate_all_traces(seed=seed)
    t3 = time.perf_counter()
    ops.canonical(seed).build()
    t4 = time.perf_counter()
    return {
        "interpreter_s": t0 - START,
        "import_s": t1 - t0,
        "registry_s": t2 - t1,
        "first_traces_s": t3 - t2,
        "build_s": t4 - t3,
    }


def grid(seed: int, cache_dir: str) -> dict:
    report = ops.run_grid(ops.grid_spec(seed), pathlib.Path(cache_dir))
    problems = ops.grid_problems(report, ops.GRID_CELLS)
    if problems:
        raise SystemExit("fixture grid failed: " + "; ".join(problems))
    return {"hashes": [ops.result_hash(r) for r in report.results]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir")
    args = parser.parse_args()
    if args.mode == "setup":
        out = setup(args.seed)
    else:
        out = grid(args.seed, args.cache_dir)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
