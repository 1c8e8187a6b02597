"""End-to-end benchmark of scenarios and sweeps, with a traced per-layer pass.

    python3 perfbench/run.py --workload scenario --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (see README.md): ``scenario``, ``grid-cold``, ``grid-pool``,
``grid-rerun``; ``all`` runs each in a fresh process and prints them
together.  Each run is one closed-loop client: the next op starts when
the previous one has returned and been checked.

``--trace 0`` times ops with the layer wrappers counting only and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced ops (two passes over the same ops), checks that both passes did
the same work, and reports the per-layer metrics.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Everything the run writes stays under the checkout: a sandbox
``.perfbench_tmp/`` (removed at exit) holds ``HOME``,
``REPRO_HPC_CACHE_DIR`` and every cache and store directory, and traced
runs leave their spans in ``.perfbench_out/``.
"""

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import site  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPS = 3

#: ``op_tail_s`` is the p90 op time, printed once a run has 10 ops beyond it.
TAIL_PERCENTILE = 90
TAIL_MIN_OPS = 100

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def enter_sandbox() -> pathlib.Path:
    """Point HOME, the cache and temp files into a fresh sandbox directory."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    sandbox = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))
    for sub in ("home", "tmp"):
        (sandbox / sub).mkdir()
    # Keep user-site packages importable in children once HOME moves.
    os.environ.setdefault("PYTHONUSERBASE", site.getuserbase())
    os.environ["HOME"] = str(sandbox / "home")
    os.environ["TMPDIR"] = str(sandbox / "tmp")
    os.environ["REPRO_HPC_CACHE_DIR"] = str(sandbox / "default-cache")
    tempfile.tempdir = None
    return sandbox


def leave_sandbox(sandbox: pathlib.Path) -> None:
    shutil.rmtree(sandbox, ignore_errors=True)
    try:
        sandbox.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass


def sandbox_problems(sandbox: pathlib.Path):
    """The default cache locations must never have been written."""
    problems = []
    for path in (sandbox / "home" / ".cache" / "repro-hpc", sandbox / "default-cache"):
        if path.exists():
            problems.append(f"the run wrote under the default cache location {path.name}")
    return problems


def measure_setup(seed: int):
    """``SETUP_REPS`` fresh interpreters, each timed from launch until it
    reports its first built Session; returns the medians of the split."""
    walls, splits = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "setup", "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        walls.append(time.perf_counter() - start)
        child.stdout.close()
        if child.wait(timeout=60) != 0 or not line:
            raise RuntimeError("the set-up probe failed")
        splits.append(json.loads(line))
    medians = {f"setup.{key}": statistics.median(s[key] for s in splits)
               for key in splits[0]}
    medians["setup_s"] = statistics.median(walls)
    return medians


def run_ops(workload, tracer, seconds: float, modes, min_ops: int):
    """Closed-loop ops for ``seconds`` of wall time, at least ``min_ops``.

    Op ``k`` runs traced if ``modes[k % len(modes)]`` is true, as op
    ``k // len(modes)`` of its pass; alternating the passes op by op
    keeps slow drift of the machine out of their comparison.  Returns
    one result per pass, in the order of ``modes``.
    """
    passes = [{"times": [], "cells": [], "counts": [], "failed": 0} for _ in modes]
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_ops or time.perf_counter() < deadline:
        index, which = divmod(k, len(modes))
        result = passes[which]
        tracer.timing = modes[which]
        workload.before_op(index)
        tracer.begin_op(f"op:{workload.name}")
        start = time.perf_counter()
        try:
            output, error = workload.op(index), None
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = None, exc
        elapsed = time.perf_counter() - start
        op_counts = tracer.end_op()
        if error is None:
            outcome = workload.after_op(index, output)
            problems, n_cells = outcome.problems, outcome.cells
            op_counts.update({f"program.{key}": v for key, v in outcome.extra.items()})
        else:
            problems, n_cells = [f"raised {type(error).__name__}: {error}"], 0
        op_counts["work.cells"] = n_cells
        if problems:
            result["failed"] += 1
            print(f"op {index} failed: {'; '.join(problems[:3])}", file=sys.stderr)
        result["times"].append(elapsed)
        result["cells"].append(n_cells)
        result["counts"].append(op_counts)
        k += 1
    return passes


def tail(times):
    """``(percentile, seconds)`` once the run has 10 ops beyond it, else None."""
    if len(times) < TAIL_MIN_OPS:
        return None
    return TAIL_PERCENTILE, statistics.quantiles(times, n=100)[TAIL_PERCENTILE - 1]


def run_one(args) -> int:
    from ops import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    sandbox = enter_sandbox()
    try:
        return measure(args, WORKLOADS[args.workload], sandbox)
    finally:
        leave_sandbox(sandbox)


def measure(args, workload_cls, sandbox) -> int:
    origin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import layers
    import ops

    # Importing here first also leaves compiled bytecode for the probes.
    layers.install(tracer := layers.Tracer())
    setup = measure_setup(args.seed)
    ops.canonical(args.seed).build()  # this process's own set-up
    workload = workload_cls(args.seed, sandbox)
    workload.prepare()

    warmup = run_ops(workload, tracer, 0.0, [False], min_ops=workload.warmup_ops)
    modes = [False, True] if args.trace else [False]
    passes = run_ops(workload, tracer, args.seconds, modes, min_ops=len(modes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems = workload.final_checks()
    except Exception as exc:  # a failing check is a result, not a crash
        problems = [f"run-level checks raised {type(exc).__name__}: {exc}"]
    problems += sandbox_problems(sandbox)
    if warmup[0]["failed"]:
        problems.append(f"{warmup[0]['failed']} warm-up ops failed")
    if args.trace:
        problems += layers.agreement_problems(*(p["counts"] for p in passes))
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = passes[0]
    e2e = {
        "setup_s": setup["setup_s"],
        "op_p50_s": statistics.median(untraced["times"]),
        "cells_per_s": sum(untraced["cells"]) / sum(untraced["times"]),
        "peak_rss_mb": peak_rss_mb,
    }
    print_summary(workload.name, args.seed, untraced, e2e, failed, attempted,
                  layers.describe_counts(untraced["counts"]))

    if args.trace:
        traced = passes[1]
        metrics = layers.layer_metrics(traced["counts"], tracer.spans)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced["times"]) / e2e["op_p50_s"] - 1.0
        )
        metrics.update({k: v for k, v in setup.items() if k.startswith("setup.")})
        spans_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-s{args.seed}.jsonl"
        tracer.write_jsonl(spans_path, origin)
        print(f"  traced pass: {len(traced['times'])} ops, spans in "
              f"{spans_path.relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"  {name:<40} {value:14.6g}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, units = e2e, E2E_UNITS
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_summary(name, seed, untraced, e2e, failed, attempted, work) -> None:
    """Every end-to-end metric by name and unit, plus the printed-only ones."""
    times = untraced["times"]
    print(f"workload {name}, seed {seed}: {len(times)} ops in {sum(times):.1f} s "
          f"timed, {failed} of {attempted} ops failed")
    for metric, value in e2e.items():
        print(f"  {metric:<16} {value:12.4f} {E2E_UNITS[metric]}")
    tail_value = tail(times)
    if tail_value:
        print(f"  {'op_tail_s':<16} {tail_value[1]:12.4f} s  "
              f"(p{tail_value[0]} of {len(times)} ops)")
    else:
        print(f"  {'op_tail_s':<16} {'-':>12}    (fewer than {TAIL_MIN_OPS} ops)")
    print(f"  {'failed_ops_frac':<16} {failed / attempted:12.4f}")
    print(f"  work per op: {work}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_per_cell")):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined JSON line."""
    from ops import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC.relative_to(ROOT)}/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
