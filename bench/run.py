"""Benchmark of the cbss package: one workload per process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

The package is imported from ``src/`` next to this directory.  A run sets
up its inputs from --seed (several times; set-up time is the median), then
repeats whole rounds of the workload's operations until --seconds have
passed, checks every round's outputs, and prints one JSON object as its
last line of stdout.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it traces every round and reports the per-layer metrics
(see tracer.py).  `--workload all` runs each workload in its own process
and prints a table.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep", "separate_long", "evaluate")
SETUP_REPEATS = 5
# BLAS/LAPACK threads (the projector's dense solves); must be set before numpy loads.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import cbss from this checkout's src/, never from anywhere else."""
    if not (SRC / "cbss" / "__init__.py").is_file():
        raise SystemExit(f"error: no cbss package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import cbss

    if Path(cbss.__file__).resolve().parent != SRC / "cbss":
        raise SystemExit(f"error: imported cbss from {cbss.__file__}, not {SRC}")
    from cbss import cli, jointdiag, pipeline, roomsim

    import tracer
    import workloads

    modules = {
        "cli": cli,
        "pipeline": pipeline,
        "jointdiag": jointdiag,
        "roomsim": roomsim,
        "workloads": workloads,
    }
    return workloads, tracer, modules


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the package."""
    code = "import time; t = time.perf_counter(); import cbss.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE,
            text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_workload(args) -> dict:
    workloads, tracing, modules = import_package()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _measure(args, workloads, tracing, modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workloads, tracing, modules, workdir) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None

    def traced(phase: str):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.phase = phase
        return tracer.installed(modules)

    setup_s = []
    for k in range(SETUP_REPEATS):
        with traced(f"setup{k}"):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)

    attempted = 0
    incorrect = 0
    failures: list[str] = []
    round_s: list[float] = []
    started = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - started < args.seconds:
        with traced(f"round{k}"):
            t0 = time.perf_counter()
            try:
                raw = workload.run(k)
            except Exception as exc:  # noqa: BLE001 - counted as failed operations
                raw = exc
            round_s.append(time.perf_counter() - t0)
        attempted += workload.ops_per_round
        messages, checked = _check(workload, raw)
        failures.extend(messages)
        if checked:
            incorrect += sum(not isinstance(m, workloads.KnownFault) for m in messages)
        del raw  # so a round's outputs do not add to the next round's peak memory
        k += 1

    print(f"{args.workload}: rounds (s): {[round(t, 3) for t in round_s]}", file=sys.stderr)
    for message in failures:
        known = " (known fault)" if isinstance(message, workloads.KnownFault) else ""
        print(f"{args.workload}: failed{known}: {message}", file=sys.stderr)
    # An operation fails when it raises, exits non-zero or fails its checks;
    # only a failed check that is not a known fault makes the run incorrect.
    result = {"correct": incorrect == 0, "attempted": attempted, "failed": len(failures), "metrics": {}}
    if tracer is not None:
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.json")
        metrics = tracing.layer_metrics(
            tracer, [f"setup{i}" for i in range(SETUP_REPEATS)], [f"round{i}" for i in range(k)], round_s
        )
        result["metrics"] = {
            name: {"value": value, "unit": tracing.UNITS[name]} for name, value in metrics.items()
        }
        return result

    peak_mb = tracing.max_rss_kb() / 1024.0
    try:
        stage1_sir, final_sir = workload.quality()
    except Exception as exc:  # noqa: BLE001 - no outputs left to score
        print(f"{args.workload}: scoring failed: {exc}", file=sys.stderr)
        stage1_sir = final_sir = 0.0
        result["correct"] = False
    result["metrics"] = {
        "wall_s": {"value": statistics.median(round_s), "unit": "s"},
        "setup_s": {"value": import_seconds() + statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "stage1_sir_db": {"value": stage1_sir, "unit": "dB"},
        "final_sir_db": {"value": final_sir, "unit": "dB"},
    }
    return result


def _check(workload, raw) -> tuple[list[str], bool]:
    """Failure messages of one round, and whether they come from checks."""
    if isinstance(raw, Exception):
        return [f"{type(raw).__name__}: {raw}"] * workload.ops_per_round, False
    try:
        return [m for m in workload.check(raw) if m is not None], True
    except Exception as exc:  # noqa: BLE001 - unreadable output fails the round
        return [f"{type(exc).__name__}: {exc}"] * workload.ops_per_round, True


def run_all(args) -> dict:
    """Each workload in its own process; prints a table to stderr."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}", file=sys.stderr)
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.4f} {m['unit']}", file=sys.stderr)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
