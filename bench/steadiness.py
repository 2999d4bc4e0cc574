"""Do two sets of benchmark runs of the same code agree?

    python3 bench/steadiness.py

Reads BENCHMARK.json at the repository root and, for every workload, runs
its command once per seed in SEEDS, twice over (two sets), one process at
a time.  For every workload and end-to-end metric it prints each set's
median and quartiles, the spread across the seeds of a set (quartile
distance over the median) and how much worse the second set's median is
than the first's, both as shares to compare with the metric's bound.  The
failed share of operations must be the same in both sets.  All run results
are written to .bench_work/steadiness.json.  Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[list[dict]]] = {name: [] for name in names}
    for s in range(SETS):
        for name in names:
            runs = []
            for seed in SEEDS:
                runs.append(run_once(spec, name, seed))
                print(f"set {s + 1} {name} seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr, flush=True)
            results[name].append(runs)

    out = ROOT / ".bench_work" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")

    ok = True
    print(f"{'workload':14} {'metric':14} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'worse':>7} {'bound':>6}")
    for name in names:
        sets = results[name]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        if len(set(shares)) != 1 or not correct:
            ok = False
        print(f"{name}: failed share per set {shares}, all correct {correct}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                median, q1, q3 = summarize([r["metrics"][key]["value"] for r in runs])
                spread = (q3 - q1) / abs(median)
                medians.append(median)
                worse = ""
                if s == 1:
                    change = (medians[1] - medians[0]) / abs(medians[0])
                    share = change if metric["better"] == "lower" else -change
                    worse = f"{share:7.3f}"
                    ok = ok and share <= bound
                ok = ok and spread <= bound
                print(f"{name:14} {key:14} {median:10.4f} {q1:10.4f} {q3:10.4f} {spread:7.3f} {worse:>7} {bound:6.2f}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
