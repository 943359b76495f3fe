#!/usr/bin/env python3
"""Check that the benchmark is steady on this commit.

    python3 perfbench/steady.py --runs 5 --first-seed 8000

For each workload of BENCHMARK.json it makes two sets of `--runs` untraced
runs of `run_seconds` each, alternating which set runs first, each run with
its own seed. Per end-to-end metric it prints each set's median and
quartiles, the median of all runs, the spread (interquartile range over
median) of each set and of all runs together, and how far the second set's
median is worse than the first's. The two sets agree when every spread and
every such shift stays within the metric's bound in BENCHMARK.json, and the
share of failed requests is the same in every run. The exit code is 0 only
when every workload agrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med)


def compare(name: str, metric: dict, a: list, b: list) -> bool:
    bound = metric["bound"]
    med_a, q1_a, q3_a, s_a = spread(a)
    med_b, q1_b, q3_b, s_b = spread(b)
    med_all, _, _, s_all = spread(a + b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a)
    ok = max(s_a, s_b) <= bound and worse <= bound
    print(f"  {name:22s} A {med_a:10.4g} [{q1_a:.4g}, {q3_a:.4g}]  "
          f"B {med_b:10.4g} [{q1_b:.4g}, {q3_b:.4g}]  all {med_all:10.4g}  "
          f"spread A {s_a:6.2%} B {s_b:6.2%} all {s_all:6.2%}  B worse by {worse:+6.2%}  "
          f"bound {bound:.0%}  {'ok' if ok else 'NOT STEADY'}", flush=True)
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args(argv)

    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = ([], [])
        seed = args.first_seed
        for i in range(args.runs):
            for which in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[which].append(run_once(workload, seed, spec["run_seconds"]))
                seed += 1
        results = sets[0] + sets[1]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct {correct}, "
              f"failed share {sorted(shares)}", flush=True)
        ok = correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ok &= compare(name, metric, [r["metrics"][name]["value"] for r in sets[0]],
                          [r["metrics"][name]["value"] for r in sets[1]])
        steady &= ok
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
