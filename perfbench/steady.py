"""Steadiness check: do two sets of runs of the same code agree?

Usage (from the repository root)::

    python3 perfbench/steady.py                       # every workload, 2 x 10 runs
    python3 perfbench/steady.py --workloads plan-repeat --runs 5 --sets 1

Each run is ``perfbench/run.py --trace 0`` with its own seed; the sets use
different seeds.  For every end-to-end metric of ``BENCHMARK.json`` the
tool prints each set's median and quartiles and its spread (interquartile
range over median).  The sets agree when

* every spread except ``setup_s``'s is within the metric's bound,
* for every metric, the second median is not worse than the first by more
  than the bound, and
* the share of failed requests is exactly the same in both sets.

Exit status 0 means they agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
        help="comma-separated workload names (default: all)",
    )
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    agree = True
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            results = []
            for run in range(args.runs):
                seed = args.first_seed + 1000 * set_index + run
                result = run_once(workload, seed, args.seconds)
                results.append(result)
                print(
                    f"{workload} set {set_index + 1} seed {seed}: "
                    + ", ".join(
                        f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                        for m in metrics
                    ),
                    flush=True,
                )
            sets.append(results)

        print(f"\n== {workload}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            summaries = [
                summary([r["metrics"][name]["value"] for r in results])
                for results in sets
            ]
            for index, (median, q1, q3, spread) in enumerate(summaries):
                ok = name == "setup_s" or spread <= bound
                agree &= ok
                print(
                    f"  {name:16s} set {index + 1}: median {median:.4g} "
                    f"[q1 {q1:.4g}, q3 {q3:.4g}] spread {100 * spread:.1f}% "
                    f"(bound {100 * bound:.0f}%){'' if ok else '  TOO WIDE'}"
                )
            if len(summaries) == 2:
                first, second = summaries[0][0], summaries[1][0]
                change = (second - first) / first
                worse = change if metric["better"] == "lower" else -change
                ok = worse <= bound
                agree &= ok
                print(
                    f"  {name:16s} second vs first median: {100 * change:+.1f}%"
                    f"{'' if ok else '  WORSE THAN BOUND'}"
                )
        shares = {
            (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
            for results in sets
        }
        shares_equal = len({failed / attempted for failed, attempted in shares}) == 1
        agree &= shares_equal
        print(
            f"  failed/attempted per set: {sorted(shares)}"
            f"{'' if shares_equal else '  SHARES DIFFER'}"
        )
        correct = all(r["correct"] for results in sets for r in results)
        agree &= correct
        print(f"  every run correct: {correct}")
    print("\nsets agree" if agree else "\nsets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
