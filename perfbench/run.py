"""The repository's benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-repeat --seed 1 --seconds 10 --trace 0

A run builds its inputs from ``--seed``, times a fresh set-up several
times, replays a fixed request list sized by ``--seconds`` with one
closed-loop client, then checks every reply outside the timed phase.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Times are scaled to reference speed by a
calibration loop read before each request (see ``harness``); the line
before the JSON gives the raw wall-clock figures.  A traced run replays
the request list once untraced and once traced; the difference is the
tracing overhead.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Environment the program reads at session construction, pinned so a
#: shell's settings cannot change what a run measures.
PINNED = {
    "REPRO_EXEC_WORKERS": "1",
    "REPRO_PREPARE_MODE": "eager",
    "REPRO_ARTIFACT_DIR": "",
}
HASH_SEED = "0"
ENGINES = {
    "plan-repeat": "vector",
    "plan-adhoc": "vector",
    "exec-numpy": "numpy",
    "exec-vector": "vector",
}


def _arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ENGINES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans",
        type=Path,
        default=None,
        help="where a traced run writes its spans (JSON lines); default "
        "perfbench/out/spans-<workload>-<seed>.jsonl",
    )
    return parser.parse_args(argv)


def _workload(name: str, seed: int, seconds: float):
    if name == "plan-repeat":
        from plan_load import PlanRepeat

        return PlanRepeat(seed, seconds)
    if name == "plan-adhoc":
        from plan_load import PlanAdhoc

        return PlanAdhoc(seed, seconds)
    from exec_load import ExecWorkload

    return ExecWorkload(name, seed, seconds)


def _cache_counters(before, after) -> dict[str, int]:
    """Session cache counters over one pass, from two statistics snapshots."""
    return {
        "session.plan_cache_hits": after.plans.hits - before.plans.hits,
        "session.plan_cache_misses": after.plans.misses - before.plans.misses,
        "session.prepared_cache_hits": after.prepared.hits - before.prepared.hits,
        "session.prepared_cache_misses": after.prepared.misses
        - before.prepared.misses,
        "session.prepared_cache_evictions": after.prepared.evictions
        - before.prepared.evictions,
    }


def _where_percentiles(requests, measured) -> list[str]:
    """Per-template latency medians and shares, the middle half of the
    ranks its requests take among all sorted latencies, and the template
    each reported percentile falls in."""
    from harness import percentile

    latencies_ms = measured.calibrated_ms
    by_template: dict[str, list[float]] = {}
    for request, latency in zip(requests, latencies_ms):
        by_template.setdefault(request.template, []).append(latency)
    total = len(latencies_ms)
    ranked = sorted(zip(latencies_ms, (r.template for r in requests)))
    lines = ["template            share   median_ms  middle half of ranks"]
    for template, latencies in sorted(
        by_template.items(), key=lambda item: statistics.median(item[1])
    ):
        ranks = [i for i, (_, t) in enumerate(ranked) if t == template]
        lines.append(
            f"{template:18s} {100 * len(latencies) / total:5.1f}%  "
            f"{statistics.median(latencies):9.2f}  "
            f"{100 * ranks[len(ranks) // 4] / total:5.1f}%.."
            f"{100 * ranks[3 * len(ranks) // 4] / total:5.1f}%"
        )
    for q in (50, 90):
        index = round(q / 100 * (total - 1))
        lines.append(
            f"p{q} = {percentile(latencies_ms, q):.2f} ms falls in "
            f"{ranked[index][1]} (rank {100 * index / total:.1f}%)"
        )
    return lines


def main(argv: list[str]) -> int:
    args = _arguments(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, and the dict and set layouts
        # it yields move the planner's speed by several percent from one
        # process to the next.  Restart this process once with a fixed salt.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv])
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    os.environ["REPRO_EXEC_ENGINE"] = ENGINES[args.workload]
    sys.path.insert(0, str(SOURCE))

    from harness import end_to_end, median_setup, percentile, timed_pass
    from tracing import Tracer, layer_metrics, layer_spans

    workload = _workload(args.workload, args.seed, args.seconds)
    tracer = Tracer()
    traced_phase = (lambda: layer_spans(tracer)) if args.trace else nullcontext
    with traced_phase():
        tracer.enabled = bool(args.trace)
        setup_s, state, setup_slowdown = median_setup(lambda: workload.setup(tracer))
        tracer.enabled = False

    requests = workload.requests(0)
    measured = timed_pass(requests, workload.sender(state), keep=workload.keep)
    metrics = end_to_end(measured, setup_s)
    print(
        f"wall clock: {measured.requests_per_s:.3f} requests/s, "
        f"p50 {percentile(measured.latencies_ms, 50):.3f} ms, "
        f"p90 {percentile(measured.latencies_ms, 90):.3f} ms; "
        f"median slowdown {statistics.median(measured.slowdowns):.3f} "
        f"(set-up {setup_slowdown:.3f})"
    )
    workload.verify_setup(state)
    errors, wrong = workload.check(state, requests, measured.outcomes)
    attempted = len(requests)

    if args.trace:
        traced_requests = workload.requests(1)
        before = workload.statistics(state)

        def tag(index: int) -> None:
            tracer.request = index

        with traced_phase():
            tracer.enabled = True
            traced = timed_pass(
                traced_requests,
                tracer.traced_request(workload.sender(state)),
                keep=workload.keep,
                on_request=tag,
            )
            tracer.enabled = False
        counters = _cache_counters(before, workload.statistics(state))
        more_errors, more_wrong = workload.check(
            state, traced_requests, traced.outcomes
        )
        errors += more_errors
        wrong += more_wrong
        attempted += len(traced_requests)
        overhead_pct = 100.0 * (
            statistics.mean(traced.calibrated_ms)
            / statistics.mean(measured.calibrated_ms)
            - 1.0
        )
        metrics = layer_metrics(
            tracer.spans, traced.slowdowns, setup_slowdown, counters, overhead_pct
        )
        spans_path = args.spans or (
            HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        )
        tracer.write(spans_path)
        for line in _where_percentiles(requests, measured):
            print(line)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
        for name, metric in metrics.items():
            print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
    if hasattr(state, "close"):
        state.close()

    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": attempted,
                "failed": errors + wrong,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
