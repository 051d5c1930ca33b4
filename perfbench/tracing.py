"""Traced mode: spans around the calls into each layer, kept in memory.

The benchmark records spans from its own files.  For the layers the
serving frontend reaches on its own threads (parse and bind, analysis,
preparation, plan generation, reply rendering, the engine's ``execute``),
it wraps the public function at the name the caller looks it up under for
the duration of the traced run, then puts the original back.  Each span
keeps its name, start, end, parent span and request id; one client thread
keeps exactly one request in flight, so every span opened while request
``i`` is outstanding belongs to it, whichever thread opened it.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

#: The layer metrics of a traced run: name -> (unit, better).
PER_LAYER = {
    "sql.parse_bind_ms": ("ms", "lower"),
    "analyzer.analyze_ms": ("ms", "lower"),
    "optimizer.prepare_ms": ("ms", "lower"),
    "optimizer.prepare_calls": ("count", "lower"),
    "optimizer.dfsm_states": ("count", "lower"),
    "plangen.run_ms": ("ms", "lower"),
    "plangen.us_per_plan": ("us", "lower"),
    "plangen.plans_created": ("count", "lower"),
    "plangen.plans_retained": ("count", "lower"),
    "plangen.pairs_visited": ("count", "lower"),
    "plangen.retained_ratio": ("ratio", "lower"),
    "reply.render_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "session.plan_cache_hits": ("count", "higher"),
    "session.plan_cache_misses": ("count", "lower"),
    "session.prepared_cache_hits": ("count", "higher"),
    "session.prepared_cache_misses": ("count", "lower"),
    "session.prepared_cache_evictions": ("count", "lower"),
    "session.execute_overhead_ms": ("ms", "lower"),
    "exec.execute_ms": ("ms", "lower"),
    "exec.input_rows_per_s": ("1/s", "higher"),
    "exec.rows_out": ("count", "lower"),
    "exec.sorts": ("count", "lower"),
    "exec.batches": ("count", "lower"),
    "exec.op.scan.rows": ("count", "lower"),
    "exec.op.index_scan.rows": ("count", "lower"),
    "exec.op.sort.rows": ("count", "lower"),
    "exec.op.merge_join.rows": ("count", "lower"),
    "exec.op.hash_join.rows": ("count", "lower"),
    "exec.op.nl_join.rows": ("count", "lower"),
    "exec.op.stream_aggregate.rows": ("count", "lower"),
    "exec.op.hash_aggregate.rows": ("count", "lower"),
    "data.generate_ms": ("ms", "lower"),
    "data.array_batch_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

OPERATORS = (
    "scan",
    "index_scan",
    "sort",
    "merge_join",
    "hash_join",
    "nl_join",
    "stream_aggregate",
    "hash_aggregate",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: object
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory span recorder; spans are written once, by :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.request: object = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span; the yielded dict becomes its attributes."""
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        request = self.request
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, request, attrs))

    def traced_request(self, call: Callable) -> Callable:
        """``call`` wrapped in a ``request`` span that parents other threads' spans."""

        def run(request):
            with self.span("request"):
                if self.enabled:
                    self._root = self._local.stack[-1]
                try:
                    return call(request)
                finally:
                    self._root = None

        return run

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), default=str) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, result)
            return result

    return traced


def _plangen_counts(attrs: dict, args, result) -> None:
    stats = result.stats
    attrs["plans_created"] = stats.plans_created
    attrs["plans_retained"] = stats.plans_retained
    attrs["pairs_visited"] = stats.pairs_visited


def _prepare_counts(attrs: dict, args, result) -> None:
    attrs["dfsm_states"] = result.tables.states_materialized


def _exec_counts(attrs: dict, args, result) -> None:
    stats = result.stats
    attrs["rows_in"] = args[3].row_count()
    attrs["rows_out"] = result.row_count
    attrs["sorts"] = stats.sorts
    attrs["batches"] = stats.total_batches
    attrs["op_rows"] = {op: entry["rows"] for op, entry in stats.by_operator().items()}


@contextmanager
def layer_spans(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's entry point for the duration of the block."""
    from repro.core.optimizer import OrderOptimizer
    from repro.exec import engine
    from repro.plangen.dp import PlanGenerator
    from repro.service import pool, router

    prepare = OrderOptimizer.__dict__["prepare"].__func__
    patches = [
        (router, "sql_to_query", _wrap(tracer, "sql.parse_bind", router.sql_to_query)),
        (
            pool,
            "analyze_for_config",
            _wrap(tracer, "analyzer.analyze", pool.analyze_for_config),
        ),
        (
            OrderOptimizer,
            "prepare",
            classmethod(_wrap(tracer, "optimizer.prepare", prepare, _prepare_counts)),
        ),
        (
            PlanGenerator,
            "run",
            _wrap(tracer, "plangen.run", PlanGenerator.run, _plangen_counts),
        ),
        (router, "render_plan", _wrap(tracer, "reply.render", router.render_plan)),
    ]
    # NumpyEngine inherits VectorEngine.execute; wrap each definition once.
    for engine_class in (engine.VectorEngine, engine.NumpyEngine):
        if "execute" not in engine_class.__dict__:
            continue
        patches.append(
            (
                engine_class,
                "execute",
                _wrap(
                    tracer,
                    "exec.execute",
                    engine_class.__dict__["execute"],
                    _exec_counts,
                ),
            )
        )
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, replacement in patches:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[Span],
    slowdowns: list[float],
    setup_slowdown: float,
    cache_counters: dict[str, int],
    overhead_pct: float,
) -> dict[str, dict]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``slowdowns[i]`` is the machine slowdown measured next to request ``i``
    of the traced pass; span times are divided by it (set-up spans by
    ``setup_slowdown``), so layer times are at reference speed like the
    end-to-end ones.  Per-request timings are medians over the traced
    pass; counts are totals over that pass.  The ``optimizer.*`` and
    ``data.*`` metrics cover the whole run, set-up included, because on
    the warm workloads those layers work only during set-up.
    """
    by_request: dict[object, list[Span]] = {}
    scaled_ms: dict[int, float] = {}
    for span in spans:
        if isinstance(span.request, int):
            factor = slowdowns[span.request]
            by_request.setdefault(span.request, []).append(span)
        else:
            factor = setup_slowdown
        scaled_ms[span.id] = span.ms / factor

    series: dict[str, list[float]] = {
        key: []
        for key in (
            "sql.parse_bind_ms",
            "analyzer.analyze_ms",
            "plangen.run_ms",
            "plangen.us_per_plan",
            "reply.render_ms",
            "service.overhead_ms",
            "session.execute_overhead_ms",
            "exec.execute_ms",
        )
    }
    totals = {
        "plans_created": 0,
        "plans_retained": 0,
        "pairs_visited": 0,
        "rows_in": 0,
        "rows_out": 0,
        "sorts": 0,
        "batches": 0,
    }
    op_rows = {op: 0 for op in OPERATORS}
    execute_s = 0.0
    for request_spans in by_request.values():
        ms: dict[str, float] = {}
        for span in request_spans:
            ms[span.name] = ms.get(span.name, 0.0) + scaled_ms[span.id]
        runs = {span.id for span in request_spans if span.name == "plangen.run"}
        nested_prepare = sum(
            scaled_ms[span.id]
            for span in request_spans
            if span.name == "optimizer.prepare" and span.parent in runs
        )
        total = ms.get("request", 0.0)
        if "sql.parse_bind" in ms:
            series["sql.parse_bind_ms"].append(ms["sql.parse_bind"])
        if "analyzer.analyze" in ms:
            series["analyzer.analyze_ms"].append(ms["analyzer.analyze"])
        if "reply.render" in ms:
            series["reply.render_ms"].append(ms["reply.render"])
        created = 0
        for span in request_spans:
            if span.name == "plangen.run":
                created += span.attrs["plans_created"]
                for key in ("plans_created", "plans_retained", "pairs_visited"):
                    totals[key] += span.attrs[key]
            elif span.name == "exec.execute":
                for key in ("rows_in", "rows_out", "sorts", "batches"):
                    totals[key] += span.attrs[key]
                for op, rows in span.attrs["op_rows"].items():
                    op_rows[op] = op_rows.get(op, 0) + rows
                execute_s += scaled_ms[span.id] / 1000.0
        if "plangen.run" in ms:
            dp_ms = ms["plangen.run"] - nested_prepare
            series["plangen.run_ms"].append(dp_ms)
            if created:
                series["plangen.us_per_plan"].append(1000.0 * dp_ms / created)
        if "sql.parse_bind" in ms or "plangen.run" in ms:
            layers = sum(
                ms.get(name, 0.0)
                for name in (
                    "sql.parse_bind",
                    "analyzer.analyze",
                    "plangen.run",
                    "reply.render",
                )
            )
            series["service.overhead_ms"].append(total - layers)
        if "exec.execute" in ms:
            series["exec.execute_ms"].append(ms["exec.execute"])
            series["session.execute_overhead_ms"].append(total - ms["exec.execute"])

    prepares = [span for span in spans if span.name == "optimizer.prepare"]
    values: dict[str, float] = {name: _median(series[name]) for name in series}
    values.update(
        {
            "optimizer.prepare_ms": _median([scaled_ms[span.id] for span in prepares]),
            "optimizer.prepare_calls": len(prepares),
            "optimizer.dfsm_states": sum(
                span.attrs["dfsm_states"] for span in prepares
            ),
            "plangen.plans_created": totals["plans_created"],
            "plangen.plans_retained": totals["plans_retained"],
            "plangen.pairs_visited": totals["pairs_visited"],
            "plangen.retained_ratio": (
                totals["plans_retained"] / totals["plans_created"]
                if totals["plans_created"]
                else 0.0
            ),
            "exec.input_rows_per_s": (
                totals["rows_in"] / execute_s if execute_s else 0.0
            ),
            "exec.rows_out": totals["rows_out"],
            "exec.sorts": totals["sorts"],
            "exec.batches": totals["batches"],
            "data.generate_ms": _median(
                [scaled_ms[span.id] for span in spans if span.name == "data.generate"]
            ),
            "data.array_batch_ms": _median(
                [
                    scaled_ms[span.id]
                    for span in spans
                    if span.name == "data.array_batch"
                ]
            ),
            "trace.overhead_pct": overhead_pct,
        }
    )
    for op in OPERATORS:
        values[f"exec.op.{op}.rows"] = op_rows.get(op, 0)
    values.update(cache_counters)
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }
