"""Execution workloads: ``OptimizationSession.execute`` on generated data.

The query shapes are 4-relation chain, star and cycle joins, each plain
and grouped, plus TPC-H Q3 and Q10.  Between them the plans use merge and
hash joins, sorts, and stream and hash aggregates.  Every query is
planned during set-up, so timed requests take their plan from the plan
cache and the engine does nearly all the work.

TPC-H Q5 and Q8 are planned by ``plan-repeat`` but not executed here: on
``generate_dataset`` data they return zero rows at every scale tried.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from harness import Request, rounds_for, shuffled_rounds
from oracle import SqliteOracle
from repro.exec import generate_dataset
from repro.exec.data import schema_dtype_hints
from repro.service import OptimizationSession, SessionConfig
from repro.workloads import (
    execution_workload,
    grouped_execution_workload,
    q3_query,
    q10_query,
)

#: Generated shapes: topology -> generator seed (fixes statistics and
#: indexes, hence the plan; the run seed only draws the data).
SHAPES = {"chain": 1, "star": 2, "cycle": 3}


@dataclasses.dataclass(frozen=True)
class Sizing:
    rows_per_table: int
    match_factor: int
    tpch_scale: float


#: Each engine gets data sized so a request costs about the same.
SIZING = {
    "exec-numpy": Sizing(rows_per_table=10_000, match_factor=2, tpch_scale=0.1),
    "exec-vector": Sizing(rows_per_table=1_500, match_factor=2, tpch_scale=0.02),
}

#: Template -> requests per round of 20, per workload.  Chosen from the
#: per-template latency medians so that p50 and p90 each land in the middle
#: of one template's (or one tight group's) share of the sorted latencies;
#: the traced run prints where they fall.
MIX = {
    "exec-numpy": {
        "q3": 2,
        "chain": 2,
        "cycle": 2,
        "cycle-grouped": 2,
        "star": 4,
        "q10": 4,
        "star-grouped": 3,
        "chain-grouped": 1,
    },
    "exec-vector": {
        "star": 2,
        "q3": 2,
        "chain": 6,
        "star-grouped": 6,
        "cycle-grouped": 1,
        "chain-grouped": 1,
        "q10": 1,
        "cycle": 1,
    },
}

#: Requests per second on the reference machine (see ``rounds_for``).
NOMINAL_RATE = {"exec-numpy": 45.0, "exec-vector": 35.0}


@dataclasses.dataclass
class ExecState:
    session: OptimizationSession
    datasets: dict
    first: dict
    """Template -> the result of its first execution (checked by sqlite)."""


def _signature(result) -> tuple:
    """What must repeat exactly across executions of one query on one dataset."""
    stats = result.stats
    operator_rows = sorted(
        (op, entry["rows"]) for op, entry in stats.by_operator().items()
    )
    return result.row_count, stats.sorts, tuple(operator_rows)


class ExecWorkload:
    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.name = name
        self.engine = name.split("-", 1)[1]
        self.seed = seed
        sizing = SIZING[name]
        self.queries: dict[str, tuple] = {}
        for topology, generator_seed in SHAPES.items():
            for suffix, make in (
                ("", execution_workload),
                ("-grouped", grouped_execution_workload),
            ):
                spec, datagen = make(
                    4,
                    sizing.rows_per_table,
                    topology=topology,
                    match_factor=sizing.match_factor,
                    seed=generator_seed,
                )
                self.queries[topology + suffix] = (spec, {**datagen, "seed": seed})
        for label, make in (("q3", q3_query), ("q10", q10_query)):
            self.queries[label] = (make(), {"scale": sizing.tpch_scale, "seed": seed})
        self.mix = MIX[name]
        self.n_rounds = rounds_for(seconds, NOMINAL_RATE[name], sum(self.mix.values()))
        self.oracles: dict[str, SqliteOracle] = {}
        self.reference: dict[str, tuple] = {}

    def setup(self, tracer):
        """Generate the data, convert its columns, run every query once."""
        session = OptimizationSession(None, config=SessionConfig())
        datasets = {}
        first = {}
        for label, (spec, datagen) in self.queries.items():
            yield
            with tracer.span("data.generate"):
                dataset = generate_dataset(spec, **datagen)
            if self.engine == "numpy":
                for ref in spec.relations:
                    with tracer.span("data.array_batch"):
                        hints = schema_dtype_hints(spec, ref.alias)
                        dataset.array_batch(ref.alias, hints)
            datasets[label] = dataset
            first[label] = session.execute(spec, data=dataset)
        return ExecState(session, datasets, first)

    def verify_setup(self, state: ExecState) -> None:
        """Check every first execution against sqlite; keep the references."""
        for label, (spec, _) in self.queries.items():
            oracle = SqliteOracle(spec, state.datasets[label])
            self.oracles[label] = oracle
            result = state.first[label]
            self.reference[label] = (
                _signature(result) if oracle.agrees(result) else None
            )
        state.first.clear()

    def requests(self, pass_index: int) -> list[Request]:
        return [
            Request(label, label)
            for label in shuffled_rounds(self.mix, self.n_rounds, self.seed, pass_index)
        ]

    def sender(self, state: ExecState) -> Callable:
        last = self.last = {}

        def send(request: Request):
            spec, _ = self.queries[request.template]
            try:
                dataset = state.datasets[request.template]
                result = state.session.execute(spec, data=dataset)
            except Exception as error:  # counted as a failed request
                return error
            last[request.template] = result
            return result

        return send

    @staticmethod
    def keep(request: Request, reply) -> object:
        return reply if isinstance(reply, Exception) else _signature(reply)

    def check(self, state, requests: list[Request], outcomes: list) -> tuple[int, int]:
        """(errors, wrong answers) among one pass's results.

        Each result must repeat the sqlite-checked first execution of its
        query exactly (rows, sorts and per-operator rows); the last result
        of every query is compared with sqlite's answer in full.
        """
        errors = wrong = 0
        for request, outcome in zip(requests, outcomes):
            if isinstance(outcome, Exception):
                errors += 1
            elif outcome != self.reference[request.template]:
                wrong += 1
        for label, result in self.last.items():
            matched = _signature(result) == self.reference[label]
            if matched and not self.oracles[label].agrees(result):
                wrong += 1
        self.last.clear()
        return errors, wrong

    @staticmethod
    def statistics(state: ExecState):
        return state.session.statistics()
