"""Plan workloads: request lines through ``PoolFrontend.submit``.

``PoolFrontend`` over four shard threads is what ``repro serve`` runs by
default; here it is driven in-process, without the socket.

* ``plan-repeat`` — eight templates in a Zipf-like mix, each request with a
  fresh selection constant: the prepared-state cache hits, the plan cache
  misses, and plan generation does the work.
* ``plan-adhoc`` — every request is a template the process has never
  seen, more of them than the shards' prepared caches hold: preparation
  runs on every request, beside parse/bind, analysis and eviction.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable

from harness import Request, rounds_for, shuffled_rounds
from oracle import SimmenOracle
from repro.catalog.schema import Catalog
from repro.catalog.tpch import tpch_catalog
from repro.core.ordering import Ordering
from repro.query.predicates import EqualsConstant
from repro.service import PoolFrontend, SessionConfig
from repro.workloads import ALL_TPCH_QUERIES, GeneratorConfig, spec_to_sql
from repro.workloads.generator import random_join_query

#: Shard threads of the frontend: the default of ``repro serve``.
SHARDS = 4

#: plan-repeat: template -> requests per round of 40.  The shares follow a
#: Zipf curve (15, 7, 5, 4, 3, 2, 2, 2); ranks are assigned by cost so that,
#: in latency order, q3+q10+cycle6 hold 27.5 % of requests, q5 the next
#: 37.5 % (p50 sits in its middle), grid6+chain8+star7 the next 17.5 %, and
#: q8 the top 17.5 % (p90 sits in its middle).
REPEAT_MIX = {
    "q5": 15,
    "q8": 7,
    "q3": 5,
    "q10": 4,
    "star7": 3,
    "cycle6": 2,
    "grid6": 2,
    "chain8": 2,
}

#: The generated plan-repeat templates: topology, relations, generator seed.
#: Their statistics are fixed, not drawn from the run seed, so every seed
#: plans the same work; the seed drives request order and constants.
GENERATED = {
    "chain8": ("chain", 8, 1),
    "star7": ("star", 7, 2),
    "cycle6": ("cycle", 6, 7),
    "grid6": ("grid", 6, 8),
}

#: plan-adhoc: (relations, topology) -> requests per round of 30.  Shares
#: are 30 / 40 / 30 % for 3 / 4 / 5 relations, so p50 falls among the
#: 4-relation joins and p90 among the 5-relation ones.
ADHOC_MIX = {
    (n, topology): count
    for n, count in ((3, 3), (4, 4), (5, 3))
    for topology in ("chain", "star", "cycle")
}

#: Requests per second each workload sustains on the reference machine;
#: ``--seconds`` times this, in whole rounds, is the fixed work of a run.
NOMINAL_RATE = {"plan-repeat": 20.0, "plan-adhoc": 110.0}


def _with_constant(spec, constant: int):
    """``spec`` with its first selection constant replaced by a fresh one.

    Selectivity estimates do not depend on the value, so every variant of a
    template costs the same to plan; only the plan-cache key changes.
    """
    first, *rest = spec.selections
    if isinstance(first.value, int):
        value: object = constant
    else:
        value = f"{first.value}#{constant}"
    return dataclasses.replace(
        spec, selections=(dataclasses.replace(first, value=value), *rest)
    )


def _generated(topology: str, n: int, seed: int, prefix: str, catalog):
    """A generated join query whose tables are added to ``catalog``."""
    spec = random_join_query(
        GeneratorConfig(
            n_relations=n, topology=topology, seed=seed, relation_prefix=prefix
        )
    )
    for table in spec.catalog:
        catalog.add(table)
    return spec


class PlanWorkload:
    """What both plan workloads share: a frontend, request lines, the Simmen check."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.config = SessionConfig()
        self.oracle = SimmenOracle(catalog, self.config.plangen)
        self.warmup: list[str] = []

    def setup(self, tracer):
        """A fresh frontend, up to its first reply on every warm-up line."""
        yield
        frontend = PoolFrontend(self.catalog, n_shards=SHARDS, config=self.config)
        for index, line in enumerate(self.warmup):
            if index:
                yield
            reply = frontend.ask(line)
            if not reply.ok:
                frontend.close()
                raise RuntimeError(f"set-up request failed: {reply.body}")
        return frontend

    def sender(self, frontend: PoolFrontend) -> Callable:
        return lambda request: frontend.ask(request.payload)

    @staticmethod
    def keep(request: Request, reply) -> tuple:
        return reply.status, reply.body

    def check(self, state, requests: list[Request], outcomes: list) -> tuple[int, int]:
        """(errors, wrong answers) among one pass's replies."""
        errors = wrong = 0
        for request, (status, body) in zip(requests, outcomes):
            if status != "ok":
                errors += 1
            elif not self.oracle.agrees(request.payload, status, body):
                wrong += 1
        return errors, wrong

    @staticmethod
    def statistics(frontend: PoolFrontend):
        return frontend.statistics()

    def verify_setup(self, frontend: PoolFrontend) -> None:
        """Plan replies are checked per request, after each pass."""


class PlanRepeat(PlanWorkload):
    name = "plan-repeat"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(tpch_catalog())
        templates = {
            name: ALL_TPCH_QUERIES[name]() for name in ("q3", "q5", "q8", "q10")
        }
        for name, (topology, n, generator_seed) in GENERATED.items():
            spec = _generated(topology, n, generator_seed, f"{name}_", self.catalog)
            first = spec.joins[0].left
            templates[name] = dataclasses.replace(
                spec,
                selections=(EqualsConstant(spec.joins[-1].right, 0),),
                order_by=Ordering((first,)),
            )
        self.templates = templates
        self.seed = seed
        self.n_rounds = rounds_for(
            seconds, NOMINAL_RATE[self.name], sum(REPEAT_MIX.values())
        )
        self.warmup = [
            spec_to_sql(_with_constant(spec, 0)) for spec in templates.values()
        ]
        self._constants = iter(range(1, 1 << 30))

    def requests(self, pass_index: int) -> list[Request]:
        """One pass: every request carries a constant no earlier one used."""
        names = shuffled_rounds(REPEAT_MIX, self.n_rounds, self.seed, pass_index)
        return [
            Request(
                name,
                spec_to_sql(
                    _with_constant(self.templates[name], next(self._constants))
                ),
            )
            for name in names
        ]


class PlanAdhoc(PlanWorkload):
    name = "plan-adhoc"

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(Catalog())
        self.seed = seed
        self._rng = random.Random(f"plan-adhoc:{seed}")
        self._tables = iter(range(1 << 30))
        self.n_rounds = rounds_for(
            seconds, NOMINAL_RATE[self.name], sum(ADHOC_MIX.values())
        )
        self.warmup = [
            self._line(cell) for cell in shuffled_rounds(ADHOC_MIX, 1, seed, -1)
        ]

    def _line(self, cell: tuple[int, str]) -> str:
        """A new template of the cell's shape, over tables of its own."""
        n, topology = cell
        spec = _generated(
            topology,
            n,
            self._rng.randrange(1 << 30),
            f"a{next(self._tables)}_",
            self.catalog,
        )
        order = Ordering((spec.joins[0].left, spec.joins[-1].right))
        return spec_to_sql(dataclasses.replace(spec, order_by=order))

    def requests(self, pass_index: int) -> list[Request]:
        """One pass of templates no earlier request used."""
        return [
            Request(f"{cell[0]}-{cell[1]}", self._line(cell))
            for cell in shuffled_rounds(ADHOC_MIX, self.n_rounds, self.seed, pass_index)
        ]
