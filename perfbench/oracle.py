"""Correctness checks that never see the plan under test.

* Plan replies: the ``-- cost`` trailer must equal the cost the Simmen
  baseline finds for the same SQL.  Simmen is the paper's comparison
  framework and shares no code with the FSM backend.  It has no grouping
  support, so on a GROUP BY it can only hash-aggregate; where the FSM plan
  streams the aggregate instead, its cost may be lower than Simmen's but
  never higher.
* Exec results: equal, as a multiset, to the answer of the standard
  library's ``sqlite3`` to ``spec_to_sql(spec)`` over the same tables, and
  non-decreasing on the ORDER BY key.
"""

from __future__ import annotations

import re
import sqlite3

from repro.core.attributes import Attribute
from repro.exec.verify import satisfies_ordering
from repro.plangen.backends import SimmenBackend
from repro.plangen.cost import DEFAULT_COST_MODEL
from repro.plangen.dp import PlanGenerator
from repro.query.sql import sql_to_query
from repro.workloads import spec_to_sql

_COST = re.compile(r"^-- cost ([\d,]+), \d+ plans$", re.MULTILINE)


def reply_cost(body: str) -> str | None:
    """The rendered cost of a plan reply, or None when it has none."""
    match = _COST.search(body)
    return match.group(1) if match else None


class SimmenOracle:
    """Re-plan a request line with the Simmen backend and compare costs."""

    def __init__(self, catalog, plangen_config) -> None:
        self.catalog = catalog
        self.config = plangen_config

    def cost(self, line: str) -> float:
        spec = sql_to_query(line, self.catalog)
        result = PlanGenerator(
            spec, SimmenBackend(), DEFAULT_COST_MODEL, self.config
        ).run()
        return result.best_plan.cost

    def agrees(self, line: str, status: str, body: str) -> bool:
        if status != "ok":
            return False
        rendered = reply_cost(body)
        if rendered is None:
            return False
        expected = self.cost(line)
        if rendered == f"{expected:,.0f}":
            return True
        streamed = "stream_aggregate" in body
        return streamed and int(rendered.replace(",", "")) < expected


def _columns(spec) -> list:
    """The output columns of ``spec_to_sql(spec)``, in SELECT-list order."""
    if spec.aggregates:
        return list(spec.group_by) + [agg.output for agg in spec.aggregates]
    return [
        Attribute(column.name, ref.alias)
        for ref in spec.relations
        for column in spec.catalog.table(ref.table).columns
    ]


def _plain(value):
    """A NumPy scalar as the Python value it holds; anything else unchanged."""
    return value.item() if hasattr(value, "item") else value


def _canonical(rows) -> list:
    """Order-insensitive form that keeps ``1`` and ``"1"`` apart."""
    return sorted(
        tuple((type(v).__name__, v) for v in map(_plain, row)) for row in rows
    )


class SqliteOracle:
    """One in-memory sqlite3 database holding a dataset's base tables."""

    def __init__(self, spec, dataset) -> None:
        for ref in spec.relations:
            if ref.alias != ref.table:
                raise ValueError(
                    f"{spec.name}: alias {ref.alias} of {ref.table} has no "
                    "table of its own in sqlite"
                )
        self.spec = spec
        db = sqlite3.connect(":memory:")
        try:
            for ref in spec.relations:
                table = spec.catalog.table(ref.table)
                batch = dataset.batch(ref.alias)
                names = [column.name for column in table.columns]
                db.execute(f"CREATE TABLE {ref.table} ({', '.join(names)})")
                columns = [batch.columns[table.attribute(name)] for name in names]
                db.executemany(
                    f"INSERT INTO {ref.table} VALUES ({', '.join('?' * len(names))})",
                    zip(*columns),
                )
            self.expected = _canonical(db.execute(spec_to_sql(spec)).fetchall())
        finally:
            db.close()

    def agrees(self, result) -> bool:
        """Same multiset as sqlite's answer, and sorted where ORDER BY asks."""
        rows = result.rows()
        if self.spec.order_by is not None and not satisfies_ordering(
            rows, self.spec.order_by
        ):
            return False
        columns = _columns(self.spec)
        produced = _canonical(tuple(row[c] for c in columns) for row in rows)
        return produced == self.expected
