"""Closed-loop measurement shared by every workload.

One client thread sends the next request only after the previous reply
arrived.  A pass replays a fixed request list, so two runs of one seed do
exactly the same work; the pass reports its wall time, the latency of
every request, and the slowdown of the shared machine next to each request,
by which the reported times are scaled back to reference speed.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Generator, Sequence


@dataclass(frozen=True)
class Request:
    """One request of a pass: the template it instantiates and what is sent."""

    template: str
    payload: object


def rounds_for(seconds: float, nominal_rate: float, round_size: int) -> int:
    """Whole rounds that take about ``seconds`` at the reference rate.

    The work of a run is fixed by ``--seconds`` and the workload, never by
    the clock: a faster program finishes the same requests sooner.
    """
    return max(1, round(seconds * nominal_rate / round_size))


def shuffled_rounds(mix: dict, n_rounds: int, seed: int, pass_index: int) -> list:
    """``n_rounds`` rounds of ``mix`` (template -> count), each in seeded order.

    Every round holds exactly the mix's counts, so the share of each
    template, and with it the class each latency percentile falls in, is
    the same for every seed and run length.
    """
    rng = random.Random(f"{seed}:{pass_index}")
    sequence: list = []
    for _ in range(n_rounds):
        round_ = [template for template, count in mix.items() for _ in range(count)]
        rng.shuffle(round_)
        sequence.extend(round_)
    return sequence


#: Iterations of the calibration loop (about 0.1 ms on the reference
#: machine) and the duration that counts as reference speed.
CALIBRATION_ITERATIONS = 1000
REFERENCE_CALIBRATION_S = 80e-6

_LOOKUP = {i: (i, i + 1) for i in range(64)}


def calibration_s() -> float:
    """Seconds a fixed stretch of interpreter work takes right now.

    Dict lookups, tuple indexing and integer arithmetic, the bread and
    butter of the planner and the pure-Python engine.  The loop creates
    no container objects, so it never triggers a garbage collection and
    its speed does not depend on the state of the program's heap.
    """
    table = _LOOKUP
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        pair = table[i & 63]
        total += pair[0] * pair[1]
    return time.perf_counter() - started


def slowdown() -> float:
    """How much slower than reference speed the machine runs right now.

    One reading, interruptions included: the virtual CPU is also taken
    away from the process for stretches the guest cannot see, and a
    reading that filtered those out (say, the faster of two) would stop
    tracking them.
    """
    return calibration_s() / REFERENCE_CALIBRATION_S


@dataclass
class Pass:
    """What one timed pass over a request list measured."""

    elapsed_s: float
    latencies_ms: list[float]
    outcomes: list = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)

    @property
    def requests_per_s(self) -> float:
        return len(self.latencies_ms) / self.elapsed_s

    @property
    def calibrated_ms(self) -> list[float]:
        """Each latency at reference speed: divided by its slowdown."""
        return [ms / f for ms, f in zip(self.latencies_ms, self.slowdowns)]


def timed_pass(
    requests: Sequence,
    call: Callable,
    *,
    keep: Callable = lambda request, reply: reply,
    on_request: Callable[[int], None] | None = None,
) -> Pass:
    """Send ``requests`` one after another through ``call``.

    Right before each request :func:`slowdown` reads the machine's current
    speed; the reading closest in time tracked the speed of the request
    itself better than any window of readings around it (a reading
    taken just after a plan reply also competes with the shard thread
    finishing its callbacks).  ``keep`` reduces each reply to what the
    checks need after the pass, so large results are dropped as soon as
    the next request starts.  ``on_request(i)`` lets the tracer tag the
    spans of request ``i``.
    """
    gc.collect()
    latencies: list[float] = []
    slowdowns: list[float] = []
    outcomes: list = []
    clock = time.perf_counter
    started = clock()
    for index, request in enumerate(requests):
        if on_request is not None:
            on_request(index)
        slowdowns.append(slowdown())
        sent = clock()
        reply = call(request)
        latencies.append((clock() - sent) * 1000.0)
        outcomes.append(keep(request, reply))
    elapsed = clock() - started
    return Pass(elapsed, latencies, outcomes, slowdowns)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between ranks."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def median_setup(
    setup: Callable[[], Generator[None, None, object]]
) -> tuple[float, object, float]:
    """Run a fresh set-up :data:`SETUP_REPEATS` times.

    ``setup()`` returns a generator that yields before each unit of work
    (one template's first request, one query's data and first execution)
    and returns the finished state.  Each unit's seconds are divided by the
    slowdown read just before it, like a timed request's.  Returns the
    median set-up seconds, the last state, and the median slowdown.

    The first set-up in a process also pays one-time costs (module-level
    caches, first allocations), so a single cold start is not repeatable;
    the median of several fresh ones is.  Every state but the last is
    closed as soon as the next one is built.
    """
    seconds: list[float] = []
    slowdowns: list[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and hasattr(state, "close"):
            state.close()
        gc.collect()
        units = setup()
        total = 0.0
        factors: list[float] = []
        while True:
            factors.append(slowdown())
            started = time.perf_counter()
            try:
                next(units)
            except StopIteration as finished:
                total += (time.perf_counter() - started) / factors[-1]
                state = finished.value
                break
            total += (time.perf_counter() - started) / factors[-1]
        seconds.append(total)
        slowdowns.append(statistics.median(factors))
    return statistics.median(seconds), state, statistics.median(slowdowns)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured: Pass, setup_s: float) -> dict[str, dict]:
    """The five end-to-end metrics of one run, times at reference speed."""
    latencies = measured.calibrated_ms
    return {
        "requests_per_s": {
            "value": 1000.0 * len(latencies) / sum(latencies),
            "unit": "1/s",
        },
        "latency_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
        "latency_p90_ms": {"value": percentile(latencies, 90), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
