"""Open-loop, seeded request traffic into a ``leqa serve`` daemon.

One thread submits each request when it is due, whether or not earlier
ones have finished (independent users, so an open loop); one thread
collects results.  Each uses one connection at a time.  A request's
latency runs from the time it was *due* to the ``finished_at`` of the
job that answered it, so a stalled generator or a blocked queue both
show up.  A request that is refused, fails or times out has no latency
and counts as missing every latency limit.
"""

from __future__ import annotations

import math
import queue
import random
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ServiceError
from repro.service import ServiceClient

#: How long the collector waits for one job before counting it timed out.
RESULT_TIMEOUT_S = 60.0
#: Requests at the nominal rate: p99 then has twelve samples beyond it,
#: and the count splits evenly into the run's six slices.
NOMINAL_COUNT = 1200
#: The ladder: offered rates as multiples of the nominal rate, and the
#: requests sent at each step.  A climb stops at the first failing step.
LADDER = (1.5, 2.25, 3.375, 5.0, 7.5, 10.0, 15.0)
LADDER_COUNT = 300
#: Latency limit on a step's p99 and on its drain time.
LIMIT_MS = 100.0
#: The request mix is an assumption: the repository has no log of real
#: traffic.  Shares are of all requests; the rest are hot requests.
#: Unique points are few but take most of the workers' time (~80% on
#: the tuning host), so the store-write path weighs on the latency; the
#: mapper share gives twelve mapper jobs per 1200 nominal requests, as
#: many as lie beyond their p99, so head-of-line blocking can reach the tail.
#: Each run prints the measured split of worker time by class.
UNIQUE_SHARE = 0.08
MAPPER_SHARE = 0.01
#: Nominal offered rate, requests per second.  Also an assumption: at it
#: the two workers are busy 5-16% of the time and the rate is 1/15 to
#: 1/2 of ``max_rate_jobs_s`` on the tuning host (quiet to busy
#: stretches), so ``job_p50_ms`` measures a per-request path that
#: queues mostly in bursts.  It is not derived from
#: the run's own ``max_rate_jobs_s``, whose run-to-run spread would
#: carry into ``job_p50_ms``.
NOMINAL_RATE = 200.0


@dataclass(frozen=True)
class Mix:
    """The circuits of one workload's daemon phase.

    ``sources`` get the hot (repeated, default-parameter) LEQA
    requests.  ``cheap_sources`` get the unique-point LEQA requests,
    which reuse parameter-independent stages but rebuild queueing and
    the critical path, and the kernel-mapper requests, which hold a
    worker for a whole schedule and so block LEQA jobs behind them.
    """

    sources: tuple[str, ...]
    cheap_sources: tuple[str, ...]


def _spec(source: str, backend: str, qubit_speed: float | None) -> dict:
    spec: dict = {"source": source, "backend": backend}
    if backend == "qspr":
        spec["options"] = {"engine": "kernel"}
    if qubit_speed is not None:
        spec["params"] = {"qubit_speed": qubit_speed}
    return spec


def hot_specs(mix: Mix) -> list[dict]:
    """The default-parameter requests a warm-up daemon stores."""
    return [_spec(source, "leqa", None) for source in mix.sources] + [
        _spec(source, "qspr", None) for source in mix.cheap_sources
    ]


def schedule(
    rng: random.Random, mix: Mix, rate: float, count: int, used: set[float]
) -> list[tuple[float, str, dict]]:
    """``count`` requests as ``(due offset s, class, spec)``.

    Class counts are exact and sources are dealt round-robin, so every
    seed sends the same amount of each kind of work; the seed picks the
    order, the arrival gaps (exponential, mean ``1/rate``) and the
    parameter point of each unique request.  ``used`` keeps unique
    points unique across the calls of one run.
    """
    n_unique = round(count * UNIQUE_SHARE)
    n_map = round(count * MAPPER_SHARE)
    classes = (
        ["unique"] * n_unique + ["map"] * n_map
        + ["hot"] * (count - n_unique - n_map)
    )
    rng.shuffle(classes)
    dealt = {"hot": 0, "unique": 0, "map": 0}
    due = 0.0
    requests = []
    for klass in classes:
        index = dealt[klass]
        dealt[klass] += 1
        if klass == "hot":
            spec = _spec(mix.sources[index % len(mix.sources)], "leqa", None)
        else:
            speed = round(rng.uniform(0.5, 2.0), 9)
            while speed in used:
                speed = round(rng.uniform(0.5, 2.0), 9)
            used.add(speed)
            source = mix.cheap_sources[index % len(mix.cheap_sources)]
            backend = "leqa" if klass == "unique" else "qspr"
            spec = _spec(source, backend, speed)
        requests.append((due, klass, spec))
        due += rng.expovariate(rate)
    return requests


@dataclass
class Outcome:
    """What happened to one request."""

    klass: str
    spec: dict
    due_wall: float
    late_s: float = 0.0
    rtt_s: float = 0.0
    job_id: str | None = None
    error: str | None = None
    snapshot: dict | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.snapshot is not None
            and self.snapshot.get("state") == "done"
        )

    @property
    def latency_ms(self) -> float:
        """Due time to job completion; infinite when the request failed."""
        if not self.ok:
            return math.inf
        return (self.snapshot["finished_at"] - self.due_wall) * 1e3


def run(socket_path: str, requests: list[tuple[float, str, dict]]) -> list[Outcome]:
    """Send ``requests`` on schedule; return one outcome per request."""
    submitter = ServiceClient(socket_path, timeout=RESULT_TIMEOUT_S)
    collector = ServiceClient(socket_path, timeout=RESULT_TIMEOUT_S + 10.0)
    pending: queue.Queue = queue.Queue()
    wall0, perf0 = time.time(), time.perf_counter()
    outcomes = [
        Outcome(klass=klass, spec=spec, due_wall=wall0 + due)
        for due, klass, spec in requests
    ]

    def submit_all() -> None:
        try:
            for (due, _, spec), outcome in zip(requests, outcomes):
                wait = perf0 + due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                outcome.late_s = sent - perf0 - due
                try:
                    response = submitter.call({"op": "submit", "spec": spec})
                    outcome.job_id = response["job_id"]
                except ServiceError as error:  # refused or unreachable
                    outcome.error = str(error)
                outcome.rtt_s = time.perf_counter() - sent
                pending.put(outcome)
        finally:
            pending.put(None)

    def collect_all() -> None:
        while True:
            outcome = pending.get()
            if outcome is None:
                return
            if outcome.job_id is None:
                continue
            try:
                outcome.snapshot = collector.result(
                    outcome.job_id, timeout=RESULT_TIMEOUT_S
                )
            except ServiceError as error:
                outcome.error = str(error)

    threads = [
        threading.Thread(target=submit_all, name="bench-submit"),
        threading.Thread(target=collect_all, name="bench-collect"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]) or math.isinf(ordered[low]):
        return ordered[high] if position > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def stress_ms(outcomes: list[Outcome]) -> float:
    """The larger of a step's tail latency and its drain time, in ms.

    The tail is the highest percentile with ten requests beyond it
    (p96.7 of a 300-request ladder step, p99 of the nominal traffic).

    Drain time is how long after the step's last due time its last job
    finished: it grows with the backlog, so a step passes only when both
    stay under the latency limit.
    """
    if not all(outcome.ok for outcome in outcomes):
        return math.inf
    tail = percentile(
        [outcome.latency_ms for outcome in outcomes],
        min(99.0, 100.0 * (1.0 - 10.0 / len(outcomes))),
    )
    last_due = max(outcome.due_wall for outcome in outcomes)
    last_done = max(outcome.snapshot["finished_at"] for outcome in outcomes)
    return max(tail, (last_done - last_due) * 1e3)


def max_rate(steps: list[tuple[float, float]], limit_ms: float) -> float:
    """Highest rate meeting the limit, from ``(rate, stress_ms)`` steps.

    Between the last passing and the first failing step the crossing is
    interpolated in log-log space, so the figure moves smoothly with the
    system instead of jumping a whole ladder step.  With no failing step
    it is the top of the ladder; when even the first step fails it is
    scaled down from that step by ``limit / stress``.
    """
    for index, (rate, stress) in enumerate(steps):
        if stress <= limit_ms:
            continue
        if index == 0:
            return rate * limit_ms / stress
        low_rate, low_stress = steps[index - 1]
        if math.isinf(stress):
            return low_rate
        frac = (math.log(limit_ms) - math.log(low_stress)) / (
            math.log(stress) - math.log(low_stress)
        )
        return math.exp(
            math.log(low_rate) + frac * (math.log(rate) - math.log(low_rate))
        )
    return steps[-1][0]
