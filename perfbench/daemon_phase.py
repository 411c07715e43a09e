"""The daemon side of a run: ``leqa serve`` under open-loop traffic.

Set-up starts a first daemon over an empty store, answers every hot
request once so the store holds them, and shuts it down.  The measured
daemon starts cold over the warmed store: its first touch of each hot
request is a disk-tier read, and unique requests write beside the
reads.

Every daemon gets the run's own store and socket, and the kernel cache
through ``REPRO_KERNEL_CACHE``; it is shut down and waited for before
the phase returns, whatever happened.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import subprocess
import sys
import time

import traffic
from repro.engine import ArtifactCache, CircuitSpec, get_backend
from repro.exceptions import ServiceError
from repro.service import ServiceClient

SPAWN_TIMEOUT_S = 60.0
#: Worker threads of every daemon (``leqa serve --workers``).
WORKERS = 2


class Daemon:
    """One ``leqa serve`` subprocess; ``setup_s`` is spawn to first ping."""

    def __init__(self, bench, name: str) -> None:
        self.socket = os.path.relpath(bench.work / f"{name}.sock")
        log = (bench.work / f"{name}.log").open("w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket, "--store", str(bench.work / "store"),
             "--workers", str(WORKERS)],
            env=bench.child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        log.close()
        self.client = ServiceClient(self.socket, timeout=traffic.RESULT_TIMEOUT_S)
        deadline = started + SPAWN_TIMEOUT_S
        while True:
            try:
                self.client.ping()
                break
            except ServiceError:
                if self.process.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError(f"daemon {name} did not come up")
                time.sleep(0.002)
        self.setup_s = time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=60)
            except (ServiceError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()


def _deltas(before: dict, after: dict) -> dict[str, float]:
    """Engine and store counters over the measured traffic."""
    layers: dict[str, float] = {}
    stage_hits = stage_lookups = store_hits = 0
    for stage, counts in after["cache"].items():
        old = before["cache"].get(stage, {})
        hits = counts["hits"] - old.get("hits", 0)
        disk = counts["store_hits"] - old.get("store_hits", 0)
        misses = counts["misses"] - old.get("misses", 0)
        store_hits += disk
        if stage == "estimate":
            lookups = hits + disk + misses
            layers["engine.estimate_hit_ratio"] = (hits + disk) / lookups if lookups else 0.0
        else:
            stage_hits += hits + disk
            stage_lookups += hits + disk + misses
    layers["engine.stage_hit_ratio"] = stage_hits / stage_lookups if stage_lookups else 0.0
    layers["engine.store_hits"] = store_hits
    for key in ("hits", "misses", "writes", "bytes_read", "bytes_written"):
        layers[f"store.{key}"] = after["store"][key] - before["store"][key]
    layers["service.coalesced"] = after["coalesced"] - before["coalesced"]
    layers["service.rejected"] = sum(after["rejected"].values()) - sum(
        before["rejected"].values()
    )
    return layers


def _reference(cache: ArtifactCache, spec: dict) -> float:
    """The latency an in-process engine run gives for one request."""
    from repro import DEFAULT_PARAMS

    params = DEFAULT_PARAMS
    if "params" in spec:
        params = dataclasses.replace(params, qubit_speed=spec["params"]["qubit_speed"])
    backend = get_backend(spec["backend"], params=params, cache=cache,
                          **spec.get("options", {}))
    return backend.run(cache.ft_circuit(CircuitSpec(spec["source"]))).latency


def _verify(bench, outcomes: list[traffic.Outcome]) -> None:
    cache = ArtifactCache()
    references: dict[str, float] = {}
    for outcome in outcomes:
        bench.attempted += 1
        if not outcome.ok:
            bench.failed += 1
            bench.mismatches.append(
                f"daemon {outcome.spec}: {outcome.error or outcome.snapshot}"
            )
            continue
        key = repr(sorted(outcome.spec.items()))
        if key not in references:
            references[key] = _reference(cache, outcome.spec)
        got = outcome.snapshot["result"]["latency"]
        if got != references[key]:
            bench.failed += 1
            bench.mismatches.append(
                f"daemon {outcome.spec}: got {got!r}, in-process {references[key]!r}"
            )


def _trace(bench, outcomes: list[traffic.Outcome]) -> None:
    """Client-side spans of each request, tied to its job id."""
    tracer = bench.tracer
    if not tracer.enabled:
        return
    offset = time.perf_counter() - time.time()
    for outcome in outcomes:
        if not outcome.ok:
            continue
        snap = outcome.snapshot
        parent = tracer.record(
            "service.request", outcome.due_wall + offset,
            snap["finished_at"] + offset, job_id=outcome.job_id,
            klass=outcome.klass,
        )
        tracer.record("service.queue_wait", snap["submitted_at"] + offset,
                      snap["started_at"] + offset, parent, job_id=outcome.job_id)
        tracer.record("service.run", snap["started_at"] + offset,
                      snap["finished_at"] + offset, parent, job_id=outcome.job_id)


def _ms(values: list[float], q: float) -> float:
    return traffic.percentile([value * 1e3 for value in values], q)


class DaemonPhase:
    """The daemon side of one run, from warm-up to verified results.

    :meth:`start` warms the store and starts the measured daemon;
    :meth:`segment` sends one slice of the nominal traffic (the run
    spreads the slices over its whole length, so that a slow spell of
    the host does not decide ``job_p50_ms``); :meth:`end_nominal` reads
    the daemon's counters and peak memory; :meth:`climb` runs one climb
    of the rate ladder; :meth:`finish` stops the daemon and checks every
    job.
    """

    def __init__(self, bench) -> None:
        self.bench = bench
        self.mix = bench.workload.mix
        self.used: set[float] = set()
        self.segments: list[list[traffic.Outcome]] = []
        #: ``perf_counter`` span of each segment.
        self.windows: list[tuple[float, float]] = []
        self.everything: list[traffic.Outcome] = []
        self.steps: list[tuple[float, float]] = []
        self.setups: list[float] = []
        self.daemon: Daemon | None = None

    def _send(self, rate: float, count: int) -> list[traffic.Outcome]:
        outcomes = traffic.run(self.daemon.socket, traffic.schedule(
            self.bench.rng, self.mix, rate, count, self.used
        ))
        self.everything.extend(outcomes)
        return outcomes

    def start(self) -> None:
        bench = self.bench
        warm = Daemon(bench, "warm")
        try:
            self.setups.append(warm.setup_s)
            jobs = [warm.client.submit(spec) for spec in traffic.hot_specs(self.mix)]
            for job in jobs:
                if warm.client.result(job, timeout=120)["state"] != "done":
                    raise RuntimeError(f"warm-up job {job} failed")
        finally:
            warm.stop()
        self.daemon = Daemon(bench, "measured")
        self.setups.append(self.daemon.setup_s)
        self.before = self.daemon.client.stats()
        # First touches: each hot request once, from the store's disk
        # tier, before the measured traffic.  A 612k-op circuit's first
        # touch stalls the queue for ~100 ms, which would make the tail
        # depend on how many arrivals a seed puts behind it; its reads
        # still count in the store and engine deltas.
        for spec in traffic.hot_specs(self.mix):
            job = self.daemon.client.submit(spec)
            if self.daemon.client.result(job, timeout=120)["state"] != "done":
                raise RuntimeError(f"first-touch job {job} failed")

    def segment(self, count: int) -> None:
        started = time.perf_counter()
        self.segments.append(self._send(traffic.NOMINAL_RATE, count))
        self.windows.append((started, time.perf_counter()))

    def end_nominal(self) -> None:
        self.after = self.daemon.client.stats()
        self.rss_mb = self.daemon.peak_rss_mb()

    def climb(self) -> None:
        """Offer rising rates until a step misses the latency limit."""
        for factor in traffic.LADDER:
            rate = traffic.NOMINAL_RATE * factor
            self.steps.append((rate, traffic.stress_ms(
                self._send(rate, traffic.LADDER_COUNT)
            )))
            if self.steps[-1][1] > traffic.LIMIT_MS:
                break

    def stop(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def finish(self) -> dict:
        bench = self.bench
        self.stop()
        nominal = [outcome for segment in self.segments for outcome in segment]
        _verify(bench, self.everything)
        _trace(bench, nominal)
        jobs = {o.job_id: o.snapshot for o in nominal if o.ok}
        queue_wait = [snap["started_at"] - snap["submitted_at"] for snap in jobs.values()]
        run_time = [snap["finished_at"] - snap["started_at"] for snap in jobs.values()]
        layers = _deltas(self.before, self.after)
        layers.update({
            "service.queue_wait_ms_p50": _ms(queue_wait, 50),
            "service.queue_wait_ms_p99": _ms(queue_wait, 99),
            "service.run_ms_p50": _ms(run_time, 50),
            "service.run_ms_p99": _ms(run_time, 99),
            "service.submit_rtt_ms_p50": _ms([o.rtt_s for o in nominal], 50),
            "service.submit_rtt_ms_p99": _ms([o.rtt_s for o in nominal], 99),
            "service.gen_late_ms_p99": _ms([o.late_s for o in self.everything], 99),
        })
        # How the workers' time splits between the request classes at the
        # nominal rate: the check on the shares chosen in ``traffic``.
        busy = {klass: 0.0 for klass in ("hot", "unique", "map")}
        for outcome in nominal:
            if outcome.ok:
                snap = outcome.snapshot
                busy[outcome.klass] += snap["finished_at"] - snap["started_at"]
        total_busy = sum(busy.values()) or 1.0
        offered_s = sum(
            max(o.due_wall for o in segment) - min(o.due_wall for o in segment)
            for segment in self.segments
        )
        return {
            # Each slice's median and when it ran; the run reports the
            # fastest slice, as with the in-process timings.
            "slices": [
                (start, end, traffic.percentile([o.latency_ms for o in segment], 50))
                for segment, (start, end) in zip(self.segments, self.windows)
            ],
            "p99": traffic.percentile([o.latency_ms for o in nominal], 99),
            "max_rate": traffic.max_rate(self.steps, traffic.LIMIT_MS),
            "steps": self.steps,
            "setup_s": statistics.median(self.setups),
            "setups": self.setups,
            "rss_mb": self.rss_mb,
            "work_share": {klass: t / total_busy for klass, t in busy.items()},
            "utilisation": total_busy / (offered_s * WORKERS),
            "layers": layers,
        }
