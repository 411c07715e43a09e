"""The repository benchmark: LEQA against the compiled mapper, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload gf2-mult --seed 1 --seconds 40 --trace 0

Every workload is a set of benchmark circuits, and every run measures
the same things over that set, so each end-to-end metric means the same
on every workload:

* in process, warm: per circuit, ``build`` + ``synthesize_ft``,
  ``estimate_latency`` (uncached) and the ``engine="kernel"`` mapper
  (``ft_s``, ``leqa_s``, ``map_s``: the sum over the set of each
  circuit's fastest call);
* fresh processes: spawn to "package imported and kernel loaded"
  (``setup_s``), then the process's first LEQA pass (``cold_leqa_s``),
  each the median child;
* fresh processes streaming the set's RevLib files through the
  out-of-core front-end (``stream_s``);
* a ``leqa serve`` daemon over a store warmed by an earlier daemon,
  under an open-loop seeded request mix (``job_p50_ms``; the p99 and the
  highest rate meeting a latency limit are printed and reported as
  per-layer ``service.*`` figures, being too unsteady to gate).

The host this was tuned on (2 vCPUs shared with other tenants) runs
the same short loop up to 2x slower from one second to the next.  The
run therefore interleaves its measurements in rounds that span its
whole length, scales each timed sample by a host-speed reference timed
next to it (``hostspeed.py``), and reports the fastest sample per
circuit, so the slow stretches do not decide a figure.

Outputs are checked outside the timed regions: LEQA, mapper and streamed
latencies against the bitwise values in ``expected.json``, and every
daemon job against an in-process run of the same request.  With
``--trace 1`` the run reports per-layer metrics instead, from spans the
benchmark records around calls into each layer (see ``spans.py``).
The last stdout line is one JSON object with the result.

``--record-expected`` recomputes ``expected.json`` (for a change that
is meant to alter latencies).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
#: Scratch space of every run (kernel cache, store, sockets, traces).
WORK_ROOT = ROOT / ".perfbench-work"

#: ``v`` is tuned once against the mapper on this circuit, as the
#: repository's Table benches do; its error row is left out of
#: ``leqa_err_pct``.
CALIBRATION = "gf2^16mult"
#: Measurement rounds per run, each ending at its share of
#: ``--seconds``: cold starts each followed by a slice of the daemon's
#: nominal traffic or by a streaming pass over the set, fixed
#: in-process passes, and more in-process calls until the round's time
#: is up.
ROUNDS = 6
#: Passes over the set each round makes of each kind of in-process
#: call: a mapper pass over hwb-perm takes seconds, a LEQA or build
#: pass tens of milliseconds.
PASSES = {"ft": 3, "leqa": 3, "map": 1}
#: Traffic slices per round, each after a cold start; one more cold
#: start comes before the streaming pass, since the median child's
#: first LEQA pass (``cold_leqa_s``) scatters the most of the figures.
SLICES = 2
#: Host reference samples taken in a row before each phase of a round,
#: besides those taken between in-process calls.
BURST = 4


class Sample(NamedTuple):
    """One timed value and the ``perf_counter`` span it was measured in."""

    start: float
    end: float
    value: float


@dataclass(frozen=True)
class Workload:
    """One circuit set and its daemon mix."""

    circuits: tuple[str, ...]
    mix: object


def _workloads() -> dict[str, Workload]:
    from traffic import Mix

    gf2 = ("gf2^16mult", "gf2^18mult", "gf2^19mult", "gf2^20mult",
           "gf2^50mult", "gf2^64mult")
    hwb = ("hwb15ps", "hwb16ps", "hwb20ps", "hwb50ps", "hwb100ps")
    # Unique and mapper requests go to each set's small members, so a
    # request's cost stays in the milliseconds and the tail measures
    # queueing rather than which large circuit a seed happened to draw.
    return {
        # Few qubits, many ops: LEQA time is mostly the critical-path
        # sweep, mapper time splits between placement and schedule.
        "gf2-mult": Workload(gf2, Mix(gf2, gf2[:4])),
        # Many qubits (up to 3107): the mapper's time is almost all
        # placement, and hwb100ps carries LEQA's largest error.
        "hwb-perm": Workload(hwb, Mix(hwb, hwb[:3])),
    }


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


class Run:
    """State and measurements of one benchmark run."""

    def __init__(self, args, workload: Workload, tracer) -> None:
        import repro
        from hostspeed import HostSpeed

        self.args = args
        self.repro = repro
        self.workload = workload
        self.tracer = tracer
        self.work = WORK_ROOT / f"run-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.rng = random.Random(args.seed)
        self.host = HostSpeed()
        self.expected = json.loads(EXPECTED_PATH.read_text())["circuits"]
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        #: Every timed sample, by (kind, circuit): in-process calls, each
        #: cold child's set-up ("setup", "") and first calls ("cold"),
        #: streamed passes, and each traffic slice's median ("job_p50", "").
        self.calls: dict[tuple[str, str], list[Sample]] = {}
        #: Per-layer self seconds of each traced call, by (layer, circuit).
        self.layer_calls: dict[tuple[str, str], list[float]] = {}
        self.imports: list[float] = []
        self.stream_rss: list[float] = []
        self.stream_rows = 0
        #: ``(total_moves, congestion_wait)`` of each circuit's schedule.
        self.schedule_stats: dict[str, tuple[int, float]] = {}
        self.phase_s: dict[str, float] = {}

    # -- bookkeeping --------------------------------------------------------

    def keep(self, kind: str, name: str, sample: Sample) -> None:
        self.calls.setdefault((kind, name), []).append(sample)

    def check(self, what: str, got: float, want_hex: str) -> None:
        """Count one operation; a bitwise mismatch counts as failed."""
        self.attempted += 1
        if float(got).hex() != want_hex:
            self.failed += 1
            self.mismatches.append(
                f"{what}: got {float(got)!r}, recorded {float.fromhex(want_hex)!r}"
            )

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        return env

    def _child(self, mode: str, spec: dict) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, env=self.child_env(),
        )

    @staticmethod
    def _report(child: subprocess.Popen, what: str) -> dict:
        tail = child.stdout.read()
        if child.wait() != 0:
            raise RuntimeError(f"{what} child failed with code {child.returncode}")
        return json.loads(tail.strip().splitlines()[-1])

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        from repro.circuits import build, synthesize_ft, write_real
        from repro.store import encode

        from record import calibrated_speed

        repro = self.repro
        recorded = json.loads(EXPECTED_PATH.read_text())["calibration"]["qubit_speed"]
        self.check("calibrated qubit_speed", calibrated_speed(CALIBRATION), recorded)
        self.speed = float.fromhex(recorded)
        self.params = dataclasses.replace(repro.DEFAULT_PARAMS, qubit_speed=self.speed)
        self.netlists = {}
        self.ft_files, self.real_files = [], {}
        for name in self.workload.circuits:
            circuit = synthesize_ft(build(name))
            self.netlists[name] = circuit
            stem = self.work / name.replace("^", "_")
            stem.with_suffix(".ft").write_bytes(encode(circuit))
            write_real(build(name), stem.with_suffix(".real"))
            self.ft_files.append(str(stem.with_suffix(".ft")))
            self.real_files[name] = str(stem.with_suffix(".real"))

    # -- in-process calls ---------------------------------------------------

    def _timed(self, kind: str, name: str, call, traced_layers: bool = False):
        """Run one call, keep its time and, when traced, its layer split."""
        tracer = self.tracer
        mark = len(tracer.spans)
        started = time.perf_counter()
        with tracer.span(kind, circuit=name):
            result = call()
        ended = time.perf_counter()
        self.keep(kind, name, Sample(started, ended, ended - started))
        if traced_layers:
            for layer, seconds in tracer.self_seconds(mark).items():
                self.layer_calls.setdefault((layer, name), []).append(seconds)
        return result

    def ft_call(self, name: str) -> None:
        from repro.circuits import build, synthesize_ft

        def call():
            with self.tracer.span("circuits.build"):
                circuit = build(name)
            with self.tracer.span("circuits.synthesize_ft"):
                return synthesize_ft(circuit)

        circuit = self._timed("ft", name, call, traced_layers=self.tracer.enabled)
        self.attempted += 1
        if len(circuit) != self.expected[name]["ops"]:
            self.failed += 1
            self.mismatches.append(
                f"FT {name}: {len(circuit)} ops, recorded {self.expected[name]['ops']}"
            )

    def leqa_call(self, name: str) -> None:
        import repro.core.pipeline as pipeline

        circuit = self.netlists[name]

        def call():
            return self.repro.estimate_latency(circuit, params=self.params)

        result = self._timed("leqa", name, call)
        self.check(f"LEQA {name}", result.latency, self.expected[name]["leqa"])
        if not self.tracer.enabled:
            return
        # The same call again with the stage functions the pipeline looks
        # up rebound to span-recording wrappers; comparing the two gives
        # the tracing overhead.
        with self.tracer.patched([
            (pipeline, "build_iig", "qodg.build_iig"),
            (pipeline.ZoneArrays, "from_iig", "core.zones"),
            (pipeline, "expected_hamiltonian_paths", "core.ham"),
            (pipeline, "expected_coverage_surfaces", "core.coverage"),
            (pipeline, "expected_coverage_surface", "core.coverage"),
            (pipeline, "sweep_critical_path", "qodg.critical_path"),
        ]):
            result = self._timed("leqa_traced", name, call, traced_layers=True)
        self.check(f"traced LEQA {name}", result.latency, self.expected[name]["leqa"])

    def map_call(self, name: str) -> None:
        import repro.qspr.mapper as mapper_module

        mapper = self.repro.QSPRMapper(params=self.params, engine="kernel")
        with self.tracer.patched([
            (mapper_module, "build_iig", "qspr.build_iig"),
            (mapper_module, "compile_qodg", "qspr.compile_qodg"),
            (mapper_module, "make_placement", "qspr.placement"),
            (mapper_module, "schedule_circuit", "qspr.schedule"),
        ]):
            result = self._timed(
                "map", name, lambda: mapper.map(self.netlists[name]),
                traced_layers=self.tracer.enabled,
            )
        self.check(f"mapper {name}", result.latency, self.expected[name]["map"])
        stats = result.schedule.stats
        self.schedule_stats[name] = (stats.total_moves, stats.congestion_wait)

    def in_process(self, until: float) -> None:
        """Fixed passes over the set, then more calls until ``until``.

        Each round makes ``PASSES`` of each kind; the extra calls go to
        the kind with the least time spent on it so far, each to its
        circuit with the fewest calls whose last call fits in the time
        left.  So the mapper, whose calls on hwb100ps take seconds, does
        not starve the short LEQA and build calls of samples, and does
        not overrun the round.
        """
        names = self.workload.circuits
        for kind, passes in PASSES.items():
            for _ in range(passes):
                for name in names:
                    self.host.sample_due()
                    getattr(self, f"{kind}_call")(name)
        while True:
            left = until - time.perf_counter()
            fitting = {
                kind: [n for n in names if self.calls[(kind, n)][-1].value < left]
                for kind in PASSES
            }
            kinds = [kind for kind in PASSES if fitting[kind]]
            if not kinds:
                return
            kind = min(kinds, key=lambda k: sum(
                sample.value for n in names for sample in self.calls[(k, n)]
            ))
            name = min(fitting[kind], key=lambda n: len(self.calls[(kind, n)]))
            self.host.sample_due()
            getattr(self, f"{kind}_call")(name)

    # -- fresh processes ----------------------------------------------------

    def cold_start(self) -> None:
        """One fresh process: spawn to ready, then its first LEQA pass."""
        started = time.perf_counter()
        child = self._child("cold", {
            "netlists": self.ft_files, "qubit_speed": self.speed.hex(),
        })
        with child:
            ready = child.stdout.readline()
            ready_at = time.perf_counter()
            report = self._report(child, "cold-start")
        if not ready.startswith("ready"):
            raise RuntimeError("cold-start child never reported ready")
        ended = time.perf_counter()
        self.keep("setup", "", Sample(started, ready_at, ready_at - started))
        self.imports.append(report["import_s"])
        for name, value in zip(self.workload.circuits, report["latencies"]):
            self.check(f"cold LEQA {name}", float.fromhex(value),
                       self.expected[name]["leqa"])
        self.keep("cold", "", Sample(ready_at, ended, sum(report["cold_s"])))

    def stream(self, names: tuple[str, ...]) -> None:
        """One fresh process streaming the RevLib files of ``names``."""
        started = time.perf_counter()
        child = self._child("stream", {
            "files": [self.real_files[name] for name in names],
            "qubit_speed": self.speed.hex(),
            "trace": self.tracer.enabled, "run_id": self.tracer.run_id,
        })
        with child:
            report = self._report(child, "stream")
        ended = time.perf_counter()
        for name, value, seconds in zip(names, report["latencies"], report["seconds"]):
            self.check(f"streamed LEQA {name}", float.fromhex(value),
                       self.expected[name]["stream"])
            self.keep("stream", name, Sample(started, ended, seconds))
        self.stream_rss.append(report["peak_rss_mb"])
        self.stream_rows += report["rows"]
        self.tracer.adopt(report["spans"])

    # -- the run ------------------------------------------------------------

    def measure(self) -> dict:
        from daemon_phase import DaemonPhase
        from traffic import NOMINAL_COUNT

        clock = time.perf_counter()

        def lap(phase: str) -> None:
            nonlocal clock
            now = time.perf_counter()
            self.phase_s[phase] = now - clock
            clock = now

        self.setup()
        names = self.workload.circuits
        daemon = DaemonPhase(self)
        try:
            daemon.start()
            lap("set-up")
            # Rounds end on a fixed schedule, so a round that overran
            # (a slow spell of the host) shortens the ones after it.
            started = time.perf_counter()
            slice_count = NOMINAL_COUNT // (ROUNDS * SLICES)
            for index in range(ROUNDS):
                for _ in range(SLICES):
                    self.host.sample(BURST)
                    self.cold_start()
                    self.host.sample(BURST)
                    daemon.segment(slice_count)
                    self.host.sample(BURST)
                self.cold_start()
                self.host.sample(BURST)
                self.stream(names)
                self.host.sample(BURST)
                self.in_process(started + (index + 1) * self.args.seconds / ROUNDS)
            lap("rounds")
            # Peak memory and the daemon's counters are read before the
            # climb: how far a climb gets depends on the host's speed,
            # and every job it sends stays in the daemon's job records
            # and in this process's outcomes.  Also before the daemon's
            # jobs are checked, which re-runs them in this process.
            self.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            daemon.end_nominal()
            daemon.climb()
            lap("climb")
            result = daemon.finish()
            for window in result["slices"]:
                self.keep("job_p50", "", Sample(*window))
            lap("checks")
            return result
        finally:
            daemon.stop()

    def figure(self, kind: str, scaled: bool = False) -> float:
        """One end-to-end figure from its samples.

        Set-up and the cold pass are the median child, a traffic figure
        the fastest slice, the rest the sum over the set of each
        circuit's fastest sample.  ``scaled`` puts each sample on the
        reference host first (see ``hostspeed.py``).
        """
        def values(name: str) -> list[float]:
            return [
                sample.value * (self.host.scale(sample.start, sample.end) if scaled else 1.0)
                for sample in self.calls[(kind, name)]
            ]

        if kind in ("setup", "cold"):
            return statistics.median(values(""))
        if kind == "job_p50":
            return min(values(""))
        return sum(min(values(name)) for name in self.workload.circuits)

    def metrics(self, scaled: bool) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric, as measured or as reported (scaled)."""
        errors = [
            _error_pct(self.expected[name])
            for name in self.workload.circuits if name != CALIBRATION
        ]
        times = {
            "setup_s": "setup", "leqa_s": "leqa", "map_s": "map", "ft_s": "ft",
            "cold_leqa_s": "cold",
        }
        metrics = {name: (self.figure(kind, scaled), "s") for name, kind in times.items()}
        metrics["leqa_err_pct"] = (statistics.fmean(errors), "%")
        metrics["stream_s"] = (self.figure("stream", scaled), "s")
        metrics["job_p50_ms"] = (self.figure("job_p50", scaled), "ms")
        metrics["peak_rss_mb"] = (self.peak_rss_mb, "MB")
        return metrics

    def layer_metrics(self, daemon: dict) -> dict[str, float]:
        """Per-layer figures of a traced run, per pass over the set."""
        names = self.workload.circuits

        def per_pass(layer: str) -> float:
            return sum(
                min(self.layer_calls.get((layer, name), [0.0])) for name in names
            )

        layers = dict(daemon["layers"])
        layers["service.job_p99_ms"] = daemon["p99"]
        layers["service.max_rate_jobs_s"] = daemon["max_rate"]
        for layer in ("circuits.build", "circuits.synthesize_ft", "qodg.build_iig",
                      "qodg.critical_path", "core.zones", "core.ham",
                      "core.coverage", "qspr.build_iig", "qspr.compile_qodg",
                      "qspr.placement", "qspr.schedule"):
            layers[f"{layer}_s"] = per_pass(layer)
        layers["core.unattributed_s"] = per_pass("leqa_traced")
        layers["qspr.unattributed_s"] = per_pass("map")
        layers["circuits.ft_ops"] = sum(self.expected[n]["ops"] for n in names)
        layers["qspr.total_moves"] = sum(self.schedule_stats[n][0] for n in names)
        layers["qspr.congestion_wait_us"] = sum(self.schedule_stats[n][1] for n in names)
        layers["qspr.kernel_load_s"] = sum(
            span["end"] - span["start"] for span in self.tracer.spans
            if span["name"] == "qspr.kernel_load"
        )
        layers["pkg.import_s"] = statistics.median(self.imports)
        # Stream spans come whole from the children; scale the totals to
        # one pass over the set.
        passes = sum(len(self.calls[("stream", n)]) for n in names) / len(names)
        stream_self = self.tracer.self_seconds()
        for stage in ("read", "lower", "optimize", "estimate"):
            layers[f"stream.{stage}_s"] = stream_self.get(f"stream.{stage}", 0.0) / passes
        layers["stream.rows"] = self.stream_rows / passes
        layers["trace.leqa_s"] = self.figure("leqa_traced")
        layers["trace.overhead_pct"] = 100.0 * (
            self.figure("leqa_traced") / self.figure("leqa") - 1.0
        )
        return layers


def _error_pct(record: dict) -> float:
    leqa = float.fromhex(record["leqa"])
    actual = float.fromhex(record["map"])
    return 100.0 * abs(leqa - actual) / actual


def host_fingerprint(repro, kernel_ok: bool) -> dict:
    """CPU, cores, versions, git revision and kernel availability."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "git_rev": rev,
        "kernel": kernel_ok,
    }


def _fmt(values: list[float]) -> str:
    return " ".join(f"{value:.4g}" for value in values)


def report(run: Run, measured: dict, metrics: dict, daemon: dict) -> None:
    """The human-readable lines before the JSON result."""
    from hostspeed import NOMINAL_S

    print(f"workload {run.args.workload} seed {run.args.seed}: "
          f"{sum(len(v) for k, v in run.calls.items() if k[0] == 'leqa')} LEQA calls, "
          f"{len(run.imports)} cold starts, {len(run.stream_rss)} stream processes; "
          f"phase seconds "
          + ", ".join(f"{phase} {seconds:.1f}" for phase, seconds in run.phase_s.items()))
    seconds = run.host.seconds
    deciles = statistics.quantiles(seconds, n=10)
    print(f"  host reference: {len(seconds)} samples, fastest {min(seconds) * 1e3:.4g} ms, "
          f"p10 {deciles[0] * 1e3:.4g} ms, median {deciles[4] * 1e3:.4g} ms "
          f"(reported times are on a host where it takes {NOMINAL_S * 1e3:g} ms)")
    print(f"  {'metric':<16} {'reported':>12} {'measured':>12}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.6g} {measured[name][0]:12.6g} {unit}")
    # Measured every run but gated only as per-layer figures: their
    # run-to-run spread on a shared host exceeds any allowed bound.
    print(f"  {'job_p99_ms':<16} {daemon['p99']:12.6g} ms")
    print(f"  {'max_rate_jobs_s':<16} {daemon['max_rate']:12.6g} jobs/s")
    print(f"  {'failed_frac':<16} {run.failed / max(run.attempted, 1):12.6g} ratio"
          f"  ({run.failed} of {run.attempted} operations)")
    def values(kind: str, name: str = "") -> list[float]:
        return [sample.value for sample in run.calls[(kind, name)]]

    print(f"  measured set-up samples (s): {_fmt(values('setup'))}; cold passes (s): "
          f"{_fmt(values('cold'))}; job p50 per slice (ms): {_fmt(values('job_p50'))}")
    print(f"  daemon spawn to ping {daemon['setup_s']:.4g} s (median of "
          f"{len(daemon['setups'])}), daemon peak RSS {daemon['rss_mb']:.4g} MB; "
          f"streaming child peak RSS {max(run.stream_rss):.4g} MB")
    print(f"  generator lateness p99 "
          f"{daemon['layers']['service.gen_late_ms_p99']:.3f} ms; at the nominal rate "
          f"the workers are busy {daemon['utilisation']:.1%} of the time, by class "
          + ", ".join(f"{klass} {share:.0%}"
                      for klass, share in daemon["work_share"].items()))
    print("  rate climb (jobs/s, tail-or-drain ms): "
          + ", ".join(f"({rate:g}, {stress:.1f})" for rate, stress in daemon["steps"]))
    for mismatch in run.mismatches[:20]:
        print(f"  MISMATCH {mismatch}")
    leqa, mapped = metrics["leqa_s"][0], metrics["map_s"][0]
    print(f"  map_s / leqa_s = {mapped:.4g} s / {leqa:.4g} s = {mapped / leqa:.3f}x (reported)")
    print("  measured, fastest call per circuit:")
    print("  circuit              ops  qubits   leqa_ms    map_ms  map/leqa  leqa_err_%")
    for name in run.workload.circuits:
        leqa_s = min(values("leqa", name))
        map_s = min(values("map", name))
        record = run.expected[name]
        print(f"  {name:<16} {record['ops']:>8} {record['qubits']:>6} "
              f"{leqa_s * 1e3:9.2f} {map_s * 1e3:9.2f}  {map_s / leqa_s:7.3f}x"
              f"  {_error_pct(record):9.3f}   stream (s): "
              f"{_fmt(values('stream', name))}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still stops its daemon and waits for its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        return _fail(f"no package source under {ROOT / 'src'}", 2)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    # Everything a run writes stays in the checkout: the kernel cache,
    # and the spill files of the streaming passes (through TMPDIR).
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK_ROOT / "kernel")
    os.environ["TMPDIR"] = str(WORK_ROOT / "tmp")
    (WORK_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    import repro
    from repro.qspr import _kernel
    from spans import Tracer

    workloads = _workloads()
    if args.record_expected:
        import record

        record.write(workloads, CALIBRATION, EXPECTED_PATH)
        return 0
    if args.workload not in workloads:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}", 2)
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{int(time.time())}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    with tracer.span("qspr.kernel_load"):
        kernel_ok = _kernel.available()
    host = host_fingerprint(repro, kernel_ok)
    print("host " + json.dumps(host, sort_keys=True))
    if not kernel_ok:
        return _fail("compiled scheduler kernel unavailable; map_s would "
                     "time the pure-Python fallback, so nothing is reported", 3)

    run = Run(args, workloads[args.workload], tracer)
    try:
        daemon = run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    measured = run.metrics(scaled=False)
    metrics = run.metrics(scaled=True)
    report(run, measured, metrics, daemon)

    spec = json.loads(spec_path.read_text())
    if args.trace:
        trace_path = WORK_ROOT / "traces" / f"{run_id}.jsonl"
        tracer.write(trace_path)
        print(f"  trace: {len(tracer.spans)} spans of run {run_id} in {trace_path}")
        layers = run.layer_metrics(daemon)
        for name, value in layers.items():
            print(f"  {name:<28} {value:14.6g}")
        chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
