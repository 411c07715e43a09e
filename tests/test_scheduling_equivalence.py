"""Scheduler engines against golden schedule digests (repro.qspr.scheduling).

The array engine and the compiled kernel must reproduce, bit for bit,
the schedules recorded in ``tests/data/schedule_digests.json``: same
latency, same per-op finish times, same final qubit locations, same
movement statistics and, for traced configurations, the same trace.
Each configuration is keyed by name and carries the content fingerprint
of the circuit it schedules, so a digest can only ever be checked
against the circuit it was taken from.

Every configuration holds two blake2b-128 digests:

``schedule``
    over ``latency.hex()``, each ``finish_times[i].hex()``, the final
    locations and the six :class:`ScheduleStats` fields (floats as hex);
``trace``
    over every :class:`TraceEvent` field (traced configurations only).

The array engine must match both; the kernel has no trace recorder, so
it must match the ``schedule`` digest and, directly, the array result.
The kernel compiles its C backend on first use and degrades to the array
engine (with a :class:`RuntimeWarning`) where no compiler exists, so the
comparisons hold on compiler-less machines too.

Large library rows are skipped unless ``REPRO_FULL=1`` to keep the tier-1
suite fast; the covered subset still spans every gate kind, both routing
modes, both visit orders and congestion-heavy fabrics.

Regenerate the digests (only after a deliberate change to the schedule)
with::

    PYTHONPATH=src python tests/test_scheduling_equivalence.py --write-digests
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.gates import cnot, h, s, sdg, t, tdg, x, y, z
from repro.circuits.generators import ham3
from repro.circuits.library import BENCHMARKS, build
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.fabric.tqa import Position, TQA
from repro.qodg.iig import build_iig
from repro.qspr.mapper import QSPRMapper
from repro.qspr.placement import make_placement
from repro.qspr.routing import SlotRouter
from repro.qspr.scheduling import (
    ScheduleResult,
    compile_qodg,
    schedule_circuit,
)

#: Synthesis-level op-count cap for the default (fast) run; REPRO_FULL=1
#: removes it and covers the entire registry.
DEFAULT_OP_CAP = 1000

DIGEST_PATH = Path(__file__).with_name("data") / "schedule_digests.json"

#: One build per registry row for the whole module: the row filter runs
#: at collection time and the cases reuse the same circuits.
_cached_build = functools.lru_cache(maxsize=None)(build)


def library_rows() -> list[str]:
    if os.environ.get("REPRO_FULL") == "1":
        return list(BENCHMARKS)
    return [
        name
        for name in BENCHMARKS
        if len(_cached_build(name)) <= DEFAULT_OP_CAP
    ]


# -- digests ----------------------------------------------------------------


def _blake(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def schedule_digest(result: ScheduleResult) -> str:
    """Digest of everything a schedule reports except its trace."""
    stats = result.stats
    lines = [result.latency.hex()]
    lines.extend(map(float.hex, result.finish_times))
    lines.extend(f"{x},{y}" for x, y in result.final_locations)
    lines.append(
        f"{stats.total_moves} {stats.total_hops} "
        f"{stats.congestion_wait.hex()} {stats.relocations} "
        f"{stats.cnot_count} {stats.one_qubit_count}"
    )
    return _blake("\n".join(lines))


def trace_digest(result: ScheduleResult) -> str:
    """Digest of every field of every trace event, in trace order."""
    return _blake(
        "\n".join(
            f"{e.index} {e.kind} {','.join(map(str, e.qubits))} "
            f"{e.ulb[0]},{e.ulb[1]} {e.start.hex()} {e.finish.hex()} "
            f"{e.travel_hops} {e.travel_wait.hex()}"
            for e in result.trace
        )
    )


# -- configurations ---------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One scheduling configuration with a recorded digest.

    ``mapper`` routes the run through the :class:`QSPRMapper` facade
    (default ``iig_greedy`` placement) instead of calling
    :func:`schedule_circuit` with ``placement``.
    """

    circuit: Circuit
    params: PhysicalParams
    placement: list[Position] = field(default_factory=list)
    options: dict = field(default_factory=dict)
    traced: bool = False
    mapper: bool = False

    def run(self, engine: str, **extra) -> ScheduleResult:
        """Schedule under ``engine``; the kernel runs untraced."""
        traced = self.traced and engine != "kernel"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if self.mapper:
                return QSPRMapper(
                    params=self.params, engine=engine, record_trace=traced
                ).map(self.circuit).schedule
            return schedule_circuit(
                self.circuit, self.placement, self.params, engine=engine,
                record_trace=traced, **self.options, **extra,
            )


def _placed(circuit, params, strategy="iig_greedy", **kwargs) -> Case:
    placement = make_placement(
        strategy, build_iig(circuit), TQA(params.fabric)
    )
    return Case(circuit, params, placement, **kwargs)


def _library_case(name: str) -> Case:
    circuit = synthesize_ft(_cached_build(name))
    return _placed(
        circuit, PhysicalParams(fabric=FabricSpec(30, 30)), traced=True
    )


def _ham3_case(routing: str, order: str) -> Case:
    circuit = synthesize_ft(_cached_build("ham3"))
    return _placed(
        circuit,
        PhysicalParams(fabric=FabricSpec(8, 8)),
        options={"routing_mode": routing, "order": order},
    )


def _congestion_case() -> Case:
    """A saturated fabric (capacity 1, tiny grid) drives every journey
    through the maze search."""
    circuit = synthesize_ft(_cached_build("8bitadder"))
    params = PhysicalParams(fabric=FabricSpec(5, 5), channel_capacity=1)
    return _placed(circuit, params, "row_major", traced=True)


def _single_ulb_case() -> Case:
    """A 1x1 fabric has no channels; everything executes in the only
    ULB and CNOT operands meet in place."""
    circuit = Circuit(2)
    circuit.extend([h(0), cnot(0, 1), t(1), x(0)])
    params = PhysicalParams(fabric=FabricSpec(1, 1))
    return Case(circuit, params, [(0, 0), (0, 0)], traced=True)


def _line_case(width: int, height: int) -> Case:
    circuit = Circuit(3)
    circuit.extend([h(0), cnot(0, 1), cnot(1, 2), t(2), x(0)])
    params = PhysicalParams(fabric=FabricSpec(width, height))
    return _placed(circuit, params, "row_major")


def _facade_case() -> Case:
    return Case(
        ham3(), PhysicalParams(fabric=FabricSpec(10, 10)), mapper=True
    )


CASES: dict[str, Callable[[], Case]] = {
    **{
        f"library/{name}": functools.partial(_library_case, name)
        for name in BENCHMARKS
    },
    **{
        f"ham3/{routing}/{order}": functools.partial(
            _ham3_case, routing, order
        )
        for routing in ("maze", "xy")
        for order in ("program", "alap")
    },
    "congestion/8bitadder": _congestion_case,
    "fabric/1x1": _single_ulb_case,
    "fabric/6x1": functools.partial(_line_case, 6, 1),
    "fabric/1x6": functools.partial(_line_case, 1, 6),
    "facade/ham3": _facade_case,
}


@functools.lru_cache(maxsize=1)
def golden() -> dict:
    return json.loads(DIGEST_PATH.read_text())["configs"]


def check_golden(key: str, case: Case, result: ScheduleResult) -> None:
    """Assert ``result`` matches the recorded digests of ``key``."""
    entry = golden()[key]
    assert case.circuit.content_fingerprint() == entry["circuit"], (
        f"{key}: circuit content changed; its digest no longer applies"
    )
    assert schedule_digest(result) == entry["schedule"], key
    if result.trace is not None:
        assert trace_digest(result) == entry["trace"], key


def assert_identical(reference, other, check_trace=True):
    assert other.latency == reference.latency
    assert other.finish_times == reference.finish_times
    assert other.final_locations == reference.final_locations
    assert other.stats == reference.stats
    if check_trace and reference.trace is not None:
        assert list(other.trace) == list(reference.trace)


def check_engines(key: str) -> tuple[ScheduleResult, ScheduleResult]:
    """Array against both digests; kernel against the schedule digest
    and, directly, the array result."""
    case = CASES[key]()
    array = case.run("array")
    check_golden(key, case, array)
    kernel = case.run("kernel")
    check_golden(key, case, kernel)
    assert_identical(array, kernel, check_trace=False)
    return array, kernel


# -- tests ------------------------------------------------------------------


class TestGoldenDigests:
    def test_every_case_has_a_digest(self):
        entries = golden()
        assert set(entries) == set(CASES)
        for entry in entries.values():
            assert set(entry) >= {"circuit", "schedule"}

    @pytest.mark.parametrize("name", library_rows())
    def test_library(self, name):
        """Bit-identical schedule and trace on every library row."""
        array, _ = check_engines(f"library/{name}")
        assert array.trace is not None

    @pytest.mark.parametrize("routing", ["maze", "xy"])
    @pytest.mark.parametrize("order", ["program", "alap"])
    def test_modes_and_orders(self, routing, order):
        check_engines(f"ham3/{routing}/{order}")

    def test_heavy_congestion(self):
        array, _ = check_engines("congestion/8bitadder")
        assert array.stats.congestion_wait > 0.0

    def test_single_ulb_fabric_schedules_in_place(self):
        array, _ = check_engines("fabric/1x1")
        assert array.stats.total_moves == 0
        assert array.final_locations == ((0, 0), (0, 0))

    @pytest.mark.parametrize("shape", ["6x1", "1x6"])
    def test_single_row_and_single_column_fabrics(self, shape):
        check_engines(f"fabric/{shape}")

    def test_prebuilt_compiled_ops(self):
        key = "ham3/maze/program"
        case = CASES[key]()
        compiled = compile_qodg(case.circuit, case.params.delays.by_kind())
        for engine in ("array", "kernel"):
            check_golden(key, case, case.run(engine, compiled=compiled))

    def test_unknown_engine_rejected(self):
        from repro.exceptions import MappingError

        circuit = Circuit(1)
        circuit.append(h(0))
        params = PhysicalParams(fabric=FabricSpec(4, 4))
        for engine in ("numpy", "legacy"):
            with pytest.raises(MappingError, match="unknown scheduler engine"):
                schedule_circuit(circuit, [(0, 0)], params, engine=engine)


ONE_QUBIT_GATES = (h, t, tdg, x, y, z, s, sdg)


@st.composite
def random_schedules(draw):
    """A small random FT circuit, fabric, placement and scheduler setup."""
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    num_qubits = draw(st.integers(1, 6))
    circuit = Circuit(num_qubits)
    gate_count = draw(st.integers(0, 60))
    for _ in range(gate_count):
        a = draw(st.integers(0, num_qubits - 1))
        if num_qubits > 1 and draw(st.booleans()):
            b = (a + draw(st.integers(1, num_qubits - 1))) % num_qubits
            circuit.append(cnot(a, b))
        else:
            circuit.append(draw(st.sampled_from(ONE_QUBIT_GATES))(a))
    placement = [
        (draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
        for _ in range(num_qubits)
    ]
    params = PhysicalParams(
        fabric=FabricSpec(width, height),
        channel_capacity=draw(st.integers(1, 3)),
        # Long hops relative to gate delays crowd the channels.
        t_move=draw(st.sampled_from([100.0, 2500.0, 10000.0])),
    )
    options = {
        "routing_mode": draw(st.sampled_from(["maze", "xy"])),
        "order": draw(st.sampled_from(["program", "alap"])),
    }
    return circuit, placement, params, options


class TestRandomCircuits:
    @given(random_schedules())
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_array(self, setup):
        """Array engine and kernel are bitwise equal on random inputs."""
        circuit, placement, params, options = setup
        case = Case(circuit, params, placement, options)
        assert_identical(case.run("array"), case.run("kernel"))


class TestKernelFallback:
    """The kernel engine must degrade to the array engine, loudly."""

    def test_huge_channel_capacity_falls_back(self):
        """A capacity whose channel-slot table cannot be addressed (or
        that does not fit 64 bits) makes the kernel decline instead of
        corrupting memory; the array engine then answers.  Runs in a
        child process so a crash cannot take the test run down."""
        code = textwrap.dedent(
            """
            import warnings
            from repro.circuits.decompose import synthesize_ft
            from repro.circuits.library import build
            from repro.fabric.params import FabricSpec, PhysicalParams
            from repro.qspr.mapper import QSPRMapper

            for name, capacity in (
                ("gf2^16mult", 2**62), ("hwb15ps", 2**61), ("ham3", 2**64 + 1)
            ):
                params = PhysicalParams(
                    fabric=FabricSpec(60, 60), channel_capacity=capacity
                )
                circuit = synthesize_ft(build(name))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    kernel = QSPRMapper(params, engine="kernel").map(circuit)
                array = QSPRMapper(params, engine="array").map(circuit)
                assert kernel.schedule == array.schedule, name
                assert any(
                    "falling back to engine='array'" in str(w.message)
                    for w in caught
                ), name
                print(name, repr(kernel.latency))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).parents[1]),
                          env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert child.returncode == 0, child.stderr
        assert "gf2^16mult 43836360.0" in child.stdout

    def _ham3_setup(self):
        case = CASES["ham3/maze/program"]()
        return case.circuit, case.placement, case.params

    def test_missing_kernel_module_degrades_with_warning(self, monkeypatch):
        """Hiding the compiled backend's module forces the fallback: the
        schedule is still bitwise the array engine's, plus a warning."""
        circuit, placement, params = self._ham3_setup()
        array = schedule_circuit(
            circuit, placement, params, engine="array"
        )
        import repro.qspr

        # Both the sys.modules entry and the package attribute must go:
        # either one would satisfy `from . import _kernel` on its own.
        monkeypatch.delattr(repro.qspr, "_kernel", raising=False)
        monkeypatch.setitem(sys.modules, "repro.qspr._kernel", None)
        with pytest.warns(
            RuntimeWarning, match="falling back to engine='array'"
        ):
            fallen_back = schedule_circuit(
                circuit, placement, params, engine="kernel"
            )
        assert_identical(array, fallen_back)

    def test_kernel_load_failure_degrades_with_warning(self, monkeypatch):
        """A backend that imports but cannot build its shared object
        (no compiler, compile error) degrades the same way."""
        from repro.qspr import _kernel

        circuit, placement, params = self._ham3_setup()
        array = schedule_circuit(
            circuit, placement, params, engine="array"
        )

        def broken_load():
            raise RuntimeError("no C compiler found (test stub)")

        monkeypatch.setattr(_kernel, "load", broken_load)
        with pytest.warns(
            RuntimeWarning, match="falling back to engine='array'"
        ):
            fallen_back = schedule_circuit(
                circuit, placement, params, engine="kernel"
            )
        assert_identical(array, fallen_back)

    def test_mapping_result_reports_requested_engine(self):
        from repro.qspr.mapper import map_circuit

        circuit = CASES["ham3/maze/program"]().circuit
        params = PhysicalParams(fabric=FabricSpec(8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = map_circuit(circuit, params, engine="kernel")
        assert result.engine == "kernel"
        assert map_circuit(circuit, params).engine == "array"
        assert result.latency == map_circuit(circuit, params).latency


#: ``(arrival, hops, wait)`` per journey of the capacity-queue pattern
#: below, and the pattern's total wait, as the object-per-step reference
#: router produced them before it was retired.
RECORDED_JOURNEYS = [
    (300.0, 3, 0.0),
    (300.0, 3, 0.0),
    (400.0, 2, 200.0),
    (300.0, 3, 0.0),
    (300.0, 3, 0.0),
]
RECORDED_TOTAL_WAIT = 200.0


class TestSlotRouterEdgeCases:
    def test_zero_length_journey(self):
        router = SlotRouter(4, 4, capacity=2, t_move=100.0)
        arrival, hops, wait = router.move(5, 5, 42.0)
        assert (arrival, hops, wait) == (42.0, 0, 0.0)
        assert router.total_moves == 0

    def test_channel_queues_at_capacity(self):
        """With ``N_c`` slots, crossing ``N_c + 1`` qubits queues the last."""
        capacity = 3
        router = SlotRouter(4, 4, capacity=capacity, t_move=100.0)
        height = 4
        source, target = 0 * height + 0, 1 * height + 0  # one hop east
        arrivals = [router.move(source, target, 0.0)[0] for _ in range(4)]
        assert arrivals[:capacity] == [100.0] * capacity
        assert arrivals[capacity] == 200.0
        assert router.total_wait == 100.0

    def test_capacity_queue_matches_recorded_journeys(self):
        """Journeys through a capacity-2 fabric, against the
        ``(arrival, hops, wait)`` values of the retired reference router."""
        params = PhysicalParams(fabric=FabricSpec(6, 6), channel_capacity=2)
        router = SlotRouter(6, 6, capacity=2, t_move=params.t_move)
        height = 6
        pattern = [((0, 0), (2, 1)), ((0, 0), (2, 1)), ((0, 1), (2, 1)),
                   ((1, 0), (1, 3)), ((0, 0), (2, 1))]
        for (src, dst), want in zip(pattern, RECORDED_JOURNEYS):
            got = router.move(
                src[0] * height + src[1], dst[0] * height + dst[1], 0.0
            )
            assert got == want
        assert router.total_hops == 14
        assert router.total_wait == RECORDED_TOTAL_WAIT

    def test_unknown_mode_rejected(self):
        from repro.exceptions import MappingError

        with pytest.raises(MappingError, match="unknown routing mode"):
            SlotRouter(4, 4, capacity=1, t_move=100.0, mode="teleport")


# -- generator --------------------------------------------------------------


def write_digests(engine: str, path: Path = DIGEST_PATH) -> None:
    """Run every case under ``engine`` and write the digest file."""
    configs = {}
    started = time.perf_counter()
    for key, make in CASES.items():
        case = make()
        result = case.run(engine)
        entry = {
            "circuit": case.circuit.content_fingerprint(),
            "schedule": schedule_digest(result),
        }
        if case.traced:
            entry["trace"] = trace_digest(result)
        configs[key] = entry
        print(f"{key}: {len(case.circuit)} ops", file=sys.stderr)
    wall = time.perf_counter() - started
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"engine": engine, "configs": configs}, indent=1) + "\n"
    )
    print(f"wrote {len(configs)} configs in {wall:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-digests", action="store_true", required=True)
    parser.add_argument("--engine", default="array")
    write_digests(parser.parse_args().engine)
