"""Mapper speed: the array engine's wall time and the compiled kernel's
speedup over it.

The paper's Table 3 story (LEQA's ~1000x over a detailed mapper) made the
pure-Python mapper the bottleneck of every accuracy/runtime sweep.  This
bench times ``map_circuit`` on the calibration benchmark under the array
engine and pins the compiled kernel's contract:

* **identical physics** — the kernel must reproduce the array engine's
  latency, per-op finish times and movement statistics bit for bit
  (both engines are also pinned to the golden schedule digests of
  ``tests/test_scheduling_equivalence.py``), and
* **speed** — the kernel must run at least 2x faster than the array
  engine.

The kernel run also appends its measurement to ``BENCH_mapper.json``
(wall time + speedup over the array engine) and fails if the speedup
regressed by more than 2x against the recorded baseline — the
perf-trajectory guard the CI smoke job relies on.
"""

from __future__ import annotations

import os
import time

from repro.fabric.params import DEFAULT_PARAMS
from repro.qspr.mapper import QSPRMapper

from _common import (
    ft_circuit,
    record_mapper_trajectory,
    recorded_mapper_speedup,
)

BENCH = "gf2^16mult"

#: Asserted floor for the compiled kernel over the array engine.
KERNEL_SPEEDUP_FLOOR = 2.0

#: A recorded-baseline regression beyond this factor fails the bench.
REGRESSION_FACTOR = 2.0


def _best_wall(mapper: QSPRMapper, circuit, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        mapper.map(circuit)
        best = min(best, time.perf_counter() - started)
    return best


def test_array_mapper_speed(benchmark):
    smoke = os.environ.get("REPRO_SMOKE") == "1"
    rounds = 2 if smoke else 4
    circuit = ft_circuit(BENCH)
    array_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="array")
    array_wall = _best_wall(array_mapper, circuit, rounds)
    print(f"\narray mapper on {BENCH}: {array_wall * 1000:.1f} ms")
    benchmark.pedantic(
        array_mapper.map, args=(circuit,), rounds=1, iterations=1
    )


def test_kernel_mapper_speed_and_equivalence(benchmark):
    """The compiled scheduler kernel: bitwise the array engine, >= 2x.

    Skipped (not failed) where no C compiler exists — the fallback path
    is covered by the tier-1 suite; this bench measures the real kernel.
    """
    import pytest

    from repro.qspr import _kernel

    if not _kernel.available():
        pytest.skip("no C compiler: kernel engine unavailable on this host")

    smoke = os.environ.get("REPRO_SMOKE") == "1"
    rounds = 2 if smoke else 4
    circuit = ft_circuit(BENCH)
    array_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="array")
    kernel_mapper = QSPRMapper(params=DEFAULT_PARAMS, engine="kernel")

    array = array_mapper.map(circuit)
    kernel = kernel_mapper.map(circuit)
    assert kernel.engine == "kernel"
    assert kernel.latency == array.latency
    assert kernel.schedule.finish_times == array.schedule.finish_times
    assert kernel.schedule.final_locations == array.schedule.final_locations
    assert kernel.schedule.stats == array.schedule.stats

    array_wall = _best_wall(array_mapper, circuit, rounds)
    kernel_wall = _best_wall(kernel_mapper, circuit, rounds)
    speedup = array_wall / kernel_wall
    print(
        f"\nkernel speedup on {BENCH}: {speedup:.2f}x "
        f"(array {array_wall * 1000:.1f} ms, kernel "
        f"{kernel_wall * 1000:.1f} ms)"
    )
    assert speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"kernel engine only {speedup:.2f}x faster than the array engine "
        f"(floor {KERNEL_SPEEDUP_FLOOR}x)"
    )

    key = "kernel_smoke" if smoke else "kernel_full"
    baseline = recorded_mapper_speedup(key)
    if baseline is not None:
        assert speedup >= baseline / REGRESSION_FACTOR, (
            f"kernel speedup regressed more than {REGRESSION_FACTOR}x: "
            f"{speedup:.2f}x now vs {baseline:.2f}x recorded"
        )
    record_mapper_trajectory(key, BENCH, kernel_wall, speedup)

    benchmark.pedantic(
        kernel_mapper.map, args=(circuit,), rounds=1, iterations=1
    )
