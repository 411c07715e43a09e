"""Recompute ``expected.json``: the bitwise reference latencies.

For every circuit of every workload it records, under the calibrated
parameters: the LEQA latency, the kernel-mapper latency, and the LEQA
latency of the materialized twin of the streamed path (read the RevLib
file, ``synthesize_ft``, ``optimize_ft``, estimate).  Run it through
``python3 perfbench/run.py --record-expected`` only when a change is
meant to alter latencies, and say so in the change.
"""

from __future__ import annotations

import dataclasses
import io
import json
from pathlib import Path


def calibrated_speed(circuit_name: str) -> float:
    """``v`` tuned so LEQA matches the kernel mapper on one circuit."""
    import repro
    from repro.circuits import build, synthesize_ft

    circuit = synthesize_ft(build(circuit_name))
    actual = repro.QSPRMapper(engine="kernel").map(circuit)
    return repro.calibrate_qubit_speed(circuit, repro.DEFAULT_PARAMS, actual.latency)


def write(workloads: dict, calibration: str, path: Path) -> None:
    import repro
    from repro.circuits import build, optimize_ft, read_real, synthesize_ft, write_real

    speed = calibrated_speed(calibration)
    params = dataclasses.replace(repro.DEFAULT_PARAMS, qubit_speed=speed)
    mapper = repro.QSPRMapper(params=params, engine="kernel")
    names = sorted({name for w in workloads.values() for name in w.circuits})
    circuits = {}
    for name in names:
        ft = synthesize_ft(build(name))
        text = io.StringIO()
        write_real(build(name), text)
        text.seek(0)
        streamed_twin = optimize_ft(synthesize_ft(read_real(text, name=name)))
        circuits[name] = {
            "ops": len(ft),
            "qubits": ft.num_qubits,
            "leqa": repro.estimate_latency(ft, params=params).latency.hex(),
            "map": mapper.map(ft).latency.hex(),
            "stream": repro.estimate_latency(streamed_twin, params=params).latency.hex(),
        }
        print(name, circuits[name])
    record = {
        "calibration": {"circuit": calibration, "qubit_speed": speed.hex()},
        "circuits": circuits,
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
