"""Fresh-process probes started by ``run.py``; not meant to be run by hand.

``child.py cold SPEC_JSON``
    Imports the package and loads the compiled kernel, prints
    ``ready <import seconds>`` (the parent times spawn to this line as
    set-up), then loads the FT netlists the parent encoded and times each
    call of the process's first LEQA pass over them.

``child.py stream SPEC_JSON``
    Streams each RevLib file through read -> FT lowering -> peephole ->
    estimate and reports per-file wall times, latencies and the
    process's peak RSS.  With ``trace`` set it also records spans around
    each stage's ``next()`` and returns them.

Each mode ends by printing one JSON line.  Latencies travel as
``float.hex`` strings so the parent compares them bitwise.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _cold(spec: dict) -> dict:
    started = time.perf_counter()
    import repro
    from repro.qspr import _kernel

    import_s = time.perf_counter() - started
    _kernel.load()
    print(f"ready {import_s!r}", flush=True)
    from repro.store import decode

    circuits = [
        decode(Path(path).read_bytes()) for path in spec["netlists"]
    ]
    params = _params(repro, spec)
    latencies, cold_s = [], []
    for circuit in circuits:
        started = time.perf_counter()
        latencies.append(repro.estimate_latency(circuit, params=params).latency)
        cold_s.append(time.perf_counter() - started)
    return {
        "import_s": import_s,
        "cold_s": cold_s,
        "latencies": [value.hex() for value in latencies],
    }


def _params(repro, spec: dict):
    """Table-1 parameters with the parent's calibrated ``v``."""
    import dataclasses

    return dataclasses.replace(
        repro.DEFAULT_PARAMS, qubit_speed=float.fromhex(spec["qubit_speed"])
    )


def _stream(spec: dict) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import repro
    from repro.circuits import stream
    from spans import Tracer

    tracer = Tracer(spec["run_id"], enabled=bool(spec["trace"]))
    params = _params(repro, spec)
    seconds, latencies, rows = [], [], 0
    for path in spec["files"]:
        started = time.perf_counter()
        chunks = tracer.iterate("stream.read", stream.stream_read_real(path))
        chunks = tracer.iterate("stream.lower", stream.lower_ft_stream(chunks))
        chunks = tracer.iterate("stream.optimize", stream.optimize_stream(chunks))
        with tracer.span("stream.estimate"):
            estimate = stream.estimate_stream(chunks, params)
        seconds.append(time.perf_counter() - started)
        latencies.append(estimate.latency.hex())
        rows += estimate.op_count
    return {
        "seconds": seconds,
        "latencies": latencies,
        "rows": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = _cold(spec) if mode == "cold" else _stream(spec)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
