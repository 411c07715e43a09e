"""Loader for the compiled scheduler kernel (``engine="kernel"``).

``_kernel.c`` is a statement-for-statement C translation of the array
scheduling loop.  This module builds it into a shared object with the
system C compiler the first time the kernel engine is requested, caches
the ``.so`` keyed by a hash of the source (so a source change or a repo
move never loads a stale binary), and exposes the result through
:func:`schedule_arrays`.

No third-party build machinery: a single ``cc -O2 -shared`` invocation,
with ``-ffp-contract=off`` so no fused-multiply-add changes a rounding —
the kernel's contract is *bitwise* identity with the array engine.
Everything degrades loudly but gracefully: when no compiler exists (or
the compile fails), :func:`load` raises and the scheduler falls back to
``engine="array"`` with a warning.

The cache directory is ``$REPRO_KERNEL_CACHE`` when set, else
``~/.cache/leqa-kernel``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["available", "load", "schedule_arrays", "kernel_cache_dir"]

_SOURCE = Path(__file__).with_name("_kernel.c")

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_I64_MAX = 2**63 - 1

_lib: ctypes.CDLL | None = None
_load_error: Exception | None = None


def kernel_cache_dir() -> Path:
    """Directory holding compiled kernel binaries."""
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "leqa-kernel"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _build(so_path: Path) -> None:
    compiler = _compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (tried cc, gcc, clang); the kernel "
            "engine needs one to build its shared object"
        )
    so_path.parent.mkdir(parents=True, exist_ok=True)
    # Compile to a unique temp name, then atomically publish: concurrent
    # processes race benignly (last rename wins, same bytes).
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="leqa-kernel-", dir=so_path.parent
    )
    os.close(fd)
    try:
        result = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"kernel compile failed ({compiler}): "
                f"{result.stderr.strip() or result.stdout.strip()}"
            )
        os.replace(tmp_name, so_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def load() -> ctypes.CDLL:
    """The compiled kernel, building and caching it on first use.

    Raises
    ------
    RuntimeError
        If the source is missing, no compiler is available, or the
        compile/load fails.  The error is cached: repeated calls fail
        fast instead of re-running the compiler.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise _load_error
    try:
        source_bytes = _SOURCE.read_bytes()
        digest = hashlib.blake2b(source_bytes, digest_size=16).hexdigest()
        so_path = kernel_cache_dir() / f"kernel-{digest}.so"
        if not so_path.exists():
            _build(so_path)
        lib = ctypes.CDLL(str(so_path))
        fn = lib.leqa_schedule
        fn.restype = ctypes.c_int
        fn.argtypes = [
            ctypes.c_longlong,  # num_ops
            ctypes.c_longlong,  # num_qubits
            ctypes.POINTER(ctypes.c_longlong),  # op_q0
            ctypes.POINTER(ctypes.c_longlong),  # op_q1
            ctypes.POINTER(ctypes.c_double),  # op_delay
            ctypes.POINTER(ctypes.c_longlong),  # visit_order
            ctypes.c_longlong,  # width
            ctypes.c_longlong,  # height
            ctypes.c_longlong,  # capacity
            ctypes.c_double,  # t_move
            ctypes.c_longlong,  # mode_xy
            ctypes.POINTER(ctypes.c_longlong),  # qloc (in/out)
            ctypes.POINTER(ctypes.c_double),  # finish_times (out)
            ctypes.POINTER(ctypes.c_longlong),  # stats_i (out, 5)
            ctypes.POINTER(ctypes.c_double),  # stats_d (out, 1)
        ]
    except Exception as error:
        _load_error = (
            error
            if isinstance(error, RuntimeError)
            else RuntimeError(str(error))
        )
        raise _load_error from None
    _lib = lib
    return lib


def available() -> bool:
    """Whether the compiled kernel can be (or already was) loaded."""
    try:
        load()
    except RuntimeError:
        return False
    return True


def _i64_ptr(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))


def _f64_ptr(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def schedule_arrays(
    q0: np.ndarray,
    q1: np.ndarray,
    delays: np.ndarray,
    visit_order: np.ndarray,
    num_qubits: int,
    width: int,
    height: int,
    capacity: int,
    t_move: float,
    mode: str,
    initial_locations: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int, int, int], float]:
    """Run the compiled scheduling loop over compiled-op arrays.

    Returns ``(finish_times, final_locations, stats_ints, total_wait)``
    where ``stats_ints`` is ``(total_moves, total_hops, relocations,
    cnot_count, one_qubit_count)`` and locations are flat ULB ids.

    Raises
    ------
    RuntimeError
        If the kernel is unavailable, ``capacity`` does not fit a signed
        64-bit integer, or the kernel reports a failure (status 1 when
        the channel-slot table cannot be allocated).
    """
    lib = load()
    if capacity > _I64_MAX:
        # ctypes would silently wrap it to a small or zero capacity.
        raise RuntimeError(f"channel capacity {capacity} exceeds 64 bits")
    num_ops = len(delays)
    q0 = np.ascontiguousarray(q0, dtype=np.int64)
    q1 = np.ascontiguousarray(q1, dtype=np.int64)
    delays = np.ascontiguousarray(delays, dtype=np.float64)
    visit_order = np.ascontiguousarray(visit_order, dtype=np.int64)
    # Always copy: the kernel updates locations in place and the caller's
    # array must stay untouched.
    qloc = np.array(initial_locations, dtype=np.int64)
    finish_times = np.zeros(num_ops, dtype=np.float64)
    stats_i = np.zeros(5, dtype=np.int64)
    stats_d = np.zeros(1, dtype=np.float64)
    status = lib.leqa_schedule(
        num_ops,
        num_qubits,
        _i64_ptr(q0),
        _i64_ptr(q1),
        _f64_ptr(delays),
        _i64_ptr(visit_order),
        width,
        height,
        capacity,
        t_move,
        1 if mode == "xy" else 0,
        _i64_ptr(qloc),
        _f64_ptr(finish_times),
        _i64_ptr(stats_i),
        _f64_ptr(stats_d),
    )
    if status != 0:
        raise RuntimeError(f"scheduler kernel failed with status {status}")
    moves, hops, relocations, cnots, one_qubit = stats_i.tolist()
    return (
        finish_times,
        qloc,
        (moves, hops, relocations, cnots, one_qubit),
        float(stats_d[0]),
    )
