"""Single-pass critical-path sweep (the estimator's fast path).

The QODG's edges are exactly "next gate touching the same qubit", so the
longest start-to-end path can be computed without materializing the graph:
one forward pass keeps, per qubit, the length of the longest dependency
chain ending at that qubit's last gate.  Each gate's chain length is the
maximum over its operand qubits plus its own delay — identical, gate for
gate, to the DAG longest-path recurrence over the explicit QODG (a
property the test suite asserts on random circuits).

This costs O(gates) with a small constant and no per-node allocation,
which matters for the paper's Table 3: LEQA's runtime should stay linear
in operation count with a constant far below the detailed mapper's.
:func:`sweep_critical_path` returns the same :class:`CriticalPathResult`
as :func:`repro.qodg.critical_path.critical_path`; only tie-breaking
between equally long paths may differ.

The recurrence lives in one resumable object, :class:`ChainSweep`: it
keeps the per-qubit chain state between :meth:`~ChainSweep.feed` calls,
so the in-memory sweep feeds it a whole circuit once and the streamed
estimator (:func:`repro.circuits.stream.estimate_stream`) feeds it one
spilled chunk at a time.

Parameter sweeps add a second shape of demand: the *same* circuit under
*many* per-kind delay tables (a Table-1 sensitivity grid, a fabric-size
sweep — every point changes only the node delays reaching the critical
path).  :func:`sweep_critical_path_lengths` runs the forward pass for all
delay tables simultaneously — the per-qubit chain state becomes a
``(num_qubits, num_tables)`` array and each gate is one ``maximum`` plus
one add over the batch axis.  Per point this is several times cheaper
than repeating the scalar sweep, and the per-point lengths are *bitwise*
equal to it (same IEEE operations in the same order).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.gates import KINDS_BY_CODE, GateKind
from ..exceptions import GraphError
from .critical_path import CriticalPathResult, backtrack, node_delays

__all__ = [
    "ChainSweep",
    "sweep_critical_path",
    "sweep_critical_path_lengths",
]


class ChainSweep:
    """Resumable per-qubit chain recurrence over rows of gates.

    Rows are numbered consecutively across :meth:`feed` calls.  After
    any feed, :attr:`length` is the longest chain so far and
    :attr:`last` the row it ends at (-1 while every chain is empty);
    :func:`~repro.qodg.critical_path.backtrack` over the concatenated
    predecessor lists recovers the path.
    """

    def __init__(self, num_qubits: int) -> None:
        # Longest chain ending at each qubit's last gate, and that gate's
        # row (-1 = the virtual start node).
        self._dist = [0.0] * num_qubits
        self._last = [-1] * num_qubits
        self.rows = 0
        self.length = 0.0
        self.last = -1

    def feed(
        self, delays: np.ndarray, o0: np.ndarray, o1: np.ndarray
    ) -> list[int]:
        """Advance over one chunk of rows; return each row's predecessor.

        ``o0``/``o1`` are the operand columns of
        :meth:`~repro.circuits.table.GateTable.operand_pairs` (``o1 = -1``
        for one-qubit gates) and ``delays`` the rows' node delays.  Ties
        go to the first operand, and a zero-length chain has no
        predecessor.
        """
        dist = self._dist
        last = self._last
        length = self.length
        tail = self.last
        preds: list[int] = []
        append = preds.append
        start = self.rows
        for node, qubit_a, qubit_b, delay in zip(
            range(start, start + len(delays)),
            o0.tolist(),
            o1.tolist(),
            delays.tolist(),
        ):
            best = dist[qubit_a]
            pred = last[qubit_a] if best > 0.0 else -1
            if qubit_b >= 0:
                chain = dist[qubit_b]
                if chain > best:
                    best = chain
                    pred = last[qubit_b]
                total = best + delay
                dist[qubit_b] = total
                last[qubit_b] = node
            else:
                total = best + delay
            append(pred)
            dist[qubit_a] = total
            last[qubit_a] = node
            if total > length:
                length = total
                tail = node
        self.rows = start + len(delays)
        self.length = length
        self.last = tail
        return preds


def _operand_pairs(table) -> tuple[np.ndarray, np.ndarray]:
    """The table's operand columns, rejecting gates on three or more qubits."""
    if len(table) and table.max_operands() > 2:
        arities = table.arities()
        offender = int(np.argmax(arities > 2))
        raise GraphError(
            f"the critical-path sweep supports one- and two-qubit gates "
            f"only; gate kind {table.gate_kind(offender).value!r} touches "
            f"{int(arities[offender])} qubits (run FT synthesis first)"
        )
    return table.operand_pairs()


def sweep_critical_path(
    circuit: Circuit, delay_by_kind: Mapping[GateKind, float]
) -> CriticalPathResult:
    """Longest dependency-chain latency of a circuit in one pass.

    Equivalent to building the QODG and running
    :func:`repro.qodg.critical_path.critical_path`, without constructing
    the graph.  See that function for the result contract.

    Raises
    ------
    GraphError
        For a missing, negative or non-finite kind delay (see
        :func:`~repro.qodg.critical_path.node_delays`), or a gate on
        more than two qubits.
    """
    table = circuit.table()
    delays = node_delays(table.kind, delay_by_kind)
    o0, o1 = _operand_pairs(table)
    chain = ChainSweep(circuit.num_qubits)
    preds = chain.feed(delays, o0, o1)
    return backtrack(preds, table.kind, chain.last, chain.length)


def sweep_critical_path_lengths(
    circuit: Circuit, delay_tables: Sequence[Mapping[GateKind, float]]
) -> np.ndarray:
    """Critical-path lengths of one circuit under many delay tables.

    Returns one length per table; entry ``t`` is bitwise equal to
    ``sweep_critical_path(circuit, delay_tables[t]).length``.  Raises
    exactly as :func:`sweep_critical_path` does.
    """
    table = circuit.table()
    codes = table.kind
    present = np.flatnonzero(np.bincount(codes, minlength=len(KINDS_BY_CODE)))
    luts = np.zeros((len(KINDS_BY_CODE), len(delay_tables)))
    for column, delay_by_kind in enumerate(delay_tables):
        luts[present, column] = node_delays(present, delay_by_kind)
    o0, o1 = _operand_pairs(table)
    if not len(table):
        return np.zeros(len(delay_tables))
    # Chain state per qubit, batched over the table axis.  Kept as a
    # list of row arrays so a gate's update *rebinds* its operand rows
    # to the freshly allocated chain vector instead of copying into a
    # 2D array — every row is written whole, never mutated, so sharing
    # (including the single initial zero row) is safe.  Entries are
    # non-decreasing, so the final elementwise maximum over rows is the
    # overall longest-path length at every point.
    dist = [np.zeros(len(delay_tables))] * circuit.num_qubits
    rows = list(luts)
    maximum = np.maximum
    for code, qubit_a, qubit_b in zip(
        codes.tolist(), o0.tolist(), o1.tolist()
    ):
        if qubit_b >= 0:
            total = maximum(dist[qubit_a], dist[qubit_b])
            total += rows[code]
            dist[qubit_a] = total
            dist[qubit_b] = total
        else:
            dist[qubit_a] = dist[qubit_a] + rows[code]
    return np.max(np.vstack(dist), axis=0)
