"""Critical-path (longest-path) analysis of a QODG.

The latency model of the paper's Equation (1) needs, for the *mapped*
QODG (operation delays augmented with average routing latencies), the
longest start-to-end path and the per-gate-kind operation counts along it:
``N_CNOT^critical`` and ``N_g^critical`` for each one-qubit FT kind ``g``.

Because QODG node ids are already a topological order, the longest path is
a single O(V + E) sweep (the DAG algorithm the paper's supplement cites
from Cormen et al., chapter 24).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..circuits.gates import KINDS_BY_CODE, GateKind
from ..exceptions import GraphError
from .graph import QODG

__all__ = ["CriticalPathResult", "backtrack", "critical_path", "node_delays"]


@dataclass(frozen=True)
class CriticalPathResult:
    """Result of a critical-path computation.

    Attributes
    ----------
    length:
        Total delay along the longest start-to-end path (the latency ``D``
        when node delays include routing latencies).
    node_ids:
        Operation node ids along the path, in execution order (start and
        end excluded).
    counts_by_kind:
        Number of operations of each :class:`GateKind` on the path.
    cnot_count:
        ``N_CNOT^critical`` — CNOT operations on the path.
    """

    length: float
    node_ids: tuple[int, ...]
    counts_by_kind: dict[GateKind, int]
    cnot_count: int


def node_delays(
    codes: np.ndarray, delay_by_kind: Mapping[GateKind, float]
) -> np.ndarray:
    """Per-row node delays of a kind-code column.

    ``codes`` is a :class:`~repro.circuits.table.GateTable` ``kind``
    column (or any array of kind codes); row ``i`` of the result is
    ``delay_by_kind[KINDS_BY_CODE[codes[i]]]``.  Each kind present is
    looked up once, through ``__getitem__``, so a mapping may raise its
    own error for kinds it does not accept.

    Raises
    ------
    GraphError
        If a present kind is missing from the mapping, or its delay is
        negative or not finite.
    """
    present = np.bincount(codes, minlength=len(KINDS_BY_CODE))
    lut = np.zeros(len(KINDS_BY_CODE))
    for code in np.flatnonzero(present).tolist():
        kind = KINDS_BY_CODE[code]
        try:
            value = float(delay_by_kind[kind])
        except KeyError:
            raise GraphError(
                f"no delay registered for gate kind {kind.value!r}"
            ) from None
        if not math.isfinite(value):
            raise GraphError(
                f"non-finite delay {value} for gate kind {kind.value!r}"
            )
        if value < 0:
            raise GraphError(
                f"negative delay {value} for gate kind {kind.value!r}"
            )
        lut[code] = value
    return lut[codes]


def backtrack(
    preds: Sequence[int], codes: np.ndarray, last: int, length: float
) -> CriticalPathResult:
    """Follow predecessor links back from ``last`` into a result.

    ``preds[node]`` is the node's predecessor on its longest chain (-1 at
    the chain head) and ``codes`` the kind-code column the path's kinds
    are counted from (it may be memory-mapped).  ``counts_by_kind``
    lists kinds in order of first occurrence along the path.
    """
    path: list[int] = []
    node = last
    while node != -1:
        path.append(node)
        node = preds[node]
    path.reverse()
    node_ids = tuple(path)
    del path
    # Count on the path's kind codes, one byte per node: the streamed
    # estimator's working set must stay small beside the node tuple.
    path_codes = codes[
        np.fromiter(node_ids, dtype=np.int64, count=len(node_ids))
    ]
    found = []
    for code, kind in enumerate(KINDS_BY_CODE):
        on_path = path_codes == code
        count = int(np.count_nonzero(on_path))
        if count:
            found.append((int(on_path.argmax()), kind, count))
    counts_by_kind = {kind: count for _, kind, count in sorted(found)}
    return CriticalPathResult(
        length=length,
        node_ids=node_ids,
        counts_by_kind=counts_by_kind,
        cnot_count=counts_by_kind.get(GateKind.CNOT, 0),
    )


def critical_path(
    qodg: QODG, delay_by_kind: Mapping[GateKind, float]
) -> CriticalPathResult:
    """Longest start-to-end path of the QODG under per-kind delays.

    Parameters
    ----------
    qodg:
        The dependency graph.
    delay_by_kind:
        Node delay of each gate kind (operation delay plus, in LEQA's
        usage, the average routing latency of the kind).  Start and end
        nodes have zero delay.

    Returns
    -------
    CriticalPathResult
        Longest-path length, the path itself and per-kind counts.

    Notes
    -----
    An empty circuit yields length 0 and an empty path.  Ties between
    equally-long predecessor paths are broken toward the smaller node id,
    making results deterministic.  This explicit-graph pass is the
    independent oracle of :func:`repro.qodg.sweep.sweep_critical_path`.
    """
    codes = qodg.circuit.table().kind
    delays = node_delays(codes, delay_by_kind).tolist()
    # dist[node] = longest path length ending at (and including) node;
    # the start node keeps 0.0 and is never chosen as a predecessor.
    dist = [0.0] * (qodg.num_ops + 2)
    best_pred = [-1] * qodg.num_ops
    # Hot path: read the adjacency lists directly rather than through the
    # bounds-checked accessor.
    all_preds, _ = qodg._lists()
    for node, delay in enumerate(delays):
        best = 0.0
        pred_choice = -1
        for pred in all_preds[node]:
            pred_dist = dist[pred]
            if pred_dist > best:
                best = pred_dist
                pred_choice = pred
        dist[node] = best + delay
        best_pred[node] = pred_choice
    best = 0.0
    last = -1
    for pred in all_preds[qodg.end]:
        if dist[pred] > best:
            best = dist[pred]
            last = pred
    return backtrack(best_pred, codes, last, best)
