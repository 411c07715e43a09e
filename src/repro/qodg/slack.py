"""Scheduling-slack analysis of a QODG.

The paper stresses that routing latencies "change the scheduling slacks
and hence may change the critical path of the entire graph" — the reason
LEQA adds `L^avg` terms to node delays *before* taking the critical path.
This module quantifies that effect: ASAP/ALAP times and per-node slack
under a given delay assignment, plus a helper that reports which
operations join or leave the zero-slack (critical) set when routing
latencies are added.

All passes are O(V + E) sweeps over the topologically ordered QODG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..circuits.gates import GateKind
from .critical_path import node_delays
from .graph import QODG

__all__ = ["SlackAnalysis", "analyze_slack", "critical_set_shift"]


@dataclass(frozen=True)
class SlackAnalysis:
    """ASAP/ALAP schedule and slack per operation node.

    Attributes
    ----------
    asap_start:
        Earliest start time per operation (as-soon-as-possible schedule).
    alap_start:
        Latest start time per operation that preserves the makespan.
    slack:
        ``alap_start - asap_start`` per operation; zero on the critical
        path.
    makespan:
        The critical-path length under the given delays.
    """

    asap_start: tuple[float, ...]
    alap_start: tuple[float, ...]
    slack: tuple[float, ...]
    makespan: float

    def critical_nodes(self, tolerance: float = 1e-9) -> tuple[int, ...]:
        """Operation nodes with (near-)zero slack."""
        return tuple(
            node
            for node, s in enumerate(self.slack)
            if s <= tolerance
        )


def analyze_slack(
    qodg: QODG, delay_by_kind: Mapping[GateKind, float]
) -> SlackAnalysis:
    """Compute ASAP/ALAP times and slack for every operation node.

    Parameters
    ----------
    qodg:
        The dependency graph.
    delay_by_kind:
        Node delay of each gate kind (same contract as
        :func:`repro.qodg.critical_path.critical_path`).
    """
    num_ops = qodg.num_ops
    durations = node_delays(qodg.circuit.table().kind, delay_by_kind).tolist()
    # Both sweeps read the CSR (structure-of-arrays) core: flat index
    # ranges instead of per-node tuple-allocating accessors.
    csr = qodg.csr()
    start, end = qodg.start, qodg.end
    pred_indptr = csr.pred_indptr.tolist()
    pred_indices = csr.pred_indices.tolist()
    succ_indptr = csr.succ_indptr.tolist()
    succ_indices = csr.succ_indices.tolist()
    # ASAP forward sweep (program order is topological).
    asap = [0.0] * num_ops
    for node in range(num_ops):
        earliest = 0.0
        for slot in range(pred_indptr[node], pred_indptr[node + 1]):
            pred = pred_indices[slot]
            if pred == start:
                continue
            finish = asap[pred] + durations[pred]
            if finish > earliest:
                earliest = finish
        asap[node] = earliest
    makespan = max(
        (asap[node] + durations[node] for node in range(num_ops)),
        default=0.0,
    )
    # ALAP backward sweep.
    alap = [0.0] * num_ops
    for node in range(num_ops - 1, -1, -1):
        latest_finish = makespan
        for slot in range(succ_indptr[node], succ_indptr[node + 1]):
            succ = succ_indices[slot]
            if succ == end:
                continue
            if alap[succ] < latest_finish:
                latest_finish = alap[succ]
        alap[node] = latest_finish - durations[node]
    slack = [alap[node] - asap[node] for node in range(num_ops)]
    return SlackAnalysis(
        asap_start=tuple(asap),
        alap_start=tuple(alap),
        slack=tuple(slack),
        makespan=makespan,
    )


def critical_set_shift(
    qodg: QODG,
    delay_without_routing: Mapping[GateKind, float],
    delay_with_routing: Mapping[GateKind, float],
) -> dict[str, tuple[int, ...]]:
    """How the zero-slack set changes when routing latencies are added.

    Returns a dict with three node tuples: ``"joined"`` (critical only
    with routing), ``"left"`` (critical only without) and ``"stable"``
    (critical in both) — a direct illustration of the paper's remark that
    the mapped QODG's critical path may differ from the original's.
    """
    before = set(analyze_slack(qodg, delay_without_routing).critical_nodes())
    after = set(analyze_slack(qodg, delay_with_routing).critical_nodes())
    return {
        "joined": tuple(sorted(after - before)),
        "left": tuple(sorted(before - after)),
        "stable": tuple(sorted(before & after)),
    }
