"""Tests that the fast critical-path sweep matches the QODG-based pass."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.decompose import synthesize_ft
from repro.circuits.gates import GateKind, h, t, toffoli, x
from repro.circuits.generators import ham3, random_reversible
from repro.exceptions import GraphError
from repro.qodg.critical_path import backtrack, critical_path, node_delays
from repro.qodg.graph import build_qodg
from repro.qodg.sweep import ChainSweep, sweep_critical_path

UNIT = {kind: 1.0 for kind in GateKind}

#: Distinct per-kind FT delays, so ties between paths are rare.
FT_DELAYS = {
    GateKind.X: 1.0,
    GateKind.Y: 1.25,
    GateKind.Z: 1.5,
    GateKind.H: 1.75,
    GateKind.S: 2.0,
    GateKind.SDG: 2.25,
    GateKind.T: 3.0,
    GateKind.TDG: 3.5,
    GateKind.CNOT: 5.25,
}


def random_ft(num_qubits: int, gate_count: int, seed: int) -> Circuit:
    return synthesize_ft(random_reversible(num_qubits, gate_count, seed))


class TestSweepMatchesGraphPass:
    def test_empty_circuit(self):
        result = sweep_critical_path(Circuit(3), UNIT)
        assert result.length == 0.0
        assert result.node_ids == ()

    def test_serial_chain(self):
        circuit = Circuit(1)
        circuit.extend([h(0), t(0), x(0)])
        result = sweep_critical_path(circuit, UNIT)
        assert result.length == 3.0
        assert result.node_ids == (0, 1, 2)

    def test_ham3_same_length_and_counts(self):
        circuit = synthesize_ft(ham3())
        delays = {kind: 1.0 for kind in GateKind}
        delays[GateKind.CNOT] = 3.0
        graph_result = critical_path(build_qodg(circuit), delays)
        sweep_result = sweep_critical_path(circuit, delays)
        assert sweep_result.length == pytest.approx(graph_result.length)
        assert sweep_result.cnot_count == graph_result.cnot_count

    def test_path_is_a_dependency_chain(self, adder_ft):
        result = sweep_critical_path(adder_ft, UNIT)
        qodg = build_qodg(adder_ft)
        for earlier, later in zip(result.node_ids, result.node_ids[1:]):
            assert earlier in qodg.predecessors(later)

    def test_negative_delay_rejected(self):
        circuit = Circuit(1)
        circuit.append(h(0))
        with pytest.raises(GraphError, match="negative delay"):
            sweep_critical_path(circuit, {GateKind.H: -1.0})

    def test_three_qubit_gate_rejected(self):
        circuit = Circuit(3)
        circuit.append(toffoli(0, 1, 2))
        with pytest.raises(GraphError, match="run FT synthesis first"):
            sweep_critical_path(circuit, UNIT)
        # The explicit-graph oracle still accepts it.
        assert critical_path(build_qodg(circuit), UNIT).length == 1.0

    @given(
        num_qubits=st.integers(3, 8),
        gate_count=st.integers(0, 40),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_graph_longest_path_on_random_circuits(
        self, num_qubits, gate_count, seed
    ):
        circuit = random_ft(num_qubits, gate_count, seed)
        graph_result = critical_path(build_qodg(circuit), FT_DELAYS)
        sweep_result = sweep_critical_path(circuit, FT_DELAYS)
        assert sweep_result.length == pytest.approx(graph_result.length)
        # Path delays must sum to the length in both representations.
        assert sum(
            FT_DELAYS[circuit[n].kind] for n in sweep_result.node_ids
        ) == pytest.approx(sweep_result.length)

    def test_estimator_fast_path_matches_qodg_path(self, adder_ft):
        from repro.core.estimator import LEQAEstimator
        from repro.fabric.params import PhysicalParams, FabricSpec

        estimator = LEQAEstimator(
            params=PhysicalParams(fabric=FabricSpec(10, 10))
        )
        fast = estimator.estimate(adder_ft)
        explicit = estimator.estimate_qodg(build_qodg(adder_ft))
        assert fast.latency == pytest.approx(explicit.latency)
        assert fast.l_avg_cnot == pytest.approx(explicit.l_avg_cnot)


class TestChainSweepChunks:
    @given(
        num_qubits=st.integers(3, 8),
        gate_count=st.integers(0, 40),
        seed=st.integers(0, 10_000),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_feed_equals_single_feed(
        self, num_qubits, gate_count, seed, cuts
    ):
        circuit = random_ft(num_qubits, gate_count, seed)
        table = circuit.table()
        delays = node_delays(table.kind, FT_DELAYS)
        o0, o1 = table.operand_pairs()
        bounds = sorted(int(cut * len(table)) for cut in cuts)
        chain = ChainSweep(circuit.num_qubits)
        preds: list[int] = []
        for lo, hi in zip([0, *bounds], [*bounds, len(table)]):
            preds.extend(chain.feed(delays[lo:hi], o0[lo:hi], o1[lo:hi]))
        chunked = backtrack(preds, table.kind, chain.last, chain.length)
        single = sweep_critical_path(circuit, FT_DELAYS)
        assert chain.rows == len(table)
        assert chunked.length == single.length
        assert chunked.node_ids == single.node_ids
        assert list(chunked.counts_by_kind.items()) == list(
            single.counts_by_kind.items()
        )
        assert chunked.cnot_count == single.cnot_count

    def test_counts_keep_first_occurrence_order(self):
        circuit = Circuit(1)
        circuit.extend([t(0), h(0), t(0), x(0)])
        result = sweep_critical_path(circuit, UNIT)
        assert list(result.counts_by_kind.items()) == [
            (GateKind.T, 2), (GateKind.H, 1), (GateKind.X, 1)
        ]
        assert all(type(count) is int for count in result.counts_by_kind.values())
        assert all(type(node) is int for node in result.node_ids)

    def test_memory_mapped_columns(self, tmp_path):
        circuit = random_ft(5, 30, 7)
        table = circuit.table()
        chain = ChainSweep(circuit.num_qubits)
        o0, o1 = table.operand_pairs()
        preds = chain.feed(node_delays(table.kind, FT_DELAYS), o0, o1)
        pred_path = tmp_path / "preds.bin"
        pred_path.write_bytes(np.asarray(preds, dtype=np.int64).tobytes())
        kind_path = tmp_path / "kinds.bin"
        kind_path.write_bytes(table.kind.tobytes())
        spilled = backtrack(
            memoryview(np.memmap(pred_path, dtype=np.int64, mode="r")),
            np.memmap(kind_path, dtype=np.int8, mode="r"),
            chain.last,
            chain.length,
        )
        assert spilled == sweep_critical_path(circuit, FT_DELAYS)
        assert all(type(node) is int for node in spilled.node_ids)
