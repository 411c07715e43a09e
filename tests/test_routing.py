"""Unit tests for the QSPR router (repro.qspr.routing)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import cnot
from repro.exceptions import MappingError
from repro.fabric.params import FabricSpec, PhysicalParams
from repro.fabric.tqa import TQA
from repro.qspr.routing import ROUTING_MODES, SlotRouter
from repro.qspr.scheduling import schedule_circuit

SIZE = 8


@pytest.fixture
def params():
    return PhysicalParams(fabric=FabricSpec(SIZE, SIZE), channel_capacity=1)


def node(x: int, y: int) -> int:
    """Flat ULB id of ``(x, y)`` on the ``SIZE x SIZE`` fabric."""
    return x * SIZE + y


def router_for(params, mode: str = "maze") -> SlotRouter:
    return SlotRouter(
        SIZE, SIZE, params.channel_capacity, params.t_move, mode=mode
    )


class TestBasics:
    def test_zero_length_move(self, params):
        router = router_for(params)
        assert router.move(node(2, 2), node(2, 2), 50.0) == (50.0, 0, 0.0)
        assert router.total_moves == 0

    @pytest.mark.parametrize("mode", ROUTING_MODES)
    def test_uncongested_move_takes_manhattan_hops(self, params, mode):
        router = router_for(params, mode)
        arrival, hops, wait = router.move(node(0, 0), node(3, 2), 0.0)
        assert hops == 5
        assert arrival == pytest.approx(5 * params.t_move)
        assert wait == 0.0

    def test_unknown_mode_rejected(self, params):
        with pytest.raises(MappingError, match="unknown routing mode"):
            router_for(params, "teleport")

    def test_statistics_accumulate(self, params):
        router = router_for(params)
        router.move(node(0, 0), node(2, 0), 0.0)
        router.move(node(0, 0), node(0, 3), 0.0)
        assert router.total_moves == 2
        assert router.total_hops == 5


class TestMeetingPoint:
    """Where the operands of one CNOT meet: the midpoint of their X-Y
    route, or a neighbour of it that promises an earlier start."""

    @staticmethod
    def meeting(params, a, b):
        circuit = Circuit(2)
        circuit.append(cnot(0, 1))
        result = schedule_circuit(circuit, [a, b], params)
        assert result.final_locations[0] == result.final_locations[1]
        return result.final_locations[0], result

    def test_midpoint_for_distant_qubits(self, params):
        meeting, _ = self.meeting(params, (0, 0), (4, 0))
        assert meeting == (2, 0)

    def test_same_location_meets_in_place(self, params):
        meeting, result = self.meeting(params, (3, 3), (3, 3))
        assert meeting == (3, 3)
        assert result.stats.total_moves == 0

    def test_meeting_point_roughly_balances_distances(self, params):
        a, b = (0, 0), (5, 3)
        meeting, _ = self.meeting(params, a, b)
        da, db = TQA.manhattan(a, meeting), TQA.manhattan(b, meeting)
        assert abs(da - db) <= 1


class TestCongestion:
    def test_xy_repeated_moves_queue_on_capacity_one(self, params):
        router = router_for(params, "xy")
        first = router.move(node(0, 0), node(1, 0), 0.0)
        second = router.move(node(0, 0), node(1, 0), 0.0)
        assert first[0] == pytest.approx(100.0)
        assert second[0] == pytest.approx(200.0)
        assert second[2] == pytest.approx(100.0)

    def test_maze_detours_around_congestion(self, params):
        router = router_for(params, "maze")
        # Saturate the straight channel (0,0)-(1,0).
        router.move(node(0, 0), node(1, 0), 0.0)
        # A second qubit heading to (1,0) either queues (arrives at 200)
        # or detours via (0,1) (3 hops, arrives at 300); the router must
        # pick whichever arrives first.
        arrival, _, _ = router.move(node(0, 0), node(1, 0), 0.0)
        assert arrival <= 300.0

    def test_maze_never_slower_than_xy_on_shared_state(self, params):
        # Run the same traffic pattern through both modes and compare
        # total arrival times: maze routing must not lose.
        pattern = [((0, 0), (3, 0)), ((0, 0), (3, 0)), ((0, 1), (3, 1))]
        totals = {}
        for mode in ROUTING_MODES:
            router = router_for(params, mode)
            totals[mode] = sum(
                router.move(node(*src), node(*dst), 0.0)[0]
                for src, dst in pattern
            )
        assert totals["maze"] <= totals["xy"] + 1e-9

    def test_congestion_wait_tracked(self, params):
        router = router_for(params, "xy")
        router.move(node(0, 0), node(1, 0), 0.0)
        router.move(node(0, 0), node(1, 0), 0.0)
        assert router.total_wait == pytest.approx(100.0)
