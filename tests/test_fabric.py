"""Unit tests for the fabric layer (params, TQA geometry, channel slots)."""

from __future__ import annotations

import pytest

from repro.circuits.gates import GateKind
from repro.exceptions import FabricError
from repro.fabric.params import DEFAULT_PARAMS, FabricSpec, GateDelays, PhysicalParams
from repro.fabric.tqa import TQA
from repro.qspr.routing import SlotRouter


class TestGateDelays:
    def test_table1_defaults(self):
        delays = GateDelays()
        assert delays.h == 5440.0
        assert delays.t == delays.tdg == 10940.0
        assert delays.x == delays.y == delays.z == 5240.0
        assert delays.cnot == 4930.0

    def test_by_kind_covers_all_ft_kinds(self):
        table = GateDelays().by_kind()
        from repro.circuits.gates import FT_KINDS

        assert set(table) == set(FT_KINDS)

    def test_delay_of_non_ft_kind_rejected(self):
        with pytest.raises(FabricError, match="not an FT operation"):
            GateDelays().delay_of(GateKind.TOFFOLI)

    def test_from_mapping_overrides_and_defaults(self):
        delays = GateDelays.from_mapping({GateKind.H: 100.0})
        assert delays.h == 100.0
        assert delays.cnot == 4930.0

    def test_from_mapping_rejects_non_ft(self):
        with pytest.raises(FabricError):
            GateDelays.from_mapping({GateKind.TOFFOLI: 1.0})

    def test_scaled(self):
        scaled = GateDelays().scaled(2.0)
        assert scaled.h == 10880.0
        assert scaled.cnot == 9860.0

    def test_non_positive_delay_rejected(self):
        with pytest.raises(FabricError):
            GateDelays(h=0.0)


class TestPhysicalParams:
    def test_table1_defaults(self):
        assert DEFAULT_PARAMS.channel_capacity == 5
        assert DEFAULT_PARAMS.qubit_speed == 0.001
        assert DEFAULT_PARAMS.t_move == 100.0
        assert DEFAULT_PARAMS.fabric.area == 3600
        assert DEFAULT_PARAMS.fabric.width == 60

    def test_one_qubit_routing_latency_is_2_tmove(self):
        assert DEFAULT_PARAMS.one_qubit_routing_latency == 200.0

    def test_with_fabric(self):
        params = DEFAULT_PARAMS.with_fabric(10, 20)
        assert params.fabric.area == 200
        assert params.delays == DEFAULT_PARAMS.delays

    @pytest.mark.parametrize("kwargs", [
        {"channel_capacity": 0},
        {"qubit_speed": 0.0},
        {"t_move": -1.0},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(FabricError):
            PhysicalParams(**kwargs)

    def test_fabric_spec_validation(self):
        with pytest.raises(FabricError):
            FabricSpec(0, 5)


class TestTQA:
    @pytest.fixture
    def tqa(self):
        return TQA(FabricSpec(5, 4))

    def test_area_and_contains(self, tqa):
        assert tqa.area == 20
        assert tqa.contains((4, 3))
        assert not tqa.contains((5, 0))
        assert not tqa.contains((0, -1))

    def test_check_raises_off_grid(self, tqa):
        with pytest.raises(FabricError, match="outside"):
            tqa.check((9, 9))

    def test_index_position_roundtrip(self, tqa):
        for position in tqa.positions():
            assert tqa.position(tqa.index(position)) == position

    def test_positions_covers_area_once(self, tqa):
        seen = list(tqa.positions())
        assert len(seen) == 20
        assert len(set(seen)) == 20

    def test_neighbors_interior_and_corner(self, tqa):
        assert len(tqa.neighbors((2, 2))) == 4
        assert len(tqa.neighbors((0, 0))) == 2

    def test_manhattan(self):
        assert TQA.manhattan((0, 0), (3, 4)) == 7

    def test_channel_canonical_order(self):
        assert TQA.channel((1, 0), (0, 0)) == ((0, 0), (1, 0))

    def test_channel_requires_adjacency(self):
        with pytest.raises(FabricError, match="not adjacent"):
            TQA.channel((0, 0), (2, 0))

    def test_route_xy_endpoints_and_length(self, tqa):
        path = tqa.route_xy((0, 0), (3, 2))
        assert path[0] == (0, 0)
        assert path[-1] == (3, 2)
        assert len(path) == TQA.manhattan((0, 0), (3, 2)) + 1

    def test_route_xy_steps_are_adjacent(self, tqa):
        path = tqa.route_xy((4, 3), (0, 0))
        for a, b in zip(path, path[1:]):
            assert TQA.manhattan(a, b) == 1

    def test_route_xy_goes_x_first(self, tqa):
        path = tqa.route_xy((0, 0), (2, 2))
        assert path[1] == (1, 0)  # x moves before y

    def test_route_to_self(self, tqa):
        assert tqa.route_xy((1, 1), (1, 1)) == [(1, 1)]

    def test_route_channels_count(self, tqa):
        channels = tqa.route_channels((0, 0), (2, 1))
        assert len(channels) == 3

    def test_midpoint_is_on_route(self, tqa):
        mid = tqa.midpoint((0, 0), (4, 2))
        assert mid in tqa.route_xy((0, 0), (4, 2))

    def test_out_of_range_index_rejected(self, tqa):
        with pytest.raises(FabricError):
            tqa.position(20)


def _one_channel(capacity: int, t_move: float, length: int = 1):
    """A ``(length + 1) x 1`` fabric: one straight line of channels, so
    every journey east from node 0 crosses channels ``0 .. length - 1``
    and no detour exists."""
    return SlotRouter(length + 1, 1, capacity=capacity, t_move=t_move)


class TestChannelSlots:
    """Channel-slot reservations of the scheduler's router: each channel
    passes ``N_c`` qubits per ``T_move`` interval and queues the rest."""

    def test_uncongested_traversal_takes_t_move(self):
        router = _one_channel(capacity=2, t_move=100.0)
        assert router.move(0, 1, 0.0) == (100.0, 1, 0.0)

    def test_capacity_concurrent_traversals_unpenalized(self):
        router = _one_channel(capacity=3, t_move=100.0)
        for _ in range(3):
            assert router.move(0, 1, 0.0)[0] == 100.0
        assert router.total_wait == 0.0

    def test_overflow_traversal_queues(self):
        router = _one_channel(capacity=2, t_move=100.0)
        router.move(0, 1, 0.0)
        router.move(0, 1, 0.0)
        # Third qubit must wait for a slot freeing at t=100.
        assert router.move(0, 1, 0.0) == (200.0, 1, 100.0)
        assert router.total_wait == 100.0

    def test_queued_crossing_holds_its_slot_until_it_crosses(self):
        router = _one_channel(capacity=1, t_move=50.0)
        arrivals = [router.move(0, 1, 0.0)[0] for _ in range(3)]
        assert arrivals == [50.0, 100.0, 150.0]
        assert router.total_wait == 150.0

    def test_slots_free_over_time(self):
        router = _one_channel(capacity=1, t_move=50.0)
        assert router.move(0, 1, 0.0)[0] == 50.0
        # Arriving after the slot freed: no wait.
        assert router.move(0, 1, 60.0)[0] == 110.0
        assert router.total_wait == 0.0

    def test_path_sequences_hops(self):
        router = _one_channel(capacity=5, t_move=100.0, length=2)
        assert router.move(0, 2, 0.0) == (200.0, 2, 0.0)

    def test_statistics(self):
        router = _one_channel(capacity=1, t_move=10.0)
        router.move(0, 1, 0.0)
        router.move(0, 1, 0.0)
        assert router.total_moves == 2
        assert router.total_hops == 2
        assert router.total_wait == 10.0

    def test_invalid_construction(self):
        with pytest.raises(FabricError):
            SlotRouter(2, 1, capacity=0, t_move=10.0)
        with pytest.raises(FabricError):
            SlotRouter(2, 1, capacity=1, t_move=0.0)
