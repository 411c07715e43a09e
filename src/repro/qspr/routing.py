"""Qubit routing for the QSPR baseline mapper.

Two routing modes are provided:

* ``"maze"`` (default) — congestion-aware maze routing, the class of
  router the original QSPR tool uses: a time-dependent Dijkstra search
  over the ULB grid where crossing a channel costs ``T_move`` plus any
  wait for one of its ``N_c`` slots to free.  The search is confined to
  the bounding box of source and target padded by a detour margin, which
  keeps per-route work proportional to route area.
* ``"xy"`` — fixed dimension-ordered (X-then-Y) routing; faster and
  fully deterministic in path shape, useful for ablations.

In both modes the chosen path's channel slots are *reserved*: each
channel passes at most ``N_c`` qubits per ``T_move`` interval (the
paper's channel capacity) and a qubit finding all slots busy waits for
the earliest one to free, so congestion delays emerge from overlapping
qubit journeys exactly as in the paper's Figure 5 pipeline picture (the
behaviour LEQA approximates with its M/M/1 model).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace

from .._validation import require_positive_float, require_positive_int
from ..exceptions import FabricError, MappingError

__all__ = ["SlotRouter", "ROUTING_MODES"]

#: Supported routing mode names.
ROUTING_MODES = ("maze", "xy")

#: ULBs of slack added around the source/target bounding box when maze
#: routing, allowing detours around congested regions.
DETOUR_MARGIN = 2

_NEG_INF = float("-inf")


class SlotRouter:
    """Slot-indexed router over flat arrays, with channel-slot reservations.

    State layout (the "structure of arrays" the scheduler reads):

    * ULBs are flat integers ``n = x * height + y``.  The x-major encoding
      is deliberate: comparing node ints orders exactly like comparing
      ``(x, y)`` tuples, so heap ties break toward the smaller ``(x, y)``.
    * Channels are flat integers.  The horizontal channel east of node
      ``n`` **is** ``n`` (defined for ``x < width - 1``); the vertical
      channel south of ``n`` is ``VBASE + n`` with
      ``VBASE = (width - 1) * height``.  Channel lookup is arithmetic —
      no tuple canonicalization, no dict hashing.
    * ``_slots[c]`` is the per-channel min-heap of slot-free times
      (lazily created, ≤ ``N_c`` entries): a crossing takes the earliest
      slot to free and holds it for one ``T_move``.
    * ``_block_until[c]`` caches ``slots[0]`` once a channel reaches
      capacity (``-inf`` before that).  A qubit arriving at ``t`` is
      delayed by channel ``c`` iff ``_block_until[c] > t`` — the O(1)
      congestion probe behind the fast path below.

    **Fast path.**  A time-dependent Dijkstra over a grid whose relevant
    channels are all un-delaying degenerates to a fixed staircase: ties in
    the heap are broken by ``(arrival, x, y)``, so the surviving parent
    chain is the lexicographically smallest monotone path — Y-then-X when
    the target lies east of the source, X-then-Y otherwise.  ``move``
    walks that staircase first, probing ``_block_until`` per channel; only
    when some staircase channel would delay the qubit does it fall back to
    the full Dijkstra (:meth:`_dijkstra`).  On
    congestion-light traffic this skips the search entirely for most
    journeys while reserving the exact same slots at the exact same
    times.
    """

    def __init__(
        self, width: int, height: int, capacity: int, t_move: float,
        mode: str = "maze",
    ) -> None:
        if mode not in ROUTING_MODES:
            raise MappingError(
                f"unknown routing mode {mode!r}; choose from {ROUTING_MODES}"
            )
        require_positive_int(capacity, "capacity", FabricError)
        require_positive_float(t_move, "t_move", FabricError)
        self.width = width
        self.height = height
        self.capacity = capacity
        self.t_move = t_move
        self.mode = mode
        self.vbase = (width - 1) * height
        num_channels = self.vbase + width * height
        self._slots: list[list[float] | None] = [None] * num_channels
        self._block_until: list[float] = [_NEG_INF] * num_channels
        self.total_moves = 0
        self.total_hops = 0
        self.total_wait = 0.0

    # -- reservation core ---------------------------------------------------

    def _traverse(self, channel: int, arrival: float) -> float:
        """Reserve one slot on ``channel``; returns the crossing time.

        The qubit starts crossing at ``arrival``, or when the earliest
        slot frees if all ``N_c`` are taken, and is across one ``T_move``
        later.  The ``_block_until`` cache is refreshed whenever the
        channel is at capacity.
        """
        slots = self._slots[channel]
        if slots is None:
            slots = []
            self._slots[channel] = slots
        capacity = self.capacity
        if len(slots) < capacity:
            start = arrival
            heappush(slots, start + self.t_move)
            if len(slots) == capacity:
                self._block_until[channel] = slots[0]
        else:
            earliest_free = slots[0]
            if arrival >= earliest_free:
                start = arrival
            else:
                start = earliest_free
                self.total_wait += start - arrival
            heapreplace(slots, start + self.t_move)
            self._block_until[channel] = slots[0]
        return start + self.t_move

    def _reserve_path(self, channels: list[int], departure: float) -> float:
        """Cross every channel in sequence, reserving slots; final arrival."""
        time = departure
        for channel in channels:
            time = self._traverse(channel, time)
        return time

    # -- path construction --------------------------------------------------

    def _staircase(self, source: int, target: int) -> list[int]:
        """Channel ids of the lex-min monotone path (see class docstring).

        Y-then-X(east) when the target is strictly east of the source,
        X(west)-then-Y otherwise — precisely the parent chain the maze
        Dijkstra keeps on an unblocked grid.
        """
        height = self.height
        vbase = self.vbase
        sx = source // height
        sy = source - sx * height
        tx = target // height
        ty = target - tx * height
        channels: list[int] = []
        if tx > sx:
            column = vbase + sx * height
            if ty > sy:
                channels.extend(range(column + sy, column + ty))
            else:
                channels.extend(range(column + sy - 1, column + ty - 1, -1))
            channels.extend(range(sx * height + ty, tx * height + ty, height))
        else:
            row_start = (sx - 1) * height + sy
            channels.extend(range(row_start, (tx - 1) * height + sy, -height))
            column = vbase + tx * height
            if ty > sy:
                channels.extend(range(column + sy, column + ty))
            else:
                channels.extend(range(column + sy - 1, column + ty - 1, -1))
        return channels

    def _xy_channels(self, source: int, target: int) -> list[int]:
        """Channel ids of the dimension-ordered (X-then-Y) route."""
        height = self.height
        vbase = self.vbase
        sx, sy = divmod(source, height)
        tx, ty = divmod(target, height)
        channels: list[int] = []
        if tx > sx:
            channels.extend(range(sx * height + sy, tx * height + sy, height))
        else:
            row_start = (sx - 1) * height + sy
            channels.extend(range(row_start, (tx - 1) * height + sy, -height))
        column = vbase + tx * height
        if ty > sy:
            channels.extend(range(column + sy, column + ty))
        else:
            channels.extend(range(column + sy - 1, column + ty - 1, -1))
        return channels

    def _dijkstra(self, source: int, target: int, departure: float) -> list[int]:
        """Time-dependent Dijkstra in the padded bounding box.

        Crossing a channel costs ``T_move`` plus any wait for a free slot.
        Neighbours are relaxed west, east, north, south with strict
        improvement only, and heap keys ``(reach, node)`` break ties
        toward the smaller ``(x, y)``.  Returns the channel ids of the
        chosen path.
        """
        height = self.height
        t_move = self.t_move
        capacity = self.capacity
        slots = self._slots
        vbase = self.vbase
        sx = source // height
        sy = source - sx * height
        tx = target // height
        ty = target - tx * height
        lo_x = sx if sx < tx else tx
        hi_x = sx if sx > tx else tx
        lo_y = sy if sy < ty else ty
        hi_y = sy if sy > ty else ty
        lo_x = max(0, lo_x - DETOUR_MARGIN)
        hi_x = min(self.width - 1, hi_x + DETOUR_MARGIN)
        lo_y = max(0, lo_y - DETOUR_MARGIN)
        hi_y = min(self.height - 1, hi_y + DETOUR_MARGIN)
        # Box-local flat state: index (x - lo_x) * box_h + (y - lo_y).
        box_h = hi_y - lo_y + 1
        box_size = (hi_x - lo_x + 1) * box_h
        max_bx = box_size - box_h  # first index of the easternmost column
        inf = float("inf")
        best = [inf] * box_size
        parent_node = [-1] * box_size
        parent_box = [-1] * box_size
        source_box = (sx - lo_x) * box_h + (sy - lo_y)
        target_box = (tx - lo_x) * box_h + (ty - lo_y)
        best[source_box] = departure
        # Heap keys (reach, node, box): node ints are x-major, so ties
        # order like (reach, (x, y)) tuples; the box index rides along
        # and never participates in a comparison.
        heap = [(departure, source, source_box)]
        while heap:
            arrival, here, here_box = heappop(heap)
            if here == target:
                break
            if arrival > best[here_box]:
                continue  # stale heap entry
            by = here_box % box_h
            # Neighbours west, east, north, south.  The channel id is
            # pure arithmetic on the node ids.
            if here_box >= box_h:
                nxt = here - height
                nxt_box = here_box - box_h
                s = slots[nxt]
                if s is None or len(s) < capacity:
                    reach = arrival + t_move
                else:
                    free = s[0]
                    reach = (arrival if arrival >= free else free) + t_move
                if reach < best[nxt_box]:
                    best[nxt_box] = reach
                    parent_node[nxt_box] = here
                    parent_box[nxt_box] = here_box
                    heappush(heap, (reach, nxt, nxt_box))
            if here_box < max_bx:
                nxt = here + height
                nxt_box = here_box + box_h
                s = slots[here]
                if s is None or len(s) < capacity:
                    reach = arrival + t_move
                else:
                    free = s[0]
                    reach = (arrival if arrival >= free else free) + t_move
                if reach < best[nxt_box]:
                    best[nxt_box] = reach
                    parent_node[nxt_box] = here
                    parent_box[nxt_box] = here_box
                    heappush(heap, (reach, nxt, nxt_box))
            if by > 0:
                nxt = here - 1
                nxt_box = here_box - 1
                s = slots[vbase + nxt]
                if s is None or len(s) < capacity:
                    reach = arrival + t_move
                else:
                    free = s[0]
                    reach = (arrival if arrival >= free else free) + t_move
                if reach < best[nxt_box]:
                    best[nxt_box] = reach
                    parent_node[nxt_box] = here
                    parent_box[nxt_box] = here_box
                    heappush(heap, (reach, nxt, nxt_box))
            if by < box_h - 1:
                nxt = here + 1
                nxt_box = here_box + 1
                s = slots[vbase + here]
                if s is None or len(s) < capacity:
                    reach = arrival + t_move
                else:
                    free = s[0]
                    reach = (arrival if arrival >= free else free) + t_move
                if reach < best[nxt_box]:
                    best[nxt_box] = reach
                    parent_node[nxt_box] = here
                    parent_box[nxt_box] = here_box
                    heappush(heap, (reach, nxt, nxt_box))
        if parent_node[target_box] < 0 and target != source:
            raise MappingError(  # pragma: no cover - grid is connected
                f"maze router failed to reach node {target} from {source}"
            )
        channels: list[int] = []
        node = target
        box = target_box
        while node != source:
            prev = parent_node[box]
            delta = node - prev
            if delta == height:
                channels.append(prev)
            elif delta == -height:
                channels.append(node)
            elif delta == 1:
                channels.append(vbase + prev)
            else:
                channels.append(vbase + node)
            box = parent_box[box]
            node = prev
        channels.reverse()
        return channels

    # -- public API ---------------------------------------------------------

    def move(self, source: int, target: int, departure: float):
        """Route one qubit from ``source`` to ``target`` starting at
        ``departure``, reserving channel slots along the chosen path.

        Returns ``(arrival, hops, wait)``: the arrival time (µs), the
        channel segments crossed, and the congestion delay (µs) — the
        excess over ``hops * T_move``.
        """
        if source == target:
            return departure, 0, 0.0
        t_move = self.t_move
        slots = self._slots
        capacity = self.capacity
        if self.mode == "maze":
            block_until = self._block_until
            # Single-hop journeys (the bulk of the traffic) reserve their
            # one channel inline when it is not delaying.
            height = self.height
            delta = target - source
            if delta == height:
                channel = source
            elif delta == -height:
                channel = target
            elif delta == 1 and source % height != height - 1:
                channel = self.vbase + source
            elif delta == -1 and target % height != height - 1:
                channel = self.vbase + target
            else:
                channel = -1
            if channel >= 0:
                if block_until[channel] <= departure:
                    arrival = departure + t_move
                    s = slots[channel]
                    if s is None:
                        slots[channel] = [arrival]
                        if capacity == 1:
                            block_until[channel] = arrival
                    elif len(s) < capacity:
                        heappush(s, arrival)
                        if len(s) == capacity:
                            block_until[channel] = s[0]
                    else:
                        heapreplace(s, arrival)
                        block_until[channel] = s[0]
                    self.total_moves += 1
                    self.total_hops += 1
                    wait = (arrival - departure) - t_move
                    return arrival, 1, (wait if wait > 0.0 else 0.0)
                channels = self._dijkstra(source, target, departure)
                arrival = self._reserve_path(channels, departure)
                hops = len(channels)
                wait = (arrival - departure) - hops * t_move
                self.total_moves += 1
                self.total_hops += hops
                return arrival, hops, (wait if wait > 0.0 else 0.0)
            channels = self._staircase(source, target)
            # Probe the staircase at its own (clean) arrival times; any
            # delaying channel sends us to the full search instead.
            time = departure
            for channel in channels:
                if block_until[channel] > time:
                    channels = self._dijkstra(source, target, departure)
                    break
                time += t_move
            else:
                # Clear staircase: reserve inline — every crossing starts
                # on arrival, so the slot pushes need no wait handling.
                time = departure
                for channel in channels:
                    s = slots[channel]
                    if s is None:
                        slots[channel] = [time + t_move]
                        if capacity == 1:
                            block_until[channel] = time + t_move
                    elif len(s) < capacity:
                        heappush(s, time + t_move)
                        if len(s) == capacity:
                            block_until[channel] = s[0]
                    else:
                        heapreplace(s, time + t_move)
                        block_until[channel] = s[0]
                    time += t_move
                hops = len(channels)
                self.total_moves += 1
                self.total_hops += hops
                wait = (time - departure) - hops * t_move
                return time, hops, (wait if wait > 0.0 else 0.0)
        else:
            channels = self._xy_channels(source, target)
        arrival = self._reserve_path(channels, departure)
        hops = len(channels)
        wait = (arrival - departure) - hops * t_move
        self.total_moves += 1
        self.total_hops += hops
        return arrival, hops, (wait if wait > 0.0 else 0.0)
