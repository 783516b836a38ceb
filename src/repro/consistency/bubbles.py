"""Causality bubbles: predictive, kinematics-driven dynamic partitioning.

    "EVE online runs a continuous differential equation that takes into
    account the acceleration of every space ship in a solar system.  This
    differential equation allows them to determine, for any given time
    interval, which ships can move within range of each other; this way
    they can dynamically partition the map into feasible units."

The implementation follows that description directly.  For each entity
with position ``p``, velocity ``v``, and acceleration bound ``a_max``,
its **reachable disc** over horizon ``T`` has radius

    R(T) = |v|·T + ½·a_max·T²

(the solution of the worst-case kinematic equation — the "differential
equation" integrated in closed form).  Two entities *can possibly*
interact within the horizon iff their discs approach within the
interaction range:

    dist(p_i, p_j) ≤ R_i + R_j + r_interact

Connected components of this possibility graph are the **causality
bubbles**: no information can cross a bubble boundary within T, so each
bubble is an independently-simulable unit.  Bubbles are then packed onto
shards (greedy bin-packing by load) — unlike static geography, *zero*
possible interaction ever crosses a shard boundary, at the price of
re-partitioning every horizon and of bubbles merging under crowding.

The possibility graph is built with the grid join from
:mod:`repro.spatial.joins`, so partitioning itself is O(n · density),
not O(n²).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import SpatialError
from repro.spatial.grid import UniformGrid
from repro.consistency.partition import PartitionMetrics, evaluate_assignment


@dataclass(frozen=True)
class KinematicState:
    """Snapshot of one entity's motion: position, velocity, accel bound."""

    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    a_max: float = 0.0

    def reach(self, horizon: float) -> float:
        """Worst-case travel distance within ``horizon`` seconds."""
        speed = math.hypot(self.vx, self.vy)
        return speed * horizon + 0.5 * self.a_max * horizon * horizon


@dataclass
class Bubble:
    """One causality bubble: a set of mutually-reachable entities."""

    bubble_id: int
    members: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class BubblePartition:
    """Result of one partitioning pass."""

    bubbles: list[Bubble]
    assignment: dict[int, int]  # entity -> shard
    bubble_of: dict[int, int]   # entity -> bubble id
    horizon: float
    possible_pairs: int

    @property
    def bubble_count(self) -> int:
        return len(self.bubbles)

    @property
    def largest_bubble(self) -> int:
        return max((b.size for b in self.bubbles), default=0)

    def evaluate(
        self, interacting_pairs: Iterable[tuple[int, int]]
    ) -> PartitionMetrics:
        """Score against pairs that actually interacted (oracle check).

        By construction every *possible* interaction is intra-bubble and
        bubbles never split across shards, so cross_partition_pairs is 0
        whenever the oracle pairs are within the kinematic envelope —
        the property tests assert exactly this.
        """
        return evaluate_assignment(self.assignment, interacting_pairs)


class CausalityBubblePartitioner:
    """Builds causality bubbles and packs them onto shards.

    Parameters
    ----------
    interaction_range:
        Gameplay interaction radius r (weapons range, collision radius).
    horizon:
        Re-partitioning interval T in seconds; bubbles are valid for T.
    shards:
        Number of servers to pack bubbles onto.
    """

    def __init__(self, interaction_range: float, horizon: float, shards: int):
        if interaction_range < 0:
            raise SpatialError("interaction_range must be non-negative")
        if horizon <= 0:
            raise SpatialError("horizon must be positive")
        if shards < 1:
            raise SpatialError("shards must be positive")
        self.interaction_range = interaction_range
        self.horizon = horizon
        self.shards = shards

    # -- the partitioning pass -----------------------------------------------------

    def partition(self, states: Mapping[int, KinematicState]) -> BubblePartition:
        """One full pass: possibility graph -> components -> shard packing."""
        if not states:
            return BubblePartition([], {}, {}, self.horizon, 0)
        reach = {eid: s.reach(self.horizon) for eid, s in states.items()}
        max_reach = max(reach.values())
        # Conservative pair radius: any pair beyond this cannot interact.
        pair_radius = 2 * max_reach + self.interaction_range
        positions = {eid: (s.x, s.y) for eid, s in states.items()}
        edges = self._possible_edges(positions, reach, pair_radius)
        components = _connected_components(set(states), edges)
        bubbles = [
            Bubble(i, frozenset(comp)) for i, comp in enumerate(components)
        ]
        assignment, bubble_of = self._pack(bubbles)
        return BubblePartition(
            bubbles=bubbles,
            assignment=assignment,
            bubble_of=bubble_of,
            horizon=self.horizon,
            possible_pairs=len(edges),
        )

    def _possible_edges(
        self,
        positions: dict[int, tuple[float, float]],
        reach: dict[int, float],
        pair_radius: float,
    ) -> list[tuple[int, int]]:
        grid = UniformGrid.from_points(max(pair_radius, 1e-9), positions)
        edges = []
        for a, b in grid.pairs_within(pair_radius):
            ax, ay = positions[a]
            bx, by = positions[b]
            limit = reach[a] + reach[b] + self.interaction_range
            if math.hypot(ax - bx, ay - by) <= limit:
                edges.append((a, b))
        return edges

    def _pack(
        self, bubbles: list[Bubble]
    ) -> tuple[dict[int, int], dict[int, int]]:
        """Greedy largest-first bin packing of bubbles onto shards."""
        loads = [0] * self.shards
        assignment: dict[int, int] = {}
        bubble_of: dict[int, int] = {}
        for bubble in sorted(bubbles, key=lambda b: -b.size):
            shard = min(range(self.shards), key=lambda s: loads[s])
            loads[shard] += bubble.size
            for eid in bubble.members:
                assignment[eid] = shard
                bubble_of[eid] = bubble.bubble_id
        return assignment, bubble_of


def _connected_components(
    nodes: set[int], edges: Iterable[tuple[int, int]]
) -> list[set[int]]:
    """Union-find connected components."""
    parent = {n: n for n in nodes}

    def find(n: int) -> int:
        root = n
        while parent[root] != root:
            root = parent[root]
        while parent[n] != root:
            parent[n], n = root, parent[n]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for a, b in edges:
        union(a, b)
    groups: dict[int, set[int]] = defaultdict(set)
    for n in nodes:
        groups[find(n)].add(n)
    return list(groups.values())


@dataclass
class BubbleTimeline:
    """Repartitioning history over a simulation run (for E5's series)."""

    partitions: list[BubblePartition] = field(default_factory=list)

    def record(self, partition: BubblePartition) -> None:
        self.partitions.append(partition)

    def mean_bubble_count(self) -> float:
        """Average number of bubbles across passes."""
        if not self.partitions:
            return 0.0
        return sum(p.bubble_count for p in self.partitions) / len(self.partitions)

    def mean_largest_bubble(self) -> float:
        """Average size of the largest bubble across passes."""
        if not self.partitions:
            return 0.0
        return sum(p.largest_bubble for p in self.partitions) / len(self.partitions)
