"""Movement models for synthetic entity populations.

Three models cover the benchmark needs:

* :class:`RandomWaypoint` — the MMO-overworld standard: pick a point,
  walk to it, repeat.  Produces smoothly mixing, roughly uniform traffic.
* :class:`OrbitalModel` — the EVE-style solar system: ships orbit
  gravity wells and burn between them with bounded acceleration.  This
  is the workload causality bubbles were invented for, including fleet
  clustering around contested wells.
* :class:`FlockingModel` — boids-lite: cohesion/separation/alignment,
  generating the tight moving clusters that stress spatial indexes.

All models are seeded and deterministic, expose ``positions()`` /
``states()`` snapshots, and step with a fixed dt.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.consistency.bubbles import KinematicState
from repro.errors import ReproError
from repro.spatial.geometry import AABB


@dataclass
class _Mover:
    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    target_x: float = 0.0
    target_y: float = 0.0
    speed: float = 1.0
    well: int = 0


class _MovementBase:
    """Shared snapshot plumbing."""

    def __init__(self, bounds: AABB, seed: int):
        self.bounds = bounds
        self.rng = random.Random(seed)
        self._movers: dict[int, _Mover] = {}
        self.ticks = 0

    def positions(self) -> dict[int, tuple[float, float]]:
        """Snapshot of entity positions."""
        return {eid: (m.x, m.y) for eid, m in self._movers.items()}

    def states(self, a_max: float = 1.0) -> dict[int, KinematicState]:
        """Snapshot as kinematic states (for the bubble partitioner)."""
        return {
            eid: KinematicState(m.x, m.y, m.vx, m.vy, a_max)
            for eid, m in self._movers.items()
        }

    def entity_ids(self) -> list[int]:
        return list(self._movers)

    def __len__(self) -> int:
        return len(self._movers)

    def _clamp(self, m: _Mover) -> None:
        m.x = min(max(m.x, self.bounds.min_x), self.bounds.max_x)
        m.y = min(max(m.y, self.bounds.min_y), self.bounds.max_y)


class RandomWaypoint(_MovementBase):
    """Random-waypoint mobility over the bounds."""

    def __init__(
        self,
        bounds: AABB,
        count: int,
        speed_range: tuple[float, float] = (1.0, 4.0),
        seed: int = 0,
    ):
        super().__init__(bounds, seed)
        if count < 0:
            raise ReproError("count must be non-negative")
        for eid in range(count):
            m = _Mover(
                x=self.rng.uniform(bounds.min_x, bounds.max_x),
                y=self.rng.uniform(bounds.min_y, bounds.max_y),
                speed=self.rng.uniform(*speed_range),
            )
            self._pick_target(m)
            self._movers[eid] = m

    def _pick_target(self, m: _Mover) -> None:
        m.target_x = self.rng.uniform(self.bounds.min_x, self.bounds.max_x)
        m.target_y = self.rng.uniform(self.bounds.min_y, self.bounds.max_y)

    def step(self, dt: float = 1.0) -> None:
        """Advance every mover ``dt`` seconds."""
        self.ticks += 1
        for m in self._movers.values():
            dx = m.target_x - m.x
            dy = m.target_y - m.y
            dist = math.hypot(dx, dy)
            if dist < m.speed * dt:
                m.x, m.y = m.target_x, m.target_y
                m.vx = m.vy = 0.0
                self._pick_target(m)
                continue
            m.vx = m.speed * dx / dist
            m.vy = m.speed * dy / dist
            m.x += m.vx * dt
            m.y += m.vy * dt
            self._clamp(m)


class OrbitalModel(_MovementBase):
    """EVE-style ships orbiting gravity wells, occasionally warping.

    Ships cluster around ``wells`` points (fleets); each tick a ship
    either continues its orbit or (with ``warp_rate`` probability) picks
    a new well and burns toward it at ``warp_speed``.  Acceleration is
    bounded by ``a_max`` — the quantity the bubble partitioner integrates.
    """

    def __init__(
        self,
        bounds: AABB,
        count: int,
        wells: int = 4,
        orbit_radius: float = 30.0,
        orbit_speed: float = 2.0,
        warp_speed: float = 40.0,
        warp_rate: float = 0.002,
        a_max: float = 5.0,
        seed: int = 0,
    ):
        super().__init__(bounds, seed)
        if wells < 1:
            raise ReproError("need at least one well")
        self.a_max = a_max
        self.orbit_radius = orbit_radius
        self.orbit_speed = orbit_speed
        self.warp_speed = warp_speed
        self.warp_rate = warp_rate
        self.wells = [
            (
                self.rng.uniform(bounds.min_x + orbit_radius, bounds.max_x - orbit_radius),
                self.rng.uniform(bounds.min_y + orbit_radius, bounds.max_y - orbit_radius),
            )
            for _ in range(wells)
        ]
        self._phase: dict[int, float] = {}
        self._warping: set[int] = set()
        for eid in range(count):
            well = self.rng.randrange(wells)
            phase = self.rng.uniform(0, 2 * math.pi)
            wx, wy = self.wells[well]
            r = orbit_radius * self.rng.uniform(0.5, 1.0)
            m = _Mover(
                x=wx + r * math.cos(phase),
                y=wy + r * math.sin(phase),
                well=well,
                speed=r,  # reuse: orbit radius per ship
            )
            self._phase[eid] = phase
            self._movers[eid] = m

    def step(self, dt: float = 1.0) -> None:
        """Advance ships: orbiting or warping."""
        self.ticks += 1
        for eid, m in self._movers.items():
            if eid in self._warping:
                wx, wy = self.wells[m.well]
                dx, dy = wx - m.x, wy - m.y
                dist = math.hypot(dx, dy)
                if dist <= m.speed:
                    self._warping.discard(eid)
                    self._phase[eid] = math.atan2(m.y - wy, m.x - wx)
                    continue
                m.vx = self.warp_speed * dx / dist
                m.vy = self.warp_speed * dy / dist
                m.x += m.vx * dt
                m.y += m.vy * dt
                self._clamp(m)
                continue
            if self.rng.random() < self.warp_rate:
                m.well = self.rng.randrange(len(self.wells))
                self._warping.add(eid)
                continue
            # circular orbit: advance phase by angular velocity
            r = max(m.speed, 1e-6)
            omega = self.orbit_speed / r
            self._phase[eid] += omega * dt
            wx, wy = self.wells[m.well]
            nx = wx + r * math.cos(self._phase[eid])
            ny = wy + r * math.sin(self._phase[eid])
            m.vx = (nx - m.x) / dt
            m.vy = (ny - m.y) / dt
            m.x, m.y = nx, ny

    def fleet_sizes(self) -> dict[int, int]:
        """Ships per well (fleet concentration metric)."""
        out: dict[int, int] = {i: 0 for i in range(len(self.wells))}
        for m in self._movers.values():
            out[m.well] += 1
        return out


class FlockingModel(_MovementBase):
    """Boids-lite flocking: tight moving clusters.

    Uses a uniform grid for the neighbourhood query, so stepping is
    O(n · density) — the same lesson the rest of the library teaches.
    """

    def __init__(
        self,
        bounds: AABB,
        count: int,
        flocks: int = 3,
        neighbor_radius: float = 10.0,
        max_speed: float = 3.0,
        seed: int = 0,
    ):
        super().__init__(bounds, seed)
        self.neighbor_radius = neighbor_radius
        self.max_speed = max_speed
        for eid in range(count):
            flock = eid % max(1, flocks)
            fx = bounds.min_x + (flock + 0.5) * bounds.width / max(1, flocks)
            fy = (bounds.min_y + bounds.max_y) / 2
            self._movers[eid] = _Mover(
                x=fx + self.rng.uniform(-10, 10),
                y=fy + self.rng.uniform(-10, 10),
                vx=self.rng.uniform(-1, 1),
                vy=self.rng.uniform(-1, 1),
            )

    def step(self, dt: float = 1.0) -> None:
        """One boids step (cohesion + separation + alignment)."""
        from repro.spatial.grid import UniformGrid

        self.ticks += 1
        grid = UniformGrid.from_points(
            self.neighbor_radius,
            {eid: (m.x, m.y) for eid, m in self._movers.items()},
        )
        updates: dict[int, tuple[float, float]] = {}
        for eid, m in self._movers.items():
            neighbors = [
                self._movers[o]
                for o in grid.query_circle(m.x, m.y, self.neighbor_radius)
                if o != eid
            ]
            ax = ay = 0.0
            if neighbors:
                cx = sum(n.x for n in neighbors) / len(neighbors)
                cy = sum(n.y for n in neighbors) / len(neighbors)
                ax += (cx - m.x) * 0.01  # cohesion
                ay += (cy - m.y) * 0.01
                avx = sum(n.vx for n in neighbors) / len(neighbors)
                avy = sum(n.vy for n in neighbors) / len(neighbors)
                ax += (avx - m.vx) * 0.05  # alignment
                ay += (avy - m.vy) * 0.05
                for n in neighbors:  # separation
                    d2 = (m.x - n.x) ** 2 + (m.y - n.y) ** 2
                    if 0 < d2 < 4.0:
                        ax += (m.x - n.x) / d2
                        ay += (m.y - n.y) / d2
            updates[eid] = (ax, ay)
        for eid, (ax, ay) in updates.items():
            m = self._movers[eid]
            m.vx += ax * dt
            m.vy += ay * dt
            speed = math.hypot(m.vx, m.vy)
            if speed > self.max_speed:
                m.vx *= self.max_speed / speed
                m.vy *= self.max_speed / speed
            m.x += m.vx * dt
            m.y += m.vy * dt
            # reflect at bounds
            if not self.bounds.min_x <= m.x <= self.bounds.max_x:
                m.vx = -m.vx
            if not self.bounds.min_y <= m.y <= self.bounds.max_y:
                m.vy = -m.vy
            self._clamp(m)
