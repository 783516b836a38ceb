"""Uniform spatial hash grid — the workhorse index for moving entities.

Games overwhelmingly use uniform grids for dynamic objects because a move
is two O(1) hash operations, while tree structures pay rebalancing costs.
The grid partitions the plane into ``cell_size`` squares keyed by integer
cell coordinates in a dict, so it handles unbounded worlds and is O(1) in
empty space.

Implements the common structure protocol used by
:meth:`repro.core.indexes.IndexManager.attach_spatial`:
``insert``, ``remove``, ``move``, ``query_range``, ``query_circle``,
``query_knn``, plus ``pairs_within`` used by the join algorithms.
Throwaway per-call grids are built in one pass by :meth:`UniformGrid.from_points`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Iterator, Mapping

from repro.errors import SpatialError
from repro.spatial.geometry import AABB

Bucket = dict[int, tuple[float, float]]


class UniformGrid:
    """Spatial hash grid over 2-D points.

    Parameters
    ----------
    cell_size:
        Edge length of a grid cell.  The classic tuning rule — cell size ≈
        the common query radius — makes circle queries examine at most a
        3×3 block of cells.
    bounds:
        Optional world bounds used only for planner selectivity estimates;
        the grid itself is unbounded.
    """

    def __init__(self, cell_size: float, bounds: AABB | None = None):
        if cell_size <= 0:
            raise SpatialError("cell_size must be positive")
        self.cell_size = cell_size
        self.bounds = bounds
        self._cells: dict[tuple[int, int], Bucket] = defaultdict(dict)
        self._pos: dict[int, tuple[float, float]] = {}

    @classmethod
    def from_points(
        cls, cell_size: float, points: Mapping[int, tuple[float, float]]
    ) -> "UniformGrid":
        """A grid over ``{id: (x, y)}``, built in one pass.

        Equal to inserting every point in mapping order, without the
        per-point method call or duplicate check (mapping keys are
        already unique).  A point whose cell index is not finite — a
        ±inf or NaN coordinate — lands in no cell: no query finds it.
        """
        grid = cls(cell_size)
        cells = grid._cells
        pos = grid._pos = dict(points)
        floor = math.floor
        unplaced = []
        for item_id, xy in pos.items():
            try:
                key = (floor(xy[0] / cell_size), floor(xy[1] / cell_size))
            except (OverflowError, ValueError):
                unplaced.append(item_id)
                continue
            cells[key][item_id] = xy
        for item_id in unplaced:
            del pos[item_id]
        return grid

    # -- protocol --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pos)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._pos

    def position_of(self, item_id: int) -> tuple[float, float]:
        """Current stored position of ``item_id``."""
        try:
            return self._pos[item_id]
        except KeyError:
            raise SpatialError(f"id {item_id} not in grid") from None

    def insert(self, item_id: int, x: float, y: float) -> None:
        """Insert a point; raises if the id is already present."""
        if item_id in self._pos:
            raise SpatialError(f"id {item_id} already in grid")
        self._pos[item_id] = (x, y)
        self._cells[self._cell(x, y)][item_id] = (x, y)

    def remove(self, item_id: int, x: float, y: float) -> None:
        """Remove a point (x, y must match the stored position's cell)."""
        cell = self._cell(x, y)
        bucket = self._cells.get(cell)
        if bucket is None or item_id not in bucket:
            raise SpatialError(f"id {item_id} not at cell {cell}")
        del bucket[item_id]
        if not bucket:
            del self._cells[cell]
        del self._pos[item_id]

    def move(self, item_id: int, ox: float, oy: float, nx: float, ny: float) -> None:
        """Relocate a point; O(1) when it stays within its cell."""
        old_cell = self._cell(ox, oy)
        new_cell = self._cell(nx, ny)
        if old_cell == new_cell:
            self._cells[old_cell][item_id] = (nx, ny)
            self._pos[item_id] = (nx, ny)
            return
        self.remove(item_id, ox, oy)
        self.insert(item_id, nx, ny)

    # -- queries -----------------------------------------------------------------

    def query_range(self, box: AABB) -> list[int]:
        """Ids of points inside the closed box."""
        out: list[int] = []
        for bucket in self._buckets_in(box.min_x, box.min_y, box.max_x, box.max_y):
            for item_id, (x, y) in bucket.items():
                if box.contains_point(x, y):
                    out.append(item_id)
        return out

    def query_circle(self, cx: float, cy: float, r: float) -> list[int]:
        """Ids of points within distance ``r`` of (cx, cy) (closed)."""
        if r < 0:
            raise SpatialError("radius must be non-negative")
        r2 = r * r
        out: list[int] = []
        for bucket in self._buckets_in(cx - r, cy - r, cx + r, cy + r):
            for item_id, (x, y) in bucket.items():
                dx, dy = x - cx, y - cy
                if dx * dx + dy * dy <= r2:
                    out.append(item_id)
        return out

    def query_knn(self, cx: float, cy: float, k: int) -> list[tuple[int, float]]:
        """K nearest points as ``[(id, distance), ...]``, nearest first.

        Expands a ring of cells outward until ``k`` candidates are found
        and the next ring cannot contain anything closer.
        """
        if k <= 0:
            raise SpatialError("k must be positive")
        if not self._pos:
            return []
        best: list[tuple[float, int]] = []
        ring = 0
        ccx, ccy = self._cell(cx, cy)
        max_ring = self._max_ring()
        while ring <= max_ring:
            for cell in self._ring_cells(ccx, ccy, ring):
                bucket = self._cells.get(cell)
                if not bucket:
                    continue
                for item_id, (x, y) in bucket.items():
                    d = math.hypot(x - cx, y - cy)
                    best.append((d, item_id))
            if len(best) >= k:
                best.sort()
                kth = best[min(k, len(best)) - 1][0]
                # Everything in rings > ring is at least (ring)*cell_size away
                # from the query cell border; stop when that bound exceeds kth.
                if ring * self.cell_size >= kth:
                    break
            ring += 1
        best.sort()
        return [(item_id, d) for d, item_id in best[:k]]

    def pairs_within(self, r: float) -> Iterator[tuple[int, int]]:
        """All unordered pairs of points within distance ``r`` of each other.

        The grid-join: each point is compared only against points in its
        own and forward-neighbouring cells, giving O(n · density) instead
        of O(n²).  Requires ``r <= cell_size`` for a single-ring
        neighbourhood; larger radii widen the neighbourhood automatically.
        """
        if r < 0:
            raise SpatialError("radius must be non-negative")
        r2 = r * r
        reach = max(1, math.ceil(r / self.cell_size))
        # Forward half-neighbourhood: lexicographically positive offsets, so
        # each unordered cross-cell pair is produced from exactly one side.
        forward = [
            (dx, dy)
            for dx in range(-reach, reach + 1)
            for dy in range(-reach, reach + 1)
            if (dx, dy) > (0, 0)
        ]
        for (cx_, cy_), bucket in self._cells.items():
            items = list(bucket.items())
            for i, (id_a, (ax, ay)) in enumerate(items):
                for id_b, (bx, by) in items[i + 1:]:
                    dx, dy = ax - bx, ay - by
                    if dx * dx + dy * dy <= r2:
                        yield (min(id_a, id_b), max(id_a, id_b))
            for dx_, dy_ in forward:
                other = self._cells.get((cx_ + dx_, cy_ + dy_))
                if not other:
                    continue
                for id_a, (ax, ay) in items:
                    for id_b, (bx, by) in other.items():
                        dx, dy = ax - bx, ay - by
                        if dx * dx + dy * dy <= r2:
                            yield (min(id_a, id_b), max(id_a, id_b))

    def cell_population(self) -> dict[tuple[int, int], int]:
        """Map cell -> point count; the load metric for partitioning."""
        return {cell: len(bucket) for cell, bucket in self._cells.items()}

    def all_ids(self) -> list[int]:
        """All stored ids."""
        return list(self._pos)

    @property
    def cells(self) -> Mapping[tuple[int, int], Bucket]:
        """Occupied cell -> its bucket ``{id: (x, y)}``; read-only to callers.

        A point's cell is ``(floor(x / cell_size), floor(y / cell_size))``.
        For joins that scan cell windows themselves (the interest join).
        """
        return self._cells

    # -- internals -----------------------------------------------------------------

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def _buckets_in(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> list[Bucket]:
        size = self.cell_size
        floor = math.floor
        x0, y0 = floor(min_x / size), floor(min_y / size)
        x1, y1 = floor(max_x / size), floor(max_y / size)
        cells = self._cells
        # Scan whichever is smaller: the cell window or the occupied set.
        if (x1 - x0 + 1) * (y1 - y0 + 1) <= len(cells):
            get = cells.get
            out = []
            for cx in range(x0, x1 + 1):
                for cy in range(y0, y1 + 1):
                    bucket = get((cx, cy))
                    if bucket:
                        out.append(bucket)
            return out
        return [
            bucket
            for (cx, cy), bucket in cells.items()
            if x0 <= cx <= x1 and y0 <= cy <= y1
        ]

    def _ring_cells(
        self, ccx: int, ccy: int, ring: int
    ) -> Iterable[tuple[int, int]]:
        if ring == 0:
            return [(ccx, ccy)]
        cells = []
        for dx in range(-ring, ring + 1):
            cells.append((ccx + dx, ccy - ring))
            cells.append((ccx + dx, ccy + ring))
        for dy in range(-ring + 1, ring):
            cells.append((ccx - ring, ccy + dy))
            cells.append((ccx + ring, ccy + dy))
        return cells

    def _max_ring(self) -> int:
        if not self._cells:
            return 0
        xs = [c[0] for c in self._cells]
        ys = [c[1] for c in self._cells]
        return max(max(xs) - min(xs), max(ys) - min(ys)) + 1
