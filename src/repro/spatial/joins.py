"""Distance-join algorithms: the database view of "which objects interact".

The tutorial's core performance observation is that scripted pairwise
interaction checks are Ω(n²), while "the techniques that game programmers
have been using to optimize physics calculations … look very similar to
the techniques that database engines use for join processing".  This
module makes that analogy literal: an interaction test *is* a spatial
self-join ``σ(dist(a,b) ≤ r)``, and we provide the classic join
strategies over point sets:

* :func:`nested_loop_join` — the naive script, O(n²);
* :func:`grid_join` — partitioned hash join on grid cells;
* :func:`sweep_join` — sort-merge style plane sweep on x;
* :func:`index_join` — index-nested-loop probing any structure with
  ``query_circle``.

All produce the identical set of unordered id pairs (the property tests
assert this), differing only in cost — which experiment E3 measures.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SpatialError
from repro.spatial.grid import UniformGrid

Points = Mapping[int, tuple[float, float]]


def _check_radius(r: float) -> None:
    if r < 0:
        raise SpatialError("join radius must be non-negative")


def nested_loop_join(points: Points, r: float) -> set[tuple[int, int]]:
    """All unordered pairs within distance ``r`` — the Ω(n²) baseline.

    This is exactly what a designer's double loop over all game objects
    computes; it is correct and catastrophically slow past a few thousand
    entities.
    """
    _check_radius(r)
    r2 = r * r
    items = list(points.items())
    out: set[tuple[int, int]] = set()
    for i, (id_a, (ax, ay)) in enumerate(items):
        for id_b, (bx, by) in items[i + 1:]:
            dx, dy = ax - bx, ay - by
            if dx * dx + dy * dy <= r2:
                out.add((min(id_a, id_b), max(id_a, id_b)))
    return out


def grid_join(points: Points, r: float, cell_size: float | None = None) -> set[tuple[int, int]]:
    """Partitioned join: bucket points into a grid, compare neighbours.

    Expected O(n · d) where d is local density — the spatial analogue of
    a partitioned hash join.  ``cell_size`` defaults to ``r`` (the classic
    tuning).
    """
    _check_radius(r)
    if not points:
        return set()
    size = cell_size if cell_size is not None else max(r, 1e-9)
    return set(UniformGrid.from_points(size, points).pairs_within(r))


def sweep_join(points: Points, r: float) -> set[tuple[int, int]]:
    """Plane-sweep join: sort by x, compare within an x-window of ``r``.

    O(n log n + n·w) where w is the average window population — the
    sort-merge join of the spatial world.  Wins when points are spread
    along one axis; degrades when they stack vertically.
    """
    _check_radius(r)
    r2 = r * r
    order = sorted(points.items(), key=lambda kv: kv[1][0])
    out: set[tuple[int, int]] = set()
    window_start = 0
    for i, (id_a, (ax, ay)) in enumerate(order):
        while order[window_start][1][0] < ax - r:
            window_start += 1
        for j in range(window_start, i):
            id_b, (bx, by) = order[j]
            dy = ay - by
            if dy * dy > r2:
                continue
            dx = ax - bx
            if dx * dx + dy * dy <= r2:
                out.add((min(id_a, id_b), max(id_a, id_b)))
    return out


def index_join(
    points: Points, r: float, structure: object
) -> set[tuple[int, int]]:
    """Index-nested-loop join: probe a prebuilt spatial index per point.

    ``structure`` must contain exactly the ids in ``points`` and expose
    ``query_circle(x, y, r)``.  This models the steady-state game case
    where the index is maintained incrementally and the join reuses it
    for free.
    """
    _check_radius(r)
    out: set[tuple[int, int]] = set()
    for item_id, (x, y) in points.items():
        for other in structure.query_circle(x, y, r):  # type: ignore[attr-defined]
            if other != item_id:
                out.add((min(item_id, other), max(item_id, other)))
    return out


def join_pairs_per_entity(
    pairs: Iterable[tuple[int, int]]
) -> dict[int, list[int]]:
    """Group join output into per-entity neighbour lists.

    The shape scripts consume: ``neighbours[eid] -> [other, ...]``.
    """
    out: dict[int, list[int]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
        out.setdefault(b, []).append(a)
    return out


def interaction_candidates(
    points: Points, r: float, strategy: str = "grid", structure: object = None
) -> set[tuple[int, int]]:
    """Strategy dispatcher used by systems and benchmarks.

    ``strategy`` is one of ``naive``, ``grid``, ``sweep``, ``index``.
    """
    if strategy == "naive":
        return nested_loop_join(points, r)
    if strategy == "grid":
        return grid_join(points, r)
    if strategy == "sweep":
        return sweep_join(points, r)
    if strategy == "index":
        if structure is None:
            raise SpatialError("index strategy requires a structure")
        return index_join(points, r, structure)
    raise SpatialError(
        f"unknown join strategy {strategy!r}; "
        "expected naive | grid | sweep | index"
    )
