"""Cross-structure tests: every spatial index must agree with brute force.

Parameterized over all five structures so a regression in any one of them
fails loudly and specifically.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpatialError
from repro.spatial import (
    AABB,
    AABB3,
    BSPPointIndex,
    BSPTree,
    KDTree,
    Octree,
    QuadTree,
    Segment,
    UniformGrid,
    Vec2,
)

BOUNDS = AABB(0, 0, 100, 100)


def make_structure(name: str):
    if name == "grid":
        return UniformGrid(7.0, BOUNDS)
    if name == "quadtree":
        return QuadTree(BOUNDS, capacity=4)
    if name == "kdtree":
        return KDTree(BOUNDS)
    if name == "octree":
        return Octree(AABB3(0, 0, -1, 100, 100, 1))
    if name == "bsp":
        rng = random.Random(99)
        segs = [
            Segment(
                Vec2(rng.uniform(0, 100), rng.uniform(0, 100)),
                Vec2(rng.uniform(0, 100), rng.uniform(0, 100)),
            )
            for _ in range(15)
        ]
        return BSPPointIndex(BSPTree(segs, BOUNDS))
    raise AssertionError(name)


STRUCTURES = ["grid", "quadtree", "kdtree", "octree", "bsp"]


def brute_circle(points, cx, cy, r):
    return sorted(
        i
        for i, (x, y) in points.items()
        if (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    )


def brute_knn(points, cx, cy, k):
    scored = sorted(
        (math.hypot(x - cx, y - cy), i) for i, (x, y) in points.items()
    )
    return [i for _d, i in scored[:k]]


@pytest.fixture(params=STRUCTURES)
def loaded(request):
    rng = random.Random(42)
    points = {
        i: (rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(200)
    }
    s = make_structure(request.param)
    for i, (x, y) in points.items():
        s.insert(i, x, y)
    return s, points


class TestAgainstBruteForce:
    def test_circle_queries(self, loaded):
        s, points = loaded
        for cx, cy, r in [(50, 50, 10), (0, 0, 5), (100, 100, 30), (50, 50, 0)]:
            assert sorted(s.query_circle(cx, cy, r)) == brute_circle(
                points, cx, cy, r
            )

    def test_knn(self, loaded):
        s, points = loaded
        for k in (1, 5, 17):
            got = s.query_knn(50.0, 50.0, k)
            assert [i for i, _d in got] == brute_knn(points, 50.0, 50.0, k)
            dists = [d for _i, d in got]
            assert dists == sorted(dists)

    def test_knn_more_than_population(self, loaded):
        s, points = loaded
        got = s.query_knn(10, 10, len(points) + 50)
        assert len(got) == len(points)

    def test_moves_keep_correctness(self, loaded):
        s, points = loaded
        rng = random.Random(7)
        for i in list(points)[:80]:
            ox, oy = points[i]
            nx, ny = rng.uniform(0, 100), rng.uniform(0, 100)
            s.move(i, ox, oy, nx, ny)
            points[i] = (nx, ny)
        assert sorted(s.query_circle(40, 60, 15)) == brute_circle(
            points, 40, 60, 15
        )

    def test_removals_keep_correctness(self, loaded):
        s, points = loaded
        for i in list(points)[:100]:
            x, y = points.pop(i)
            s.remove(i, x, y)
        assert len(s) == 100
        assert sorted(s.query_circle(50, 50, 40)) == brute_circle(
            points, 50, 50, 40
        )

    def test_duplicate_insert_raises(self, loaded):
        s, _points = loaded
        with pytest.raises(SpatialError):
            s.insert(0, 50, 50)

    def test_remove_missing_raises(self, loaded):
        s, _points = loaded
        with pytest.raises(SpatialError):
            s.remove(9999, 1, 1)

    def test_negative_radius_raises(self, loaded):
        s, _points = loaded
        with pytest.raises(SpatialError):
            s.query_circle(0, 0, -1)

    def test_contains_and_len(self, loaded):
        s, points = loaded
        assert 0 in s and 9999 not in s
        assert len(s) == len(points)
        assert sorted(s.all_ids()) == sorted(points)


class TestRangeQueries:
    @pytest.mark.parametrize("name", ["grid", "quadtree", "kdtree", "bsp"])
    def test_range_matches_brute(self, name):
        rng = random.Random(3)
        points = {
            i: (rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(150)
        }
        s = make_structure(name)
        for i, (x, y) in points.items():
            s.insert(i, x, y)
        box = AABB(20, 30, 60, 70)
        expected = sorted(
            i for i, (x, y) in points.items() if box.contains_point(x, y)
        )
        assert sorted(s.query_range(box)) == expected


class TestGridSpecifics:
    def test_cell_size_positive(self):
        with pytest.raises(SpatialError):
            UniformGrid(0)

    def test_in_cell_move_is_cheap_and_correct(self):
        g = UniformGrid(10.0)
        g.insert(1, 1.0, 1.0)
        g.move(1, 1.0, 1.0, 2.0, 2.0)  # same cell
        assert g.query_circle(2, 2, 0.5) == [1]

    def test_cell_population(self):
        g = UniformGrid(10.0)
        g.insert(1, 1, 1)
        g.insert(2, 2, 2)
        g.insert(3, 15, 1)
        pop = g.cell_population()
        assert pop[(0, 0)] == 2 and pop[(1, 0)] == 1

    def test_pairs_within_radius_larger_than_cell(self):
        rng = random.Random(11)
        pts = {i: (rng.uniform(0, 30), rng.uniform(0, 30)) for i in range(60)}
        g = UniformGrid(2.0)
        for i, (x, y) in pts.items():
            g.insert(i, x, y)
        r = 7.0  # much larger than the cell size
        expected = {
            (min(a, b), max(a, b))
            for a in pts
            for b in pts
            if a < b
            and (pts[a][0] - pts[b][0]) ** 2 + (pts[a][1] - pts[b][1]) ** 2
            <= r * r
        }
        assert set(g.pairs_within(r)) == expected

    def test_negative_coordinates(self):
        g = UniformGrid(5.0)
        g.insert(1, -12.0, -7.0)
        g.insert(2, -11.0, -7.0)
        assert sorted(g.query_circle(-11.5, -7.0, 1.0)) == [1, 2]

    def test_bulk_build_skips_non_finite_points(self):
        g = UniformGrid.from_points(
            5.0, {1: (1.0, 1.0), 2: (math.inf, 0.0), 3: (0.0, math.nan),
                  4: (1e308, 0.0), 5: (-2.0, 3.0)}
        )
        assert sorted(g.all_ids()) == [1, 4, 5]
        assert sorted(g.query_circle(0.0, 0.0, 10.0)) == [1, 5]
        # 1e308 / 1e-9 overflows: no finite cell index, so no cell.
        tiny = UniformGrid.from_points(1e-9, {1: (1e308, 0.0), 2: (0.5, 0.5)})
        assert tiny.all_ids() == [2]


class TestQuadTreeSpecifics:
    def test_out_of_bounds_insert_raises(self):
        qt = QuadTree(BOUNDS)
        with pytest.raises(SpatialError):
            qt.insert(1, 200, 50)

    def test_split_and_merge(self):
        qt = QuadTree(BOUNDS, capacity=2)
        pts = {i: (float(i), float(i)) for i in range(10)}
        for i, (x, y) in pts.items():
            qt.insert(i, x, y)
        assert qt.depth() > 1
        for i, (x, y) in list(pts.items())[:8]:
            qt.remove(i, x, y)
        assert qt.depth() == 1  # merged back to a single leaf

    def test_max_depth_cap_with_coincident_points(self):
        qt = QuadTree(BOUNDS, capacity=1, max_depth=4)
        for i in range(20):
            qt.insert(i, 50.0, 50.0)
        assert len(qt.query_circle(50, 50, 0.1)) == 20
        assert qt.depth() <= 5


class TestKDTreeSpecifics:
    def test_bulk_build_balanced(self):
        points = {i: (float(i % 10), float(i // 10)) for i in range(100)}
        tree = KDTree.build(points)
        assert len(tree) == 100
        assert sorted(tree.query_circle(5, 5, 1.0)) == sorted(
            i for i, (x, y) in points.items()
            if (x - 5) ** 2 + (y - 5) ** 2 <= 1.0
        )

    def test_tombstone_fraction_and_rebuild(self):
        tree = KDTree()
        for i in range(10):
            tree.insert(i, float(i), 0.0)
        for i in range(5):
            tree.remove(i, float(i), 0.0)
        assert tree.tombstone_fraction == pytest.approx(0.5)
        tree.rebuild()
        assert tree.tombstone_fraction == 0.0
        assert sorted(tree.all_ids()) == [5, 6, 7, 8, 9]

    def test_duplicate_coordinates_findable(self):
        tree = KDTree()
        tree.insert(1, 5.0, 5.0)
        tree.insert(2, 5.0, 5.0)
        tree.remove(1, 5.0, 5.0)
        assert tree.query_circle(5, 5, 0.1) == [2]


class TestOctreeSpecifics:
    def test_true_3d_sphere_query(self):
        oc = Octree(AABB3(0, 0, 0, 10, 10, 10))
        oc.insert(1, 5, 5, 5)
        oc.insert(2, 5, 5, 9)
        assert oc.query_sphere(5, 5, 5, 1.0) == [1]
        assert sorted(oc.query_sphere(5, 5, 7, 2.5)) == [1, 2]

    def test_range3(self):
        oc = Octree(AABB3(0, 0, 0, 10, 10, 10))
        for i in range(10):
            oc.insert(i, float(i), float(i), float(i))
        got = oc.query_range3(AABB3(2, 2, 2, 5, 5, 5))
        assert sorted(got) == [2, 3, 4, 5]

    def test_out_of_bounds_raises(self):
        oc = Octree(AABB3(0, 0, 0, 1, 1, 1))
        with pytest.raises(SpatialError):
            oc.insert(1, 5, 5, 5)


# Coordinates quantized to 1/1024 world units (the test_joins convention):
# real game coordinates, and immune to subnormal/ulp artifacts where the
# squared-distance filter underflows while coordinate-space pruning stays
# exact (e.g. a point at y=7e-303 with r=0).
_coord = st.integers(0, 102_400).map(lambda q: q / 1024.0)


@settings(max_examples=25, deadline=None)
@given(
    pts=st.dictionaries(
        st.integers(0, 100),
        st.tuples(_coord, _coord),
        min_size=1,
        max_size=60,
    ),
    cx=_coord,
    cy=_coord,
    r=st.integers(0, 61_440).map(lambda q: q / 1024.0),
)
@pytest.mark.parametrize("name", ["grid", "quadtree", "kdtree"])
def test_circle_query_property(name, pts, cx, cy, r):
    s = make_structure(name)
    for i, (x, y) in pts.items():
        s.insert(i, x, y)
    assert sorted(s.query_circle(cx, cy, r)) == brute_circle(pts, cx, cy, r)


def scan_order(grid, points, cx, cy, r):
    """Brute-force circle hits in the grid's documented scan order.

    The window is scanned column by column (cell x, then cell y) when it
    has no more cells than the grid has occupied; otherwise occupied
    cells go in the order they were first filled.  Within a cell, ids
    go in insertion order.
    """
    size = grid.cell_size

    def cell(x, y):
        return (math.floor(x / size), math.floor(y / size))

    first_filled: dict[tuple[int, int], int] = {}
    for x, y in points.values():
        first_filled.setdefault(cell(x, y), len(first_filled))
    (x0, y0), (x1, y1) = cell(cx - r, cy - r), cell(cx + r, cy + r)
    windowed = (x1 - x0 + 1) * (y1 - y0 + 1) <= len(first_filled)
    rank = {item_id: n for n, item_id in enumerate(points)}
    hits = [
        i for i, (x, y) in points.items()
        if (x - cx) * (x - cx) + (y - cy) * (y - cy) <= r * r
    ]

    def key(item_id):
        c = cell(*points[item_id])
        return (c if windowed else first_filled[c], rank[item_id])

    return sorted(hits, key=key)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.dictionaries(
        st.integers(0, 100),
        st.tuples(_coord.map(lambda v: v - 50), _coord.map(lambda v: v - 50)),
        max_size=60,
    ),
    cx=_coord.map(lambda v: v - 50),
    cy=_coord.map(lambda v: v - 50),
    r=st.integers(0, 61_440).map(lambda q: q / 1024.0),
    cell=st.sampled_from([0.5, 3.0, 7.0, 25.0]),
)
def test_grid_bulk_build_and_circle_scan_order(pts, cx, cy, r, cell):
    bulk = UniformGrid.from_points(cell, pts)
    looped = UniformGrid(cell)
    for i, (x, y) in pts.items():
        looped.insert(i, x, y)
    assert bulk.cell_population() == looped.cell_population()
    assert list(bulk.cell_population()) == list(looped.cell_population())
    assert bulk.all_ids() == looped.all_ids()
    assert list(bulk.pairs_within(r)) == list(looped.pairs_within(r))
    for grid in (bulk, looped):
        hits = grid.query_circle(cx, cy, r)
        assert hits == scan_order(grid, pts, cx, cy, r)
        assert sorted(hits) == brute_circle(pts, cx, cy, r)
