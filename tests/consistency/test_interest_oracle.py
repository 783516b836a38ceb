"""Differential test: the one-pass interest join against the two-query one.

The oracle below is the previous ``InterestManager.update``, kept
verbatim: it inserted every position into a fresh grid one call at a
time, then ran two ``query_circle`` calls per observer (enter radius and
exit radius) and diffed the resulting sets against the known set.  The
current ``update`` bulk-builds the grid and classifies each candidate
against both radii in one pass over the exit-radius cell window.  Both
must emit the same events — kind, observer, subject, tick, in order —
and leave the same AOI sets and stats behind.

Coordinates and radii are multiples of 1/8, so every difference and
squared distance is exact and ties at each radius are real ties.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.consistency.interest import InterestEvent, InterestManager
from repro.spatial.grid import UniformGrid


class OracleManager(InterestManager):
    """``InterestManager`` with the previous two-query ``update``."""

    def update(self, observers, positions):
        self._tick += 1
        grid = UniformGrid(max(self.exit_radius, 1e-9))
        for eid, (x, y) in positions.items():
            grid.insert(eid, x, y)
        events: list[InterestEvent] = []
        for observer in observers:
            if observer not in positions:
                continue
            ox, oy = positions[observer]
            current = self._aoi.setdefault(observer, set())
            near_enter = {
                s for s in grid.query_circle(ox, oy, self.radius) if s != observer
            }
            near_exit = {
                s
                for s in grid.query_circle(ox, oy, self.exit_radius)
                if s != observer
            }
            for subject in sorted(near_enter - current):
                current.add(subject)
                self.stats.enter_events += 1
                events.append(
                    InterestEvent("enter", observer, subject, self._tick)
                )
            for subject in sorted(current - near_exit):
                current.discard(subject)
                self.stats.exit_events += 1
                events.append(
                    InterestEvent("exit", observer, subject, self._tick)
                )
        return events


def rows(events):
    return [(e.kind, e.observer, e.subject, e.tick) for e in events]


def run_both(radius, hysteresis, script):
    """Drive both managers through ``[(drops, observers, positions), ...]``."""
    new = InterestManager(radius, hysteresis)
    old = OracleManager(radius, hysteresis)
    watched = set()
    for drops, observers, positions in script:
        for observer in drops:
            new.drop_observer(observer)
            old.drop_observer(observer)
        watched.update(observers)
        assert rows(new.update(observers, positions)) == rows(
            old.update(observers, positions)
        )
        for observer in watched:
            assert new.aoi_of(observer) == old.aoi_of(observer)
    assert new.stats == old.stats
    return new


# -- generated multi-tick scripts ---------------------------------------------------

_coord = st.integers(-240, 240).map(lambda q: q / 8.0)
_ids = st.integers(0, 14)
_tick = st.tuples(
    st.lists(_ids, max_size=2),  # observers dropped before the tick
    st.lists(_ids, max_size=10),  # observers (some absent, some repeated)
    st.dictionaries(_ids, st.tuples(_coord, _coord), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    radius=st.integers(1, 96).map(lambda q: q / 8.0),
    hysteresis=st.sampled_from([0.0, 0.125, 0.15, 0.5, 1.0, 3.0]),
    script=st.lists(_tick, min_size=1, max_size=6),
)
def test_generated_scripts_match_oracle(radius, hysteresis, script):
    run_both(radius, hysteresis, script)


@settings(max_examples=150, deadline=None)
@given(
    hysteresis=st.sampled_from([0.0, 0.15, 0.5]),
    steps=st.lists(
        st.lists(st.tuples(st.integers(-16, 16), st.integers(-16, 16)),
                 min_size=8, max_size=8),
        min_size=2, max_size=8,
    ),
)
def test_drifting_crowd_matches_oracle(hysteresis, steps):
    # Eight entities random-walking on a lattice of cell-sized steps.
    positions = {i: (i * 1.0, -i * 1.0) for i in range(8)}
    script = []
    for moves in steps:
        positions = {
            i: (x + dx / 8.0, y + dy / 8.0)
            for (i, (x, y)), (dx, dy) in zip(positions.items(), moves)
        }
        script.append(((), list(positions), positions))
    run_both(2.0, hysteresis, script)


# -- boundaries ------------------------------------------------------------------------


@pytest.mark.parametrize("hysteresis", [0.0, 0.15, 0.5])
@pytest.mark.parametrize("origin", [(0.0, 0.0), (-37.5, 12.25), (10.0, -10.0)])
def test_ties_at_both_radii_and_cell_edges(hysteresis, origin):
    radius = 10.0
    exit_radius = radius * (1.0 + hysteresis)
    ox, oy = origin
    ring = {
        # Exactly at the enter radius, on each axis.
        1: (ox + radius, oy), 2: (ox - radius, oy),
        3: (ox, oy + radius), 4: (ox, oy - radius),
        # A 6-8-10 triangle: a diagonal tie at the enter radius.
        5: (ox + 6.0, oy + 8.0),
        # Exactly at the exit radius (= cell size), on each axis.
        6: (ox + exit_radius, oy), 7: (ox, oy - exit_radius),
        # On cell edges: multiples of the cell size.
        8: (exit_radius * 2, 0.0), 9: (-exit_radius, exit_radius),
        10: (0.0, 0.0),
        # Just outside either radius.
        11: (ox + exit_radius + 0.125, oy),
    }
    positions = {0: origin, **ring}
    observers = [0, 8, 9, 10]
    script = [((), observers, positions)]
    # Walk everyone outward past the exit radius and back in.
    for scale in (1.0625, 1.25, 1.0, 0.5, 2.0):
        moved = {
            i: (ox + (x - ox) * scale, oy + (y - oy) * scale)
            for i, (x, y) in ring.items()
        }
        script.append(((), observers, {0: origin, **moved}))
    run_both(radius, hysteresis, script)


def test_observers_absent_dropped_and_readded():
    positions = {1: (0.0, 0.0), 2: (3.0, 0.0), 3: (-4.0, -4.0)}
    script = [
        ((), [1, 2, 9], positions),  # 9 has no position: no events
        ((), [1, 2], {2: (3.0, 0.0), 3: (-4.0, -4.0)}),  # 1 vanished
        ((1,), [1, 2], positions),  # 1 dropped, back: fresh enters
        ((2, 2), [2, 1, 1], {1: (0.0, 0.0), 2: (50.0, 0.0)}),
        ((), [3], positions),
    ]
    run_both(5.0, 0.15, script)


def test_events_in_enter_then_exit_order_per_observer():
    mgr = InterestManager(5.0, hysteresis=0.0)
    mgr.update([0], {0: (0.0, 0.0), 4: (1.0, 0.0), 2: (2.0, 0.0)})
    events = mgr.update(
        [0], {0: (0.0, 0.0), 4: (9.0, 0.0), 2: (9.0, 0.0),
              7: (1.0, 0.0), 3: (1.0, 1.0)}
    )
    assert rows(events) == [
        ("enter", 0, 3, 2), ("enter", 0, 7, 2),
        ("exit", 0, 2, 2), ("exit", 0, 4, 2),
    ]
    assert mgr.stats.enter_events == 4 and mgr.stats.exit_events == 2


# -- non-finite positions (the oracle raised on these) ---------------------------------


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_subject_is_in_no_aoi(bad):
    mgr = InterestManager(10.0)
    positions = {1: (0.0, 0.0), 2: (3.0, 0.0)}
    assert rows(mgr.update([1], positions)) == [("enter", 1, 2, 1)]
    positions[2] = (bad, 0.0)
    assert rows(mgr.update([1], positions)) == [("exit", 1, 2, 2)]
    positions[2] = (3.0, 0.0)
    assert rows(mgr.update([1], positions)) == [("enter", 1, 2, 3)]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_observer_at_non_finite_position_sees_no_one(bad):
    mgr = InterestManager(10.0)
    positions = {1: (0.0, 0.0), 2: (3.0, 0.0), 3: (0.0, -4.0)}
    mgr.update([1, 2], positions)
    positions[1] = (0.0, bad)
    events = rows(mgr.update([1, 2], positions))
    assert events == [("exit", 1, 2, 2), ("exit", 1, 3, 2), ("exit", 2, 1, 2)]
    assert mgr.aoi_of(1) == set()
    assert mgr.aoi_of(2) == {3}
