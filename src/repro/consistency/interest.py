"""Interest management: who needs to hear about whom.

An MMO server cannot send every state change to every client; it computes
each player's *area of interest* (AOI) and replicates only entities
inside it.  This is the read-side counterpart of causality bubbles: both
prune the O(n²) everyone-about-everyone matrix using space.

:class:`InterestManager` maintains AOI sets incrementally with hysteresis
(enter radius < exit radius, so entities straddling the boundary do not
flap), produces enter/exit events, and accounts the update traffic each
subscriber generates.  Experiment E12 sweeps the radius against bandwidth
and missed-interaction rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SpatialError
from repro.spatial.grid import UniformGrid

Positions = Mapping[int, tuple[float, float]]


@dataclass
class InterestEvent:
    """One AOI membership change."""

    kind: str  # "enter" | "exit"
    observer: int
    subject: int
    tick: int


@dataclass
class InterestStats:
    """Traffic accounting across the run."""

    enter_events: int = 0
    exit_events: int = 0
    updates_sent: int = 0

    @property
    def churn(self) -> int:
        """Total membership changes."""
        return self.enter_events + self.exit_events


class InterestManager:
    """Radius-based AOI with hysteresis.

    Parameters
    ----------
    radius:
        Enter radius: a subject closer than this joins the AOI.
    hysteresis:
        Exit radius = radius × (1 + hysteresis).  0 disables.
    """

    def __init__(self, radius: float, hysteresis: float = 0.15):
        if radius <= 0:
            raise SpatialError("radius must be positive")
        if hysteresis < 0:
            raise SpatialError("hysteresis must be non-negative")
        self.radius = radius
        self.exit_radius = radius * (1.0 + hysteresis)
        self._aoi: dict[int, set[int]] = {}
        self.stats = InterestStats()
        self._tick = 0

    # -- membership ------------------------------------------------------------------

    def aoi_of(self, observer: int) -> set[int]:
        """Current AOI set of an observer (copy)."""
        return set(self._aoi.get(observer, ()))

    def drop_observer(self, observer: int) -> None:
        """Forget an observer entirely (a disconnected subscriber).

        No exit events are produced — the subscriber is gone, nobody is
        listening — and the membership changes are not counted as churn.
        """
        self._aoi.pop(observer, None)

    def update(
        self,
        observers: Iterable[int],
        positions: Positions,
    ) -> list[InterestEvent]:
        """Recompute AOIs for a position snapshot; returns enter/exit events.

        One grid over all subjects is bulk-built per call, cell size =
        exit radius, so the pass is O(n · density) rather than
        O(observers × subjects).  Each observer then scans the cell
        window of its exit-radius box once, computing every candidate's
        squared distance once and classifying it against both radii:
        inside the exit radius it stays, inside the enter radius and not
        yet known it enters, and whatever was known but not kept exits.
        Per observer, enters come sorted, then exits sorted.

        A subject at a non-finite position lands in no cell, so it is in
        no AOI; an observer at one sees no one, so its whole AOI exits.
        """
        self._tick += 1
        tick = self._tick
        r2 = self.radius * self.radius
        reach = self.exit_radius
        e2 = reach * reach
        size = max(reach, 1e-9)
        bucket_at = UniformGrid.from_points(size, positions).cells.get
        floor = math.floor
        stats = self.stats
        aoi = self._aoi
        events: list[InterestEvent] = []
        for observer in observers:
            position = positions.get(observer)
            if position is None:
                continue
            ox, oy = position
            current = aoi.setdefault(observer, set())
            kept: set[int] = set()
            keep = kept.add
            entered: list[int] = []
            # The exit-radius box's cell window, by division exactly as the
            # grid keys its cells, so ties at cell edges round as in a
            # grid.query_circle at the exit radius.
            try:
                columns = range(floor((ox - reach) / size), floor((ox + reach) / size) + 1)
                rows = range(floor((oy - reach) / size), floor((oy + reach) / size) + 1)
            except (OverflowError, ValueError):  # a non-finite observer
                columns = rows = range(0)
            for cx in columns:
                for cy in rows:
                    bucket = bucket_at((cx, cy))
                    if bucket is None:
                        continue
                    for subject, (x, y) in bucket.items():
                        dx = x - ox
                        dy = y - oy
                        d2 = dx * dx + dy * dy
                        if d2 <= e2:
                            keep(subject)
                            if d2 <= r2 and subject not in current and subject != observer:
                                entered.append(subject)
            if entered:
                entered.sort()
                current.update(entered)
                stats.enter_events += len(entered)
                events.extend(
                    InterestEvent("enter", observer, s, tick) for s in entered
                )
            exited = current - kept
            if exited:
                current -= exited
                stats.exit_events += len(exited)
                events.extend(
                    InterestEvent("exit", observer, s, tick) for s in sorted(exited)
                )
        return events

    def route_update(self, subject: int, observers: Iterable[int]) -> list[int]:
        """Observers whose AOI contains ``subject`` (who gets this update).

        Increments the traffic counter per recipient, modelling one state
        update fanned out to interested clients.
        """
        recipients = [
            obs for obs in observers if subject in self._aoi.get(obs, ())
        ]
        self.stats.updates_sent += len(recipients)
        return recipients

    def missed_interactions(
        self,
        positions: Positions,
        interacting_pairs: Iterable[tuple[int, int]],
    ) -> int:
        """Count interacting pairs invisible to each other's AOI.

        A pair (a, b) is *missed* when b is not in a's AOI or vice versa —
        the gameplay artefact of too small a radius (you get hit by an
        enemy your client never showed).
        """
        missed = 0
        for a, b in interacting_pairs:
            if b not in self._aoi.get(a, ()) or a not in self._aoi.get(b, ()):
                missed += 1
        return missed
