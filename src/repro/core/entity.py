"""Entity identity: id allocation with generation counters.

Entity ids are the primary keys of the game database.  Games recycle ids
aggressively (entities churn every few seconds), which creates the classic
dangling-reference bug: a script holds id 42, the entity dies, a new
entity reuses 42, and the script silently acts on the wrong object.  The
standard fix — also used here — is *generational* ids: the public 64-bit
id packs a slot index and a generation; stale handles fail validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownEntityError

_GEN_BITS = 20
_GEN_MASK = (1 << _GEN_BITS) - 1


def pack_id(slot: int, generation: int) -> int:
    """Pack (slot, generation) into one public entity id."""
    return (slot << _GEN_BITS) | (generation & _GEN_MASK)


def unpack_id(entity_id: int) -> tuple[int, int]:
    """Inverse of :func:`pack_id` -> (slot, generation)."""
    return entity_id >> _GEN_BITS, entity_id & _GEN_MASK


class EntityAllocator:
    """Allocates and validates generational entity ids.

    Freed slots go to a free list; reallocation bumps the generation so
    stale ids referencing the old incarnation are detectable in O(1).
    The free list is a dict used as an ordered set: ``allocate`` pops
    the most recently freed slot, and ``adopt`` takes any slot out of it
    in O(1).
    """

    def __init__(self) -> None:
        self._generations: list[int] = []
        self._free: dict[int, None] = {}
        self._live: set[int] = set()

    def allocate(self) -> int:
        """Allocate a fresh entity id."""
        if self._free:
            slot, _ = self._free.popitem()
        else:
            slot = len(self._generations)
            self._generations.append(0)
        entity_id = pack_id(slot, self._generations[slot])
        self._live.add(entity_id)
        return entity_id

    def adopt(self, entity_id: int) -> None:
        """Register an externally-allocated id as live.

        Used by cluster shards installing a migrated entity: the id was
        allocated by the coordinator's allocator and must be preserved
        exactly so references in component data stay valid.  Raises when
        the slot is already occupied by a different incarnation.
        """
        if entity_id in self._live:
            raise UnknownEntityError(f"entity id {entity_id} is already live")
        slot, gen = unpack_id(entity_id)
        while len(self._generations) <= slot:
            self._free[len(self._generations)] = None
            self._generations.append(0)
        # While an entity occupies a slot, ``_generations[slot]`` holds
        # its generation, so occupancy is one O(1) membership probe.
        if pack_id(slot, self._generations[slot]) in self._live:
            raise UnknownEntityError(
                f"slot {slot} already holds a live entity of another generation"
            )
        self._generations[slot] = gen
        self._free.pop(slot, None)
        self._live.add(entity_id)

    def free(self, entity_id: int) -> None:
        """Release an id; the slot's generation is bumped for reuse."""
        self.require(entity_id)
        slot, _gen = unpack_id(entity_id)
        self._live.discard(entity_id)
        self._generations[slot] = (self._generations[slot] + 1) & _GEN_MASK
        self._free[slot] = None

    def is_live(self, entity_id: int) -> bool:
        """True when the id refers to a currently-live entity."""
        return entity_id in self._live

    def require(self, entity_id: int) -> None:
        """Raise :class:`UnknownEntityError` unless the id is live."""
        if entity_id not in self._live:
            slot, gen = unpack_id(entity_id)
            raise UnknownEntityError(
                f"entity id {entity_id} (slot {slot}, gen {gen}) is not live"
            )

    @property
    def live_count(self) -> int:
        """Number of live entities."""
        return len(self._live)

    def live_ids(self) -> tuple[int, ...]:
        """Snapshot of all live ids (unordered)."""
        return tuple(self._live)


@dataclass(frozen=True)
class EntityHandle:
    """Convenience wrapper bundling an id with its world.

    Handles are sugar over the world API — all state lives in component
    tables; the handle stores nothing but the id.
    """

    world: "object"
    id: int

    def __getitem__(self, component: str) -> dict:
        return self.world.get(self.id, component)  # type: ignore[attr-defined]

    def get(self, component: str, field: str):
        """Read one component field."""
        return self.world.get_field(self.id, component, field)  # type: ignore[attr-defined]

    def set(self, component: str, **values) -> dict:
        """Update component fields."""
        return self.world.set(self.id, component, **values)  # type: ignore[attr-defined]

    def attach(self, component: str, **values) -> dict:
        """Attach a new component."""
        return self.world.attach(self.id, component, **values)  # type: ignore[attr-defined]

    def detach(self, component: str) -> dict:
        """Remove a component."""
        return self.world.detach(self.id, component)  # type: ignore[attr-defined]

    def destroy(self) -> None:
        """Destroy the whole entity."""
        self.world.destroy(self.id)  # type: ignore[attr-defined]

    @property
    def alive(self) -> bool:
        """Whether the entity still exists."""
        return self.world.exists(self.id)  # type: ignore[attr-defined]

    def components(self) -> tuple[str, ...]:
        """Names of components currently attached."""
        return self.world.components_of(self.id)  # type: ignore[attr-defined]
