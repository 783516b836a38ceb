"""``EntityAllocator`` hands out slots in the order a plain free list would.

The allocator keeps its free slots in an ordered set so that ``adopt``
(every migrated or restored entity) takes a slot out in O(1).  The
reference below is the plain-list allocator it replaced; after any mix
of ``allocate``, ``free`` and ``adopt`` both must agree on every id.
"""

from hypothesis import given, settings, strategies as st

from repro.core.entity import EntityAllocator, pack_id, unpack_id
from repro.errors import UnknownEntityError


class ListAllocator:
    """The reference: a list as the free list, scanned by ``adopt``."""

    def __init__(self):
        self.generations = []
        self.free_slots = []
        self.live = set()

    def allocate(self):
        if self.free_slots:
            slot = self.free_slots.pop()
        else:
            slot = len(self.generations)
            self.generations.append(0)
        entity_id = pack_id(slot, self.generations[slot])
        self.live.add(entity_id)
        return entity_id

    def adopt(self, entity_id):
        if entity_id in self.live:
            raise UnknownEntityError("live")
        slot, gen = unpack_id(entity_id)
        while len(self.generations) <= slot:
            self.free_slots.append(len(self.generations))
            self.generations.append(0)
        if pack_id(slot, self.generations[slot]) in self.live:
            raise UnknownEntityError("occupied")
        self.generations[slot] = gen
        if slot in self.free_slots:
            self.free_slots.remove(slot)
        self.live.add(entity_id)

    def free(self, entity_id):
        if entity_id not in self.live:
            raise UnknownEntityError("not live")
        slot, _gen = unpack_id(entity_id)
        self.live.discard(entity_id)
        self.generations[slot] += 1
        self.free_slots.append(slot)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnknownEntityError:
        return "refused"


ops = st.lists(
    st.one_of(
        st.just(("allocate",)),
        st.tuples(st.just("free"), st.integers(0, 40)),
        st.tuples(st.just("adopt"), st.integers(0, 12), st.integers(0, 3)),
    ),
    max_size=60,
)


@given(ops)
@settings(max_examples=300, deadline=None)
def test_allocate_order_matches_the_list_allocator(stream):
    real, ref = EntityAllocator(), ListAllocator()
    for op in stream:
        if op[0] == "allocate":
            assert real.allocate() == ref.allocate()
        elif op[0] == "free":
            if not ref.live:
                continue
            victim = sorted(ref.live)[op[1] % len(ref.live)]
            assert outcome(real.free, victim) == outcome(ref.free, victim)
        else:
            entity_id = pack_id(op[1], op[2])
            assert outcome(real.adopt, entity_id) == outcome(ref.adopt, entity_id)
        assert set(real.live_ids()) == ref.live
    # Drain both free lists (and one fresh slot past them) in order.
    for _ in range(len(ref.free_slots) + 1):
        assert real.allocate() == ref.allocate()


def test_adopt_then_allocate_skips_adopted_slots():
    alloc = EntityAllocator()
    alloc.adopt(pack_id(5, 2))  # pads slots 0-4 onto the free list
    alloc.adopt(pack_id(3, 0))
    slots = [unpack_id(alloc.allocate())[0] for _ in range(5)]
    assert slots == [4, 2, 1, 0, 6]
