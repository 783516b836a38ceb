"""A message the gateway cannot frame costs one session, never the caller.

``SendQueue.offer`` used to raise for a control or event message over
``MAX_FRAME_BYTES`` (``GatewayError``) or with an unencodable payload
(``NetError``).  From ``publish_event`` that escaped the outbox drain
*after* the dedup key was recorded, so the drain's retry was deduped:
the event was counted as a duplicate, marked dispatched, and never
delivered.  Now the queue marks the session ``evicted:oversize`` (as for
an unsplittable delta), the dedup key is recorded only for a queued
event, and the caller carries on.
"""

import pytest

from repro.durable import DurableStore, OutboxDispatcher, SqlUnitOfWork, gateway_sink
from repro.gateway import EventMsg, Goodbye, MemoryTransport, Ping, SendQueue
from repro.gateway.framing import MAX_FRAME_BYTES

from tests.gateway.conftest import TestClient, make_core, make_world

OVERSIZE = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
UNENCODABLE = {"blob": object()}


def connected():
    world = make_world()
    eid = world.spawn(Position={"x": 0.0, "y": 0.0})
    core = make_core(world)
    client = TestClient(core, "alice", avatar=eid)
    client.hello()
    return core, client, eid


class TestSendQueueOffer:
    @pytest.mark.parametrize("payload", [OVERSIZE, UNENCODABLE])
    def test_unframeable_offer_evicts_instead_of_raising(self, payload):
        queue = SendQueue(MemoryTransport())
        assert queue.offer(Ping(nonce=1)) is True
        assert queue.offer(EventMsg(0, 1, 7, "hit", "k", payload)) is False
        assert queue.note_tick() == "evicted:oversize"
        # What was queued before still flushes; nothing of the bad message.
        assert queue.flush() > 0
        assert queue.frames_sent == 1


class TestPublishEvent:
    @pytest.mark.parametrize("payload", [OVERSIZE, UNENCODABLE])
    def test_unframeable_event_is_not_counted_as_delivered(self, payload):
        core, client, eid = connected()
        assert core.publish_event(eid, "hit", key="k1", payload=payload) == 0
        # A redelivery of the same event is not mistaken for a duplicate.
        assert core.publish_event(eid, "hit", key="k1", payload=payload) == 0
        stats = core.stats()
        assert stats["events_published"] == 0
        assert stats["events_deduped"] == 0
        core.tick()
        messages = client.drain()
        assert Goodbye("evicted:oversize") in messages
        assert not any(isinstance(m, EventMsg) for m in messages)
        assert core.evictions == {"evicted:oversize": 1}

    def test_outbox_drain_survives_an_oversize_event(self):
        core, client, eid = connected()
        store = DurableStore()
        for key, blob in (("big", "x" * (MAX_FRAME_BYTES + 1)), ("ok", "y")):
            uow = SqlUnitOfWork(store)
            uow.update(eid, hits=1)
            uow.emit("hit", entity=eid, key=key, blob=blob)
            uow.commit()
        dispatcher = OutboxDispatcher(store, gateway_sink(core))
        assert dispatcher.drain_all() == 2
        stats = core.stats()
        assert stats["events_deduped"] == 0
        assert stats["events_published"] == 1
        core.tick()
        messages = client.drain()
        assert [m.key for m in messages if isinstance(m, EventMsg)] == ["ok"]
        assert Goodbye("evicted:oversize") in messages
