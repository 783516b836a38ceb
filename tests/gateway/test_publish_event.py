"""``publish_event`` reaches sessions in sid order, however they attached.

A targeted event picks the sessions playing its entity before it sorts,
so it no longer sorts every session per event; the delivery order and
the per-session dedup must not notice.
"""

from repro.gateway import EventMsg

from tests.gateway.conftest import TestClient, make_core, make_world


def events(client):
    return [
        (m.event, m.seq) for m in client.drain() if isinstance(m, EventMsg)
    ]


def test_events_reach_sessions_in_sid_order_and_dedup_once():
    world = make_world()
    hero = world.spawn(Position={"x": 0.0, "y": 0.0})
    other = world.spawn(Position={"x": 1.0, "y": 0.0})
    core = make_core(world)
    first = [TestClient(core, name, avatar=hero) for name in "abc"]
    welcomes = [client.hello()[0] for client in first]
    bystander = TestClient(core, "d", avatar=other)
    bystander.hello()
    # Drop the three and resume them in reverse: they attach c, b, a.
    for client in first:
        core.disconnect(client.cid)
    resumed = {}
    for client, welcome in reversed(list(zip(first, welcomes))):
        revenant = TestClient(core, client.name)
        revenant.hello(resume=welcome.resume_token)
        resumed[client.name] = revenant
    # Nor may the registry's own order decide.
    registry = core.sessions.sessions
    core.sessions.sessions = dict(reversed(list(registry.items())))
    assert [s.sid for s in core.sessions.active()] == sorted(registry)

    assert core.publish_event(hero, "hit", key="k1") == 3
    assert core.publish_event(-1, "weather", key="w1", broadcast=True) == 4
    # Redeliveries (the outbox is at-least-once) are deduped per session.
    assert core.publish_event(hero, "hit", key="k1") == 0
    assert core.publish_event(-1, "weather", key="w1", broadcast=True) == 0
    stats = core.stats()
    assert (stats["events_published"], stats["events_deduped"]) == (7, 7)

    core.tick()
    assert events(resumed["a"]) == [("hit", 1), ("weather", 4)]
    assert events(resumed["b"]) == [("hit", 2), ("weather", 5)]
    assert events(resumed["c"]) == [("hit", 3), ("weather", 6)]
    assert events(bystander) == [("weather", 7)]


def test_targeted_event_for_an_unwatched_entity_is_dropped():
    world = make_world()
    hero = world.spawn(Position={"x": 0.0, "y": 0.0})
    core = make_core(world)
    TestClient(core, "a", avatar=hero).hello()
    assert core.publish_event(hero + 1, "hit", key="k1") == 0
    assert core.events_dropped == 1
