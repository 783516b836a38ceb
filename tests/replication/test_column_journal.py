"""A column write is one journal record, end to end under composed faults.

One semi-sync replicated run per formulation of the same drift — a
batch system (``set_column``: one column event per written field) and a
per-entity system (``world.set``: one row event per entity) — with
handoffs, cross-shard transfers, an online ``alter`` of the written
component and a kill-primary failover all in the same run.  The two
formulations must end bit-identical, every replica must match its
primary, and each batch tick must journal exactly one column record per
(shard, written field).
"""

import random

from repro.cluster import StaticGridPlacement
from repro.consistency import StaticGridPartitioner
from repro.net import FaultInjector
from repro.replication import ACK_SEMISYNC, ReplicatedClusterCoordinator
from repro.schema import AddColumn
from repro.spatial import AABB
from repro.workloads import cluster_schemas, transfer_spec

ENTITIES = 120
TICKS = 40
WRITTEN = ("x", "y")


def _drift(world, eid, dt):
    pos = world.get(eid, "Position")
    world.set(eid, "Position", x=pos["x"] + 0.9, y=pos["y"] + 0.4)


def _drift_batch(world, ids, cols, dt):
    return {
        "Position.x": [x + 0.9 for x in cols["Position.x"]],
        "Position.y": [y + 0.4 for y in cols["Position.y"]],
    }


def run(batch, seed=3):
    """The composed-fault run; returns the cluster and every primary host."""
    cluster = ReplicatedClusterCoordinator(
        2,
        StaticGridPlacement(
            StaticGridPartitioner(AABB(0.0, 0.0, 200.0, 200.0), 2, 2, 2)
        ),
        cluster_schemas(),
        seed=seed,
        repartition_interval=5,
        replication_factor=1,
        ack_mode=ACK_SEMISYNC,
        injector=FaultInjector().crash("shard:0", at_tick=12),
    )
    rng = random.Random(seed)
    eids = [
        cluster.spawn({
            "Position": {"x": rng.uniform(0, 160), "y": rng.uniform(0, 160)},
            "Wealth": {},
        })
        for _ in range(ENTITIES)
    ]
    if batch:
        cluster.add_batch_system(
            "drift", reads=["Position.x", "Position.y"], fn=_drift_batch,
            writes=["Position.x", "Position.y"],
        )
    else:
        cluster.add_per_entity_system("drift", ["Position"], _drift)
    primaries = list(cluster.shards)
    for t in range(TICKS):
        if t == 6:
            cluster.alter("Position", [AddColumn("z", derive="x + y")],
                          batch_rows=8)
        if t % 3 == 0:
            a, b = rng.sample(eids, 2)
            cluster.submit(transfer_spec(a, b, 2))
        if t % 7 == 0 and not cluster.in_flight_handoffs:
            eid = rng.choice(eids)
            cluster.migrate(eid, 1 - cluster.owner_of(eid))
        cluster.tick()
        primaries += [h for h in cluster.shards if h not in primaries]
    cluster.quiesce()
    return cluster, primaries


def _column_records_per_tick(host):
    """``{field: count}`` of column records in each of a host's frames."""
    frames, current = [], {}
    for _lsn, record in host.journal.ship_since(0):
        if record["op"] == "column":
            current[record["f"]] = current.get(record["f"], 0) + 1
        elif record["op"] == "tick":
            frames.append(current)
            current = {}
    return frames


def test_batch_and_tuple_agree_and_batch_journals_one_record_per_field():
    tuple_cluster, tuple_hosts = run(batch=False)
    batch_cluster, batch_hosts = run(batch=True)
    for cluster in (tuple_cluster, batch_cluster):
        assert len(cluster.failovers) == 1
        assert cluster.migrations_done > 0
        assert cluster.cross_committed > 0
        assert cluster.schema_version_of("Position") == 2
        cluster.check_invariants()

    assert batch_cluster.state_hash() == tuple_cluster.state_hash()

    for cluster in (tuple_cluster, batch_cluster):
        # Shipping lags by one tick: freeze the primaries, then let one
        # more tick deliver their last frame.
        frozen = {h.shard_id: h.world.state_hash() for h in cluster.shards}
        cluster.tick()
        for shard_id, group in cluster.replicas.items():
            for replica in group:
                assert replica.state_hash() == frozen[shard_id]

    # The crashed primary, the primary promoted in its place, the other.
    assert len(batch_hosts) == 3
    expected = dict.fromkeys(WRITTEN, 1)
    for host in batch_hosts:
        frames = _column_records_per_tick(host)
        assert frames and all(frame == expected for frame in frames), (
            host.shard_id, frames
        )
    for host in tuple_hosts:
        assert not any(_column_records_per_tick(host))
