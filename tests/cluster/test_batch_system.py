"""Cluster batch systems: set-at-a-time ≡ tuple-at-a-time on every shard."""

import random

import pytest

from repro.workloads import transfer_spec

from tests.cluster.conftest import make_static_cluster, spawn_grid_entities


def _drift(world, eid, dt):
    pos = world.get(eid, "Position")
    world.set(eid, "Position", x=pos["x"] + 0.9, y=pos["y"] + 0.4)


def _drift_batch(world, ids, cols, dt):
    return {
        "Position.x": [x + 0.9 for x in cols["Position.x"]],
        "Position.y": [y + 0.4 for y in cols["Position.y"]],
    }


def run_cluster(shards, seed, batch, ticks=30, count=60):
    """Drift + transfers across a repartitioning grid; returns the cluster."""
    cluster = make_static_cluster(
        shards, seed=seed, cells=4, repartition_interval=5
    )
    rng = random.Random(seed + 17)
    eids = spawn_grid_entities(
        cluster,
        [(rng.uniform(0, 170), rng.uniform(0, 170)) for _ in range(count)],
    )
    if batch:
        cluster.add_batch_system(
            "drift", reads=["Position.x", "Position.y"], fn=_drift_batch,
            writes=["Position.x", "Position.y"],
        )
    else:
        cluster.add_per_entity_system("drift", ["Position"], _drift)
    for t in range(ticks):
        if t % 3 == 0:
            a, b = rng.sample(eids, 2)
            cluster.submit(transfer_spec(a, b, 2))
        cluster.tick()
    cluster.quiesce()
    return cluster


class TestBatchFormulationEquivalence:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_batch_matches_per_entity(self, shards):
        # Same float ops in both formulations, so the hashes must agree
        # bit for bit — through migrations and cross-shard transfers.
        tuple_run = run_cluster(shards, seed=3, batch=False)
        batch_run = run_cluster(shards, seed=3, batch=True)
        assert tuple_run.stats().migrations > 0
        assert batch_run.state_hash() == tuple_run.state_hash()
        batch_run.check_invariants()
        tuple_run.check_invariants()

    def test_randomized_seeds(self):
        rng = random.Random(4071)
        for _ in range(2):
            seed = rng.randrange(1 << 16)
            tuple_run = run_cluster(4, seed, batch=False, ticks=20)
            batch_run = run_cluster(4, seed, batch=True, ticks=20)
            assert batch_run.state_hash() == tuple_run.state_hash(), seed
            batch_run.check_invariants()

    def test_registered_on_every_shard(self):
        cluster = make_static_cluster(4, cells=4)
        cluster.add_batch_system(
            "drift", reads=["Position.x", "Position.y"], fn=_drift_batch,
            writes=["Position.x", "Position.y"],
        )
        eids = spawn_grid_entities(
            cluster, [(10.0, 10.0), (190.0, 10.0), (10.0, 190.0), (190.0, 190.0)]
        )
        before = cluster.positions()
        cluster.tick()
        after = cluster.positions()
        assert len({cluster.owner_of(e) for e in eids}) > 1
        for eid in eids:
            assert after[eid] == (before[eid][0] + 0.9, before[eid][1] + 0.4)
