"""E17 — set-at-a-time execution: plan cache + vectorized batch engine.

The tutorial's central pitch is moving game state into a database-shaped
runtime so database tricks apply.  PR 4 cashes in two of them:

* **Plan caching** — ad-hoc queries are keyed on their *shape*
  (components, predicate signature, order/limit) and planned once;
  table-statistics epochs and the index-catalog version invalidate
  stale entries, so `ids()` stops paying the optimizer on every call.
* **Set-at-a-time execution** — `ids_batch()` evaluates residual
  predicates as vector passes over the columnar storage instead of
  row-at-a-time dict materialization, and `ScriptSystem` lowers
  `for e in entities(...)` update loops to one batched read + one bulk
  write-back per component (`world.update_batch`).

Five cells, the first three scaling in entity count:

* **query** — a residual-heavy scan query: tuple-at-a-time with the
  planner re-run every call (``fresh``), tuple-at-a-time with the plan
  cache warm (``cached``), and the vectorized path (``batched``);
* **plan cache** — a selective hash-indexed point query where planning
  is a visible fraction of the work, plus the cache's own hit counters;
* **script** — the E1-style per-tick update script, interpreter
  (``batch="off"``) vs lowered set-at-a-time (``batch="auto"``), with a
  ``state_hash`` equality check pinning bit-identical results;
* **shard tick** — a 4-shard cluster (migrations, cross-shard
  transfers) running the same drift arithmetic as a tuple-at-a-time
  per-entity system and as a batch system over the Position columns.
  Identical float operations in both, so the cluster ``state_hash``
  matches bit for bit and ``shard_batch_vs_tuple`` isolates the one
  variable that paid in the retired E18: the formulation.
* **replicated shard tick** (E17e) — the same drift and seed on a
  semi-sync replicated 2-shard cluster, pricing what each formulation
  costs the journal: records and bytes shipped per tick.  A batch write
  journals one record per (shard, written field); tuple-at-a-time
  journals one per entity.  ``replicated_records_tuple_over_batch`` is
  that ratio, deterministic under the seed; cluster hashes match and
  every replica matches its primary.

Expected shape: batched query execution well over 2× tuple-at-a-time at
10k entities, the lowered script an order of magnitude faster than the
interpreter, a warm cache planning each shape exactly once, the batch
shard tick ≥ 2× the tuple one, the replicated batch tick journaling
two orders of magnitude fewer records than the tuple one, and every
mode returning identical results.

``--out foo.json`` writes the machine-readable per-run artifact that
``check_regression.py`` compares against the committed baseline.
"""

import random

from bench_common import (
    BenchTable,
    emit_json,
    emit_report,
    make_parser,
    trace_session,
    wall_time,
)

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency.partition import StaticGridPartitioner
from repro.core import F, GameWorld, schema
from repro.replication import ACK_SEMISYNC, ReplicatedClusterCoordinator
from repro.scripting import add_script_system
from repro.spatial.geometry import AABB
from repro.workloads.hotspot import cluster_schemas, transfer_spec

UPDATE_SRC = """
for e in entities("Unit"):
    e.x = e.x + e.vx * dt
    e.y = e.y + e.vy * dt
    e.hp = max(0, e.hp - 1)
end
"""

KINDS = [f"k{i}" for i in range(64)]


def build_world(n: int, seed: int = 1) -> GameWorld:
    world = GameWorld()
    world.catalog.define(
        schema(
            "Unit",
            x="float", y="float", vx="float", vy="float",
            hp="int", speed="float", kind="str",
        )
    )
    rng = random.Random(seed)
    span = (n ** 0.5) * 4.0  # constant density as n grows
    for _ in range(n):
        world.spawn(
            Unit={
                "x": rng.uniform(0, span), "y": rng.uniform(0, span),
                "vx": rng.uniform(-2, 2), "vy": rng.uniform(-2, 2),
                "hp": rng.randrange(0, 1000),
                "speed": rng.uniform(0, 5), "kind": rng.choice(KINDS),
            }
        )
    return world


def scan_query(world):
    """Residual-heavy scan: ~35% selectivity, two vectorizable filters."""
    return (
        world.query("Unit")
        .where("Unit", F.hp < 500)
        .where("Unit", F.speed > 1.5)
    )


def point_query(world):
    """Selective hash-index lookup (~n/64 rows) with one residual."""
    return (
        world.query("Unit")
        .where("Unit", F.kind == "k0")
        .where("Unit", F.hp < 500)
    )


# -- query cell ------------------------------------------------------------------

def run_query_cell(n: int, reps: int = 20, seed: int = 1):
    """(t_fresh, t_cached, t_batched, result_rows) for the scan query."""
    world = build_world(n, seed)
    expected = scan_query(world).execute(mode="tuple").ids
    assert scan_query(world).execute(mode="batch").ids == expected, "modes must agree"

    def fresh():
        for _ in range(reps):
            world.plan_cache.clear()
            scan_query(world).execute(mode="tuple").ids

    def cached():
        for _ in range(reps):
            scan_query(world).execute(mode="tuple").ids

    def batched():
        for _ in range(reps):
            scan_query(world).execute(mode="batch").ids

    t_fresh = wall_time(fresh, repeats=2)
    t_cached = wall_time(cached, repeats=2)
    t_batched = wall_time(batched, repeats=2)
    return t_fresh / reps, t_cached / reps, t_batched / reps, len(expected)


def run_plan_cache_cell(n: int, reps: int = 300, seed: int = 1):
    """(t_fresh, t_cached, hit_rate, plans_built_warm) for the point query."""
    world = build_world(n, seed)
    world.index_manager("Unit").create_hash_index("kind")

    def fresh():
        for _ in range(reps):
            world.plan_cache.clear()
            point_query(world).execute(mode="tuple").ids

    def cached():
        for _ in range(reps):
            point_query(world).execute(mode="tuple").ids

    t_fresh = wall_time(fresh, repeats=2)
    world.plan_cache.clear()
    before_plans = world.planner.plans_built
    before = world.plan_cache.stats()
    t_cached = wall_time(cached, repeats=2)
    plans_built = world.planner.plans_built - before_plans
    after = world.plan_cache.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    hit_rate = hits / max(1, hits + misses)
    return t_fresh / reps, t_cached / reps, hit_rate, plans_built


# -- script cell -----------------------------------------------------------------

def run_script_cell(n: int, ticks: int = 3, seed: int = 1):
    """(t_scalar, t_batched, hash_equal, batched_runs) for the update script."""
    scalar_world = build_world(n, seed)
    batch_world = build_world(n, seed)
    add_script_system(scalar_world, "update", UPDATE_SRC, batch="off")
    system = add_script_system(batch_world, "update", UPDATE_SRC, batch="auto")
    t_scalar = wall_time(lambda: scalar_world.run(ticks), repeats=1)
    t_batched = wall_time(lambda: batch_world.run(ticks), repeats=1)
    equal = scalar_world.state_hash() == batch_world.state_hash()
    return t_scalar / ticks, t_batched / ticks, equal, system.batched_runs


# -- shard cell ------------------------------------------------------------------

def _drift(world, eid, dt):
    pos = world.get(eid, "Position")
    world.set(eid, "Position", x=pos["x"] + 0.9, y=pos["y"] + 0.4)


def _drift_batch(world, ids, cols, dt):
    return {
        "Position.x": [x + 0.9 for x in cols["Position.x"]],
        "Position.y": [y + 0.4 for y in cols["Position.y"]],
    }


def build_cluster(
    entities: int, seed: int, batch: bool, shards: int = 4,
    replicated: bool = False,
):
    placement = StaticGridPlacement(
        StaticGridPartitioner(AABB(0, 0, 800, 800), 2, 2, shards)
    )
    if replicated:
        coord = ReplicatedClusterCoordinator(
            shards, placement, cluster_schemas(), seed=seed,
            replication_factor=1, ack_mode=ACK_SEMISYNC,
        )
    else:
        coord = ClusterCoordinator(shards, placement, cluster_schemas(), seed=seed)
    rng = random.Random(seed + 17)
    eids = [
        coord.spawn({
            "Position": {"x": rng.uniform(0, 800), "y": rng.uniform(0, 800)},
            "Wealth": {},
        })
        for _ in range(entities)
    ]
    if batch:
        coord.add_batch_system(
            "drift", reads=["Position.x", "Position.y"], fn=_drift_batch,
            writes=["Position.x", "Position.y"],
        )
    else:
        coord.add_per_entity_system("drift", ["Position"], _drift)
    return coord, eids, rng


def drive_cluster(coord, eids, rng, ticks: int):
    for t in range(ticks):
        if t % 4 == 0:
            a, b = rng.sample(eids, 2)
            coord.submit(transfer_spec(a, b, 2))
        coord.tick()


def run_cluster_ticks(coord, eids, rng, ticks: int):
    drive_cluster(coord, eids, rng, ticks)
    coord.quiesce()


def run_shard_cell(entities: int = 5000, ticks: int = 30, seed: int = 1):
    """(t_tuple, t_batch) per tick; asserts equal cluster state hashes.

    Best-of-2 over the same tick count, so one scheduling hiccup cannot
    fail the absolute floor; hashes still line up because each variant
    advances the same total number of ticks with its own
    identically-seeded rng.
    """
    times, hashes = [], []
    for batch in (False, True):
        coord, eids, rng = build_cluster(entities, seed, batch)
        t = wall_time(
            lambda: run_cluster_ticks(coord, eids, rng, ticks), repeats=2
        )
        times.append(t / ticks)
        hashes.append(coord.state_hash())
    assert hashes[0] == hashes[1], "batch shard tick must be bit-identical"
    return times[0], times[1]


def _journal_records(coord) -> int:
    return sum(host.journal.wal.next_lsn - 1 for host in coord.shards)


def _bytes_shipped(coord) -> int:
    return sum(g.bytes_shipped for g in coord.replication_stats().values())


def run_replicated_cell(entities: int = 2000, ticks: int = 20, seed: int = 1):
    """``{mode: (records, bytes_shipped, ms)}`` per tick on 2 replicated shards.

    Measured over the ``ticks`` driven ticks; the quiesce after them
    (which settles the handoffs of the last repartition, row events in
    both formulations) is not counted.  Asserts equal cluster hashes
    across the formulations and that every replica, once the last frame
    has shipped, equals its primary.
    """
    rows, hashes = {}, []
    for batch in (False, True):
        coord, eids, rng = build_cluster(
            entities, seed, batch, shards=2, replicated=True
        )
        records, shipped = _journal_records(coord), _bytes_shipped(coord)
        t = wall_time(lambda: drive_cluster(coord, eids, rng, ticks), repeats=1)
        rows["batch" if batch else "tuple"] = (
            (_journal_records(coord) - records) / ticks,
            (_bytes_shipped(coord) - shipped) / ticks,
            t / ticks * 1e3,
        )
        coord.quiesce()
        hashes.append(coord.state_hash())
        frozen = {h.shard_id: h.world.state_hash() for h in coord.shards}
        coord.tick()  # ship the last frame
        for shard_id, group in coord.replicas.items():
            for replica in group:
                assert replica.state_hash() == frozen[shard_id], (
                    "replica diverged from its primary"
                )
    assert hashes[0] == hashes[1], "replicated batch tick must be bit-identical"
    return rows


# -- report ----------------------------------------------------------------------

def run_experiment(sizes=(1000, 4000, 10000), seed=1, shard_entities=5000,
                   shard_ticks=30, replicated_entities=2000, replicated_ticks=20):
    """All tables plus the relative metrics the regression gate tracks."""
    qtable = BenchTable(
        "E17a: scan query, tuple-at-a-time vs plan cache vs batched",
        ["n", "t_fresh_ms", "t_cached_ms", "t_batched_ms",
         "batch_speedup", "rows"],
    )
    ptable = BenchTable(
        "E17b: selective indexed query, planner every call vs plan cache",
        ["n", "t_fresh_us", "t_cached_us", "cache_speedup",
         "hit_rate", "plans_built"],
    )
    stable = BenchTable(
        "E17c: per-tick update script, interpreter vs set-at-a-time",
        ["n", "t_scalar_ms", "t_batched_ms", "script_speedup", "hash_equal"],
    )
    for n in sizes:
        t_fresh, t_cached, t_batched, rows = run_query_cell(n, seed=seed)
        qtable.add_row(
            n, t_fresh * 1e3, t_cached * 1e3, t_batched * 1e3,
            t_fresh / t_batched if t_batched else float("inf"), rows,
        )
        p_fresh, p_cached, hit_rate, plans = run_plan_cache_cell(n, seed=seed)
        ptable.add_row(
            n, p_fresh * 1e6, p_cached * 1e6,
            p_fresh / p_cached if p_cached else float("inf"),
            hit_rate, plans,
        )
        t_scalar, t_b, equal, _runs = run_script_cell(n, seed=seed)
        stable.add_row(
            n, t_scalar * 1e3, t_b * 1e3,
            t_scalar / t_b if t_b else float("inf"), equal,
        )
    ctable = BenchTable(
        "E17d: 4-shard cluster tick, tuple-at-a-time vs batch drift system",
        ["entities", "t_tuple_ms", "t_batch_ms", "speedup"],
    )
    t_tuple, t_batch = run_shard_cell(shard_entities, shard_ticks, seed)
    ctable.add_row(
        shard_entities, t_tuple * 1e3, t_batch * 1e3,
        t_tuple / t_batch if t_batch else float("inf"),
    )
    rtable = BenchTable(
        "E17e: replicated 2-shard cluster tick, journal cost per formulation",
        ["mode", "entities", "journal_records_per_tick",
         "bytes_shipped_per_tick", "ms_per_tick"],
    )
    replicated = run_replicated_cell(replicated_entities, replicated_ticks, seed)
    for mode, (records, shipped, ms) in replicated.items():
        rtable.add_row(mode, replicated_entities, records, shipped, ms)
    metrics = {
        "query_batch_speedup": qtable.column("batch_speedup")[-1],
        "plan_cache_speedup": ptable.column("cache_speedup")[-1],
        "plan_cache_hit_rate": min(ptable.column("hit_rate")),
        "script_batch_speedup": stable.column("script_speedup")[-1],
        "hash_equal": all(stable.column("hash_equal")),
        "shard_batch_vs_tuple": ctable.column("speedup")[-1],
        "replicated_records_tuple_over_batch": (
            replicated["tuple"][0] / replicated["batch"][0]
        ),
    }
    return {"tables": [qtable, ptable, stable, ctable, rtable],
            "metrics": metrics,
            "sizes": list(sizes)}


def to_payload(result, seed):
    """The JSON artifact for one run (input to check_regression.py)."""
    return {
        "experiment": "E17",
        "seed": seed,
        "sizes": result["sizes"],
        "tables": [t.to_dict() for t in result["tables"]],
        "metrics": result["metrics"],
    }


def print_report(sizes=(1000, 4000, 10000), seed=1) -> None:
    result = run_experiment(sizes=sizes, seed=seed)
    for table in result["tables"]:
        table.print()
    m = result["metrics"]
    print(f"batched query speedup at n={sizes[-1]}: "
          f"{m['query_batch_speedup']:.2f}x (target >= 2x)")
    print(f"plan-cache speedup on the indexed point query: "
          f"{m['plan_cache_speedup']:.2f}x "
          f"(warm hit rate {m['plan_cache_hit_rate']:.3f})")
    print(f"lowered script speedup at n={sizes[-1]}: "
          f"{m['script_batch_speedup']:.2f}x, "
          f"state hashes equal: {m['hash_equal']}")
    print(f"batch vs tuple shard tick: {m['shard_batch_vs_tuple']:.2f}x "
          f"(floor 2x; cluster state hashes asserted equal)")
    print(f"replicated journal records, tuple / batch: "
          f"{m['replicated_records_tuple_over_batch']:.1f}x "
          f"(one record per written column vs one per entity; replica "
          f"and cluster hashes asserted equal)")
    print("-> the optimizer runs once per query shape, residual filters "
          "run as vector passes over the columns, and the canonical "
          "update loop becomes one batched read plus one bulk write.")


def run_traced_sample(n=500, seed=1):
    """A small traced run, so --trace-out shows the new span families."""
    world = build_world(n, seed)
    add_script_system(world, "update", UPDATE_SRC, batch="auto")
    for _ in range(3):
        scan_query(world).execute(mode="tuple").ids       # query.plan_cache spans
        scan_query(world).execute(mode="batch").ids  # query.batch spans
        world.tick()                   # script.batch spans


# -- pytest-benchmark entries ----------------------------------------------------

N_BENCH = 2000


def test_e17_fresh_query(benchmark):
    world = build_world(N_BENCH)

    def run():
        world.plan_cache.clear()
        return scan_query(world).execute(mode="tuple").ids

    benchmark(run)


def test_e17_cached_query(benchmark):
    world = build_world(N_BENCH)
    scan_query(world).execute(mode="tuple").ids
    benchmark(lambda: scan_query(world).execute(mode="tuple").ids)


def test_e17_batched_query(benchmark):
    world = build_world(N_BENCH)
    scan_query(world).execute(mode="batch").ids
    benchmark(lambda: scan_query(world).execute(mode="batch").ids)


def test_e17_batched_script_tick(benchmark):
    world = build_world(N_BENCH)
    add_script_system(world, "update", UPDATE_SRC, batch="auto")
    benchmark(world.tick)


def test_e17_shape_holds(benchmark):
    """The headline assertions, at CI-friendly sizes."""

    def check():
        result = run_experiment(sizes=(500, 2000), shard_entities=1000,
                                shard_ticks=12, replicated_entities=500,
                                replicated_ticks=8)
        m = result["metrics"]
        assert m["hash_equal"], "lowered script must be bit-identical"
        assert m["script_batch_speedup"] >= 2.0, m["script_batch_speedup"]
        assert m["query_batch_speedup"] >= 2.0, m["query_batch_speedup"]
        assert m["plan_cache_hit_rate"] > 0.99, m["plan_cache_hit_rate"]
        assert m["shard_batch_vs_tuple"] >= 2.0, m["shard_batch_vs_tuple"]
        ratio = m["replicated_records_tuple_over_batch"]
        assert ratio >= 20.0, ratio
        return m

    benchmark.pedantic(check, rounds=1, iterations=1)


if __name__ == "__main__":
    parser = make_parser("E17 set-at-a-time execution benchmark")
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1000, 4000, 10000],
        help="entity counts to scale over",
    )
    cli = parser.parse_args()
    sizes = tuple(cli.sizes)
    with trace_session(cli.trace_out):
        if cli.out and cli.out.endswith(".json"):
            result = run_experiment(sizes=sizes, seed=cli.seed)
            for table in result["tables"]:
                table.print()
            emit_json(cli.out, to_payload(result, cli.seed))
        else:
            emit_report(print_report, out=cli.out, sizes=sizes, seed=cli.seed)
        if cli.trace_out:
            run_traced_sample(seed=cli.seed)
