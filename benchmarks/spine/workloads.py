"""The four spine workloads: which stack each composes and why.

Each one stresses a different layer of the request path, so that for any
optimisation one workload exercises its mechanism and another bypasses
it (the prediction there is *no change*):

``edge_fanout``  gateway egress: interest, delta build, encode, flush.
``sim_tick``     the shard tick: batch, lowered-script, tuple-at-a-time
                 and query-driven systems side by side, unreplicated.
``txn_commit``   writes beside reads: durable unit of work, WAL, MiniSQL,
                 outbox drain, event publish.
``full_path``    the balanced composition: replicated 2-shard cluster,
                 2PC trades, handoffs, session resume, durable outbox.

Sizes are cut from the issue's table so a run fits the driver's time
cap: a repetition is a fresh stack, a short warm-up and a *fixed* number
of measured ticks (the outbox and the journal grow with run length, so
tick counts, not seconds, must match on both commits).
"""

from __future__ import annotations

import math
import random
from typing import Any

from harness import ClusterWorld, Spine
from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency.partition import StaticGridPartitioner
from repro.core.component import schema
from repro.core.predicates import F
from repro.core.world import GameWorld
from repro.durable import DurableStore, OutboxDispatcher, gateway_sink, run_unit
from repro.errors import ClusterError
from repro.gateway import ClusterView, GatewayConfig, GatewayCore, WorldView
from repro.net.protocol import InputAck
from repro.replication import ACK_SEMISYNC, ReplicatedClusterCoordinator
from repro.spatial.geometry import AABB
from repro.workloads.hotspot import transfer_spec
from repro.workloads.players import zipf_choice
from repro.workloads.swarm import Swarm, SwarmConfig

POSITION = schema("Position", x="float", y="float")
VELOCITY = schema("Velocity", vx=("float", 0.0), vy=("float", 0.0))
WEALTH = schema("Wealth", gold=("int", 100))
UNIT = schema(
    "Unit", hp="int", energy="float", regen="float", kind="str",
    alert=("int", 0),
)
STARTING_GOLD = 100
#: Side of the square map the three 400² workloads share.
WORLD_SIZE = 400.0
#: The map is part of each workload's definition, not of its traffic:
#: hotspot centres, who spawns where and the NPC population come from
#: this constant, while ``--seed`` draws everything that happens on the
#: map (who moves, who sends what to whom, who churns).  Otherwise a few
#: heavy movers landing in a dense or a sparse hotspot moves
#: ``wire_bytes_per_client_tick`` by 8-16% between seeds, wider than
#: any bound worth gating on.
LAYOUT_SEED = 23
#: Swarm movement rounds run before anyone connects, so avatars have
#: already dispersed from their spawn clusters: AOI density (and with
#: it tick time) is then flat from the first measured tick instead of
#: falling for ~100 ticks.
DISPERSE_ROUNDS = 150


def _grid_placement(size: float) -> StaticGridPlacement:
    return StaticGridPlacement(
        StaticGridPartitioner(AABB(0.0, 0.0, size, size), 2, 1, 2)
    )


def _swarm_config(clients: int, **shape: Any) -> SwarmConfig:
    """Everyone connects at once and stays (churn is the harness's job)."""
    return SwarmConfig(
        clients=clients, ramp_ticks=1, churn_rate=0.0, zipf_theta=0.8,
        seed=LAYOUT_SEED, **shape,
    )


# -- the three building blocks the workloads compose ---------------------------


class _OneWorld(Spine):
    """A single ``GameWorld`` behind a ``WorldView`` gateway."""

    def build_world(self, **swarm_shape: Any) -> None:
        world = self.world = GameWorld()
        world.catalog.define(POSITION)
        world.catalog.define(VELOCITY)
        self.core = GatewayCore(
            WorldView(world), GatewayConfig(seed=LAYOUT_SEED),
            on_input=self.handle,
        )
        self.swarm = Swarm(
            world, self.core, _swarm_config(self.clients, **swarm_shape)
        )

    def instrument(self) -> None:
        super().instrument()
        self.rec.wrap(self.world, "tick", "core.tick")
        self.rec.wrap(self.world, "set", "core.write")

    def sim_tick(self) -> None:
        self.world.tick()

    def state_hash(self) -> str:
        return self.world.state_hash()


class _Sharded(Spine):
    """A 2-shard cluster (``self.cluster``) behind a ``ClusterView`` gateway."""

    def build_gateway(
        self, extra: dict[str, dict[str, Any]] | None = None, **swarm_shape: Any
    ) -> None:
        self.world = ClusterWorld(self.cluster, self.rec, extra=extra)
        self.core = GatewayCore(
            ClusterView(self.cluster), GatewayConfig(seed=LAYOUT_SEED),
            on_input=self.handle,
        )
        self.swarm = Swarm(
            self.world, self.core, _swarm_config(self.clients, **swarm_shape)
        )

    def instrument(self) -> None:
        """Span proxies on the coordinator, its shard hosts and replicas."""
        super().instrument()
        rec = self.rec
        rec.wrap(self.cluster, "tick", "cluster.tick")
        for host in self.cluster.shards:
            rec.wrap(host, "tick", "core.tick")
            if hasattr(host, "replicate"):
                rec.wrap(host, "replicate", "replication.ship")
        for group in getattr(self.cluster, "replicas", {}).values():
            for replica in group:
                rec.wrap(replica, "process_inbox", "replication.apply")

    def sim_tick(self) -> None:
        self.cluster.tick()

    def verify(self) -> list[str]:
        """``quiesce()`` then the ownership invariants, as failure lines."""
        try:
            self.cluster.quiesce()
            self.cluster.check_invariants()
        except ClusterError as exc:
            return [f"cluster invariant: {exc}"]
        return []

    def state_hash(self) -> str:
        return self.cluster.state_hash()


class _DurableLedger(Spine):
    """A durable tier whose outbox feeds the gateway.

    One ledger account per avatar; every unit of work reads and
    CAS-writes two rows (zero-sum) and emits one event keyed by the
    input's ``seq`` — the ``EventMsg`` that event becomes is the reply.
    """

    def build_durable(self) -> None:
        self.store = DurableStore()
        inner = gateway_sink(self.core)
        rec = self.rec
        clients = self._client_of_avatar

        def sink(ev: Any) -> int:
            if rec.enabled:
                rec.req = f"{clients[ev.entity].name}:{ev.key}"
            delivered = inner(ev)
            rec.req = None
            return delivered

        # One drain per tick must keep up with one tick's inputs.
        batch = max(64, int(self.clients * self.input_rate) * 2)
        self.dispatcher = OutboxDispatcher(self.store, sink, batch=batch)
        avatars = [c.avatar for c in self.swarm.clients]

        def seed_accounts(uow: Any) -> None:
            for avatar in avatars:
                uow.put(avatar, {"gold": STARTING_GOLD})

        run_unit(self.store, seed_accounts)

    def ledger_unit(self, avatar: int, other: int, seq: int, amount: int) -> None:
        def unit(uow: Any) -> None:
            mine = uow.get(avatar)
            theirs = uow.get(other)
            uow.put(avatar, {"gold": mine["gold"] - amount})
            uow.put(other, {"gold": theirs["gold"] + amount})
            uow.emit("input", entity=avatar, key=str(seq), to=other,
                     amount=amount)

        with self.rec.span("durable.commit"):
            run_unit(self.store, unit, tick=self.tick_no)

    def verify(self) -> list[str]:
        failures = super().verify()
        total = 0
        for client in self.swarm.clients:
            state, _version = self.store.read_entity(client.avatar)
            total += state["gold"]
        if total != STARTING_GOLD * len(self.swarm.clients):
            failures.append(f"durable ledger not conserved: {total}")
        stats = self.core.stats()
        # Every commit but the account-seeding one emits exactly one
        # event, delivered to exactly one session.
        if stats["events_published"] != self.store.commits - 1:
            failures.append(
                f"events_published {stats['events_published']} != "
                f"commits {self.store.commits - 1}"
            )
        if self.dispatcher.lag():
            failures.append(f"outbox lag {self.dispatcher.lag()} at the end")
        if self.store.conflicts:
            failures.append(f"{self.store.conflicts} CAS conflicts")
        return failures


# -- edge_fanout ------------------------------------------------------------------


class EdgeFanout(_OneWorld):
    """Gateway egress does the work; no cluster, no durable tier."""

    name = "edge_fanout"
    clients = 600
    warmup_ticks = 8
    ticks = 70
    input_rate = 0.1

    def build(self) -> None:
        self.build_world(
            hotspots=8, world_size=2000.0, hotspot_sigma=30.0,
            move_rate=0.5, aoi_radius=24.0,
        )
        for _ in range(DISPERSE_ROUNDS):
            self.swarm.move(0)

    def input_for(self, client: Any) -> tuple[str, dict[str, Any]]:
        rng = self.rng
        return "move", {"dx": rng.uniform(-1.0, 1.0), "dy": rng.uniform(-1.0, 1.0)}

    def on_input(self, session: Any, cmd: Any) -> Any:
        world = self.world
        pos = world.get(session.avatar, "Position")
        world.set(
            session.avatar, "Position",
            x=pos["x"] + cmd.args["dx"], y=pos["y"] + cmd.args["dy"],
        )
        return InputAck(cmd.seq, True, {}, world.clock.tick)


# -- sim_tick: four formulations of per-tick game logic, side by side ----------

UPKEEP_SRC = """
for e in entities("Unit"):
    e.energy = e.energy + e.regen * dt
    e.hp = max(0, e.hp - 1)
end
"""


def _integrate(world: Any, ids: Any, cols: Any, dt: float) -> dict[str, list]:
    """Elementwise batch kernel: Position += Velocity * dt, clamped."""
    top = WORLD_SIZE
    return {
        "Position.x": [
            min(top, max(0.0, x + vx * dt))
            for x, vx in zip(cols["Position.x"], cols["Velocity.vx"])
        ],
        "Position.y": [
            min(top, max(0.0, y + vy * dt))
            for y, vy in zip(cols["Position.y"], cols["Velocity.vy"])
        ],
    }


def _tax(world: Any, entity: int, dt: float) -> None:
    """Tuple-at-a-time: one read and one write per entity."""
    gold = world.get_field(entity, "Wealth", "gold")
    world.set(entity, "Wealth", gold=gold + 1)


def _bounty(world: Any, dt: float) -> None:
    """Query-driven: indexed select, then one bulk write."""
    ids = world.query("Unit").where("Unit", F.kind == "k0").execute().ids
    alerts = world.table("Unit").gather("alert", ids)
    world.update_batch("Unit", ids, {"alert": [a + 1 for a in alerts]})


class SimTick(_Sharded):
    """The shard tick does the work; unreplicated, no durable tier."""

    name = "sim_tick"
    clients = 32
    npcs = 6000
    warmup_ticks = 6
    ticks = 70
    input_rate = 0.25

    def shrink(self) -> None:
        super().shrink()
        self.npcs = 200

    def build(self) -> None:
        cluster = self.cluster = ClusterCoordinator(
            2, _grid_placement(WORLD_SIZE),
            [POSITION, VELOCITY, UNIT, WEALTH], seed=LAYOUT_SEED,
        )
        rng = random.Random(LAYOUT_SEED * 31 + 5)
        for i in range(self.npcs):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            speed = rng.uniform(1.0, 6.0)
            components: dict[str, dict[str, Any]] = {
                "Position": {
                    "x": rng.uniform(0.0, WORLD_SIZE),
                    "y": rng.uniform(0.0, WORLD_SIZE),
                },
                "Velocity": {
                    "vx": speed * math.cos(angle), "vy": speed * math.sin(angle),
                },
                "Unit": {
                    "hp": rng.randrange(2000, 4000),
                    "energy": rng.uniform(0.0, 50.0),
                    "regen": rng.uniform(0.5, 2.0),
                    "kind": f"k{i % 16}",
                },
            }
            if i % 4 == 0:
                components["Wealth"] = {"gold": STARTING_GOLD}
            cluster.spawn(components)
        cluster.add_batch_system(
            "integrate",
            reads=["Position.x", "Position.y", "Velocity.vx", "Velocity.vy"],
            fn=_integrate, writes=["Position.x", "Position.y"],
            elementwise=True,
        )
        cluster.add_script_system("upkeep", UPKEEP_SRC)
        cluster.add_per_entity_system("tax", ["Wealth"], _tax)
        for host in cluster.shards:
            host.world.index_manager("Unit").create_hash_index("kind")
            host.world.add_function_system("bounty", _bounty)
        self.build_gateway(
            hotspots=4, world_size=WORLD_SIZE, hotspot_sigma=20.0,
            move_rate=0.5, aoi_radius=12.0,
        )

    def input_for(self, client: Any) -> tuple[str, dict[str, Any]]:
        angle = self.rng.uniform(0.0, 2.0 * math.pi)
        return "steer", {"vx": 2.0 * math.cos(angle), "vy": 2.0 * math.sin(angle)}

    def on_input(self, session: Any, cmd: Any) -> Any:
        self.world.set(
            session.avatar, "Velocity", vx=cmd.args["vx"], vy=cmd.args["vy"]
        )
        return InputAck(cmd.seq, True, {}, self.cluster.tick_count)


# -- txn_commit -------------------------------------------------------------------


class TxnCommit(_DurableLedger, _OneWorld):
    """Writes beside reads: the durable tier does the work."""

    name = "txn_commit"
    clients = 100
    warmup_ticks = 6
    ticks = 70
    input_rate = 0.5

    def build(self) -> None:
        self.build_world(
            hotspots=4, world_size=WORLD_SIZE, hotspot_sigma=20.0,
            move_rate=0.1, aoi_radius=6.0,
        )
        self.build_durable()

    def input_for(self, client: Any) -> tuple[str, dict[str, Any]]:
        clients = self.swarm.clients
        other = client
        while other is client:
            other = clients[zipf_choice(self.rng, len(clients), 0.8)]
        return "pay", {"to": other.avatar}

    def on_input(self, session: Any, cmd: Any) -> Any:
        self.ledger_unit(session.avatar, cmd.args["to"], cmd.seq, 1)
        return None


# -- full_path ----------------------------------------------------------------------


class FullPath(_DurableLedger, _Sharded):
    """ROADMAP's E23 path: every plane at once, none above ~55%."""

    name = "full_path"
    clients = 200
    warmup_ticks = 6
    ticks = 70
    input_rate = 0.2
    churn_rate = 0.01

    def build(self) -> None:
        self.cluster = ReplicatedClusterCoordinator(
            2, _grid_placement(WORLD_SIZE), [POSITION, VELOCITY, WEALTH],
            seed=LAYOUT_SEED, replication_factor=1, ack_mode=ACK_SEMISYNC,
        )
        self.build_gateway(
            extra={"Wealth": {"gold": STARTING_GOLD}},
            hotspots=4, world_size=WORLD_SIZE, hotspot_sigma=20.0,
            move_rate=0.3, aoi_radius=12.0,
        )
        self._by_hotspot: dict[int, list[Any]] = {}
        for client in self.swarm.clients:
            self._by_hotspot.setdefault(client.hotspot, []).append(client)
        self.build_durable()
        #: txn id -> (avatar, counterparty, seq) of trades awaiting 2PC.
        self.trades: dict[int, tuple[int, int, int]] = {}
        self.trades_submitted = 0

    def input_for(self, client: Any) -> tuple[str, dict[str, Any]]:
        rng = self.rng
        group = self._by_hotspot[client.hotspot]
        if len(group) < 2:
            group = self.swarm.clients
        other = client
        while other is client:
            other = rng.choice(group)
        # No trade starts while a handoff is in flight: a prepare that
        # chases a just-migrated entity can bounce between shards
        # forever (see README, finding 3), and no operation may fail.
        if client.inputs_sent % 4 == 0 and not self.cluster.in_flight_handoffs:
            return "trade", {"to": other.avatar}
        return "move", {
            "to": other.avatar,
            "dx": rng.uniform(-1.0, 1.0), "dy": rng.uniform(-1.0, 1.0),
        }

    def on_input(self, session: Any, cmd: Any) -> Any:
        avatar = session.avatar
        other = cmd.args["to"]
        if cmd.action == "trade":
            with self.rec.span("cluster.submit"):
                txn = self.cluster.submit(transfer_spec(avatar, other))
            self.trades[txn] = (avatar, other, cmd.seq)
            self.trades_submitted += 1
            return None
        world = self.world
        pos = world.get(avatar, "Position")
        world.set(
            avatar, "Position",
            x=pos["x"] + cmd.args["dx"], y=pos["y"] + cmd.args["dy"],
        )
        self.ledger_unit(avatar, other, cmd.seq, 1)
        return None

    def post_sim(self) -> None:
        """Poll 2PC outcomes; a decided trade runs its durable unit."""
        if not self.trades:
            return
        rec = self.rec
        with rec.span("app.poll"):
            outcome_of = self.cluster.txn_outcome
            for txn in list(self.trades):
                outcome = outcome_of(txn)
                if outcome is None:
                    continue
                avatar, other, seq = self.trades.pop(txn)
                if rec.enabled:
                    rec.req = f"{self._client_of_avatar[avatar].name}:{seq}"
                self.ledger_unit(avatar, other, seq, 1 if outcome else 0)
            rec.req = None

    def verify(self) -> list[str]:
        # _DurableLedger.verify chains to _Sharded.verify, which
        # quiesces the cluster before anything below is read.
        failures = super().verify()
        gold = 0
        for host in self.cluster.shards:
            table = host.world.table("Wealth")
            gold += sum(table.gather("gold", table.entity_ids))
        if gold != STARTING_GOLD * len(self.swarm.clients):
            failures.append(f"cluster gold not conserved: {gold}")
        if self.trades:
            failures.append(f"{len(self.trades)} trades never decided")
        return failures

    def counters(self) -> dict[str, int]:
        out = super().counters()
        out["trades"] = self.trades_submitted
        return out


WORKLOADS: dict[str, type[Spine]] = {
    cls.name: cls for cls in (EdgeFanout, SimTick, TxnCommit, FullPath)
}
