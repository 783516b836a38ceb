"""The spine harness: one closed, lockstep tick loop over the request path.

Single process, single thread, in-memory ``MemoryTransport`` clients —
``GatewayCore`` is sans-IO, so this is the identical code the TCP server
runs.  Per tick the harness runs

    client churn / moves / inputs -> sim tick -> outbox drain
        -> gateway tick -> client drain + decode

and the next tick starts when this one ends.  Inputs are scheduled by
tick (a fixed fraction of connected clients sends one ``InputCommand``
per tick whether or not earlier ones were answered).  Idle time at a
fixed tick rate would not change tick cost, so ``1000 / tick_ms_p95`` is
the sustainable tick rate.

A :class:`Spine` subclass (see ``workloads.py``) supplies the stack and
what an input does; everything that stamps time lives here.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import random
import resource
import statistics
import time
from typing import Any, Callable

from repro.core.columns import default_backend
from repro.gateway import EventMsg, frame
from repro.net.protocol import InputAck, InputCommand
from repro.workloads.swarm import Swarm

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Ticks with no new inputs granted to in-flight requests before an
#: unanswered input counts as failed.
DRAIN_TICKS = 16
#: Decoded client-side messages kept for the codec microbenchmark.
CAPTURE_CAP = 5000


def supported_percentile(
    samples: list[float], cap: float = 0.95
) -> tuple[float, float]:
    """The highest percentile <= ``cap`` with >= 10 samples beyond it.

    Returns ``(value, q)``.  With fewer than 20 samples even the median
    is not supported by the rule; the median is returned with its ``q``
    so the caller can print what it really is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    # Index (0-based) of the reported order statistic: MIN_BEYOND values
    # must lie strictly above it.
    index = min(math.ceil(cap * n) - 1, n - MIN_BEYOND - 1)
    index = max(index, (n - 1) // 2)
    return ordered[index], (index + 1) / n


def quartile_growth(per_tick: list[float]) -> float:
    """Median of the last quarter over median of the first quarter."""
    quarter = max(1, len(per_tick) // 4)
    first = statistics.median(per_tick[:quarter])
    last = statistics.median(per_tick[-quarter:])
    return last / first if first > 0 else 0.0


class RttMatcher:
    """Matches each input to its reply by ``(client, seq)``.

    ``sent`` stamps the hand-off to ``core.on_bytes``; ``reply`` stamps
    the client-side decoder yielding the answer.  Whatever is still
    pending when the run ends was never answered — including a reply
    dropped because churn detached the session — and counts as failed.
    """

    def __init__(self) -> None:
        self._pending: dict[tuple[str, int], tuple[float, bool]] = {}
        self._open: dict[str, int] = {}
        self.rtts: list[float] = []
        self.attempted = 0
        self.unmatched = 0

    def sent(self, client: str, seq: int, now: float, measured: bool) -> None:
        self._pending[(client, seq)] = (now, measured)
        self._open[client] = self._open.get(client, 0) + 1
        if measured:
            self.attempted += 1

    def reply(self, client: str, seq: int, now: float) -> None:
        entry = self._pending.pop((client, seq), None)
        if entry is None:
            self.unmatched += 1  # a duplicate or unsolicited reply
            return
        self._open[client] -= 1
        if entry[1]:
            self.rtts.append(now - entry[0])

    def waiting(self, client: str) -> bool:
        """Whether ``client`` has an input in flight."""
        return self._open.get(client, 0) > 0

    def pending(self) -> int:
        return len(self._pending)

    def unanswered(self) -> int:
        """Measured inputs that never got their reply."""
        return sum(1 for _t, measured in self._pending.values() if measured)


class ClusterWorld:
    """Lets ``Swarm`` drive a ``ClusterCoordinator`` as if it were a world.

    ``Swarm`` needs ``spawn(**components)``, ``get``, ``set``,
    ``component_names`` and ``catalog.define``.  Reads and writes go to
    whichever shard owns the entity right now; an entity in flight
    between shards (evicted, not yet installed) keeps its last read
    value and drops the write, which is what a game server does with an
    input that arrives mid-handoff.
    """

    def __init__(
        self,
        cluster: Any,
        rec: Any,
        extra: dict[str, dict[str, Any]] | None = None,
    ):
        self.cluster = cluster
        self.rec = rec
        self.extra = extra or {}
        self.catalog = self
        self.writes = 0
        self.writes_dropped = 0
        self._last: dict[tuple[int, str], dict[str, Any]] = {}

    def component_names(self) -> tuple[str, ...]:
        return self.cluster.shards[0].world.component_names()

    def define(self, component_schema: Any) -> None:
        """``catalog.define``: install the schema on every shard world."""
        for host in self.cluster.shards:
            host.world.catalog.define(component_schema)

    def spawn(self, **components: dict[str, Any]) -> int:
        return self.cluster.spawn({**self.extra, **components})

    def _owner(self, entity: int) -> Any:
        cluster = self.cluster
        host = cluster.shards[cluster.directory[entity]]
        if host.owns(entity):
            return host
        for host in cluster.shards:
            if host.owns(entity):
                return host
        return None

    def get(self, entity: int, component: str) -> dict[str, Any]:
        host = self._owner(entity)
        if host is None:
            return dict(self._last[(entity, component)])
        row = host.world.get(entity, component)
        self._last[(entity, component)] = row
        return row

    def set(self, entity: int, component: str, **values: Any) -> None:
        host = self._owner(entity)
        if host is None:
            self.writes_dropped += 1
            return
        self.writes += 1
        with self.rec.span("core.write"):
            host.world.set(entity, component, **values)


def env_stamp(seed: int) -> dict[str, Any]:
    """Where and on what a result was measured; compared by compare.py."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "column_backend": default_backend(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the enclosing checkout, read without running git."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]),
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spine:
    """One workload's stack plus the stamped tick loop that drives it.

    Subclasses set the sizes, build the stack in :meth:`build` (which
    must set ``core``, ``swarm`` and, where used, ``store`` /
    ``dispatcher`` / ``cluster``), and say what an input is
    (:meth:`input_for`) and does (:meth:`on_input`).
    """

    name = ""
    clients = 0
    warmup_ticks = 0
    ticks = 0
    input_rate = 0.0
    churn_rate = 0.0

    def __init__(self, seed: int, rec: Any, smoke: bool = False):
        self.seed = seed
        self.rec = rec
        self.clock: Callable[[], float] = time.perf_counter
        # The harness's own draws (who sends, what they send) come from
        # a generator separate from Swarm's, so both stay seed-exact.
        self.rng = random.Random(seed * 7919 + 13)
        self.rtt = RttMatcher()
        self.tick_no = 0
        self.tick_s: list[float] = []
        self.loop_wall_s = 0.0
        self.client_ticks = 0
        self.captured: list[Any] = []
        self.core: Any = None
        self.swarm: Swarm | None = None
        self.store: Any = None
        self.dispatcher: Any = None
        self.cluster: Any = None
        self.sending = True
        self._client_of_avatar: dict[int, Any] = {}
        if smoke:
            self.shrink()

    # -- what a workload supplies ---------------------------------------------

    def shrink(self) -> None:
        """Cut sizes for ``--smoke`` (tens of clients, ~10 ticks)."""
        self.clients = min(self.clients, 24)
        self.warmup_ticks = 3
        self.ticks = 10

    def build(self) -> None:
        raise NotImplementedError

    def sim_tick(self) -> None:
        raise NotImplementedError

    def input_for(self, client: Any) -> tuple[str, dict[str, Any]]:
        raise NotImplementedError

    def on_input(self, session: Any, cmd: InputCommand) -> Any:
        raise NotImplementedError

    def post_sim(self) -> None:
        """After the sim tick, before the outbox drain (trade polling)."""

    def handle(self, session: Any, cmd: InputCommand) -> Any:
        """The ``on_input`` hook handed to ``GatewayCore``."""
        with self.rec.span("app.input"):
            return self.on_input(session, cmd)

    def instrument(self) -> None:
        """Traced pass only: wrap public bound methods of built objects."""
        rec = self.rec
        core = self.core
        rec.wrap(core, "on_bytes", "gateway.ingress")
        rec.wrap(core, "tick", "gateway.flush")
        rec.wrap(core, "publish_event", "gateway.publish")
        rec.wrap(core.stream, "begin_tick", "gateway.interest")
        rec.wrap(core.stream, "delta_for", "gateway.delta")
        rec.wrap(core.source, "collect", "gateway.collect")
        if self.store is not None:
            rec.probe(self.store.engine, "execute", "persistence.sql")
            rec.probe(self.store.wal, "append", "persistence.wal.append")
            rec.probe(self.store.wal, "flush", "persistence.wal.flush")
            rec.wrap(self.dispatcher, "drain", "durable.outbox")

    def verify(self) -> list[str]:
        """Workload-specific correctness failures (empty when correct)."""
        return []

    def counters(self) -> dict[str, int]:
        """Every exact counter of the stack; each repeats under a seed.

        Read at the start and end of the measured loop (per-layer ratios
        use the deltas) and compared across repetitions at the end.
        """
        stats = self.core.stats()
        out = {
            key: stats[key] for key in (
                "bytes_sent", "deltas_sent", "deltas_coalesced",
                "updates_suppressed", "inputs", "events_published",
            )
        }
        out["updates_seen"] = sum(c.updates_seen for c in self.swarm.clients)
        store = self.store
        if store is not None:
            out["commits"] = store.commits
            out["conflicts"] = store.conflicts
            out["fsyncs"] = store.wal.fsyncs
            out["wal_bytes"] = store.wal.bytes_written
            out["wal_records"] = store.wal.next_lsn - 1
            out["sql_statements"] = store.engine.statements_executed
        cluster = self.cluster
        if cluster is not None:
            tallies = cluster.stats()
            out["txn_committed"] = tallies.committed
            out["txn_aborted"] = tallies.aborted
            out["handoffs"] = tallies.migrations
            totals = cluster.net.stats()["totals"]
            out["net_msgs"] = totals["sent"]
            out["net_bytes"] = totals["bytes_sent"]
            if hasattr(cluster, "replication_stats"):
                out["bytes_shipped"] = sum(
                    group.bytes_shipped
                    for group in cluster.replication_stats().values()
                )
                out["journal_records"] = sum(
                    host.journal.stats()["flushed_lsn"]
                    for host in cluster.shards
                )
        return out

    def system_seconds(self) -> dict[str, float]:
        """Per-system wall totals from every world's ``budget.report()``."""
        if self.cluster is not None:
            worlds = [host.world for host in self.cluster.shards]
        else:
            worlds = [self.world]
        out: dict[str, float] = {}
        for world in worlds:
            for timing in world.budget.report():
                out[timing.name] = out.get(timing.name, 0.0) + timing.total_seconds
        return out

    def state_hash(self) -> str:
        raise NotImplementedError

    # -- the stamped loop -----------------------------------------------------------

    def set_up(self) -> None:
        """Build, connect everyone, warm up; ends at the first measured tick."""
        self.build()
        if self.rec.enabled:
            self.instrument()
        swarm = self.swarm
        # build() laid the map out from a fixed seed (see LAYOUT_SEED in
        # workloads.py); from here on Swarm draws traffic from ``--seed``.
        swarm.rng = random.Random(self.seed * 104729 + 7)
        for client in swarm.clients:
            self._client_of_avatar[client.avatar] = client
            swarm.connect(client)
        for _ in range(self.warmup_ticks):
            self.tick_once(False)
        gc.collect()

    def measure(self) -> None:
        """The fixed-length measured loop, then the no-new-input drain."""
        rec = self.rec
        if rec.enabled:
            rec.reset_totals()
        self.tick_no_at_measure = self.tick_no
        self.counters_start = self.counters()
        self.systems_start = self.system_seconds()
        start = self.clock()
        for _ in range(self.ticks):
            self.tick_once(True)
        self.loop_wall_s = self.clock() - start
        self.counters_end = self.counters()
        self.systems_end = self.system_seconds()
        if rec.enabled:
            # Totals of the measured ticks only: the drain window and
            # quiesce() below tick the stack again.
            self.self_s = dict(rec.self_s)
            self.probe_s = dict(rec.probe_s)
            self.span_count = dict(rec.count)
        self.sending = False
        for _ in range(DRAIN_TICKS):
            if not self.rtt.pending():
                break
            self.tick_once(False)

    def tick_once(self, measured: bool) -> None:
        rec = self.rec
        clock = self.clock
        rec.tick = self.tick_no
        start = clock()
        with rec.span("tick"):
            if self.churn_rate > 0:
                with rec.span("swarm.churn"):
                    self.churn()
            with rec.span("swarm.move"):
                self.swarm.move(self.tick_no)
            if self.sending:
                with rec.span("swarm.inputs"):
                    self.send_inputs(measured)
            self.sim_tick()
            self.post_sim()
            if self.dispatcher is not None:
                self.dispatcher.drain()
            summary = self.core.tick()
            with rec.span("swarm.drain"):
                self.drain_clients()
        if measured:
            self.tick_s.append(clock() - start)
            self.client_ticks += summary["clients"]
        self.tick_no += 1

    def churn(self) -> None:
        """Reconnect last tick's victims (resume), then drop new ones.

        Victims are drawn from clients with no input in flight, so no
        reply is lost to a detached session and every operation succeeds.
        """
        swarm = self.swarm
        for client in swarm.clients:
            if not client.connected:
                swarm.connect(client, resume=bool(client.resume_token))
        idle = [
            c for c in swarm.clients
            if c.connected and c.resume_token and not self.rtt.waiting(c.name)
        ]
        count = min(len(idle), int(len(swarm.clients) * self.churn_rate))
        for client in self.rng.sample(idle, count):
            swarm.disconnect(client)

    def send_inputs(self, measured: bool) -> None:
        """A fixed fraction of connected clients each sends one input."""
        swarm = self.swarm
        connected = [c for c in swarm.clients if c.connected]
        if not connected:
            return
        count = max(1, int(len(connected) * self.input_rate))
        rec = self.rec
        clock = self.clock
        on_bytes = self.core.on_bytes
        for client in self.rng.sample(connected, min(count, len(connected))):
            client.inputs_sent += 1
            seq = client.inputs_sent
            action, args = self.input_for(client)
            data = frame(InputCommand(
                client=client.name, seq=seq, action=action, args=args,
                tick=self.tick_no,
            ))
            if rec.enabled:
                rec.req = f"{client.name}:{seq}"
            self.rtt.sent(client.name, seq, clock(), measured)
            on_bytes(client.cid, data)
            swarm.inputs_sent += 1
        rec.req = None

    def drain_clients(self) -> None:
        """Every client reads its transport, decodes, and matches replies."""
        rec = self.rec
        clock = self.clock
        rtt = self.rtt
        capture = self.captured if rec.enabled else None
        for client in self.swarm.clients:
            transport = client.transport
            if transport is None:
                continue
            data = transport.drain()
            if not data:
                continue
            client.bytes_received += len(data)
            messages = client.decoder.feed(data)
            now = clock()
            client.absorb(messages)
            for msg in messages:
                kind = type(msg)
                if kind is InputAck:
                    seq = msg.seq
                elif kind is EventMsg:
                    seq = int(msg.key)
                else:
                    continue
                if rec.enabled:
                    rec.req = f"{client.name}:{seq}"
                with rec.span("swarm.recv"):
                    rtt.reply(client.name, seq, now)
            if capture is not None and len(capture) < CAPTURE_CAP:
                capture.extend(messages[: CAPTURE_CAP - len(capture)])
        rec.req = None

    # -- the correctness gate -------------------------------------------------------

    def check(self) -> list[str]:
        """Every failed check as one line; empty means correct."""
        failures: list[str] = []
        stats = self.core.stats()
        swarm_stats = self.swarm.stats()
        for key in ("protocol_errors", "rejected", "evictions", "events_dropped"):
            if stats[key]:
                failures.append(f"gateway {key} = {stats[key]}")
        if swarm_stats["rejects"] or swarm_stats["evicted"]:
            failures.append(f"swarm saw rejects/evictions: {swarm_stats}")
        if self.rtt.unmatched:
            failures.append(f"{self.rtt.unmatched} unsolicited replies")
        if self.rtt.pending():
            failures.append(f"{self.rtt.pending()} inputs never answered")
        if stats["inputs"] != self.swarm.inputs_sent:
            failures.append(
                f"gateway saw {stats['inputs']} inputs, "
                f"swarm sent {self.swarm.inputs_sent}"
            )
        failures.extend(self.verify())
        return failures
