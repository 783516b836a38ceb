"""Per-layer metrics of one traced repetition, plus the layer microbenches.

Layers are this repo's packages.  ``*_ms_per_tick`` is span *self* time
(duration minus child spans) per measured tick; counts come from the
public ``stats()`` surfaces and repeat exactly under a seed.  A layer a
workload bypasses reports 0 — that is the *no change* prediction.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from harness import Spine, quartile_growth
from metrics import PER_LAYER
from repro.consistency.interest import InterestManager
from repro.core.component import schema
from repro.core.world import GameWorld
from repro.net.protocol import decode, encode
from repro.persistence.wal import WriteAheadLog

#: Span name -> the layer (package) whose self time it is.  ``tick`` is
#: the root: its self time is harness glue no layer owns, and what
#: ``trace.coverage_frac`` leaves uncovered.
LAYER_OF = {
    "tick": "harness",
    "swarm.churn": "workloads.swarm",
    "swarm.move": "workloads.swarm",
    "swarm.inputs": "workloads.swarm",
    "swarm.drain": "workloads.swarm",
    "swarm.recv": "workloads.swarm",
    "app.input": "workloads.swarm",
    "app.poll": "workloads.swarm",
    "gateway.ingress": "gateway",
    "gateway.collect": "gateway",
    "gateway.interest": "gateway",
    "gateway.delta": "gateway",
    "gateway.flush": "gateway",
    "gateway.publish": "gateway",
    "core.tick": "core",
    "core.write": "core",
    "cluster.tick": "cluster",
    "cluster.submit": "cluster",
    "replication.ship": "replication",
    "replication.apply": "replication",
    "durable.commit": "durable",
    "durable.outbox": "durable",
}

#: sim_tick's systems by formulation (names registered in workloads.py).
SYSTEM_METRIC = {
    "integrate": "core.systems.batch_ms_per_tick",
    "tax": "core.systems.per_entity_ms_per_tick",
    "bounty": "core.systems.query_ms_per_tick",
    "upkeep": "scripting.script_ms_per_tick",
}


def layer_of(span_name: str) -> str:
    return LAYER_OF.get(span_name, "harness")


def layer_shares(run: Spine) -> dict[str, float]:
    """Each layer's share of the measured tick wall (traced repetition)."""
    wall = sum(run.tick_s)
    shares: dict[str, float] = {}
    for name, seconds in run.self_s.items():
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + seconds / wall
    return shares


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Spine) -> dict[str, float]:
    """Every ``PER_LAYER`` metric this repetition can measure by itself.

    The microbench rows and ``trace.overhead_frac`` are filled in by the
    caller, which owns the untraced reference and runs the microbenches
    once per process.
    """
    ticks = len(run.tick_s)
    wall = sum(run.tick_s)
    self_s = run.self_s
    count = run.span_count
    probe_s = run.probe_s
    delta = {
        key: run.counters_end[key] - run.counters_start[key]
        for key in run.counters_end
    }

    def ms_per_tick(name: str) -> float:
        return self_s.get(name, 0.0) * 1e3 / ticks

    def us_per_call(name: str, seconds: float | None = None) -> float:
        seconds = self_s.get(name, 0.0) if seconds is None else seconds
        return _ratio(seconds * 1e6, count.get(name, 0))

    shares = layer_shares(run)
    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    out["workloads.swarm.self_frac"] = shares.get("workloads.swarm", 0.0)
    for stage in ("ingress", "collect", "interest", "delta", "flush", "publish"):
        out[f"gateway.{stage}.self_ms_per_tick"] = ms_per_tick(f"gateway.{stage}")
    out["gateway.ingress.us_per_msg"] = us_per_call("gateway.ingress")
    out["gateway.bytes_per_delta"] = _ratio(
        delta["bytes_sent"], delta["deltas_sent"])
    out["gateway.deltas_per_tick"] = delta["deltas_sent"] / ticks
    out["gateway.updates_suppressed_frac"] = _ratio(
        delta["updates_suppressed"],
        delta["updates_suppressed"] + delta["updates_seen"],
    )
    out["gateway.deltas_coalesced"] = float(delta["deltas_coalesced"])
    out["core.tick.self_ms_per_tick"] = ms_per_tick("core.tick")
    out["core.write.us_per_set"] = us_per_call("core.write")
    for system, seconds in run.systems_end.items():
        metric = SYSTEM_METRIC.get(system)
        if metric is not None:
            spent = seconds - run.systems_start.get(system, 0.0)
            out[metric] = spent * 1e3 / ticks
    if run.cluster is not None:
        out["cluster.tick.self_ms_per_tick"] = ms_per_tick("cluster.tick")
        out["cluster.submit.us_per_call"] = us_per_call("cluster.submit")
        out["cluster.txn_abort_frac"] = _ratio(
            delta["txn_aborted"], delta["txn_aborted"] + delta["txn_committed"])
        out["cluster.handoffs_per_tick"] = delta["handoffs"] / ticks
        out["net.simnet.msgs_per_tick"] = delta["net_msgs"] / ticks
        out["net.simnet.bytes_per_tick"] = delta["net_bytes"] / ticks
        out["replication.ship.self_ms_per_tick"] = ms_per_tick("replication.ship")
        out["replication.apply.self_ms_per_tick"] = ms_per_tick("replication.apply")
        out["replication.bytes_shipped_per_tick"] = (
            delta.get("bytes_shipped", 0) / ticks)
        out["replication.journal_records_per_tick"] = (
            delta.get("journal_records", 0) / ticks)
    if run.store is not None:
        commits = delta["commits"]
        out["durable.commit.us_per_unit"] = us_per_call("durable.commit")
        out["durable.commit.self_ms_per_tick"] = ms_per_tick("durable.commit")
        out["durable.conflict_frac"] = _ratio(
            delta["conflicts"], delta["conflicts"] + commits)
        out["durable.outbox.self_ms_per_tick"] = ms_per_tick("durable.outbox")
        out["durable.outbox.us_per_event"] = _ratio(
            self_s.get("durable.outbox", 0.0) * 1e6, delta["events_published"])
        out["durable.outbox.growth"] = _outbox_growth(run)
        out["persistence.wal.fsyncs_per_commit"] = _ratio(delta["fsyncs"], commits)
        out["persistence.wal.bytes_per_commit"] = _ratio(
            delta["wal_bytes"], commits)
        out["persistence.sql.statements_per_commit"] = _ratio(
            delta["sql_statements"], commits)
        out["persistence.sql.us_per_statement"] = us_per_call(
            "persistence.sql", probe_s.get("persistence.sql", 0.0))
    out["tick_ms_growth"] = quartile_growth(run.tick_s)
    out["failed_frac"] = _ratio(run.rtt.unanswered(), run.rtt.attempted)
    out["trace.coverage_frac"] = 1.0 - self_s.get("tick", 0.0) / wall
    return out


def _outbox_growth(run: Spine) -> float:
    """Last-quarter over first-quarter microseconds per drained event."""
    by_tick = run.rec.self_by_tick("durable.outbox")
    first = run.tick_no_at_measure
    per_tick = [by_tick.get(first + i, 0.0) for i in range(len(run.tick_s))]
    return quartile_growth(per_tick)


# -- layer microbenchmarks (run once per traced process) ------------------------


def _median_wall(fn: Any, rounds: int = 5) -> float:
    """Median wall of ``rounds`` calls (each call is many operations)."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def micro_codec(messages: list[Any]) -> dict[str, float]:
    """Re-encode and re-decode the frames this workload's clients saw."""
    if not messages:
        return {}
    payloads = [encode(msg) for msg in messages]
    n = len(messages)
    return {
        "net.codec.encode_us_per_msg": _median_wall(
            lambda: [encode(msg) for msg in messages]) * 1e6 / n,
        "net.codec.decode_us_per_msg": _median_wall(
            lambda: [decode(data) for data in payloads]) * 1e6 / n,
        "net.codec.bytes_per_msg": sum(len(p) for p in payloads) / n,
    }


def micro_interest(run: Spine) -> dict[str, float]:
    """``InterestManager.update`` from cold on the run's final snapshot."""
    snapshot = run.core.stream.snapshot
    observers = [client.avatar for client in run.swarm.clients]
    radius = run.swarm.config.aoi_radius
    if snapshot is None or not observers:
        return {}
    seconds = _median_wall(
        lambda: InterestManager(radius).update(observers, snapshot.positions)
    )
    return {"consistency.interest.us_per_observer": seconds * 1e6 / len(observers)}


def micro_update_column(rows: int = 10_000) -> dict[str, float]:
    """``set_column`` over a 10k-row table without / with an index observer."""
    out = {}
    for label, indexed in (("plain", False), ("indexed", True)):
        world = GameWorld()
        world.catalog.define(schema("Cell", value="float", tag="int"))
        ids = [world.spawn(Cell={"value": float(i), "tag": i % 64})
               for i in range(rows)]
        if indexed:
            world.index_manager("Cell").create_sorted_index("value")
        state = {"round": 0}

        def bump() -> None:
            state["round"] += 1
            base = state["round"] * rows
            world.set_column("Cell", "value", ids,
                             [float(base + i) for i in range(rows)])

        out[f"core.update_column.rows_per_s_{label}"] = rows / _median_wall(bump)
    return out


def micro_wal(run: Spine, cap: int = 5000) -> dict[str, float]:
    """Re-append and re-scan this run's commit records on a fresh WAL."""
    if run.store is None:
        return {}
    payloads = []
    for record in run.store.wal.records():
        if record.payload.get("kind") == "commit":
            payloads.append(record.payload)
            if len(payloads) >= cap:
                break
    if not payloads:
        return {}
    wal = WriteAheadLog()
    start = time.perf_counter()
    for payload in payloads:
        wal.append(payload)
    wal.flush()
    append_s = time.perf_counter() - start
    scan_s = _median_wall(lambda: sum(1 for _rec in wal.records()), rounds=3)
    n = len(payloads)
    return {
        "persistence.wal.append_us_per_record": append_s * 1e6 / n,
        "persistence.wal.scan_us_per_record": scan_s * 1e6 / n,
    }


def microbenches(run: Spine) -> dict[str, float]:
    out: dict[str, float] = {}
    out.update(micro_codec(run.captured))
    out.update(micro_interest(run))
    out.update(micro_update_column())
    out.update(micro_wal(run))
    return out
