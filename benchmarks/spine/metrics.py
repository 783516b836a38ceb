"""The metric contract: names, units, directions and regression bounds.

``BENCHMARK.json`` at the repo root mirrors these lists (test_spine.py
checks that they agree).  A bound is the share of the parent's median by
which an end-to-end metric may worsen before it counts as a regression;
a run-to-run spread wider than the bound makes the row *unresolved*,
not *unchanged*.
"""

from __future__ import annotations

#: (name, unit, better, bound, definition)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "imports + median per-repetition build, spawn, connect and warm-up"),
    ("ticks_per_s", "1/s", "higher", 0.10,
     "measured ticks / wall of the measured loop, median of repetitions"),
    ("tick_ms_p50", "ms", "lower", 0.10,
     "whole-loop wall per tick, load generator included, pooled"),
    ("tick_ms_p95", "ms", "lower", 0.15,
     "highest percentile <= p95 with >= 10 pooled samples beyond it"),
    ("input_rtt_ms_p50", "ms", "lower", 0.10,
     "core.on_bytes(input frame) -> client decoder yields the reply"),
    ("input_rtt_ms_p95", "ms", "lower", 0.15,
     "same; on full_path this sits inside the multi-tick 2PC trades"),
    ("wire_bytes_per_client_tick", "B", "lower", 0.05,
     "core.bytes_sent delta / connected clients / ticks"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the run's process (outbox and WAL are unbounded)"),
]

#: (name, unit, better)
PER_LAYER = [
    ("workloads.swarm.self_frac", "ratio", "lower"),
    ("gateway.ingress.self_ms_per_tick", "ms", "lower"),
    ("gateway.ingress.us_per_msg", "us", "lower"),
    ("gateway.collect.self_ms_per_tick", "ms", "lower"),
    ("gateway.interest.self_ms_per_tick", "ms", "lower"),
    ("gateway.delta.self_ms_per_tick", "ms", "lower"),
    ("gateway.flush.self_ms_per_tick", "ms", "lower"),
    ("gateway.publish.self_ms_per_tick", "ms", "lower"),
    ("gateway.bytes_per_delta", "B", "lower"),
    ("gateway.deltas_per_tick", "count", "lower"),
    ("gateway.updates_suppressed_frac", "ratio", "higher"),
    ("gateway.deltas_coalesced", "count", "lower"),
    ("net.codec.encode_us_per_msg", "us", "lower"),
    ("net.codec.decode_us_per_msg", "us", "lower"),
    ("net.codec.bytes_per_msg", "B", "lower"),
    ("net.simnet.msgs_per_tick", "count", "lower"),
    ("net.simnet.bytes_per_tick", "B", "lower"),
    ("consistency.interest.us_per_observer", "us", "lower"),
    ("core.tick.self_ms_per_tick", "ms", "lower"),
    ("core.systems.batch_ms_per_tick", "ms", "lower"),
    ("core.systems.per_entity_ms_per_tick", "ms", "lower"),
    ("core.systems.query_ms_per_tick", "ms", "lower"),
    ("scripting.script_ms_per_tick", "ms", "lower"),
    ("core.write.us_per_set", "us", "lower"),
    ("core.update_column.rows_per_s_plain", "1/s", "higher"),
    ("core.update_column.rows_per_s_indexed", "1/s", "higher"),
    ("cluster.tick.self_ms_per_tick", "ms", "lower"),
    ("cluster.submit.us_per_call", "us", "lower"),
    ("cluster.txn_abort_frac", "ratio", "lower"),
    ("cluster.handoffs_per_tick", "count", "lower"),
    ("replication.ship.self_ms_per_tick", "ms", "lower"),
    ("replication.apply.self_ms_per_tick", "ms", "lower"),
    ("replication.bytes_shipped_per_tick", "B", "lower"),
    ("replication.journal_records_per_tick", "count", "lower"),
    ("durable.commit.us_per_unit", "us", "lower"),
    ("durable.commit.self_ms_per_tick", "ms", "lower"),
    ("durable.conflict_frac", "ratio", "lower"),
    ("durable.outbox.self_ms_per_tick", "ms", "lower"),
    ("durable.outbox.us_per_event", "us", "lower"),
    ("durable.outbox.growth", "ratio", "lower"),
    ("persistence.wal.fsyncs_per_commit", "count", "lower"),
    ("persistence.wal.bytes_per_commit", "B", "lower"),
    ("persistence.wal.append_us_per_record", "us", "lower"),
    ("persistence.wal.scan_us_per_record", "us", "lower"),
    ("persistence.sql.statements_per_commit", "count", "lower"),
    ("persistence.sql.us_per_statement", "us", "lower"),
    ("tick_ms_growth", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]

BOUNDS = {name: bound for name, _unit, _better, bound, _doc in END_TO_END}
BETTER = {name: better for name, _unit, better, _bound, _doc in END_TO_END}
UNITS = {name: unit for name, unit, *_rest in END_TO_END}
UNITS.update({name: unit for name, unit, _better in PER_LAYER})
