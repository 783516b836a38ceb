"""Regenerate EXPERIMENTS.md from the benchmark harness.

Runs every experiment's ``print_report`` and assembles the paper-vs-
measured record.  Run from the repository root:

    python benchmarks/generate_experiments_md.py

``--only E19`` (repeatable; matches the experiment id prefix or the
module name) reruns just those experiments and splices their fresh
sections into the existing EXPERIMENTS.md, so adding one experiment
does not cost a full re-measurement of the others.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

#: experiment id -> (module, paper claim, expected shape)
EXPERIMENTS = [
    ("E1 / Fig 1", "bench_e1_script_scaling",
     "Scripts where every object interacts with every other object are "
     "Ω(n²); indices fix them (Performance Challenges).",
     "Naive series slope ≈ 2, indexed ≈ 1, widening speedup."),
    ("E2 / Table 1", "bench_e2_spatial_indexes",
     "Games rely on spatial indices — BSP trees, octrees, grids "
     "(Performance Challenges).",
     "Every index beats the scan by a factor growing with n; grid leads "
     "range queries, trees lead k-NN."),
    ("E3 / Fig 2", "bench_e3_join_strategies",
     "Game interaction detection uses the same techniques as database "
     "join processing; GPU-style set-at-a-time execution wins "
     "(Performance Challenges).",
     "Nested loop ~n², grid/sweep ~n; batch systems beat per-entity by a "
     "constant factor."),
    ("E4 / Fig 3", "bench_e4_navmesh",
     "Navigation meshes represent walkable space compactly and carry "
     "designer annotations (Performance Challenges).",
     "Mesh A* expands ≥5x fewer nodes at comparable path length; gap "
     "grows with map size; annotation queries are mesh-only."),
    ("E5 / Fig 4", "bench_e5_causality_bubbles",
     "Causality bubbles — integrating ship kinematics to partition the "
     "map into feasible units — reduce server load (Consistency "
     "Challenges, EVE Online).",
     "Bubbles: zero cross-partition interactions with load spread across "
     "shards; static grid leaks interactions; single server bears full "
     "load."),
    ("E6 / Table 2", "bench_e6_concurrency_control",
     "Traditional locking transactions are often too slow for games "
     "(Consistency Challenges).",
     "Under contention 2PL throughput collapses (blocking + deadlocks) "
     "while OCC degrades gracefully via validation aborts."),
    ("E7 / Fig 5", "bench_e7_consistency_levels",
     "Games weaken consistency per tier; aggro management handles combat "
     "without exact spatial fidelity (Consistency Challenges).",
     "Bandwidth drops and staleness rises by tier; aggro targeting "
     "agrees across drifted replicas while nearest-target flips."),
    ("E8 / Fig 6", "bench_e8_checkpointing",
     "Checkpoints up to 10 minutes apart lose fights and rewards; "
     "checkpoint intelligently on important events (Engineering "
     "Challenges).",
     "Event-driven policy loses zero milestones at comparable checkpoint "
     "budget; interval policies regularly lose them."),
    ("E9 / Table 3", "bench_e9_blob_schemas",
     "Studios write blobs into a single attribute to avoid schema "
     "migrations (Engineering Challenges).",
     "Blobs: zero migration downtime, order-of-magnitude per-field read "
     "penalty; online migration is the middle ground."),
    ("E10 / Fig 7", "bench_e10_restrictions",
     "Studios remove iteration and recursion from scripting languages to "
     "bound script cost (Performance Challenges).",
     "Stricter profiles bound worst admitted frame cost but reject "
     "benign scripts; the static analyzer separates them exactly."),
    ("E11 / Fig 8", "bench_e11_aggregates",
     "Aggregates (tutorial keyword): per-frame aggregate reads should be "
     "materialized views, not recomputation.",
     "Incremental maintenance wins at every realistic read/write mix; "
     "speedup grows with read share."),
    ("E12 / Fig 9", "bench_e12_interest_dr",
     "Interest management and dead reckoning trade bandwidth for "
     "fidelity (Consistency Challenges).",
     "Missed interactions fall to zero past the interaction range as "
     "traffic grows; DR error is threshold-bounded as send rate falls."),
    ("E13 / Fig 10", "bench_e13_txn_bubbles",
     "Future-work pointer implemented: 'more recent research has "
     "attempted to generalize this idea [causality bubbles] to arbitrary "
     "transactions' (Consistency Challenges).",
     "Disjoint transaction batches shard with near-linear parallel "
     "speedup and zero cross-shard conflicts; a hot key fuses bubbles "
     "and collapses speedup to 1x."),
    ("E14 / Fig 11", "bench_e14_sharding",
     "MMO worlds are space-partitioned across servers; players migrate "
     "between shards and actions spanning shards need distributed "
     "coordination (Consistency Challenges).",
     "More shards shrink per-shard load but raise the cross-shard "
     "transaction fraction; bubble-aware placement cuts that fraction "
     "versus the static grid; the dynamic rebalancer lowers hotspot "
     "imbalance."),
    ("E15 / Fig 12", "bench_e15_replication",
     "Persistence and availability are engineering challenges: the "
     "in-memory tier journals actions so crashes lose bounded work, and "
     "MMO shards must survive server failures (Engineering Challenges).",
     "WAL-shipping cost is linear in the replica count; semi-sync pays "
     "per-tick envelopes over async but loses zero records or entities "
     "at failover; async loses exactly its unshipped window; detection "
     "latency is bounded by the heartbeat timeout."),
    ("E16 / Fig 13", "bench_e16_observability",
     "Monitoring a live game is an engineering challenge: operators need "
     "to see frame budgets, transaction tallies, and replication lag "
     "without the instrumentation itself distorting the game "
     "(Engineering Challenges).",
     "The instrumented-but-disabled stack costs under 2% on the E1 "
     "script workload and metrics-only under 10%; full tracing is "
     "dearer but an injected crash auto-dumps a valid Chrome trace "
     "containing the failover span, and same-seed runs produce "
     "identical metric snapshots."),
    ("E17 / Fig 14", "bench_e17_batch_execution",
     "GPU-style set-at-a-time processing and database query optimization "
     "apply to game state: plan once per query shape, execute over "
     "columns instead of row at a time (Performance Challenges).",
     "Batched execution beats tuple-at-a-time by well over 2x at 10k "
     "entities and the lowered update script by an order of magnitude, "
     "with bit-identical results; a warm plan cache plans each shape "
     "exactly once (hit rate ~1.0); the same drift arithmetic ticks a "
     "4-shard cluster at least 2x faster as a batch system than "
     "tuple-at-a-time, with equal cluster state hashes; replicated, the "
     "batch drift journals one record per (shard, written field) per "
     "tick instead of one per entity, and ships fewer bytes."),
    ("E19 / Fig 16", "bench_e19_gateway",
     "MMOs interpose a network edge between clients and the "
     "authoritative state: each client subscribes to the slice of the "
     "world it can see, and the server streams deltas, not state "
     "(Consistency Challenges).",
     "Bytes/client/tick grows monotonically with the AOI radius (the "
     "interest query is the bandwidth knob); a churny soak with resume "
     "tokens runs with zero evictions and zero unhandled disconnects; "
     "slow readers trip both backpressure eviction paths while every "
     "healthy client keeps its session; the real-socket cell serves "
     "every connection with millisecond-scale ping RTTs."),
    ("E20 / Fig 17", "bench_e20_durable",
     "A game is a database workload: state changes need transactional "
     "guarantees — atomicity across entity updates and their "
     "notifications, optimistic concurrency instead of locks on the "
     "hot path, and durability that survives server crashes "
     "(Engineering Challenges).",
     "Group-committing units of work amortises fsyncs linearly in the "
     "batch size; Zipfian skew multiplies the first-try CAS conflict "
     "rate over uniform access while the zero-sum ledger stays "
     "conserved; a dead worker's tick lease is reclaimed within its "
     "ttl under a larger fencing token with no double-applied tick; "
     "an outbox replay into a loaded gateway dedups to exactly-once "
     "per session and drains to zero lag; semisync failover loses "
     "zero acknowledged commits or events, async exactly its "
     "unshipped window."),
    ("E21 / Fig 18", "bench_e21_causal_slo",
     "Operating a live game means answering 'why was this player's "
     "update slow' across tiers — monitoring must follow one request "
     "through the whole stack without the instrumentation distorting "
     "the game (Engineering Challenges).",
     "Under a ≥1k-client traced swarm, ≥99% of requests close "
     "ingress-to-delivered-delta with every flow arrow bound in the "
     "exported trace; the instrumented-but-disabled causal plane sits "
     "within the ±2% paired-lockstep noise band; a forced SLO breach "
     "burns the error budget and dumps the flight recorder exactly "
     "once, with the breaching trace id in the dump reason and the "
     "offending trace inside a valid Chrome trace document."),
    ("E22 / Fig 19", "bench_e22_schema",
     "Game state lives for years while its schema evolves weekly — the "
     "data management layer must support schema change on a live world "
     "the way a database supports online DDL, without stopping the "
     "tick loop or corrupting in-flight updates (Engineering "
     "Challenges).",
     "An add+retype alter rolls out over a ticking 10k-entity 2-shard "
     "cluster, backfilling a bounded batch per tick: the final state "
     "hash is bit-identical to a same-seed stop-the-world reference, "
     "per-tick overhead during the backfill window stays ≤25% "
     "(measured ~3%), the catalog bump invalidates cached query plans "
     "and drops stale indexes, and killing a primary mid-backfill "
     "promotes a replica that finishes the migration on a consistent "
     "catalog version with zero acknowledged writes lost."),
]

HEADER = """\
# EXPERIMENTS — paper claims vs. measured results

*Database Research in Computer Games* (Demers, Gehrke, Koch, Sowell,
White — SIGMOD 2009) is a tutorial: it states claims rather than
reporting tables.  Each experiment below quantifies one claim on the
synthetic substrates described in DESIGN.md.  "Reproduced" means the
predicted *shape* holds — who wins, how cost grows, where crossovers
fall — not any absolute number (our substrate is an interpreted
simulator, not the authors' testbed).

Every experiment is also asserted mechanically by a
``test_*_shape_holds`` benchmark in its ``benchmarks/bench_*.py``.

Regenerate this file with ``python benchmarks/generate_experiments_md.py``.

"""

#: Hand-written record of experiments whose code was removed; emitted
#: verbatim after the measured sections so regeneration keeps it.
FOOTER = """\
## Retired: E18 / Fig 15

**Paper claim.** The state-effect pattern — scripts read frozen state and emit effects merged later — makes scripts parallelizable without changing results (Performance Challenges).

**Retired in PR 12.** `repro.parallel` (in-world thread-pool executor, forked shared-memory shard workers, conflict-graph scheduler, effect buffers) and `bench_e18_parallel.py` were deleted.  ROADMAP set the bar — threads ≥ 1.5x of serial at 2 workers, shm workers ≥ 1.3x of batch/serial at 2 workers — and after PR 9's attempt (shm segments, journal-delta stop-sync, chunked kernels) both paths still missed it at every worker count on the 2-core box.  Every run stayed bit-identical to serial; determinism was never the problem, speed was.  The final run (`nproc` = 2, numpy column backend, seed 0, 10k-entity world / 5k-entity 4-shard cluster):

```
== E18a: in-world parallel tick (0 workers = serial scheduler) ==
workers | t_tick_ms | speedup vs serial | hash_equal
--------+-----------+-------------------+-----------
      0 |    37.531 |                 1 |       True
      1 |    51.033 |             0.735 |       True
      2 |    33.519 |              1.12 |       True
      4 |    36.409 |             1.031 |       True

== E18b: shard cluster, same drift arithmetic ==
mode         | workers | t_tick_ms | vs tuple/serial | vs batch/serial | hash_equal | shipped_kb | sync_ms
-------------+---------+-----------+-----------------+-----------------+------------+------------+--------
tuple/serial |       0 |    54.276 |               1 |                 |       True |          0 |       0
batch/serial |       0 |    13.449 |           4.036 |               1 |       True |          0 |       0
   batch/shm |       1 |    17.866 |           3.038 |           0.753 |       True |    531.482 |    1440
   batch/shm |       2 |    18.522 |            2.93 |           0.726 |       True |    551.927 |    1510
   batch/shm |       4 |    17.472 |           3.107 |            0.77 |       True |    591.009 |    1100
```

Three further runs recorded in the PR 12 issue (same box, seeds 0/2/3) span threads 0.62–0.65x / 0.76–0.98x / 0.85–0.96x of serial at 1/2/4 workers and batch/shm 0.67–0.68x / 0.53–1.02x / 0.82–0.93x of batch/serial, with 0.8–1.7 s of `sync_ms` at stop, while batch/serial vs tuple/serial — zero workers, the formulation alone — is 4.1–4.7x.

**Verdict.** The claim that pays is set-at-a-time *processing*, not workers (Sowell et al., *From Declarative Languages to Declarative Processing in Computer Games*): the tuple/serial vs batch/serial pair lives on as E17d and the gated `shard_batch_vs_tuple` metric.
"""


def existing_sections(path: Path) -> dict[str, str]:
    """Parse the current EXPERIMENTS.md into {exp_id: section body}."""
    if not path.exists():
        return {}
    sections: dict[str, str] = {}
    current_id = None
    lines: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("## "):
            if current_id is not None:
                sections[current_id] = "".join(lines)
            current_id = line[3:].strip()
            lines = [line]
        elif current_id is not None:
            lines.append(line)
    if current_id is not None:
        sections[current_id] = "".join(lines)
    return sections


def selected(exp_id: str, module_name: str, only: list[str]) -> bool:
    """Whether --only picks this experiment (no --only picks all)."""
    if not only:
        return True
    short = exp_id.split(" /")[0]
    return any(pick in (short, exp_id, module_name) for pick in only)


def render_section(exp_id: str, module_name: str, claim: str, expected: str) -> str:
    """Run one experiment's report and render its markdown section."""
    print(f"running {exp_id} ({module_name})...", file=sys.stderr)
    started = time.time()
    module = importlib.import_module(module_name)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        module.print_report()
    elapsed = time.time() - started
    return (
        f"## {exp_id}\n\n"
        f"**Paper claim.** {claim}\n\n"
        f"**Expected shape.** {expected}\n\n"
        f"**Measured** ({elapsed:.1f}s):\n\n```\n"
        + buffer.getvalue().rstrip("\n")
        + "\n```\n\n**Verdict.** Reproduced — the expected "
        "shape holds (asserted by "
        f"`{module_name}.test_*_shape_holds`).\n\n"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", action="append", default=[],
        help="experiment to (re)run, e.g. E19 (repeatable; others are "
        "kept from the existing EXPERIMENTS.md)",
    )
    args = parser.parse_args()
    out = Path(__file__).parent.parent / "EXPERIMENTS.md"
    kept = existing_sections(out) if args.only else {}
    sections = [HEADER]
    for exp_id, module_name, claim, expected in EXPERIMENTS:
        if selected(exp_id, module_name, args.only) or exp_id not in kept:
            sections.append(render_section(exp_id, module_name, claim, expected))
        else:
            print(f"keeping {exp_id} (cached section)", file=sys.stderr)
            sections.append(kept[exp_id])
    sections.append(FOOTER)
    out.write_text("".join(sections), encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)


if __name__ == "__main__":
    main()
