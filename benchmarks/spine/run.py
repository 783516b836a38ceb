"""E23, the measurement spine: run one workload, or all four, and check them.

Driver contract (one workload per process)::

    python3 benchmarks/spine/run.py --workload edge_fanout --seed 0 \\
        --seconds 10 --trace 0

prints every metric by name and unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics from untraced repetitions; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics (the difference between the two is the tracing overhead).

Without ``--workload`` it runs the whole suite — each workload in a
fresh subprocess, timed pass then traced pass — and writes the result
document ``compare.py`` reads::

    python3 benchmarks/spine/run.py --out A.json [--smoke]

A repetition is a fresh stack, a warm-up and a fixed number of measured
ticks; repetitions repeat until ``--seconds`` of measured time (at least
three), all on the same seed, so every exact counter and the final
``state_hash`` must be identical across them.  Exits non-zero on any
failed check.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness
import layers
from metrics import END_TO_END, PER_LAYER, UNITS
from tracing import NullRecorder, SpanRecorder
from workloads import WORKLOADS

#: Imports of the program and the harness: part of every run's set-up.
IMPORT_S = time.perf_counter() - _PROCESS_START

MIN_REPS = 3
#: A timed run whose repetitions disagree (the box was busy during some
#: of them) buys up to this many in all, so the index-wise minimum has
#: an undisturbed observation of every tick to pick.
MAX_REPS = 5
SETTLED_SPREAD = 0.03
#: Stop adding repetitions well before the driver's 180 s limit.
WALL_CAP_S = 120.0


def run_rep(name: str, seed: int, traced: bool, smoke: bool) -> harness.Spine:
    """One repetition: fresh stack, warm-up, measured loop, drain window."""
    gc.collect()
    rec = SpanRecorder() if traced else NullRecorder()
    start = time.perf_counter()
    run = WORKLOADS[name](seed, rec, smoke)
    run.set_up()
    run.setup_s = time.perf_counter() - start
    run.measure()
    return run


def summarize(run: harness.Spine) -> dict[str, Any]:
    """Check a finished repetition; what it leaves once its stack is freed.

    ``check()`` first: on cluster workloads it quiesces the cluster, and
    the counters and the hash are read after that.
    """
    ticks = len(run.tick_s)
    failures = run.check()
    return {
        "setup_s": run.setup_s,
        "loop_wall_s": run.loop_wall_s,
        "tick_ms": [t * 1e3 for t in run.tick_s],
        "rtt_ms": [t * 1e3 for t in run.rtt.rtts],
        "ticks_per_s": ticks / run.loop_wall_s,
        "wire_bytes_per_client_tick": (
            (run.counters_end["bytes_sent"] - run.counters_start["bytes_sent"])
            / max(1, run.client_ticks)
        ),
        "attempted": run.rtt.attempted,
        "failed": run.rtt.unanswered(),
        "failures": failures,
        "counters": run.counters(),
        "state_hash": run.state_hash(),
        "config": {
            "clients": run.clients, "warmup_ticks": run.warmup_ticks,
            "ticks": run.ticks,
        },
    }


def quietest(series: list[list[float]]) -> list[float]:
    """Index-wise minimum over repetitions.

    Every repetition of a run replays the same seed, so sample ``i`` of
    each is the same work; what differs is interference from the box
    (scheduler, neighbours).  The minimum is the least disturbed
    observation of that work, and the program's own costs — including
    its garbage collections, which recur at the same allocation counts —
    stay in.  Falls back to pooling if the series do not line up.
    """
    if len({len(values) for values in series}) != 1:
        return [value for values in series for value in values]
    return [min(column) for column in zip(*series)]


def timed_rows(reps: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The end-to-end values a set of repetitions supports."""
    ticks = quietest([rep["tick_ms"] for rep in reps])
    rtts = quietest([rep["rtt_ms"] for rep in reps])
    tick_tail, tick_q = harness.supported_percentile(ticks)
    rtt_tail, rtt_q = harness.supported_percentile(rtts)
    return {
        "setup_s": {
            "value": IMPORT_S + statistics.median(r["setup_s"] for r in reps)},
        "ticks_per_s": {"value": 1e3 * len(ticks) / sum(ticks)},
        "tick_ms_p50": {
            "value": statistics.median(ticks), "samples": len(ticks)},
        "tick_ms_p95": {
            "value": tick_tail, "samples": len(ticks), "percentile": tick_q},
        "input_rtt_ms_p50": {
            "value": statistics.median(rtts), "samples": len(rtts)},
        "input_rtt_ms_p95": {
            "value": rtt_tail, "samples": len(rtts), "percentile": rtt_q},
        "wire_bytes_per_client_tick": {
            "value": statistics.median(
                r["wire_bytes_per_client_tick"] for r in reps)},
        "peak_rss_mb": {"value": harness.peak_rss_mb()},
    }


def end_to_end(reps: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Every end-to-end row, with its spread ``(max - min) / median``.

    The spread is taken over the values each leave-one-out subset of the
    repetitions would have reported: how far the reported number moves
    when any one repetition is taken away.
    """
    rows = timed_rows(reps)
    subsets = [timed_rows(reps[:i] + reps[i + 1:]) for i in range(len(reps))]
    for name, row in rows.items():
        values = [subset[name]["value"] for subset in subsets]
        mid = statistics.median(values)
        row["spread"] = (max(values) - min(values)) / mid if mid else 0.0
        row["unit"] = UNITS[name]
    return rows


def settled(reps: list[dict[str, Any]]) -> bool:
    """Whether dropping any one repetition leaves ``tick_ms_p50`` in place."""
    return end_to_end(reps)["tick_ms_p50"]["spread"] <= SETTLED_SPREAD


def cross_rep_failures(reps: list[dict[str, Any]]) -> list[str]:
    """Same seed, so hashes and every exact counter must repeat."""
    failures = [f"rep {i}: {line}" for i, rep in enumerate(reps)
                for line in rep["failures"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=1):
        if rep["state_hash"] != first["state_hash"]:
            failures.append(f"rep {i}: state_hash differs from rep 0")
        for key, value in first["counters"].items():
            if rep["counters"][key] != value:
                failures.append(
                    f"rep {i}: counter {key} = {rep['counters'][key]}, "
                    f"rep 0 had {value}"
                )
    return failures


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    trace_out: str | None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """All repetitions of one workload; returns (result line, detail)."""
    began = time.perf_counter()
    # A traced run alternates untraced and traced repetitions: one pair
    # is its minimum.
    min_reps = 2 if (smoke or trace) else MIN_REPS
    reps: list[dict[str, Any]] = []
    traced_rows: list[dict[str, float]] = []
    traced_p50: list[float] = []
    traced: harness.Spine | None = None
    measured = 0.0
    while (
        len(reps) < min_reps or measured < seconds
        or (not trace and len(reps) < MAX_REPS and not settled(reps))
    ) and time.perf_counter() - began < WALL_CAP_S:
        run = run_rep(name, seed, False, smoke)
        reps.append(summarize(run))
        measured += run.loop_wall_s
        del run
        if trace:
            traced = None  # free the previous stack and its spans first
            traced = run_rep(name, seed, True, smoke)
            reps.append(summarize(traced))
            measured += traced.loop_wall_s
            traced_rows.append(layers.per_layer(traced))
            traced_p50.append(statistics.median(traced.tick_s))
    failures = cross_rep_failures(reps)
    detail: dict[str, Any] = {
        "workload": name,
        "stamp": {**harness.env_stamp(seed), **reps[0]["config"],
                  "smoke": smoke},
        "repetitions": len(reps),
        "counters": reps[0]["counters"],
        "state_hash": reps[0]["state_hash"],
    }
    if trace:
        untraced_p50 = [statistics.median(rep["tick_ms"]) / 1e3
                        for rep in reps[0::2]]
        values = {
            key: statistics.median(row[key] for row in traced_rows)
            for key in traced_rows[0]
        }
        values.update(layers.microbenches(traced))
        values["trace.overhead_frac"] = (
            statistics.median(traced_p50) / statistics.median(untraced_p50) - 1.0
        )
        if values["trace.coverage_frac"] < 0.95:
            failures.append(
                f"trace.coverage_frac {values['trace.coverage_frac']:.3f} < 0.95"
            )
        metrics = {
            name_: {"value": values[name_], "unit": unit}
            for name_, unit, _better in PER_LAYER
        }
        detail["per_layer"] = metrics
        detail["layer_shares"] = layers.layer_shares(traced)
        if trace_out:
            events = traced.rec.write_chrome_trace(trace_out, layers.layer_of)
            print(f"wrote {events} trace events to {trace_out}")
    else:
        rows = end_to_end(reps)
        metrics = {
            name_: {"value": rows[name_]["value"], "unit": unit}
            for name_, unit, *_rest in END_TO_END
        }
        detail["end_to_end"] = rows
    detail["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": metrics,
    }
    return result, detail


def print_report(detail: dict[str, Any], result: dict[str, Any]) -> None:
    print(f"== {detail['workload']}  ({detail['repetitions']} repetitions, "
          f"seed {detail['stamp']['seed']}, {detail['stamp']['clients']} clients, "
          f"{detail['stamp']['ticks']} ticks each)")
    for name, row in detail.get("end_to_end", {}).items():
        extra = ""
        if "samples" in row:
            extra = f"  n={row['samples']}"
        if "percentile" in row:
            extra += f" p{row['percentile'] * 100:.1f}"
        print(f"  {name:34s} {row['value']:14.4f} {row['unit']:5s} "
              f"spread {row['spread'] * 100:5.1f}%{extra}")
    for name, row in detail.get("per_layer", {}).items():
        print(f"  {name:42s} {row['value']:16.4f} {row['unit']}")
    for layer, share in sorted(
        detail.get("layer_shares", {}).items(), key=lambda kv: -kv[1]
    ):
        print(f"  share {layer:20s} {share * 100:6.1f}%")
    print(f"  inputs attempted {result['attempted']}, failed {result['failed']}")
    for line in detail["failures"]:
        print(f"  FAILED CHECK: {line}")


def run_suite(args: argparse.Namespace) -> int:
    """Every workload in a fresh subprocess: timed pass, then traced pass."""
    document: dict[str, Any] = {"stamp": None, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry: dict[str, Any] = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--detail",
            ]
            if args.smoke:
                command.append("--smoke")
            if trace and args.trace_out:
                stem, ext = os.path.splitext(args.trace_out)
                command += ["--trace-out", f"{stem}.{name}{ext or '.json'}"]
            proc = subprocess.run(
                command, capture_output=True, text=True, timeout=600
            )
            lines = proc.stdout.splitlines()
            for line in lines:
                if line.startswith("DETAIL "):
                    detail = json.loads(line[len("DETAIL "):])
                    entry.update(detail)
                else:
                    print(line)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr)
        stamp = entry.pop("stamp", None)
        if stamp is not None:
            # Tick and client counts differ per workload; the rest of
            # the stamp is the environment and must not.
            entry["config"] = {
                key: stamp.pop(key) for key in ("clients", "warmup_ticks", "ticks")
            }
            document["stamp"] = stamp
        document["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the Chrome trace JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tens of clients, ~10 ticks: a plumbing check")
    parser.add_argument("--detail", action="store_true",
                        help="also print a DETAIL line (suite mode reads it)")
    parser.add_argument("--out", help="suite mode: write the result document")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 0.2)
    if args.workload is None:
        return run_suite(args)
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        args.trace_out,
    )
    print_report(detail, result)
    if args.detail:
        print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
