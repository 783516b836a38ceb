"""Compare a benchmark's per-run JSON against its committed baseline.

Wall-clock numbers are useless cross-host, so the gate tracks *relative*
metrics only — speedups and hit rates — inside a tolerance band:

    python benchmarks/bench_e17_batch_execution.py --sizes 500 2000 \
        --out BENCH_E17.json
    python benchmarks/check_regression.py BENCH_E17.json \
        --baseline benchmarks/BENCH_E17.baseline.json

A ratio metric regresses when it drops below ``baseline * (1 - tol)``;
improvements never fail the gate (run ``--update`` to ratchet the
baseline forward deliberately).  Boolean metrics (e.g. ``hash_equal``)
must match exactly.  ``--min metric=value`` (repeatable) adds an
*absolute* floor on top of the relative band — use it for ratios that
are host independent by construction, e.g.::

    python benchmarks/check_regression.py BENCH_E17.json \
        --baseline benchmarks/BENCH_E17.baseline.json \
        --min shard_batch_vs_tuple=2.0

Exit status is the CI contract: 0 clean, 1 regressed, 2 unusable input.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path


def compare(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Human-readable failure list (empty == the gate passes)."""
    failures = []
    cur = current.get("metrics", {})
    base = baseline.get("metrics", {})
    for name, expected in sorted(base.items()):
        if name not in cur:
            failures.append(f"{name}: missing from current run")
            continue
        actual = cur[name]
        if isinstance(expected, bool):
            if actual != expected:
                failures.append(f"{name}: expected {expected}, got {actual}")
        elif isinstance(expected, (int, float)):
            floor = expected * (1.0 - tolerance)
            if actual < floor:
                failures.append(
                    f"{name}: {actual:.3f} < {floor:.3f} "
                    f"(baseline {expected:.3f}, tolerance {tolerance:.0%})"
                )
    return failures


def check_floors(current: dict, floors: dict[str, float]) -> list[str]:
    """Absolute-minimum failures (``--min``); empty == the gate passes."""
    failures = []
    cur = current.get("metrics", {})
    for name, floor in sorted(floors.items()):
        if name not in cur:
            failures.append(f"{name}: missing from current run")
            continue
        actual = cur[name]
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            failures.append(f"{name}: not numeric ({actual!r})")
        elif actual < floor:
            failures.append(
                f"{name}: {actual:.3f} < {floor:.3f} (absolute floor)"
            )
    return failures


def parse_floor(spec: str) -> tuple[str, float]:
    """``metric=value`` → ``(metric, value)``; raises on malformed input."""
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected metric=value, got {spec!r}"
        )
    try:
        return name, float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"floor for {name!r} is not a number: {value!r}"
        ) from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark regression gate over relative metrics"
    )
    parser.add_argument("current", help="per-run JSON (from --out foo.json)")
    parser.add_argument(
        "--baseline", default="benchmarks/BENCH_E17.baseline.json",
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.35,
        help="allowed fractional drop below the baseline (default 0.35)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="overwrite the baseline with the current run and exit",
    )
    parser.add_argument(
        "--min", dest="floors", type=parse_floor, action="append",
        default=[], metavar="METRIC=VALUE",
        help="absolute floor for a metric (repeatable); fails if the "
             "current value is below it regardless of the baseline",
    )
    args = parser.parse_args(argv)

    current_path = Path(args.current)
    baseline_path = Path(args.baseline)
    if not current_path.exists():
        print(f"current run not found: {current_path}", file=sys.stderr)
        return 2
    if args.update:
        shutil.copyfile(current_path, baseline_path)
        print(f"baseline updated: {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(f"baseline not found: {baseline_path} "
              f"(create one with --update)", file=sys.stderr)
        return 2

    current = json.loads(current_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if current.get("experiment") != baseline.get("experiment"):
        print(
            f"experiment mismatch: current={current.get('experiment')} "
            f"baseline={baseline.get('experiment')}", file=sys.stderr,
        )
        return 2

    failures = compare(current, baseline, args.tolerance)
    floors = dict(args.floors)
    failures += check_floors(current, floors)
    label = current.get("experiment", "?")
    if failures:
        print(f"{label}: {len(failures)} metric(s) regressed:")
        for line in failures:
            print(f"  - {line}")
        return 1
    checked = len(baseline.get("metrics", {}))
    extra = f" + {len(floors)} absolute floor(s)" if floors else ""
    print(f"{label}: {checked} metrics within {args.tolerance:.0%} "
          f"of baseline{extra} — ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
