"""Append one spine run's end-to-end medians to ``BENCH_TRAJECTORY.json``.

The spine (``benchmarks/spine/``) compares two runs; the trajectory is
the trend across PRs that a re-anchor reads.  One row per run::

    python3 benchmarks/spine/run.py --seed 0 --out run.json
    python3 benchmarks/append_trajectory.py run.json

A row is ``{commit, stamp, <workload>: {<end-to-end metric>: median}}``.
``--commit`` names the row when the run was taken on an uncommitted
tree (the stamp then still carries the parent's hash).
"""

import argparse
import json
import sys
from pathlib import Path

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_TRAJECTORY.json"


def row_of(doc: dict, commit: str | None = None) -> dict:
    """The trajectory row for one ``run.py --out`` document."""
    row = {"commit": commit or doc["stamp"]["git_commit"], "stamp": doc["stamp"]}
    for name, workload in sorted(doc["workloads"].items()):
        row[name] = {
            metric: cell["value"]
            for metric, cell in sorted(workload["end_to_end"].items())
        }
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", help="result document from run.py --out")
    parser.add_argument("--commit", help="row label (default: the stamp's commit)")
    args = parser.parse_args(argv)
    doc = json.loads(Path(args.run).read_text())
    if doc["stamp"].get("smoke"):
        print("refusing to record a --smoke run", file=sys.stderr)
        return 2
    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    rows.append(row_of(doc, args.commit))
    TRAJECTORY.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"{TRAJECTORY}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
