"""Append one spine run's end-to-end medians to ``BENCH_TRAJECTORY.json``.

The spine (``benchmarks/spine/``) compares two runs; the trajectory is
the trend across PRs that a re-anchor reads.  One row per run, appended
from the checkout the run was taken in::

    python3 benchmarks/spine/run.py --seed 0 --out run.json
    python3 benchmarks/append_trajectory.py run.json

A row is ``{commit, git_describe, stamp, <workload>: {<end-to-end
metric>: median}}``.  ``git_describe`` is ``git describe --always
--dirty`` of the checkout this script lives in, so the script must run
in the checkout ``run.py`` ran in; it refuses a run whose stamped commit
is not that checkout's ``HEAD``.  A dirty tree has no name git can give
it, so it is refused unless ``--commit`` labels the row (e.g. ``--commit
"parent + this change"``); without ``--commit`` the row is named after
the stamp's commit.  The stamp does not record whether the run's tree
was dirty, so appending a dirty run from a clean checkout of the same
commit is not caught: append right after the run, from the same tree.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_TRAJECTORY.json"


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=tree, capture_output=True, text=True, check=True,
    ).stdout.strip()


def git_describe(tree: Path = ROOT) -> str:
    """``git describe --always --dirty`` of the checkout at ``tree``."""
    return _git(tree, "describe", "--always", "--dirty")


def head_commit(tree: Path = ROOT) -> str:
    """Full hash of ``HEAD`` in the checkout at ``tree``."""
    return _git(tree, "rev-parse", "HEAD")


def row_of(doc: dict, describe: str, commit: str | None = None) -> dict:
    """The trajectory row for one ``run.py --out`` document."""
    row = {
        "commit": commit or doc["stamp"]["git_commit"],
        "git_describe": describe,
        "stamp": doc["stamp"],
    }
    for name, workload in sorted(doc["workloads"].items()):
        row[name] = {
            metric: cell["value"]
            for metric, cell in sorted(workload["end_to_end"].items())
        }
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", help="result document from run.py --out")
    parser.add_argument(
        "--commit", help="row label; required when the tree is dirty"
    )
    args = parser.parse_args(argv)
    doc = json.loads(Path(args.run).read_text())
    if doc["stamp"].get("smoke"):
        print("refusing to record a --smoke run", file=sys.stderr)
        return 2
    head = head_commit()
    if doc["stamp"].get("git_commit") != head:
        print(
            f"refusing a run stamped {doc['stamp'].get('git_commit')} from a "
            f"checkout at {head}: append from the tree the run was taken in",
            file=sys.stderr,
        )
        return 2
    describe = git_describe()
    if describe.endswith("-dirty") and not args.commit:
        print(
            f"refusing to record from a dirty tree ({describe}): commit "
            "first, or label the row with --commit",
            file=sys.stderr,
        )
        return 2
    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    rows.append(row_of(doc, describe, args.commit))
    TRAJECTORY.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"{TRAJECTORY}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
