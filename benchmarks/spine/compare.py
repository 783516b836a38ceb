"""Compare two spine result documents, row by row.

    python3 benchmarks/spine/compare.py A.json B.json

``A`` is the parent commit, ``B`` the change.  One row per workload and
end-to-end metric: both medians, both spreads, the bound, and a verdict:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better than A's by more than the bound
``unresolved``  inside the bound, but a spread is wider than the bound,
                so the runs cannot tell *unchanged* from *changed*
``unchanged``   inside the bound, and both spreads are too

Exits 1 on any ``worse``, 2 when the two documents were not measured on
the same environment, seed and sizes (their stamps differ).
"""

from __future__ import annotations

import json
import sys
from typing import Any

from metrics import BETTER, BOUNDS

#: Stamp fields that identify a commit, not the environment it ran on.
COMMIT_FIELDS = ("git_commit",)


def stamp_differences(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Environment, seed and size fields on which two documents disagree."""
    out = []
    stamp_a, stamp_b = a.get("stamp") or {}, b.get("stamp") or {}
    for key in sorted(set(stamp_a) | set(stamp_b)):
        if key in COMMIT_FIELDS:
            continue
        if stamp_a.get(key) != stamp_b.get(key):
            out.append(f"{key}: {stamp_a.get(key)!r} != {stamp_b.get(key)!r}")
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        config_a = a["workloads"].get(name, {}).get("config")
        config_b = b["workloads"].get(name, {}).get("config")
        if config_a != config_b:
            out.append(f"{name} sizes: {config_a!r} != {config_b!r}")
    return out


def verdict(
    metric: str, a: dict[str, Any], b: dict[str, Any]
) -> tuple[str, float]:
    """``(verdict, change)``; change > 0 means B is worse, as a share of A."""
    bound = BOUNDS[metric]
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if BETTER[metric] == "higher":
        change = -change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved", change
    return "unchanged", change


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether any row is ``worse``."""
    lines = [
        f"{'workload':12s} {'metric':28s} {'A':>11s} {'B':>11s} "
        f"{'spreadA':>8s} {'spreadB':>8s} {'bound':>6s} {'change':>8s}  verdict"
    ]
    any_worse = False
    for name, entry_a in a["workloads"].items():
        rows_a = entry_a["end_to_end"]
        rows_b = b["workloads"][name]["end_to_end"]
        for metric in BOUNDS:
            row_a, row_b = rows_a[metric], rows_b[metric]
            word, change = verdict(metric, row_a, row_b)
            any_worse = any_worse or word == "worse"
            lines.append(
                f"{name:12s} {metric:28s} {row_a['value']:11.3f} "
                f"{row_b['value']:11.3f} {row_a['spread'] * 100:7.1f}% "
                f"{row_b['spread'] * 100:7.1f}% {BOUNDS[metric] * 100:5.0f}% "
                f"{change * 100:+7.1f}%  {word}"
            )
    return lines, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    differences = stamp_differences(a, b)
    if differences:
        print("refusing to compare: the stamps differ")
        for line in differences:
            print(f"  {line}")
        return 2
    lines, any_worse = compare(a, b)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
