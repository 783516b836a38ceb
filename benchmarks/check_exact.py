"""Exact-counter gate: a spine run must reproduce its committed baseline.

Every workload's final ``state_hash`` and exact counters are deterministic
under the seed, whatever the host, so they gate by equality:

    python3 benchmarks/spine/run.py --smoke --out SPINE_SMOKE.json
    python3 benchmarks/check_exact.py SPINE_SMOKE.json

Exit status: 0 identical, 1 any difference.
"""

import argparse
import json
import sys

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("run", help="result document from run.py --out")
parser.add_argument("--baseline", default="benchmarks/SPINE_EXACT.baseline.json")
args = parser.parse_args()
run = json.load(open(args.run, encoding="utf-8"))["workloads"]
baseline = json.load(open(args.baseline, encoding="utf-8"))
failures = []
for name, expected in sorted(baseline.items()):
    got = run.get(name)
    if got is None:
        failures.append(f"{name}: missing from the run")
        continue
    if got["state_hash"] != expected["state_hash"]:
        failures.append(f"{name}: state_hash {got['state_hash']} != baseline")
    for key in sorted(expected["counters"].keys() | got["counters"].keys()):
        want, have = expected["counters"].get(key), got["counters"].get(key)
        if want != have:
            failures.append(f"{name}: counter {key} = {have}, baseline {want}")
for line in failures:
    print(line)
print(f"exact gate: {len(baseline)} workloads, {len(failures)} differences")
sys.exit(1 if failures else 0)
