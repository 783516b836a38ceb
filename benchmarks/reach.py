"""Reach ruler: which functions of ``src`` does anything CI gates run?

Runs what CI runs -- the spine smoke, the E1-E13 ``shape_holds`` gates and
the E14-E22 smokes, each with CI's own arguments -- under a call profiler
that follows every subprocess (``reach_hook/sitecustomize.py``).  Then it
maps each called code object back to ``src`` and writes a per-module
table: source lines, functions, and functions reached.

A function is a code object the compiler marks ``CO_OPTIMIZED``: a
``def``, ``async def`` or ``lambda``.  Class bodies and module bodies run
at import and are not counted; nor are list, set and dict comprehensions,
which Python 3.12 inlines into the function around them; nor any ``def``
marked ``# pragma: no cover`` (with everything nested in it), as
coverage.py excludes it.

    python3 benchmarks/reach.py [--out REACH.json]

Exit status: 0 when every module that defines a function has one reached;
1 when some module has none (each is named), or when a part fails.  The
timing-gated runs are not gated here: the profiler slows them, so the
ruler runs them for reach only and ignores their regression baselines.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "benchmarks"
HOOK = BENCH / "reach_hook"

SHAPE_GATES = [
    "bench_e1_script_scaling.py",
    "bench_e2_spatial_indexes.py",
    "bench_e3_join_strategies.py",
    "bench_e4_navmesh.py",
    "bench_e5_causality_bubbles.py",
    "bench_e6_concurrency_control.py",
    "bench_e7_consistency_levels.py",
    "bench_e8_checkpointing.py",
    "bench_e9_blob_schemas.py",
    "bench_e10_restrictions.py",
    "bench_e11_aggregates.py",
    "bench_e12_interest_dr.py",
    "bench_e13_txn_bubbles.py",
]

# The E14-E22 smoke steps of .github/workflows/ci.yml, argument for argument
# (tests/test_reach.py holds the two in step).
SMOKES = [
    ["bench_e14_sharding.py", "--ticks", "20"],
    ["bench_e15_replication.py", "--ticks", "20", "--count", "24"],
    ["bench_e16_observability.py", "--ticks", "10", "--count", "48",
     "--cluster-ticks", "20", "--trace-out", "e16-trace.json"],
    ["bench_e17_batch_execution.py", "--sizes", "500", "2000",
     "--out", "BENCH_E17.json"],
    ["bench_e19_gateway.py", "--clients", "500", "--ticks", "8",
     "--soak-ticks", "12", "--transport", "tcp", "--tcp-clients", "200",
     "--seed", "0", "--out", "BENCH_E19.json", "--trace-out", "e19-trace.json"],
    ["bench_e20_durable.py", "--ops", "400", "--rounds", "40", "--clients", "80",
     "--drain-ticks", "12", "--commits", "60", "--seed", "0",
     "--out", "BENCH_E20.json", "--trace-out", "e20-trace.json"],
    ["bench_e21_causal_slo.py", "--clients", "200", "--ticks", "16",
     "--overhead-clients", "60", "--overhead-ticks", "20",
     "--breach-clients", "40", "--seed", "0",
     "--out", "BENCH_E21.json", "--trace-out", "e21-trace.json"],
    ["bench_e22_schema.py", "--entities", "1500", "--failover-entities", "600",
     "--seed", "0", "--out", "BENCH_E22.json", "--trace-out", "e22-trace.json"],
]

# Inlined into the enclosing function from Python 3.12 on, so counting
# them would make the table depend on the interpreter.
INLINED = {"<listcomp>", "<setcomp>", "<dictcomp>"}


def parts() -> list[tuple[str, list[str]]]:
    """``(name, argv after the interpreter)`` of every profiled run."""
    gates = [str(BENCH / name) for name in SHAPE_GATES]
    return [
        ("spine smoke", [str(BENCH / "spine" / "run.py"), "--smoke"]),
        ("E1-E13 shape gates", [
            "-m", "pytest", *gates, "-q", "-p", "no:cacheprovider",
            "-k", "shape_holds", "--benchmark-disable",
        ]),
    ] + [
        (argv[0].split("_")[1].upper() + " smoke", [str(BENCH / argv[0]), *argv[1:]])
        for argv in SMOKES
    ]


def _no_cover(lines: list[str], code: types.CodeType) -> bool:
    """True if the function's ``def`` line carries ``# pragma: no cover``."""
    for line in lines[code.co_firstlineno - 1:]:
        text = line.lstrip()
        # A decorated function's first line is its first decorator.
        if code.co_name == "<lambda>" or text.startswith(("def ", "async def ")):
            return "# pragma: no cover" in line
    return False


def module_functions(path: Path) -> list[tuple[int, str]]:
    """``(first line, name)`` of every function in one file the ruler counts."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found: list[tuple[int, str]] = []

    def walk(code: types.CodeType) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in INLINED:
                if _no_cover(lines, const):
                    continue
                found.append((const.co_firstlineno, const.co_name))
            walk(const)

    walk(compile(source, str(path), "exec"))
    return found


def load_reached(dump_dir: Path, src: Path) -> set[tuple[str, int, str]]:
    """``(path under src, first line, name)`` of every code object run."""
    reached = set()
    prefix = str(src.resolve()) + os.sep
    for dump in dump_dir.glob("*.json"):
        for filename, first, name in json.loads(dump.read_text(encoding="utf-8")):
            real = os.path.realpath(filename)
            if real.startswith(prefix):
                reached.add((real[len(prefix):], first, name))
    return reached


def table(src: Path, reached: set[tuple[str, int, str]]) -> dict[str, dict]:
    """One row per module under ``src``: lines, functions, reached."""
    rows = {}
    for path in sorted(src.rglob("*.py")):
        rel = str(path.relative_to(src))
        module = rel[: -len(".py")].replace(os.sep, ".").removesuffix(".__init__")
        functions = module_functions(path)
        missed = [(first, name) for first, name in functions
                  if (rel, first, name) not in reached]
        rows[module] = {
            "lines": path.read_text(encoding="utf-8").count("\n"),
            "functions": len(functions),
            "reached": len(functions) - len(missed),
            "unreached": [f"{name}:{first}" for first, name in missed],
        }
    return rows


def unreached_modules(rows: dict[str, dict]) -> list[str]:
    """Modules that define a function but had none of them reached."""
    return [m for m, row in rows.items() if row["functions"] and not row["reached"]]


def run_parts(dump_dir: Path, work_dir: Path) -> list[dict]:
    """Every part in ``work_dir``, profiled into ``dump_dir``."""
    env = dict(os.environ)
    env["REACH_OUT"] = str(dump_dir)
    env["PYTHONPATH"] = os.pathsep.join([str(HOOK), str(SRC), str(BENCH)])
    results = []
    for name, argv in parts():
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=work_dir, env=env,
            capture_output=True, text=True, timeout=1800,
        )
        seconds = round(time.perf_counter() - start, 1)
        print(f"  {name}: exit {proc.returncode}, {seconds} s", flush=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        results.append({"name": name, "returncode": proc.returncode, "seconds": seconds})
    return results


def report(rows: dict[str, dict], empty: list[str]) -> None:
    print(f"{'module':44} {'lines':>6} {'funcs':>6} {'reached':>8}")
    for module, row in rows.items():
        flag = "  <- none reached" if module in empty else ""
        print(f"{module:44} {row['lines']:>6} {row['functions']:>6} "
              f"{row['reached']:>8}{flag}")
    lines = sum(r["lines"] for r in rows.values())
    functions = sum(r["functions"] for r in rows.values())
    reached = sum(r["reached"] for r in rows.values())
    print(f"{'all of src':44} {lines:>6} {functions:>6} {reached:>8}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the table and part timings as JSON")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as dump, tempfile.TemporaryDirectory() as work:
        results = run_parts(Path(dump), Path(work))
        rows = table(SRC, load_reached(Path(dump), SRC))
    empty = unreached_modules(rows)
    report(rows, empty)
    failed = [r["name"] for r in results if r["returncode"] != 0]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"parts": results, "modules": rows, "unreached_modules": empty},
                      fh, indent=1)
        print(f"wrote {args.out}")
    for name in failed:
        print(f"FAILED PART: {name}")
    for module in empty:
        print(f"NO FUNCTION REACHED: {module}")
    print(f"reach: {len(rows)} modules, {len(empty)} with no function reached, "
          f"{len(failed)} parts failed")
    return 1 if empty or failed else 0


if __name__ == "__main__":
    sys.exit(main())
