"""``benchmarks/reach.py``: what the reach ruler counts, and what it flags."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "reach.py"

FIXTURE = '''\
import functools


class Shape:
    SIDES = [n for n in range(3)]

    def area(self):
        def helper():
            return 1
        return helper()

    def __repr__(self):  # pragma: no cover
        def inner():
            return "never counted"
        return inner()


@functools.lru_cache
def cached(x):
    return {k: v for k, v in [(x, x)]}


square = lambda v: v * v
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def src(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text('"""Nothing callable."""\n')
    (tmp_path / "pkg" / "shapes.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "idle.py").write_text("def unused():\n    pass\n")
    return tmp_path


class TestCountingRule:
    def test_functions_only(self, reach, src):
        found = reach.module_functions(src / "pkg" / "shapes.py")
        # The class body, the comprehensions and the no-cover __repr__
        # (with the def nested in it) are not functions the ruler counts;
        # the nested helper is.  A decorated def starts at its decorator.
        assert sorted(found) == [
            (7, "area"), (8, "helper"), (18, "cached"), (23, "<lambda>"),
        ]

    def test_module_without_functions_is_not_flagged(self, reach, src):
        rows = reach.table(src, set())
        assert rows["pkg"]["functions"] == 0
        assert reach.unreached_modules(rows) == ["pkg.idle", "pkg.shapes"]


class TestReachedSet:
    def test_dumps_map_back_to_src(self, reach, src, tmp_path_factory):
        dumps = tmp_path_factory.mktemp("dumps")
        shapes = str(src / "pkg" / "shapes.py")
        (dumps / "1-a.json").write_text(json.dumps([
            [shapes, 8, "helper"],
            [shapes, 4, "Shape"],  # a class body: reported, never counted
            ["/elsewhere/idle.py", 1, "unused"],
        ]))
        reached = reach.load_reached(dumps, src)
        rows = reach.table(src, reached)
        assert rows["pkg.shapes"]["reached"] == 1
        assert rows["pkg.shapes"]["unreached"] == [
            "area:7", "cached:18", "<lambda>:23",
        ]
        assert rows["pkg.idle"]["reached"] == 0
        assert reach.unreached_modules(rows) == ["pkg.idle"]


def test_runs_what_ci_runs(reach):
    """Every profiled command is a CI step, argument for argument."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    ci = re.sub(r"\s+", " ", ci.replace("\\\n", " "))
    for name in reach.SHAPE_GATES:
        assert f"benchmarks/{name}" in ci, name
    for argv in reach.SMOKES:
        assert "benchmarks/" + " ".join(argv) in ci, argv
