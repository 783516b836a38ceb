"""``benchmarks/append_trajectory.py``: rows name the tree they came from."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "append_trajectory.py"


@pytest.fixture
def trajectory():
    spec = importlib.util.spec_from_file_location("append_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_doc(tmp_path, smoke=False):
    doc = {
        "stamp": {"git_commit": "f" * 40, "smoke": smoke, "seed": 0},
        "workloads": {
            "sim_tick": {"end_to_end": {"ticks_per_s": {"value": 20.0, "unit": "1/s"}}},
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def appender(trajectory, tmp_path, monkeypatch):
    """The script writing into a scratch trajectory, with a settable tree state."""
    out = tmp_path / "BENCH_TRAJECTORY.json"
    monkeypatch.setattr(trajectory, "TRAJECTORY", out)
    state = {"describe": "abc1234", "head": "f" * 40}
    monkeypatch.setattr(trajectory, "git_describe", lambda: state["describe"])
    monkeypatch.setattr(trajectory, "head_commit", lambda: state["head"])
    return trajectory, out, state


class TestAppend:
    def test_clean_tree_row_is_stamped_and_named_after_the_run(self, appender, tmp_path):
        script, out, _state = appender
        assert script.main([_run_doc(tmp_path)]) == 0
        (row,) = json.loads(out.read_text())
        assert row["git_describe"] == "abc1234"
        assert row["commit"] == "f" * 40
        assert row["sim_tick"] == {"ticks_per_s": 20.0}

    def test_dirty_tree_refused_without_a_label(self, appender, tmp_path, capsys):
        script, out, state = appender
        state["describe"] = "abc1234-dirty"
        assert script.main([_run_doc(tmp_path)]) == 2
        assert "dirty" in capsys.readouterr().err
        assert not out.exists()
        assert script.main([_run_doc(tmp_path), "--commit", "parent + change"]) == 0
        (row,) = json.loads(out.read_text())
        assert row["commit"] == "parent + change"
        assert row["git_describe"] == "abc1234-dirty"

    def test_run_from_another_commit_refused(self, appender, tmp_path, capsys):
        script, out, state = appender
        state["head"] = "e" * 40
        assert script.main([_run_doc(tmp_path), "--commit", "label"]) == 2
        assert "append from the tree the run was taken in" in capsys.readouterr().err
        assert not out.exists()

    def test_smoke_run_refused(self, appender, tmp_path):
        script, out, _state = appender
        assert script.main([_run_doc(tmp_path, smoke=True)]) == 2
        assert not out.exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="git not installed")
def test_git_describe_marks_a_dirty_tree(trajectory, tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "f.txt").write_text("a\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "init")
    clean = trajectory.git_describe(tmp_path)
    assert clean and not clean.endswith("-dirty")
    assert trajectory.head_commit(tmp_path).startswith(clean)
    (tmp_path / "f.txt").write_text("b\n")
    assert trajectory.git_describe(tmp_path) == clean + "-dirty"
