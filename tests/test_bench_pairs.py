"""scripts/bench_pairs.py: the claim and bound verdicts on synthetic runs,
and the removal of the base export when a run or the export fails or the
script is ended by SIGTERM."""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from conftest import REPO

sys.path.insert(0, str(REPO / "scripts"))
import bench_pairs  # noqa: E402
from bench_pairs import verdict  # noqa: E402

BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


def test_clear_gain_is_claimed():
    v = verdict(BASE, [b - 1.5 for b in BASE], "lower", 0.25)
    assert (v["wins"], v["pairs"], v["claim"], v["bound"]) == (10, 10, True, "ok")
    assert v["base"][1] == pytest.approx(10.0) and v["change"][1] == pytest.approx(8.5)
    assert v["worse"] == pytest.approx(-0.15)


def test_higher_is_better_flips_the_direction():
    v = verdict(BASE, [b + 1.5 for b in BASE], "higher", 0.25)
    assert (v["wins"], v["claim"]) == (10, True)
    v = verdict(BASE, [b + 1.5 for b in BASE], "lower", 0.1)
    assert (v["wins"], v["claim"], v["bound"]) == (0, False, "REGRESSED")


def test_eight_wins_of_ten_is_no_claim():
    change = [b - 1.5 for b in BASE[:8]] + [b + 1.0 for b in BASE[8:]]
    v = verdict(BASE, change, "lower", 0.25)
    assert (v["wins"], v["claim"]) == (8, False)


def test_ties_count_for_neither_side():
    change = [b - 1.5 for b in BASE[:9]] + [BASE[9]]
    v = verdict(BASE, change, "lower", 0.25)
    assert (v["wins"], v["claim"]) == (9, True)
    v = verdict(BASE, list(BASE), "lower", 0.25)
    assert (v["wins"], v["claim"], v["worse"], v["bound"]) == (0, False, 0.0, "ok")


def test_gain_inside_the_base_spread_is_no_claim():
    # every pair won, but by less than the base's quartile distance (0.2)
    v = verdict(BASE, [b - 0.1 for b in BASE], "lower", 0.25)
    assert (v["wins"], v["claim"]) == (10, False)


def test_bound_check_regressed_unresolved_ok():
    base = [10.0, 14.0, 6.0, 12.0, 8.0, 11.0, 9.0, 13.0, 7.0, 10.0]  # quartiles 3.5 apart
    assert verdict(base, [b * 1.3 for b in base], "lower", 0.25)["bound"] == "REGRESSED"
    assert verdict(base, [b * 1.1 for b in base], "lower", 0.25)["bound"] == "unresolved"
    # wider than the bound, but every change run beats every base run
    assert verdict(base, [5.0] * 10, "lower", 0.25)["bound"] == "ok"
    # exactly at the bound is not a regression
    assert verdict([4.0] * 10, [5.0] * 10, "lower", 0.25)["bound"] == "ok"


def test_zero_base_median():
    assert verdict([0.0] * 4, [0.0] * 4, "higher", 0.05)["bound"] == "ok"
    v = verdict([0.0] * 4, [1.0] * 4, "lower", 0.05)
    assert v["bound"] == "REGRESSED" and v["worse"] == float("inf")


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        verdict([], [], "lower", 0.1)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.1)


def _bench_repo(tmp_path, monkeypatch) -> Path:
    """A one-commit repository at tmp_path holding a one-workload
    BENCHMARK.json, made bench_pairs' root; returns the empty directory
    that tempfile now makes its temporary directories in."""
    git = lambda *a: subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *a],
                                    cwd=tmp_path, capture_output=True, text=True, check=True)
    git("init", "-q")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "w"}], "end_to_end": []}), encoding="utf-8")
    git("add", "BENCHMARK.json")
    git("commit", "-q", "-m", "base")
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    return temp


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_base_export_removed_when_a_run_fails(tmp_path, monkeypatch, capsys):
    temp = _bench_repo(tmp_path, monkeypatch)
    git_files = sorted((tmp_path / ".git").rglob("*"))
    seen = []

    def failing_run(side, workload, seed):
        seen.append(side)
        assert (side / "BENCHMARK.json").exists()
        raise RuntimeError("perfbench exited 2")

    monkeypatch.setattr(bench_pairs, "run_bench", failing_run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1",
                             "--pairs", "2"]) == 1
    assert "perfbench exited 2" in capsys.readouterr().err
    assert len(seen) == 1 and seen[0].is_relative_to(temp)
    assert not any(temp.iterdir())
    # the base is a git archive export: nothing was written under .git
    assert sorted((tmp_path / ".git").rglob("*")) == git_files


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_change_side_runs_in_a_copy_of_the_working_tree(tmp_path, monkeypatch, capsys):
    # both sides import from paths of the same length, and the change side
    # holds the uncommitted edit and untracked files, not ignored ones
    temp = _bench_repo(tmp_path, monkeypatch)
    (tmp_path / ".gitignore").write_text("built/\n", encoding="utf-8")
    (tmp_path / "built").mkdir()
    (tmp_path / "built" / "out.bin").write_bytes(b"x")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "new.py").write_text("NEW = 1\n", encoding="utf-8")
    edited = json.dumps({"workloads": [{"name": "w"}], "end_to_end": [], "edited": True})
    (tmp_path / "BENCHMARK.json").write_text(edited, encoding="utf-8")
    sides = []

    def recording_run(side, workload, seed):
        sides.append((side, (side / "BENCHMARK.json").read_text(encoding="utf-8"),
                      (side / "src" / "new.py").exists(), (side / "built").exists()))
        return {}

    monkeypatch.setattr(bench_pairs, "run_bench", recording_run)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "w", "--seed", "1",
                             "--pairs", "1"]) == 0
    capsys.readouterr()
    (base, base_json, base_new, _), (change, change_json, change_new, change_built) = sides
    assert base.is_relative_to(temp) and change.is_relative_to(temp)
    assert len(str(base)) == len(str(change)) and base != change
    assert "edited" not in base_json and not base_new
    assert change_json == edited and change_new and not change_built
    assert not any(temp.iterdir())


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_unknown_base_revision_exit_2(tmp_path, monkeypatch, capsys):
    temp = _bench_repo(tmp_path, monkeypatch)
    assert bench_pairs.main(["--base", "no-such-rev", "--workload", "w", "--seed", "1",
                             "--pairs", "1"]) == 2
    assert "git archive failed" in capsys.readouterr().err
    assert not any(temp.iterdir())


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_base_export_removed_on_sigterm(tmp_path, monkeypatch):
    # SIGTERM's default action skips finally; the script's handler must not
    temp = _bench_repo(tmp_path, monkeypatch)
    script = (f"import sys, time; sys.path.insert(0, {str(REPO / 'scripts')!r}); "
              "import bench_pairs; from pathlib import Path; "
              "bench_pairs.ROOT = Path(sys.argv[1]); "
              "bench_pairs.run_pairs = lambda *args: time.sleep(60); "
              "sys.exit(bench_pairs.main(['--base', 'HEAD', '--workload', 'w', '--seed', '1', "
              "'--pairs', '1']))")
    proc = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                            env={**os.environ, "TMPDIR": str(temp)})
    try:
        deadline = time.monotonic() + 30
        while not list(temp.glob("bench-base-*")) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert list(temp.glob("bench-base-*")), "the export never appeared"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert not list(temp.glob("bench-base-*"))
    assert code == 128 + signal.SIGTERM
