"""The paired-benchmark summary on synthetic numbers, and the two sides' exports; nothing is timed."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pairs_of(parent, change, metric="wall_ref"):
    return [{"parent": {metric: a}, "change": {metric: b}} for a, b in zip(parent, change)]


def test_summary_counts_wins_and_quartiles():
    parent = [100, 104, 98, 102, 101, 99, 103, 97, 100, 105]
    change = [50, 52, 49, 51, 101, 50, 48, 47, 53, 51]
    got = bench_pairs.summarize(pairs_of(parent, change), {"wall_ref": "lower"})["wall_ref"]
    assert got["wins"] == 9 and got["pairs"] == 10  # the fifth pair is a tie
    assert got["parent"]["median"] == 100.5
    assert got["change"]["median"] == 50.5
    assert got["relative"] == pytest.approx(50.5 / 100.5 - 1)
    assert got["parent"]["q1"] <= got["parent"]["median"] <= got["parent"]["q3"]
    assert got["clear"]


def test_summary_respects_direction_and_spread():
    # higher is better: the change loses every pair
    got = bench_pairs.summarize(pairs_of([5, 6, 7], [4, 5, 6], "x"), {"x": "higher"})["x"]
    assert got["wins"] == 0 and not got["clear"]
    # a gain inside the parent's interquartile range is not clear
    got = bench_pairs.summarize(pairs_of([90, 100, 110, 120], [88, 99, 105, 115], "x"), {"x": "lower"})["x"]
    assert got["wins"] == 4 and not got["clear"]


def test_single_pair_and_plan_parsing():
    got = bench_pairs.summarize(pairs_of([10], [8]), {"wall_ref": "lower"})["wall_ref"]
    assert got["parent"] == {"q1": 10, "median": 10, "q3": 10}
    assert got["wins"] == 1 and got["clear"]
    assert bench_pairs.parse_plan(["besicovitch:1001-1003,1007", "paths:5"]) == [
        ("besicovitch", [1001, 1002, 1003, 1007]),
        ("paths", [5]),
    ]
    with pytest.raises(SystemExit):
        bench_pairs.parse_plan(["measure"])


def test_both_sides_are_exported_fresh(tmp_path, monkeypatch):
    # a throwaway repository with one commit, an uncommitted edit and a
    # module not yet added: both reach the change's copy and not the
    # parent's, and an untracked file outside src/ and tools/ reaches neither
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("committed\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "one"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    (repo / "src" / "a.py").write_text("edited\n")
    (repo / "src" / "b.py").write_text("new module\n")
    (repo / "untracked.py").write_text("new\n")
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    parent, change = tmp_path / "parent", tmp_path / "change"
    bench_pairs.export("HEAD", str(parent))
    bench_pairs.export_worktree(str(change))
    assert (parent / "src" / "a.py").read_text() == "committed\n"
    assert (change / "src" / "a.py").read_text() == "edited\n"
    assert (change / "src" / "b.py").read_text() == "new module\n"
    assert not (parent / "src" / "b.py").exists()
    assert not (parent / "untracked.py").exists() and not (change / "untracked.py").exists()
    assert bench_pairs.src_digest(str(parent)) != bench_pairs.src_digest(str(change))
