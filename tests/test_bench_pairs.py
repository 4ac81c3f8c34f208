"""The paired-benchmark summary on synthetic numbers; nothing is run."""

import importlib.util
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
