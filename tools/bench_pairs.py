"""Paired benchmark runs of a parent commit and the working tree: BENCH_<label>.json.

    python3 tools/bench_pairs.py --label NAME [--parent REV] \\
        WORKLOAD:SEEDS [WORKLOAD:SEEDS ...]

SEEDS is a comma list of seeds or ranges, e.g. `besicovitch:1001-1010` or
`measure:7,9`.  The parent revision (default HEAD) is exported with
`git archive` into a temporary directory, and the change, the working
tree's tracked files with their uncommitted edits plus the files not yet
added under src/ and tools/, is copied into another, so that both sides
run from fresh copies of the same kind.  For each seed,
`perfbench/run.py --seed N --seconds S` runs once on each side, S being
the `run_seconds` of BENCHMARK.json, the two sides taking turns going
first, so that a slow spell of the host falls on both alike.  Each pair
also compares the report digests of the two sides' first rounds.  After
the pairs, each side gets one `--trace 1` run of each workload (its first
seed) and one untimed round, `run_workload` of `perfbench/worker.py` in a
fresh process, after which it reads `cgmt.weights.refinements`, the count
of signs left to exact interval refinement (null where the code has no
such counter).

The file holds the host (CPU count and Python version), both sides' git
revisions and a digest of their src/, each pair's end-to-end metrics, and
per workload and metric the medians and quartiles of both sides, the
change's relative move and how many pairs it won.  Run it from the root of
the checkout; it writes BENCH_<label>.json there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one untimed round of a workload by the benchmark's own worker, printing
# the number of interval refinements it needed
COUNT_ROUND = """
import json, os, sys
root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, os.path.join(root, "perfbench"))
import worker
summary = worker.run_workload(worker.load_cli(root), root, workload, seed, 0, False)
if summary["failed"]:
    raise SystemExit(f"counting round failed: {summary['problems']}")
import cgmt.weights
print(json.dumps(getattr(cgmt.weights, "refinements", None)))
"""


def parse_plan(items: list[str]) -> list[tuple[str, list[int]]]:
    """WORKLOAD:SEEDS items as (workload, seeds)."""
    plan = []
    for item in items:
        workload, _, spec = item.partition(":")
        seeds: list[int] = []
        try:
            for part in spec.split(","):
                lo, _, hi = part.partition("-")
                seeds.extend(range(int(lo), int(hi or lo) + 1))
        except ValueError:
            seeds = []
        if not workload or not seeds:
            raise SystemExit(f"bad plan item {item!r}: want WORKLOAD:SEEDS")
        plan.append((workload, seeds))
    return plan


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the change's move and its wins.

    pairs holds {"parent": {metric: value}, "change": {metric: value}} per
    seed; better maps each metric to "lower" or "higher".  A pair is won
    when the change's value is strictly better.  `clear` says whether the
    change's median beats the parent's by more than the parent's
    interquartile range.
    """
    out = {}
    for metric, direction in better.items():
        parent = [p["parent"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        sign = 1 if direction == "lower" else -1
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        out[metric] = {
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "relative": c_med / p_med - 1 if p_med else None,
            "wins": sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0),
            "pairs": len(pairs),
            "clear": sign * (p_med - c_med) > p_q3 - p_q1,
        }
    return out


def src_digest(root: str) -> str:
    """sha256 over the paths and bytes of the .py files under root/src."""
    h = hashlib.sha256()
    base = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                h.update(os.path.relpath(path, base).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: str) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)


def export_worktree(into: str) -> None:
    """Copy the working tree into into: its tracked files, uncommitted edits
    included, and the files not yet added under src/ and tools/ that git
    does not ignore, such as a new module."""
    tracked = git("ls-files", "-z").split("\0")
    new = git("ls-files", "-z", "--others", "--exclude-standard", "--", "src", "tools").split("\0")
    for path in tracked + new:
        source = os.path.join(ROOT, path)
        if path and os.path.isfile(source):  # a tracked file deleted in the tree is left out
            target = os.path.join(into, path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in root: its result line and its first round's digests."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{root}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = os.path.join(root, ".perfbench-results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail, encoding="utf-8") as fh:
        result["digests"] = json.load(fh)["runs"][0]["digests"]
    return result


def count_refinements(root: str, workload: str, seed: int):
    proc = subprocess.run([sys.executable, "-c", COUNT_ROUND, root, workload, str(seed)],
                          cwd=root, capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": "0"})
    if proc.returncode:
        raise SystemExit(f"{root}: counting round exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD:SEEDS")
    args = parser.parse_args(argv)
    plan = parse_plan(args.plan)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    parent_root = tempfile.mkdtemp(prefix="bench-parent-")
    change_root = tempfile.mkdtemp(prefix="bench-change-")
    try:
        export(args.parent, parent_root)
        export_worktree(change_root)
        sides = {"parent": parent_root, "change": change_root}
        doc = {
            "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "parent": {"rev": git("rev-parse", args.parent), "src_sha256": src_digest(parent_root)},
            "change": {
                "head": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--", "src")),
                "src_sha256": src_digest(change_root),
            },
            "seconds": seconds,
            "workloads": {},
        }
        turn = 0
        for workload, seeds in plan:
            pairs = []
            for seed in seeds:
                order = ["parent", "change"] if turn % 2 == 0 else ["change", "parent"]
                turn += 1
                got = {side: run_bench(sides[side], workload, seed, seconds, 0) for side in order}
                pair = {"seed": seed, "first": order[0]}
                for side in ("parent", "change"):
                    pair[side] = values(got[side])
                    pair[f"{side}_correct"] = got[side]["correct"]
                    pair[f"{side}_failed"] = got[side]["failed"]
                pair["digests_equal"] = got["parent"]["digests"] == got["change"]["digests"]
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in better), file=sys.stderr)
            doc["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarize(pairs, better),
                "traced": {side: values(run_bench(root, workload, seeds[0], seconds, 1))
                           for side, root in sides.items()},
                "interval_refinements_per_round": {
                    side: count_refinements(root, workload, seeds[0]) for side, root in sides.items()
                },
            }
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)
        shutil.rmtree(change_root, ignore_errors=True)
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
