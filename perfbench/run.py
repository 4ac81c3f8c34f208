"""cgmt benchmark: one workload, untraced or traced, one JSON line of metrics.

    python3 perfbench/run.py --workload measure|besicovitch|paths \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; cgmt is imported from its src/.  Each
workload runs in a fresh single-threaded process (worker.py).  With
--trace 0 that process measures for S seconds and the last line printed
holds the end-to-end metrics: setup_s, wall_ref (one round: each command's
median time over the rounds, summed), cmd_geomean_ref (the geometric mean
of those medians: a typical command's time) and peak_rss_mb (ru_maxrss of
the workload process after its first round).  The two times are in units
of a fixed reference computation timed next to each command (see
worker.py), because the shared host's speed drifts by tens of percent within
seconds; setup_s is in seconds.  With --trace 1 an untraced process and a
traced one each run for S/2 seconds; the line holds the per-layer metrics
per round of the traced process, trace.overhead (its wall_ref over the
untraced one's), and from the untraced process cli.wall_s (its round in
seconds) and host.ref_s (the reference's median time).  Untraced processes
check every report (see checks.py); --trace 1 also requires each command's
report bytes to be the same in both processes.  Details are written to
.perfbench-results/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170  # a run must end within 180 s


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    """Start worker.py, wait for it, and return its JSON summary."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), str(seconds),
            "1" if traced else "0"]
    # set iteration order in cgmt follows string hashes; a fixed hash seed gives
    # every run the same order of work, where a random one moved times by 10-20%
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(argv + [repr(spawned)], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker passed the {DEADLINE_S} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def wall_s(summary: dict, key: str = "times") -> float:
    """One round's time: each command's median time over the rounds, summed."""
    return sum(statistics.median(times) for times in summary[key].values())


def cmd_geomean(summary: dict) -> float:
    """A typical command's time in reference units: the geometric mean of each command's median."""
    return statistics.geometric_mean(statistics.median(times) for times in summary["in_refs"].values())


def end_to_end(summary: dict) -> dict:
    return {
        "setup_s": (summary["setup_s"], "s"),
        "wall_ref": (wall_s(summary, "in_refs"), "ref"),
        "cmd_geomean_ref": (cmd_geomean(summary), "ref"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.seconds / 2, False, deadline)
            traced = run_worker(args.workload, args.seed, args.seconds / 2, True, deadline)
            summaries = [plain, traced]
        else:
            summaries = [run_worker(args.workload, args.seed, args.seconds, False, deadline)]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = {name: found for s in summaries for name, found in s["problems"].items()}
    if args.trace:
        plain, traced = summaries
        for name, digest in plain["digests"].items():
            if traced["digests"].get(name) != digest:
                problems.setdefault(name, []).append("report bytes differ between untraced and traced runs")
        units = dict(tracing.PER_LAYER)
        values = {
            **traced["layers"],
            "cli.wall_s": wall_s(plain),
            "host.ref_s": statistics.median(plain["ref_times"]),
            "trace.overhead": wall_s(traced, "in_refs") / wall_s(plain, "in_refs"),
        }
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end(summaries[0]).items()}
    for name, found in problems.items():
        for problem in found:
            print(f"perfbench: {args.workload} {name}: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    out_dir = os.path.join(ROOT, ".perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    detail = {"args": vars(args), "result": result, "problems": problems, "runs": summaries}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
