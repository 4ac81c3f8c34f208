"""One workload in one fresh, single-threaded process.

    python3 worker.py ROOT WORKLOAD SEED SECONDS TRACE SPAWNED

ROOT is the checkout whose src/ holds cgmt; SPAWNED is the CLOCK_MONOTONIC
time at which run.py started this process, so that the set-up time covers
interpreter start, the import of cgmt and `cgmt.cli.build_parser()`.  The
process then generates the workload's inputs into a temporary directory
under ROOT and runs whole rounds of its commands through `cgmt.cli.main`,
stdout captured, until SECONDS have passed.  Untraced, it checks the first
round's reports and compares every later report with the first; traced
(TRACE = 1), it records spans and counts instead of checking.  The last line
of its standard output is a JSON summary for run.py.

The host's speed drifts by tens of percent within seconds, so around every
command the process also times `reference()`, a fixed pure-Python
computation, and records the command's time in units of the reference's
time measured next to it.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction

CRASHED = -1  # exit code recorded when cli.main raises


def load_cli(root: str):
    """Import cgmt from ROOT/src and build its parser: the timed set-up."""
    sys.path.insert(0, os.path.join(root, "src"))
    import cgmt.cli

    cgmt.cli.build_parser()
    src = os.path.join(os.path.realpath(root), "src") + os.sep
    if not os.path.realpath(cgmt.cli.__file__).startswith(src):
        raise SystemExit(f"cgmt was imported from {cgmt.cli.__file__}, not from {src}")
    return cgmt.cli


def run_command(cli, command) -> tuple[int, float, bytes]:
    """(exit code, seconds, report bytes) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(command.argv))
        except Exception:  # a crash is a failed operation; the run goes on
            code = CRASHED
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    if code:
        sys.stderr.write(f"{command.name}: exit {code}\n{err.getvalue()}")
    report = out.getvalue().encode()
    if command.write_to:
        with open(command.write_to, "wb") as fh:
            fh.write(report)
    return code, elapsed, report


def reference() -> Fraction:
    """Fixed work of the kind cgmt does: string keys in a dict, Fraction sums."""
    counts: dict[str, int] = {}
    total = Fraction(0)
    for i in range(1500):
        key = format(i, "b")
        counts[key] = counts.get(key[:-1], 0) + 1
        total += Fraction(i % 7, 3 ** (i % 5))
    return total


def reference_s() -> float:
    """Median time of three reference() calls, with the collector off.

    The collector stays off so that the heap cgmt left behind does not
    reach the reference; reference() makes no cycles.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            reference()
            times.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[1]


def check_report(command, report: bytes) -> list[str]:
    try:
        return command.check(json.loads(report))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def run_workload(cli, root: str, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        commands = workloads.build(workload, seed, workdir)
        os.chdir(workdir)
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        codes: dict[str, list[int]] = {c.name: [] for c in commands}
        times: dict[str, list[float]] = {c.name: [] for c in commands}
        # each command's time over the mean of the reference times taken just before and after it
        in_refs: dict[str, list[float]] = {c.name: [] for c in commands}
        ref_times = [reference_s()]
        first: dict[str, bytes] = {}
        changed = dict.fromkeys(codes, 0)
        rounds = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            for command in commands:
                code, elapsed, report = run_command(cli, command)
                ref_times.append(reference_s())
                codes[command.name].append(code)
                times[command.name].append(elapsed)
                in_refs[command.name].append(elapsed / ((ref_times[-2] + ref_times[-1]) / 2))
                first.setdefault(command.name, report)
                changed[command.name] += report != first[command.name]
                if tracer:
                    tracer.counts[f"cli.{command.kind}.s"] += elapsed
                    tracer.counts["cli.report_bytes"] += len(report)
            rounds += 1
            if rounds == 1:
                # one pass over the workload; later rounds only let the allocator creep
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        os.chdir(root)
        shutil.rmtree(workdir, ignore_errors=True)

    problems: dict[str, list[str]] = {}
    failed = 0
    for command in commands:
        runs = codes[command.name]
        # a failed command is counted by its exit code; only reports of exit 0 are checked
        found = [] if traced or runs[0] else check_report(command, first[command.name])
        if changed[command.name]:
            found.append(f"report bytes changed in {changed[command.name]} later rounds")
        if found:
            problems[command.name] = found
            failed += len(runs)
        else:
            failed += sum(1 for code in runs if code)
    return {
        "rounds": rounds,
        "times": times,
        "in_refs": in_refs,
        "ref_times": ref_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": rounds * len(commands),
        "failed": failed,
        "problems": problems,
        "digests": {name: hashlib.sha256(report).hexdigest() for name, report in first.items()},
        "layers": tracer.metrics(rounds) if tracer else None,
    }


if __name__ == "__main__":
    ROOT, WORKLOAD, SEED, SECONDS, TRACE, SPAWNED = sys.argv[1:7]
    CLI = load_cli(ROOT)
    SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - float(SPAWNED)
    summary = run_workload(CLI, os.path.realpath(ROOT), WORKLOAD, int(SEED), float(SECONDS), TRACE == "1")
    print(json.dumps({"setup_s": SETUP_S, **summary}))
