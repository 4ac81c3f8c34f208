"""The three workloads: seeded inputs, the commands of one round, their checks.

`build(name, seed, workdir)` writes the generated spec and opens files into
workdir and returns the round: a list of `Command`s, each with the argv
handed to `cgmt.cli.main` and the check its report must pass.  The argv
names those files relative to workdir, where the commands run, so that
reports (which echo their arguments) do not depend on the directory.  The
same seed gives the same files and the same commands.  Generation uses only the
standard library and this directory's `checks` module, never cgmt.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks

WORKLOADS = ("measure", "besicovitch", "paths")


@dataclass(frozen=True)
class Command:
    """One cgmt invocation; check(report) lists the problems of its report."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    write_to: Optional[str] = None  # the report is also saved here, for a later command

    @property
    def kind(self) -> str:
        return self.argv[0].replace("-", "_")


# binary strings with no two consecutive ones
NO_11 = {"kind": "automatic", "transitions": [[0, 1], [0, 2], [2, 2]], "accepting": [0, 1], "start": 0}


def _write_json(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


def _automaton_spec(table: list[list[int]], accepting: list[int]) -> dict:
    return {"kind": "automatic", "transitions": table, "accepting": accepting, "start": 0}


def _own_automaton(spec: dict) -> checks.OwnTree:
    return checks.automaton_tree(spec["transitions"], spec["accepting"], spec["start"])


# -- measure -------------------------------------------------------------------------

# a seeded automaton is kept when some block in BLOCKS has a prefix closure of
# CLOSURE[0]..CLOSURE[1] strings, so every seed asks for about the same work
AUTO_STATES = 7
AUTO_BLOCKS = range(13, 17)
AUTO_CLOSURE = (16_000, 18_000)


def closure_sizes(spec: dict, depth: int) -> list[int]:
    """Prefix-closure size of each level m <= depth, by a state recursion.

    A length-L member is in the closure of level m when its state still has
    a length-(m - L) continuation inside the tree.
    """
    table, accepting = spec["transitions"], set(spec["accepting"])
    states = range(len(table))
    # alive[r][q]: some length-r continuation from q stays accepting
    alive = [[q in accepting for q in states]]
    for _ in range(depth):
        prev = alive[-1]
        alive.append([q in accepting and (prev[table[q][0]] or prev[table[q][1]]) for q in states])
    # ends[L][q]: members of length L that end in state q
    ends = [[1 if q == spec["start"] and q in accepting else 0 for q in states]]
    for _ in range(depth):
        nxt = [0] * len(table)
        for q, count in enumerate(ends[-1]):
            for bit in (0, 1):
                r = table[q][bit]
                if r in accepting:
                    nxt[r] += count
        ends.append(nxt)
    return [
        sum(ends[length][q] for length in range(m + 1) for q in states if alive[m - length][q])
        for m in range(depth + 1)
    ]


def seeded_automaton(rng: random.Random) -> tuple[dict, int]:
    """A random prefix-closed automaton and the block whose closure fits AUTO_CLOSURE.

    States 0..AUTO_STATES-1 accept; state AUTO_STATES is the dead sink.
    Each accepting state sends one bit to a random accepting state and the
    other, with probability 1/3, to the sink.
    """
    dead = AUTO_STATES
    while True:
        table = []
        for _ in range(AUTO_STATES):
            row = [rng.randrange(AUTO_STATES), rng.randrange(AUTO_STATES)]
            if rng.random() < 1 / 3:
                row[rng.randrange(2)] = dead
            table.append(row)
        table.append([dead, dead])
        spec = _automaton_spec(table, list(range(AUTO_STATES)))
        sizes = closure_sizes(spec, max(AUTO_BLOCKS))
        fits = [m for m in AUTO_BLOCKS if AUTO_CLOSURE[0] <= sizes[m] <= AUTO_CLOSURE[1]]
        if fits:
            return spec, fits[0]


def _measure_command(name, tree_arg, own, s, n, blocks) -> Command:
    argv = ("measure", "--tree", tree_arg, "--s", str(s), "--n", str(n),
            "--blocks", ",".join(map(str, blocks)))
    return Command(name, argv, lambda doc: checks.check_measure(doc, own, s, n, list(blocks)))


def measure_round(seed: int, workdir: str) -> list[Command]:
    rng = random.Random(seed)
    half, two_thirds, one = Fraction(1, 2), Fraction(2, 3), Fraction(1)
    full, dyadic = checks.full_tree(), checks.dyadic_tree(5, 3)
    commands = [
        _measure_command("full-s1/2", "full", full, half, 1, (12, 13)),
        _measure_command("full-s2/3", "full", full, two_thirds, 2, (14,)),
        _measure_command("full-s1", "full", full, one, 1, (13, 14)),
        _measure_command("dyadic-s1/2", "dyadic(5/8)", dyadic, half, 2, (13, 14)),
    ]
    for k, s in enumerate((two_thirds, half, one)):
        spec, block = seeded_automaton(rng)
        path = _write_json(workdir, f"measure-auto{k}.json", spec)
        blocks = (block,) if s == 1 else (block - 1, block)
        commands.append(_measure_command(f"auto{k}-s{s}", path, _own_automaton(spec), s, 1, blocks))
    return commands


# -- besicovitch ---------------------------------------------------------------------


def besicovitch_round(seed: int, workdir: str) -> list[Command]:
    """Fixed named trees: this command's time varies by orders of magnitude with the tree.

    No command runs longer than about 2 s, so the reference times taken
    around each command follow the host's speed while it runs.
    """
    no11 = _write_json(workdir, "no11.json", NO_11)
    full, dyadic = checks.full_tree(), checks.dyadic_tree(5, 3)
    half, one = Fraction(1, 2), Fraction(1)
    runs = (
        ("full", "full", full, half, one, 6),
        ("full-s1/3", "full", full, Fraction(1, 3), one, 4),
        ("dyadic", "dyadic(5/8)", dyadic, Fraction(2, 3), half, 6),
        ("no11", no11, _own_automaton(NO_11), Fraction(2, 3), Fraction(1, 4), 4),
    )
    commands = []
    for name, tree_arg, own, s, c, stages in runs:
        report = f"besicovitch-{name.replace('/', '')}.json"
        commands.append(Command(
            f"besicovitch-{name}",
            ("besicovitch", "--tree", tree_arg, "--s", str(s), "--c", str(c), "--stages", str(stages)),
            lambda doc, own=own, s=s, c=c, stages=stages: checks.check_besicovitch(doc, own, s, c, stages),
            write_to=report,
        ))
        commands.append(Command(
            f"cover-verify-{name}",
            ("cover-verify", "--certificate", report),
            lambda doc, stages=stages: checks.check_cover_verify(doc, stages),
        ))
    commands.append(Command(
        "extract-full",
        ("extract", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1", "--eps", "1/4"),
        lambda doc: checks.check_extract(doc, full, half, 1, one, Fraction(1, 4)),
    ))
    commands.append(Command(
        "extract-pruned-dyadic",
        ("extract-pruned", "--tree", "dyadic(5/8)", "--s", "1/2", "--n", "1", "--c", "1/2", "--eps", "1/8"),
        lambda doc: checks.check_extract(doc, dyadic, half, 1, half, Fraction(1, 8)),
    ))
    commands.append(Command(
        "thin-full",
        ("thin", "--tree", "full", "--s", "1/2", "--n", "1", "--c", "1", "--theta", "1/64"),
        lambda doc: checks.check_thin(doc, half, 1, one, Fraction(1, 64)),
    ))
    return commands


# -- paths ---------------------------------------------------------------------------

PATH_DEPTH = 2000
MASS_WIDTHS = (1, 2, 4, 4, 4, 4)
BAIRE_TREES, BAIRE_DEPTH, BAIRE_GROWTH, BAIRE_OPENS = 2, 15, 1.8, 12
GADGET_HORIZONS = {
    "marker-tree": 256,
    "point-sequence": 256,
    "column-tree": 128,
    "deficit-min": 256,
    "first-one-inf": 256,
}


def seeded_mass_automaton(rng: random.Random) -> tuple[dict, Fraction]:
    """A layered automaton feeding a full sink, and its exact mass.

    Layer i holds MASS_WIDTHS[i] accepting states (layer 0 is the start).
    The bits of one layer reach every state of the next layer (the last
    layer: the full sink) once; the remaining bits go to a random state of
    the next layer or, with probability 1/4, to the dead sink.  Every state
    is reachable, so every seed caches the same count queries.  The mass,
    drawn again until it is below 1, is the share of the
    length-len(MASS_WIDTHS) strings that reach the full sink.
    """
    first = [sum(MASS_WIDTHS[:i]) for i in range(len(MASS_WIDTHS) + 2)]
    full_sink = first[len(MASS_WIDTHS)]
    dead = full_sink + 1
    layers = len(MASS_WIDTHS)
    while True:
        table: list[list[int]] = []
        for i, width in enumerate(MASS_WIDTHS):
            nxt = list(range(first[i + 1], first[i + 2])) if i + 1 < layers else [full_sink]
            spare = [dead if rng.random() < 1 / 4 else rng.choice(nxt) for _ in range(2 * width - len(nxt))]
            targets = nxt + spare
            rng.shuffle(targets)
            table += [targets[2 * j : 2 * j + 2] for j in range(width)]
        table += [[full_sink, full_sink], [dead, dead]]
        spec = _automaton_spec(table, list(range(dead)))
        survivors = len(checks.own_levels(_own_automaton(spec), layers)[layers])
        if survivors < 1 << layers:  # mass 1 would make the tree full
            return spec, Fraction(survivors, 1 << layers)


def seeded_pruned_tree(rng: random.Random) -> list[str]:
    """A random tree of depth BAIRE_DEPTH where every member reaches full depth.

    Level L holds floor(BAIRE_GROWTH^L) members (at most 2^L): every parent
    keeps one random child, and randomly drawn parents keep both.  The member
    count is the same for every seed.
    """
    levels = [[""]]
    for length in range(1, BAIRE_DEPTH + 1):
        firsts = [parent + rng.choice("01") for parent in levels[-1]]
        others = [c[:-1] + ("1" if c[-1] == "0" else "0") for c in firsts]
        room = min(len(others), int(BAIRE_GROWTH**length) - len(firsts))
        levels.append(sorted(firsts + rng.sample(others, max(room, 0))))
    return [sigma for level in levels for sigma in level]


def seeded_bar(rng: random.Random, members: set[str]) -> list[str]:
    """An antichain meeting every branch: stop at each node with probability 1/3."""
    bar, stack = [], [""]
    while stack:
        sigma = stack.pop()
        if len(sigma) == BAIRE_DEPTH or (sigma and rng.random() < 1 / 3):
            bar.append(sigma)
        else:
            stack += [c for c in (sigma + "0", sigma + "1") if c in members]
    return sorted(bar)


def paths_round(seed: int, workdir: str) -> list[Command]:
    rng = random.Random(seed)
    commands = []

    spec, mass = seeded_mass_automaton(rng)
    path = _write_json(workdir, "paths-mass.json", spec)
    for name, tree_arg, own, c in (
        ("auto", path, _own_automaton(spec), mass),
        ("dyadic", "dyadic(5/8)", checks.dyadic_tree(5, 3), Fraction(5, 8)),
    ):
        commands.append(Command(
            f"lebesgue-path-{name}",
            ("lebesgue-path", "--tree", tree_arg, "--c", str(c), "--depth", str(PATH_DEPTH)),
            lambda doc, own=own: checks.check_lebesgue(doc, own, PATH_DEPTH),
        ))

    for k in range(BAIRE_TREES):
        members = seeded_pruned_tree(rng)
        tree_path = _write_json(workdir, f"paths-explicit{k}.json",
                                {"kind": "explicit", "depth": BAIRE_DEPTH, "members": members})
        member_set = set(members)
        opens = [seeded_bar(rng, member_set) for _ in range(BAIRE_OPENS)]
        opens_path = _write_json(workdir, f"paths-opens{k}.json", opens)
        own = checks.explicit_tree(members, BAIRE_DEPTH)
        commands.append(Command(
            f"baire-{k}",
            ("baire", "--tree", tree_path, "--opens", opens_path, "--depth", str(BAIRE_DEPTH)),
            lambda doc, own=own, opens=opens: checks.check_baire(doc, own, opens, BAIRE_DEPTH),
        ))

    for kind, horizon in GADGET_HORIZONS.items():
        table = rng.sample(range(2 * horizon), horizon)
        commands.append(Command(
            f"gadget-{kind}",
            ("gadget", "--kind", kind, "--table", ",".join(map(str, table))),
            lambda doc, kind=kind, table=table: checks.check_gadget(doc, kind, table),
        ))
    return commands


def build(name: str, seed: int, workdir: str) -> list[Command]:
    rounds = {"measure": measure_round, "besicovitch": besicovitch_round, "paths": paths_round}
    return rounds[name](seed, workdir)
