"""Shared test helpers: seeded random markings, finite trees from strings, seeded automata."""

import itertools
import random

from cgmt.measure import count_covers
from cgmt.trees import BlockMarking, TreeSource, levels_of_source, prefix_closure

ENUM_BUDGET = 20_000


def strings_through(depth: int):
    """Every binary string of length <= depth, shortest first, each length in lex order."""
    for length in range(depth + 1):
        for bits in itertools.product("01", repeat=length):
            yield "".join(bits)


def assert_code_conditions(marking: BlockMarking, ambient: TreeSource, pruned: bool = False):
    """Conditions 1-4 of a subset code inside an ambient tree, read off the marks alone.

    1 every mark's parent is marked; 2 every mark is a member of ambient;
    3 no level is empty; 4 (pruned only) every mark below the block has a
    marked child.
    """
    for length, level in enumerate(marking.levels):
        assert level, f"condition 3: level {length} is empty"
        for t in level:
            assert not length or t[:-1] in marking.levels[length - 1], f"condition 1 at {t!r}"
            assert ambient.member(t), f"condition 2 at {t!r}"
            if pruned and length < marking.block:
                assert {t + "0", t + "1"} & marking.levels[length + 1], f"condition 4 at {t!r}"


def marking_of_source(src: TreeSource, block: int, budget=None) -> BlockMarking:
    """The tree of src through block: levels_of_source, checked by the constructor."""
    levels = levels_of_source(src, block, budget)
    return BlockMarking(block, levels)


def tree_of(strings, depth: int) -> BlockMarking:
    """The strings, cut at depth, and all their initial segments."""
    levels = [set() for _ in range(depth + 1)]
    for s in strings:
        s = s[:depth]
        for length in range(len(s) + 1):
            levels[length].add(s[:length])
    return BlockMarking(depth, levels)


def pruned(t: BlockMarking) -> BlockMarking:
    """Exactly the marks with an extension at the marking's block."""
    return BlockMarking(t.block, prefix_closure(t.marked_at(t.block), t.block))


def cyclic_automaton(rng: random.Random, states: int = 7) -> dict:
    """Accepting states with random transitions, a third of them sending one bit to a dead sink."""
    dead = states
    table = []
    for _ in range(states):
        row = [rng.randrange(states), rng.randrange(states)]
        if rng.random() < 1 / 3:
            row[rng.randrange(2)] = dead
        table.append(row)
    table.append([dead, dead])
    return {"kind": "automatic", "transitions": table, "accepting": list(range(states)), "start": 0}


def grown_source(t: BlockMarking) -> TreeSource:
    """Extend a truncation to an infinite tree: full growth above each leaf."""
    live = pruned(t)
    d = t.block

    def member(s: str) -> bool:
        return s in t.marked_at(len(s)) if len(s) <= d else s[:d] in t.marked_at(d)

    def extendible(s: str) -> bool:
        return s in live.marked_at(len(s)) if len(s) <= d else s[:d] in t.marked_at(d)

    def count(tau: str, m: int) -> int:
        if m <= d:
            return sum(1 for x in t.marked_at(m) if x.startswith(tau))
        if len(tau) >= d:
            return (1 << (m - len(tau))) if member(tau) else 0
        leaves = sum(1 for x in t.marked_at(d) if x.startswith(tau))
        return leaves << (m - d)

    return TreeSource(member=member, extendible=extendible, extension_count=count, name="grown")


def random_marking(
    rng: random.Random,
    n: int = 0,
    max_block: int = 6,
    allow_empty_top: bool = True,
    budget: int = ENUM_BUDGET,
) -> BlockMarking:
    """A marking whose literal cover enumeration stays under the budget."""
    while True:
        m = rng.randint(max(1, n), max(max_block, n + 1))
        density = rng.uniform(0.15, 0.85)
        top = {format(v, f"0{m}b") for v in range(1 << m) if rng.random() < density}
        if allow_empty_top and rng.random() < 0.08:
            top = set()
        levels = [set() for _ in range(m + 1)]
        levels[m] = top
        for length in range(m, 0, -1):
            levels[length - 1] = {s[:-1] for s in levels[length]}
        levels[0].add("")
        # occasional marked nodes with no deepest-level descendant
        for _ in range(rng.randint(0, 3)):
            length = rng.randint(1, m)
            s = format(rng.randrange(1 << length), f"0{length}b")
            for j in range(1, length + 1):
                levels[j].add(s[:j])
        marking = BlockMarking(m, tuple(frozenset(level) for level in levels))
        if count_covers(marking, n) <= budget:
            return marking
