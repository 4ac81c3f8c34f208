"""Memoized spec oracles answer the same in any order of queries.

An automatic source memoizes the run states of recent strings, so that a
probe whose parent it has seen costs one transition.  Every answer must
still equal a walk of the automaton from its start state, whatever the
order of the queries, and validation must not depend on the memo.  An
explicit source finds extendibility on demand and remembers which marks
reach its depth; its answers must equal the prefixes of its deepest
members, and its errors must not depend on the order of the list.
"""

import json
import random
import time

import pytest

from helpers_markings import cyclic_automaton, strings_through

from cgmt import measure, trees, treespec
from cgmt.cli import main
from cgmt.core import CgmtError, ParseError
from cgmt.trees import grow
from cgmt.treespec import NotPrefixClosed, spec_from_obj


def layered_automaton(rng: random.Random, widths=(1, 2, 4, 4, 4, 4)) -> dict:
    """Layers of accepting states feeding a full sink, with some bits to a dead sink."""
    first = [sum(widths[:i]) for i in range(len(widths) + 2)]
    full_sink = first[len(widths)]
    dead = full_sink + 1
    table: list[list[int]] = []
    for i, width in enumerate(widths):
        nxt = list(range(first[i + 1], first[i + 2])) if i + 1 < len(widths) else [full_sink]
        spare = [dead if rng.random() < 1 / 4 else rng.choice(nxt) for _ in range(2 * width - len(nxt))]
        targets = nxt + spare
        rng.shuffle(targets)
        table += [targets[2 * j : 2 * j + 2] for j in range(width)]
    table += [[full_sink, full_sink], [dead, dead]]
    return {"kind": "automatic", "transitions": table, "accepting": list(range(dead)), "start": 0}


class FreshWalk:
    """The three oracles computed from the start state on every call."""

    def __init__(self, spec: dict):
        self.table = spec["transitions"]
        self.accepting = set(spec["accepting"])
        self.start = spec["start"]
        # live: accepting states with an infinite run that stays accepting
        live = set(self.accepting)
        while True:
            kept = {q for q in live if self.table[q][0] in live or self.table[q][1] in live}
            if kept == live:
                break
            live = kept
        self.live = live

    def states(self, sigma: str) -> list[int]:
        """The run's states on the prefixes of sigma, shortest first."""
        run = [self.start]
        for bit in sigma:
            run.append(self.table[run[-1]][int(bit)])
        return run

    def state(self, sigma: str) -> int:
        return self.states(sigma)[-1]

    def member(self, sigma: str) -> bool:
        return all(q in self.accepting for q in self.states(sigma))

    def extendible(self, sigma: str) -> bool:
        return self.member(sigma) and self.state(sigma) in self.live

    def extension_count(self, tau: str, m: int) -> int:
        if m < len(tau) or not self.member(tau):
            return 0
        counts = {self.state(tau): 1}
        for _ in range(m - len(tau)):
            nxt: dict[int, int] = {}
            for q, ways in counts.items():
                for r in self.table[q]:
                    if r in self.accepting:
                        nxt[r] = nxt.get(r, 0) + ways
            counts = nxt
        return sum(counts.values())


def query_strings(rng: random.Random, fresh: FreshWalk) -> list[str]:
    """Siblings, deeper probes, jumps back to short strings and long strings, interleaved."""
    out: list[str] = []
    level = [""]
    for _ in range(9):
        children = []
        for sigma in level:
            for child in (sigma + "0", sigma + "1"):
                out.append(child)
                if fresh.member(child):
                    children.append(child)
        level = rng.sample(children, min(len(children), 24))
        out += ["".join(rng.choice("01") for _ in range(rng.randrange(4))) for _ in range(5)]
    path = ""
    for _ in range(300):
        path += rng.choice("01")
        out.append(path)
        if rng.random() < 0.1:
            out.append(path[: rng.randrange(len(path) + 1)])
    out += ["".join(rng.choice("01") for _ in range(rng.randrange(100, 400))) for _ in range(10)]
    return out


@pytest.mark.parametrize("memo_chars", [None, 40])
@pytest.mark.parametrize("kind", ["layered", "cyclic"])
def test_resumed_runs_equal_fresh_runs(monkeypatch, kind, memo_chars):
    # a 40-character memo is cleared every few probes and is shorter than most strings
    if memo_chars is not None:
        monkeypatch.setattr(treespec, "_RUN_MEMO_CHARS", memo_chars)
    draw = layered_automaton if kind == "layered" else cyclic_automaton
    for seed in range(6):
        rng = random.Random(seed)
        spec = draw(rng)
        src = spec_from_obj(spec)
        fresh = FreshWalk(spec)
        for sigma in query_strings(rng, fresh):
            assert src.member(sigma) == fresh.member(sigma), sigma
            assert src.extendible(sigma) == fresh.extendible(sigma), sigma
            m = len(sigma) + rng.randrange(6)
            assert src.extension_count(sigma, m) == fresh.extension_count(sigma, m), (sigma, m)


def prefix_closed_automaton(rng: random.Random) -> dict:
    """Random transitions from state 0; rejecting states only reach rejecting ones.

    Drawn again until level 11 is neither empty nor full.
    """
    while True:
        states = rng.randint(3, 9)
        rejecting = [q for q in range(1, states) if rng.random() < 0.3]
        table = [
            [rng.choice(rejecting) if q in rejecting else rng.randrange(states) for _ in "01"]
            for q in range(states)
        ]
        accepting = [q for q in range(states) if q not in rejecting]
        spec = {"kind": "automatic", "transitions": table, "accepting": accepting, "start": 0}
        if 0 < len(grow(FreshWalk(spec).member, [frozenset({""})], 11)[11]) < 1 << 11:
            return spec


@pytest.mark.parametrize("kind", ["layered", "prefix-closed"])
def test_extension_counts_equal_enumeration_in_any_order(kind):
    # the count rows grow on demand and only some are kept, so ask in a
    # shuffled order: lengths jumping back, strings of all lengths (members
    # or not), deep counts from states other than the start, and on odd
    # seeds the start state's column grown far before any of them
    draw = layered_automaton if kind == "layered" else prefix_closed_automaton
    depth, re_entries = 11, 0
    for seed in range(8):
        rng = random.Random(2000 + seed)
        spec = draw(rng)
        src = spec_from_obj(spec)
        fresh = FreshWalk(spec)
        levels = grow(fresh.member, [frozenset({""})], depth)
        queries = [(tau, m) for tau in strings_through(5) for m in range(depth + 1)]
        members = [t for level in levels[1:] for t in level]
        queries += [(tau, len(tau) + rng.randrange(40, 200)) for tau in rng.sample(members, min(12, len(members)))]
        rng.shuffle(queries)
        if seed % 2:
            queries.insert(0, ("", 300))
        for tau, m in queries:
            if m <= depth:
                want = sum(t.startswith(tau) for t in levels[m])
            else:
                want = fresh.extension_count(tau, m)
            assert src.extension_count(tau, m) == want, (seed, tau, m)
            re_entries += bool(tau) and fresh.member(tau) and fresh.state(tau) == spec["start"]
    assert kind == "layered" or re_entries > 0


@pytest.mark.parametrize("bad", ["01x", "012", "01 ", "01\n", "0x1", "x"])
def test_non_binary_string_raises_after_its_parent(bad):
    # the parent of each bad string, or its binary prefix, is asked first
    src = spec_from_obj(layered_automaton(random.Random(1)))
    head = bad[:-1] if set(bad[:-1]) <= {"0", "1"} else bad[:1]
    for oracle in (src.member, src.extendible, lambda s: src.extension_count(s, 8)):
        oracle(head)
        with pytest.raises(CgmtError):
            oracle(bad)


@pytest.mark.parametrize("bad", [None, 5, ("0", "1"), ["0"], b"01"])
def test_non_string_raises(bad):
    src = spec_from_obj(cyclic_automaton(random.Random(2)))
    src.member("")
    src.member("0")
    for oracle in (src.member, src.extendible):
        with pytest.raises(CgmtError):
            oracle(bad)


def test_prefix_closure_witness_is_the_least_violation_by_enumeration():
    # a least violation passes through distinct states, so it is at most
    # as long as the automaton has states
    rng = random.Random(1301)
    for _ in range(300):
        states = rng.randint(1, 6)
        table = [[rng.randrange(states), rng.randrange(states)] for _ in range(states)]
        accepting = [q for q in range(states) if rng.random() < 0.6]
        fresh = FreshWalk({"transitions": table, "accepting": accepting, "start": 0})
        least = next(
            (s for s in strings_through(states)
             if fresh.state(s) in fresh.accepting and not fresh.member(s)),
            None,
        )
        doc = {"kind": "automatic", "transitions": table, "accepting": accepting, "start": 0}
        if least is None:
            spec_from_obj(doc)
        else:
            with pytest.raises(NotPrefixClosed) as info:
                spec_from_obj(doc)
            assert info.value.witness == least, (table, accepting)


# -- explicit specs ---------------------------------------------------------------


def seeded_explicit_tree(rng: random.Random, depth: int) -> set[str]:
    """A random finite tree through depth with dead branches: each child kept with probability 0.6."""
    members = {""}
    frontier = [""]
    for _ in range(depth):
        frontier = [p + b for p in frontier for b in "01" if rng.random() < 0.6]
        members.update(frontier)
    return members


def own_closure(members: set[str], depth: int) -> set[str]:
    """The prefixes of the members of length depth: the nodes that reach the block."""
    return {t[:k] for t in members if len(t) == depth for k in range(depth + 1)}


def test_explicit_extendibility_in_any_order_equals_own_closure():
    # shuffled and repeated queries, past the depth and off the tree, so that
    # answers come from the memo of marks found to reach or not to reach
    dead_queries = 0
    for seed in range(40):
        rng = random.Random(3100 + seed)
        depth = rng.randint(0, 9)
        members = seeded_explicit_tree(rng, depth)
        live = own_closure(members, depth)
        listed = sorted(members)
        rng.shuffle(listed)
        src = spec_from_obj({"kind": "explicit", "depth": depth, "members": listed})
        queries = list(strings_through(depth + 2)) + rng.choices(sorted(members), k=len(members))
        rng.shuffle(queries)
        for sigma in queries:
            assert src.extendible(sigma) == (sigma in live), (seed, sigma)
            dead_queries += sigma in members and sigma not in live
        for bad in ("0x", "2", "01 ", None, ["0"]):
            with pytest.raises(CgmtError):
                src.extendible(bad)
    assert dead_queries > 0


def test_explicit_extendibility_on_a_deep_comb_is_linear():
    # a spine of 2,000 ones, each spine node with a dead 0-child that the
    # leftmost descent tries first; asked root first, a query that did not
    # remember the marks found to reach the depth would walk the rest of the
    # spine again each time
    depth = 2000
    spine = ["1" * k for k in range(depth + 1)]
    teeth = ["1" * k + "0" for k in range(depth - 1)]
    src = spec_from_obj({"kind": "explicit", "depth": depth, "members": teeth + spine})
    rest = teeth + ["1" * depth + "1", "0" * 5]
    random.Random(3200).shuffle(rest)
    queries = spine + rest
    live = set(spine)
    start = time.monotonic()
    for sigma in queries:
        assert src.extendible(sigma) == (sigma in live), len(sigma)
    assert time.monotonic() - start < 2.0


def test_explicit_specs_do_not_build_the_prefix_closure(monkeypatch, tmp_path, capsys):
    # extendibility is found on demand; the brute-force oracle in measure
    # keeps prefix_closure, so both bindings are patched
    def refuse(*args, **kwargs):
        raise AssertionError("prefix_closure called")

    monkeypatch.setattr(trees, "prefix_closure", refuse)
    monkeypatch.setattr(measure, "prefix_closure", refuse)
    members = seeded_explicit_tree(random.Random(3303), 8)  # 66 members, 10 of them dead
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"kind": "explicit", "depth": 8, "members": sorted(members)}))
    src = treespec.parse_spec(str(path))
    assert src.extendible("") and src.member("")
    opens = tmp_path / "opens.json"
    opens.write_text(json.dumps([[""]]))
    assert main(["baire", "--tree", str(path), "--opens", str(opens), "--depth", "8"]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]["path"]) == 8


@pytest.mark.parametrize("members, depth, kind, message", [
    # the first overlong member in list order, not the longest nor the least
    (["", "0", "111", "0000", "11"], 2, ParseError, "member '111' longer than depth 2"),
    # the least missing parent: the shortest failing level, then lexicographic order
    (["", "1", "11", "0100", "10", "001", "1111", "000"], 4, NotPrefixClosed,
     "not prefix-closed at '000'"),
    # a non-binary mark before a longer missing parent
    (["", "0", "1", "0x", "01", "110"], 3, ParseError,
     "condition (0) violated at '0x': mark is not a binary string of length 2"),
    # a non-binary mark and a missing parent on one level: the least by string order
    (["", "1", "11", "1x", "00"], 2, NotPrefixClosed, "not prefix-closed at '00'"),
    (["", "1", "10", "0y", "1a"], 2, ParseError,
     "condition (0) violated at '0y': mark is not a binary string of length 2"),
])
def test_explicit_errors_do_not_depend_on_list_order(members, depth, kind, message):
    rng = random.Random(3400)
    for _ in range(12):
        with pytest.raises(ParseError) as info:
            spec_from_obj({"kind": "explicit", "depth": depth, "members": members})
        assert type(info.value) is kind and str(info.value) == message
        members = rng.sample(members, len(members))
        if "longer" in message:
            first = next(t for t in members if len(t) > depth)
            message = f"member {first!r} longer than depth {depth}"
