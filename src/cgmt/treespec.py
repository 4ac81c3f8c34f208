"""Tree-spec documents: JSON descriptions of closed sets, parsed to sources.

The JSON document is the declarative form: spec_from_obj checks its
fields and builds the TreeSource it describes, with no stage between.
parse_spec reads a --tree value: a builtin name, or the path of a file
that holds one JSON document.

Three kinds are accepted:

  builtin    {"kind": "builtin", "name": "full" | "branch-left" |
              "branch-right" | "dyadic(p/q)"} with q a power of two
  explicit   {"kind": "explicit", "depth": D, "members": [...]}, D at most
              MAX_STAGES (checked before any level is built), the list
              prefix-closed as written (checked by the BlockMarking
              constructor, which names the least offending member; an
              overlong member is named first in list order); members are
              grouped by length with one sort, each level a frozenset;
              extendibility means reaching the truncation depth, found on
              demand by BlockMarking.to_source
  automatic  {"kind": "automatic", "transitions": [[t0, t1], ...],
              "accepting": [...], "start": 0}, acceptance prefix-closed
              (no accepted string has a rejected prefix; the least
              violation in length-lex order is reported); extendibility
              means the run state reaches a cycle that stays accepting

Every integer field (depth, start, accepting states, transition targets)
refuses JSON true and false, which Python counts as integers.

Builtins and automatic specs carry exact closed-form level counts, so
deep mass computations work without enumeration.  An automatic spec
grows its count recursion one row (one count per state) per length.  It
keeps every row only through the longest length asked from a state other
than the start; beyond that it keeps the start state's counts as one
column and the last row grown, so a path to depth D holds O(D^2) bits
whatever the number of states.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import groupby
from typing import Sequence

from .construct import MAX_STAGES
from .core import ParseError, check_bits, read_input, shown
from .trees import (
    BlockMarking,
    Condition1Violation,
    ShapeViolation,
    TreeSource,
    dyadic_tree,
    full_tree,
    rooted_tree,
)


class NotPrefixClosed(ParseError):
    """A listed or accepted string whose parent is missing."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"not prefix-closed at {witness!r}")


class UnknownBuiltin(ParseError):
    """A builtin tree name that names no builtin."""


BUILTIN_NAMES = ("full", "branch-left", "branch-right", "dyadic(p/q)")

# characters an automatic source's run-state memo holds before it is cleared:
# a few levels of short strings, or a few hundred strings along a deep path
_RUN_MEMO_CHARS = 1 << 20


def _parse_dyadic(text: str) -> tuple[int, int]:
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad dyadic constant {shown(text)}") from exc
    if not 0 < c <= 1:
        raise ParseError(f"dyadic constant must be in (0, 1], got {shown(c)}")
    if c.denominator & (c.denominator - 1):
        raise ParseError(f"dyadic constant needs a power-of-two denominator, got {shown(c)}")
    k = c.denominator.bit_length() - 1
    return c.numerator, k


def _builtin_source(name: str) -> TreeSource:
    if name == "full":
        return full_tree()
    if name == "branch-left":
        return rooted_tree("0")
    if name == "branch-right":
        return rooted_tree("1")
    if name.startswith("dyadic(") and name.endswith(")"):
        p, k = _parse_dyadic(name[len("dyadic(") : -1])
        return dyadic_tree(p, k)
    # the name is not echoed: a spec document may hold a long one
    raise UnknownBuiltin(f"unknown builtin name; known: {', '.join(BUILTIN_NAMES)}")


def _explicit_source(members: Sequence[str], depth: int) -> TreeSource:
    levels = [frozenset()] * (depth + 1)
    by_length = sorted(members, key=len)
    if by_length and len(by_length[-1]) > depth:
        first = next(s for s in members if len(s) > depth)
        raise ParseError(f"member {shown(first)} longer than depth {depth}")
    for length, group in groupby(by_length, key=len):
        levels[length] = frozenset(group)
    try:
        return BlockMarking(depth, levels).to_source()
    except Condition1Violation as exc:
        raise NotPrefixClosed(exc.witness) from None
    except ShapeViolation as exc:
        raise ParseError(str(exc)) from None


def _automatic_source(
    transitions: Sequence[Sequence[int]],
    accepting: frozenset[int],
    start: int,
) -> TreeSource:
    states = len(transitions)
    if states == 0:
        raise ParseError("automatic spec needs at least one state")
    table = []
    for q, row in enumerate(transitions):
        if len(row) != 2:
            raise ParseError(f"state {q} needs exactly two transitions")
        for target in row:
            if not _is_int(target):
                raise ParseError(f"state {q} transition target {shown(target)} is not an integer")
            if not 0 <= target < states:
                raise ParseError(f"state {q} transition target {shown(target)} out of range")
        table.append((row[0], row[1]))
    for q in accepting:
        if not 0 <= q < states:
            raise ParseError(f"accepting state {shown(q)} out of range")
    if not 0 <= start < states:
        raise ParseError(f"start state {shown(start)} out of range")

    _check_prefix_closed(table, accepting, start)
    live = _live_states(table, accepting)
    # recent strings and their run states, all validated binary strings
    memo: dict[str, int] = {"": start}
    held = 0  # characters in the memo's keys

    def run(sigma: str) -> int:
        """The state sigma reaches; CgmtError if sigma is not a binary string.

        Probes along a path or across siblings resume from the memoized
        state of sigma[:-1] and check only the new last bit.  A miss checks
        all of sigma, walks from the start and memoizes the parent's state
        as well as sigma's.
        """
        nonlocal held
        if not isinstance(sigma, str):
            check_bits(sigma)
        q = memo.get(sigma)
        if q is not None:
            return q
        head = sigma[:-1]
        parent = memo.get(head) if sigma else None
        resumed = parent is not None
        if resumed:
            if sigma[-1] not in "01":
                check_bits(sigma)
        else:
            check_bits(sigma)
            parent = start
            for bit in head:
                parent = table[parent][bit == "1"]
        q = table[parent][sigma[-1] == "1"] if sigma else start
        if held > _RUN_MEMO_CHARS:
            memo.clear()
            held = 0
        if not resumed:
            memo[head] = parent
            held += len(head)
        memo[sigma] = q
        held += len(sigma)
        return q

    def member(sigma: str) -> bool:
        # prefix-closure is validated, so the final state decides
        return run(sigma) in accepting

    def extendible(sigma: str) -> bool:
        return run(sigma) in live

    # Row r holds, for each state q, the number of length-r continuations
    # from q that stay accepting.  Slot `states` is always 0: a rejecting
    # state and the slot itself point at it, so a row is one sum per pair.
    pairs = [table[q] if q in accepting else (states, states) for q in range(states + 1)]

    def step(row: list[int]) -> list[int]:
        return [row[zero] + row[one] for zero, one in pairs]

    rows = [[int(q in accepting) for q in range(states)] + [0]]  # full rows 0..len(rows)-1
    column = [rows[0][start]]  # the start state's counts through the front row's length
    front = rows[0]

    def paths(q: int, remaining: int) -> int:
        """Exact count of accepting length-remaining runs from q.

        The rows are grown on demand.  Full rows are kept only through the
        longest length asked from a state other than the start; past it
        only the start column and the last row grown are kept.
        """
        nonlocal front
        if q == start:
            while len(column) <= remaining:
                front = step(front)
                column.append(front[start])
            return column[remaining]
        while len(rows) <= remaining:
            rows.append(step(rows[-1]))
        return rows[remaining][q]

    def count(tau: str, m: int) -> int:
        # a non-member's run ends in a rejecting state, whose count is 0
        return paths(run(tau), m - len(tau)) if m >= len(tau) else 0

    # a member's run state fixes its subtree: the state contract holds
    return TreeSource(
        member=member, extendible=extendible, extension_count=count, name="automatic", state=run
    )


def _check_prefix_closed(table, accepting, start) -> None:
    """Exact check: no accepted string may have a rejected prefix.

    The least violation ends with a step from a rejecting state to an
    accepting one, taken from the least string that reaches the rejecting
    state.  One breadth-first search, children in bit order, reaches each
    state first by its least string in length-lex order and tries those
    steps in that order, so the first such step it meets ends the least
    violation.
    """
    seen = {start}
    frontier = [(start, "")]
    while frontier:
        nxt = []
        for q, sigma in frontier:
            for bit in "01":
                r = table[q][bit == "1"]
                if q not in accepting and r in accepting:
                    raise NotPrefixClosed(sigma + bit)
                if r not in seen:
                    seen.add(r)
                    nxt.append((r, sigma + bit))
        frontier = nxt


def _live_states(table, accepting) -> frozenset[int]:
    """Greatest fixpoint: accepting states with an all-accepting infinite run."""
    live = set(accepting)
    changed = True
    while changed:
        changed = False
        for q in sorted(live):
            if table[q][0] not in live and table[q][1] not in live:
                live.discard(q)
                changed = True
    return frozenset(live)


def _is_int(value) -> bool:
    # bool is an int subtype, but true and false are not JSON integers
    return isinstance(value, int) and not isinstance(value, bool)


def spec_from_obj(obj: dict) -> TreeSource:
    """The source a spec document describes; ParseError if it is malformed."""
    if not isinstance(obj, dict):
        raise ParseError(f"spec document must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "builtin":
        name = obj.get("name")
        if not isinstance(name, str):
            raise ParseError("builtin spec needs a name")
        return _builtin_source(name)
    if kind == "explicit":
        depth = obj.get("depth")
        members = obj.get("members")
        if not _is_int(depth) or depth < 0:
            raise ParseError(f"explicit spec needs a nonnegative integer depth, got {shown(depth)}")
        if depth > MAX_STAGES:
            # checked before any level is built: a level list per length is the cost
            raise ParseError(f"explicit spec depth {shown(depth)} is past the cap {MAX_STAGES}")
        if not isinstance(members, list) or not all(isinstance(s, str) for s in members):
            raise ParseError("explicit spec needs a list of member strings")
        return _explicit_source(members, depth)
    if kind == "automatic":
        transitions = obj.get("transitions")
        accepting = obj.get("accepting")
        if not isinstance(transitions, list) or not all(isinstance(r, list) for r in transitions):
            raise ParseError("automatic spec needs a transition table")
        if not isinstance(accepting, list) or not all(map(_is_int, accepting)):
            raise ParseError("automatic spec needs an accepting list of integer states")
        start = obj.get("start", 0)
        if not _is_int(start):
            raise ParseError(f"start must be an integer, got {shown(start)}")
        return _automatic_source(transitions, frozenset(accepting), start)
    named = shown(kind) if isinstance(kind, str) else f"of type {type(kind).__name__}"
    raise ParseError(f"unknown spec kind {named}; expected builtin, explicit, or automatic")


def parse_spec(path: str) -> TreeSource:
    """The tree a --tree value names: a builtin name, or the path of a JSON spec document.

    A file that exists wins over a builtin of the same name.
    """
    if not os.path.exists(path):
        # a name that is no builtin is a missing file; a malformed
        # dyadic(...) raises its own ParseError
        try:
            return _builtin_source(path)
        except UnknownBuiltin:
            raise ParseError(f"no such spec file: {path}") from None
    return read_input(path, "spec file", lambda text: spec_from_obj(json.loads(text)))
