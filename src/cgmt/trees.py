"""Closed-set presentations and the one in-memory form of a finite tree.

A closed subset of Cantor space is presented as a TreeSource: a pure
membership callback on its tree of finite prefixes, optionally with an
extendibility callback (does the node lie on an infinite path), a
closed-form per-level count and a state naming each member's subtree.
Every finite tree in memory is a BlockMarking: one frozenset of marked
strings per length, whose constructor is the one place a finite tree's
shape is checked, for certificates and explicit specs alike; it names the
least offending mark, so its errors do not depend on set order.  grow is
the one place levels are grown out of a membership oracle; what it grows
is a tree by construction and is not checked again.  quotient_of_source
grows one representative per (state, length) class instead, from the
root or from the top level of a tree already grown, and deepen_quotient
continues one deeper; without states, every member is a class.
TreeSource.pruned is the one pruned ambient: the nodes on an infinite
path.

A subset inside an ambient tree is a BlockMarking too: its conditions are
a tree shape (the constructor), membership of every mark in the ambient
tree, and nothing else.  Membership holds by construction, since every
code's marks are grown from its ambient source by the oracles, and tests
check it with assert_code_conditions.  Levels may be empty: a marking
that dies below its block is still a finite tree, and its values say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .core import BudgetExceeded, CgmtError, check_bits, compatible


class NotExtendible(CgmtError):
    """A path construction hit a node with no extendible child."""


class CodeViolation(CgmtError):
    """A finite tree violates the marking discipline.

    condition: 0 shape (level count, binary marks of their level's
    length), 1 prefix-closure.  witness: offending mark (or block rendered
    as a decimal string, for condition 0).
    """

    def __init__(self, condition: int, witness: str, detail: str):
        super().__init__(f"condition ({condition}) violated at {witness!r}: {detail}")
        self.condition = condition
        self.witness = witness


class ShapeViolation(CodeViolation):
    def __init__(self, witness, detail: str):
        super().__init__(0, str(witness), detail)


class Condition1Violation(CodeViolation):
    def __init__(self, witness: str):
        super().__init__(1, witness, "marked string with unmarked parent")


# -- tree sources -------------------------------------------------------------


@dataclass(frozen=True)
class TreeSource:
    """Oracle presentation of a tree of binary strings.

    member must be pure and prefix-closed (spot-checked only).  extendible,
    when present, answers whether the node has arbitrarily long extensions;
    operations that need it say so and fail without it.  extension_count,
    when present, gives the exact number of length-m members extending a
    string without enumeration (deep mass computations need it).

    state, when present, names a hashable state of each member, and must
    keep this contract: for two members of the same length with equal
    states, each child is a member for both or for neither, and the members
    among the children have equal states.  Members of one length with equal
    states then have equal subtrees (the Myhill-Nerode quotient of the
    tree), so value-level work can weigh one string per (state, length)
    class.  Like extension_count, state is presentation data at the value
    level: it never consults extendible.  It is asked only about members.
    pruned keeps state: members of one length with equal states have equal
    subtrees, so the same nodes of those subtrees lie on infinite paths and
    the pruned subtrees are equal too.
    """

    member: Callable[[str], bool]
    extendible: Optional[Callable[[str], bool]] = None
    extension_count: Optional[Callable[[str, int], int]] = None
    name: str = "tree"
    state: Optional[Callable[[str], Hashable]] = None

    def require_extendible(self) -> Callable[[str], bool]:
        if self.extendible is None:
            raise NotExtendible(f"{self.name}: no extendibility callback")
        return self.extendible

    def pruned(self) -> "TreeSource":
        """The nodes on an infinite path, with extendibility as both oracles and the same states."""
        extendible = self.require_extendible()
        return TreeSource(
            member=extendible, extendible=extendible, name=f"{self.name}:pruned", state=self.state
        )


def full_tree() -> TreeSource:
    def count(tau: str, m: int) -> int:
        return 1 << (m - len(tau)) if m >= len(tau) else 0

    return TreeSource(
        member=lambda s: True,
        extendible=lambda s: True,
        extension_count=count,
        name="full",
        state=lambda s: 0,
    )


def rooted_tree(root: str) -> TreeSource:
    """Prefixes of root plus everything extending root."""
    check_bits(root)

    def member(s: str) -> bool:
        return compatible(s, root)

    def count(tau: str, m: int) -> int:
        if m < len(tau) or not member(tau):
            return 0
        base = max(len(tau), len(root))
        return 1 << (m - base) if m >= base else 1

    def state(s: str) -> bool:
        # below len(root) a level has one member; from there on every subtree is full
        return len(s) >= len(root)

    name = {"0": "branch-left", "1": "branch-right"}.get(root, f"rooted:{root}")
    return TreeSource(
        member=member, extendible=member, extension_count=count, name=name, state=state
    )


def dyadic_tree(p: int, k: int) -> TreeSource:
    """The first p length-k strings in lex order, full above, measure p/2^k."""
    if not (0 < p <= 1 << k):
        raise CgmtError(f"dyadic tree needs 0 < p <= 2^k, got p={p}, k={k}")

    def member(s: str) -> bool:
        if len(s) >= k:
            return int(s[:k] or "0", 2) < p
        # survives iff the leftmost length-k extension is selected
        return (int(s, 2) << (k - len(s)) < p) if s else True

    def count(tau: str, m: int) -> int:
        if m < len(tau) or not member(tau):
            return 0
        if len(tau) >= k:
            return 1 << (m - len(tau))
        if m >= k:
            # selected length-k ranks extending tau, full above
            lo = int(tau, 2) << (k - len(tau)) if tau else 0
            hi = min(lo + (1 << (k - len(tau))), p)
            return (hi - lo) << (m - k)
        # length-m members extending tau: ranks whose leftmost fill is selected
        lo = int(tau, 2) << (m - len(tau)) if tau else 0
        hi = min(lo + (1 << (m - len(tau))), -(-p // (1 << (k - m))))
        return max(hi - lo, 0)

    def state(s: str) -> bool:
        # whether every length-k extension is selected, making the subtree full;
        # a level has at most one member whose extensions straddle p
        return len(s) >= k or (int(s or "0", 2) + 1) << (k - len(s)) <= p

    return TreeSource(
        member=member, extendible=member, extension_count=count, name=f"dyadic:{p}/2^{k}",
        state=state,
    )


def grow(
    member: Callable[[str], bool],
    levels: list[frozenset[str]],
    depth: int,
    budget: Optional[int] = None,
) -> list[frozenset[str]]:
    """Grow levels in place through depth by child expansion, and return them.

    levels holds the marks of lengths 0..len(levels)-1 and must not be
    empty.  Each new level is the children of the last one that member
    accepts; member is asked about nothing else, so the grown levels are
    prefix-closed even against a sloppy callback.  The count of strings
    held through depth, root included, is checked against the budget as
    each string is found; past it, BudgetExceeded is raised and levels
    keeps only its complete levels.
    """
    held = sum(len(level) for level in levels[: depth + 1])
    _check_budget(held, budget, depth)
    while len(levels) <= depth:
        grown = []
        for s in levels[-1]:
            for c in (s + "0", s + "1"):
                if member(c):
                    grown.append(c)
                    held += 1
                    _check_budget(held, budget, depth)
        levels.append(frozenset(grown))
    return levels


def _check_budget(held: int, budget: Optional[int], depth: int) -> None:
    if budget is not None and held > budget:
        raise BudgetExceeded(f"more than {budget} strings through block {depth}")


def levels_of_source(
    src: TreeSource, depth: int, budget: Optional[int] = None
) -> list[frozenset[str]]:
    """Members per level 0..depth, grown from the root (see grow)."""
    return grow(src.member, [frozenset({""} if src.member("") else ())], depth, budget)[: depth + 1]


@dataclass(frozen=True)
class StateQuotient:
    """A tree from a start length through a depth, one node per (state, length) class.

    classes maps each member of length start to its class there.  kids[i][k]
    holds, for class k of length start + i < depth, the class numbers at the
    next length of its two children, -1 for a child that is not a member.
    multiplicity[i][k] is the number of members class k stands for; a level
    with no class is empty.  reps holds a representative of each class of
    the deepest length, and held the strings the quotient stands for
    through it, root included: deepen_quotient continues from them.
    """

    kids: tuple[tuple[tuple[int, int], ...], ...]
    multiplicity: tuple[tuple[int, ...], ...]
    start: int
    classes: dict[str, int]
    reps: tuple[str, ...]
    held: int


def quotient_of_source(
    src: TreeSource,
    depth: int,
    budget: Optional[int] = None,
    levels: Optional[Sequence[frozenset[str]]] = None,
) -> StateQuotient:
    """The state quotient of src below a tree's last level through depth.

    levels are the levels 0..start of a tree grown from src, start <= depth;
    by default the root alone, if it is a member.  The members of length
    start are grouped by state, and below them only member and state are
    asked.  Each class keeps the first member found as its representative,
    and only a representative's children are asked about: by the state
    contract the children of every member of the class fall in the same
    classes.  The count of strings held through depth, root included, is
    the strings of levels plus the multiplicities below them, the same count
    grow reaches; it is checked against the budget as each level is added.
    A source without states is its own quotient: each member is the state
    of itself, a class of one.
    """
    member, state = src.member, src.state or (lambda s: s)
    if levels is None:
        levels = (frozenset({""} if member("") else ()),)
    held = sum(map(len, levels))
    _check_budget(held, budget, depth)
    classes: dict[str, int] = {}
    ids: dict[Hashable, int] = {}
    reps: list[str] = []
    mult: list[int] = []
    for t in levels[-1]:
        k = classes[t] = ids.setdefault(state(t), len(reps))
        if k == len(reps):
            reps.append(t)
            mult.append(0)
        mult[k] += 1
    top = StateQuotient((), (tuple(mult),), len(levels) - 1, classes, tuple(reps), held)
    return deepen_quotient(src, top, depth, budget)


def deepen_quotient(
    src: TreeSource, quotient: StateQuotient, depth: int, budget: Optional[int] = None
) -> StateQuotient:
    """quotient, a quotient of src, continued through depth (see quotient_of_source).

    Only the representatives of the deepest classes have their children
    asked about, and the budget is checked as each level is added.
    """
    member, state = src.member, src.state or (lambda s: s)
    kids, multiplicity = list(quotient.kids), list(quotient.multiplicity)
    reps, mult, held = quotient.reps, multiplicity[-1], quotient.held
    for _ in range(depth - quotient.start - len(kids)):
        ids: dict[Hashable, int] = {}
        next_reps: list[str] = []
        next_mult: list[int] = []
        level_kids = []
        for rep, mu in zip(reps, mult):
            pair = []
            for c in (rep + "0", rep + "1"):
                k = -1
                if member(c):
                    k = ids.setdefault(state(c), len(next_reps))
                    if k == len(next_reps):
                        next_reps.append(c)
                        next_mult.append(0)
                    next_mult[k] += mu
                pair.append(k)
            level_kids.append(tuple(pair))
        held += sum(next_mult)
        _check_budget(held, budget, depth)
        kids.append(tuple(level_kids))
        multiplicity.append(tuple(next_mult))
        reps, mult = tuple(next_reps), tuple(next_mult)
    return StateQuotient(
        tuple(kids), tuple(multiplicity), quotient.start, quotient.classes, tuple(reps), held
    )


# -- finite trees ---------------------------------------------------------------


@dataclass(frozen=True)
class BlockMarking:
    """A finite tree: its marked strings grouped by length, through one block.

    levels[L] holds the marks of length L, for L = 0..block; block -1 is
    the empty prefix, which carries no information at all.  The constructor
    is the one shape check of a finite tree: one level per length, every
    mark a binary string of its level's length, every mark's parent marked.
    A failure names the least offending mark: the shortest failing level
    first, then lexicographic order.  Any level may be empty (a restriction
    to a node, or a tree that dies below its block), and every level past
    an empty one is then empty too.
    """

    block: int
    levels: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        try:
            levels = tuple(frozenset(level) for level in self.levels)
        except TypeError as exc:
            raise ShapeViolation(self.block, f"levels are not sets of marks: {exc}") from exc
        object.__setattr__(self, "levels", levels)
        if len(levels) != self.block + 1:
            raise ShapeViolation(self.block, f"{len(levels)} levels for block {self.block}")
        for length, level in enumerate(levels):
            above = levels[length - 1] if length else frozenset()
            # a marked parent is already checked binary, so the last bit is all that is new
            bad = [t for t in level if not isinstance(t, str) or len(t) != length
                   or (length and (t[-1] not in "01" or t[:-1] not in above))]
            if bad:
                t = min(bad, key=str)  # the least offender, whatever the set order
                if not isinstance(t, str) or len(t) != length or t.strip("01"):
                    raise ShapeViolation(t, f"mark is not a binary string of length {length}")
                raise Condition1Violation(t)

    @classmethod
    def derived(cls, block: int, levels: tuple[frozenset[str], ...]) -> "BlockMarking":
        """A marking the library grew or derived, without the shape check.

        Only for levels whose shape is already known: grown by grow, built
        from a checked marking's levels by a step that keeps the shape (a
        cut, a filter that keeps parents with their children), or checked
        by an input's own parser.  Each caller says which in a comment.
        Everything else from outside goes through the constructor.
        """
        marking = object.__new__(cls)
        object.__setattr__(marking, "block", block)
        object.__setattr__(marking, "levels", levels)
        return marking

    def marked_at(self, length: int) -> frozenset[str]:
        if not 0 <= length <= self.block:
            return frozenset()
        return self.levels[length]

    def cut(self, block: int) -> "BlockMarking":
        """The same marks through a block no deeper than this one."""
        if not -1 <= block <= self.block:
            raise ShapeViolation(block, f"the marking records levels only to block {self.block}")
        return BlockMarking.derived(block, self.levels[: block + 1])

    def restrict(self, tau: str) -> "BlockMarking":
        check_bits(tau)
        # the marks compatible with tau, each with its parent: below |tau| at
        # most tau's own prefix, from |tau| on the marks extending tau
        head = tuple(level & {tau[:length]} for length, level in enumerate(self.levels[: len(tau)]))
        tail = tuple(frozenset(s for s in lv if s.startswith(tau)) for lv in self.levels[len(tau) :])
        return BlockMarking.derived(self.block, head + tail)

    def to_source(self) -> TreeSource:
        """Membership to the block; extendible means reaching it.

        Extendibility is found on demand, by a leftmost descent through the
        levels that remembers the marks known to reach the block and the
        marks known not to.  On a tree whose every mark reaches the block a
        query costs at most block lookups, and all queries together cost at
        most the marks, each of which is settled once.
        """
        depth, levels = self.block, self.levels
        reach: set[str] = set()  # marks known to reach the block
        dead: set[str] = set()  # marks known not to

        def member(s: str) -> bool:
            check_bits(s)
            return s in self.marked_at(len(s))

        def extendible(s: str) -> bool:
            check_bits(s)
            if len(s) > depth or s not in levels[len(s)] or s in dead:
                return False
            path = [s]  # marks from s down, each a child of the one before
            while path:
                top = path[-1]
                if len(top) == depth or top in reach:
                    reach.update(path)
                    return True
                below = levels[len(top) + 1]
                for child in (top + "0", top + "1"):
                    if child in below and child not in dead:
                        path.append(child)
                        break
                else:
                    dead.add(top)
                    path.pop()
            return False

        def count(tau: str, m: int) -> int:
            if m < len(tau):
                return 0
            return sum(1 for s in self.marked_at(m) if s.startswith(tau))

        return TreeSource(
            member=member, extendible=extendible, extension_count=count, name=f"truncated:{depth}"
        )


def prefix_closure(top: Iterable[str], depth: int) -> tuple[frozenset[str], ...]:
    """Per length 0..depth, the prefixes of the length-depth strings in top."""
    levels = [frozenset(top)]
    for _ in range(depth):
        levels.append(frozenset(sigma[:-1] for sigma in levels[-1]))
    return tuple(reversed(levels))


# -- paths ---------------------------------------------------------------------------


def leftmost_extension_path(src: TreeSource, stem: str, length: int) -> str:
    """The first length bits of the leftmost infinite path through stem.

    stem must be extendible and no longer than length; below it the path
    takes the 0-child whenever that child is extendible.
    """
    ext = src.require_extendible()
    if not ext(stem):
        raise NotExtendible(f"{src.name}: {stem!r} is not extendible")
    path = stem
    while len(path) < length:
        if ext(path + "0"):
            path += "0"
        elif ext(path + "1"):
            path += "1"
        else:
            raise NotExtendible(f"{src.name}: dead end below {stem!r}")
    return path
