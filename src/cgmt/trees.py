"""Closed-set presentations and subset-code validation.

A closed subset of Cantor space is presented as a TreeSource: a pure
membership callback on its tree of finite prefixes, optionally with an
extendibility callback (does the node lie on an infinite path), a
closed-form per-level count and a state naming each member's subtree.
Every finite tree in memory is a BlockMarking: one frozenset of marked
strings per length, whose constructor is the one place a finite tree's
shape is checked.  grow is the one place levels are grown out of a
membership oracle; what it grows is a tree by construction and is not
checked again.  quotient_of_source grows one representative per (state,
length) class instead; without states, every member is a class.

Subset candidates inside an ambient tree are bit-string codes over the
length-lex enumeration.  validate_code checks the marking discipline:
marked strings form a prefix-closed subtree of the ambient tree with a
mark on every complete length level, and (for pruned codes) every marked
node whose children are in view has a marked child.  Restrictions of a
code to the strings compatible with a fixed node may lose whole levels;
they carry a restriction flag instead of failing validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .core import (
    BudgetExceeded,
    CgmtError,
    check_bits,
    block_length,
    block_of_prefix_length,
    compatible,
    index_of,
    iter_strings,
    string_at,
)


class NotExtendible(CgmtError):
    """A path construction hit a node with no extendible child."""


class CodeViolation(CgmtError):
    """A code prefix violates the marking discipline.

    condition: 0 shape (level count, binary marks of their level's
    length), 1 prefix-closure, 2 ambient membership, 3 level coverage,
    4 pruned child condition.  witness: offending mark (or block level
    rendered as a decimal string, for conditions 0 and 3).
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


class Condition2Violation(CodeViolation):
    def __init__(self, witness: str):
        super().__init__(2, witness, "marked string outside the ambient tree")


class Condition3Violation(CodeViolation):
    def __init__(self, level: int):
        super().__init__(3, str(level), "complete level with no marked string")


class PrunedViolation(CodeViolation):
    def __init__(self, witness: str):
        super().__init__(4, witness, "marked string with both children in view, neither marked")


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

    def level_count(self, m: int) -> Optional[int]:
        if self.extension_count is None:
            return None
        return self.extension_count("", m)


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
    """A tree through a depth, one node per (state, length) class of its members.

    kids[L][k] holds, for class k of length L < depth, the class numbers
    at length L+1 of its two children, -1 for a child that is not a
    member.  multiplicity[L][k] is the number of members class k stands
    for; a level with no class is empty.
    """

    kids: tuple[tuple[tuple[int, int], ...], ...]
    multiplicity: tuple[tuple[int, ...], ...]


def quotient_of_source(
    src: TreeSource, depth: int, budget: Optional[int] = None
) -> StateQuotient:
    """The state quotient of src through depth, asking only member and state.

    Each class keeps the first member found as its representative, and only
    a representative's children are asked about: by the state contract the
    children of every member of the class fall in the same classes.  The
    count of members held through depth, root included, is the sum of the
    multiplicities, the same count grow reaches; it is checked against the
    budget as each level is added.  A source without states is its own
    quotient: each member is the state of itself, a class of one.
    """
    member, state = src.member, src.state or (lambda s: s)
    reps = [""] if member("") else []
    mult = [1] * len(reps)
    held = len(reps)
    _check_budget(held, budget, depth)
    kids, multiplicity = [], [tuple(mult)]
    for _ in range(depth):
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
        reps, mult = next_reps, next_mult
    return StateQuotient(tuple(kids), tuple(multiplicity))


# -- finite trees ---------------------------------------------------------------


@dataclass(frozen=True)
class BlockMarking:
    """A finite tree: its marked strings grouped by length, through one block.

    levels[L] holds the marks of length L, for L = 0..block; block -1 is
    the empty prefix, which carries no information at all.  The constructor
    is the one shape check of a finite tree: one level per length, every
    mark a binary string of its level's length, every mark's parent marked.
    A restriction marking may have empty levels; an ordinary validated
    marking may not.
    """

    block: int
    levels: tuple[frozenset[str], ...]
    restriction: bool = False

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
            for t in level:
                # a marked parent is already checked binary, so the last bit is all that is new
                if not isinstance(t, str) or len(t) != length or (length and t[-1] not in "01"):
                    raise ShapeViolation(t, f"mark is not a binary string of length {length}")
                if length and t[:-1] not in above:
                    if t.strip("01"):
                        raise ShapeViolation(t, f"mark is not a binary string of length {length}")
                    raise Condition1Violation(t)

    @classmethod
    def derived(
        cls, block: int, levels: tuple[frozenset[str], ...], restriction: bool = False
    ) -> "BlockMarking":
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
        object.__setattr__(marking, "restriction", restriction)
        return marking

    def marked_at(self, length: int) -> frozenset[str]:
        if not 0 <= length <= self.block:
            return frozenset()
        return self.levels[length]

    def is_marked(self, s: str) -> bool:
        return s in self.marked_at(len(s))

    def cut(self, block: int) -> "BlockMarking":
        """The same marks through a block no deeper than this one."""
        if not -1 <= block <= self.block:
            raise CgmtError(f"block {block} outside the marking's blocks -1..{self.block}")
        return BlockMarking.derived(block, self.levels[: block + 1], self.restriction)

    def restrict(self, tau: str) -> "BlockMarking":
        check_bits(tau)
        # a mark compatible with tau has a parent compatible with tau
        return BlockMarking.derived(
            self.block,
            tuple(frozenset(s for s in level if compatible(s, tau)) for level in self.levels),
            restriction=True,
        )

    def to_source(self) -> TreeSource:
        """Membership to the block; extendible means reaching it."""
        depth = self.block
        live = prefix_closure(self.marked_at(depth), depth)

        def member(s: str) -> bool:
            check_bits(s)
            return s in self.marked_at(len(s))

        def extendible(s: str) -> bool:
            check_bits(s)
            return len(s) <= depth and s in live[len(s)]

        def count(tau: str, m: int) -> int:
            if m < len(tau):
                return 0
            return sum(1 for s in self.marked_at(m) if s.startswith(tau))

        return TreeSource(
            member=member, extendible=extendible, extension_count=count, name=f"truncated:{depth}"
        )

    @staticmethod
    def empty() -> "BlockMarking":
        return BlockMarking(-1, ())


def prefix_closure(top: Iterable[str], depth: int) -> tuple[frozenset[str], ...]:
    """Per length 0..depth, the prefixes of the length-depth strings in top."""
    levels = [frozenset(top)]
    for _ in range(depth):
        levels.append(frozenset(sigma[:-1] for sigma in levels[-1]))
    return tuple(reversed(levels))


def marking_of_source(src: TreeSource, block: int, budget: Optional[int] = None) -> BlockMarking:
    """Canonical marking of the tree itself through the given block."""
    levels = tuple(levels_of_source(src, block, budget))
    # child expansion from {""} leaves every mark with its parent marked
    return BlockMarking.derived(block, levels, restriction=not all(levels))


# -- subset codes ---------------------------------------------------------------


@dataclass(frozen=True)
class SubtreeCodePrefix:
    """A validated code prefix: bits[i] marks the i-th string in length-lex order."""

    bits: str
    validated_block: Optional[int]
    pruned: bool = False
    restriction: bool = False

    def length(self) -> int:
        return len(self.bits)

    def is_marked(self, s: str) -> bool:
        i = index_of(s)
        return i < len(self.bits) and self.bits[i] == "1"

    def marked_strings(self) -> Iterator[str]:
        for i, b in enumerate(self.bits):
            if b == "1":
                yield string_at(i)

    def marking(self, block: Optional[int] = None) -> BlockMarking:
        """Marked level sets through `block` (default: deepest complete block)."""
        if block is None:
            block = self.validated_block if self.validated_block is not None else -1
        if block < 0:
            return BlockMarking.empty()
        if self.validated_block is None or block > self.validated_block:
            raise CgmtError(f"block {block} not complete in a length-{len(self.bits)} prefix")
        levels: list[set[str]] = [set() for _ in range(block + 1)]
        for i in range(block_length(block)):
            if self.bits[i] == "1":
                s = string_at(i)
                levels[len(s)].add(s)
        return BlockMarking(
            block, tuple(frozenset(l) for l in levels), restriction=self.restriction
        )


def validate_code(nu: str, ambient: TreeSource, pruned: bool = False) -> SubtreeCodePrefix:
    """Check the marking discipline, reporting the first violated condition."""
    check_bits(nu)
    block = block_of_prefix_length(len(nu))
    marked = [b == "1" for b in nu]
    for i, m in enumerate(marked):
        if m and i:
            s = string_at(i)
            if not marked[index_of(s[:-1])]:
                raise Condition1Violation(s)
    for i, m in enumerate(marked):
        if m and not ambient.member(string_at(i)):
            raise Condition2Violation(string_at(i))
    if block is not None:
        for n in range(block + 1):
            start = block_length(n - 1) if n else 0
            if not any(marked[start : block_length(n)]):
                raise Condition3Violation(n)
    if pruned:
        for i, m in enumerate(marked):
            if not m:
                continue
            s = string_at(i)
            right = index_of(s + "1")
            if right < len(nu) and not (marked[right - 1] or marked[right]):
                raise PrunedViolation(s)
    return SubtreeCodePrefix(nu, block, pruned=pruned)


def code_of_levels(
    levels: Iterable[Iterable[str]], pruned: bool = False, restriction: bool = False
) -> SubtreeCodePrefix:
    """Assemble a code prefix from per-level marked sets (unchecked)."""
    rows = []
    for n, level in enumerate(levels):
        row = ["0"] * (1 << n)
        for s in level:
            row[int(s or "0", 2)] = "1"
        rows.append("".join(row))
    return SubtreeCodePrefix(
        "".join(rows), len(rows) - 1 if rows else None, pruned=pruned, restriction=restriction
    )


def restrict(z: SubtreeCodePrefix, tau: str) -> SubtreeCodePrefix:
    """Marks of z compatible with tau; flagged, since levels may empty out."""
    check_bits(tau)
    out = [
        b if b == "0" or compatible(string_at(i), tau) else "0"
        for i, b in enumerate(z.bits)
    ]
    return SubtreeCodePrefix("".join(out), z.validated_block, pruned=False, restriction=True)


# -- separable sequences ---------------------------------------------------------


@dataclass(frozen=True)
class PathGenerator:
    """Deterministic infinite binary sequence, queried by prefix length."""

    prefix_fn: Callable[[int], str]
    name: str = "path"

    def prefix(self, length: int) -> str:
        out = self.prefix_fn(length)
        if len(out) != length or (out and out.strip("01")):
            raise CgmtError(f"{self.name}: generator returned a bad prefix")
        return out


def constant_tail_path(stem: str, tail: str = "0") -> PathGenerator:
    check_bits(stem)
    check_bits(tail)

    def prefix_fn(length: int) -> str:
        if length <= len(stem):
            return stem[:length]
        return (stem + tail * (length - len(stem)))[:length]

    return PathGenerator(prefix_fn, name=f"{stem or 'root'}+{tail}*")


def leftmost_extension_path(src: TreeSource, stem: str) -> PathGenerator:
    ext = src.require_extendible()
    if not ext(stem):
        raise NotExtendible(f"{src.name}: {stem!r} is not extendible")
    grown = [stem]

    def prefix_fn(length: int) -> str:
        cur = grown[0]
        while len(cur) < length:
            if ext(cur + "0"):
                cur += "0"
            elif ext(cur + "1"):
                cur += "1"
            else:
                raise NotExtendible(f"{src.name}: dead end below {stem!r}")
        grown[0] = cur
        return cur[:length]

    return PathGenerator(prefix_fn, name=f"leftmost:{stem or 'root'}")


@dataclass(frozen=True)
class SeparableSequence:
    generators: tuple[PathGenerator, ...]


def leftmost_path(src: TreeSource, depth: int) -> str:
    ext = src.require_extendible()
    if not ext(""):
        raise NotExtendible(f"{src.name}: root is not extendible")
    return leftmost_extension_path(src, "").prefix(depth)


def separable_from_pruned(src: TreeSource, count: int, depth: int) -> SeparableSequence:
    """Leftmost-extension generators for the first `count` members in length-lex order."""
    gens: list[PathGenerator] = []
    if count:
        for s in iter_strings(depth):
            if src.member(s):
                gens.append(leftmost_extension_path(src, s))
                if len(gens) == count:
                    break
        else:
            raise NotExtendible(f"{src.name}: fewer than {count} members to depth {depth}")
    return SeparableSequence(tuple(gens))


def tree_from_separable(seq: SeparableSequence, depth: int) -> BlockMarking:
    return BlockMarking(depth, prefix_closure((g.prefix(depth) for g in seq.generators), depth))
