"""Exact 2^{-n}-premeasures of marked subsets via min-weight prefix covers.

The value of a marking at dimension s and granularity n is the cheapest way
to cover its deepest marked level by cylinders of length between n and the
block depth, where a cylinder of length L costs 2^(-s*L).  Below length n
covering is forced to split, so the value decomposes as a sum over length-n
nodes; from length n up it is a min/sum dynamic program.  Short prefixes
(block below n) carry no usable information and get the full level-n cover
price 2^((1-s)*n) by convention.

The min/sum rule lives in one place, ShapeTable.  A node's value depends
only on its length and the shape of its subtree, so the table hash-conses
shapes by (length, left id, right id) and weighs each new one once: on the
full tree that is one sum and one comparison per level, however many
strings are live.  With s fixed and the deepest block known, the sums and
comparisons run on weights.ScaledRing's int vectors, and only a root value
becomes an AlgebraicWeight.  The table's climb takes the shape ids of one
level's strings up to their prefixes, so it walks exactly a top level's
prefix closure; htilde is one climb from the block to the root.  The
interpolation sweep of cgmt.construct keeps one table for all the tops it
tries: it interns its threshold nodes' shapes itself and climbs only its
roots' ids.

measure_sequence weighs a source on its state quotient (TreeSource.state):
members of one length with equal states have equal subtrees, so one
representative per (state, length) class stands for all of them, and the
classes are interned in the same table as htilde's strings.  A tree whose
source names states is never enumerated; a source without states is its
own quotient, one class per member.  cgmt.construct values its codes
with the same quotient_htilde: a code's explicit levels climb as htilde's
do, and the ambient tail below them is weighed on the quotient grown from
the explicit top level.  class_shapes gives every class its shape id at
each length, which is what the sweep reads below its roots.

htilde_bruteforce enumerates every cover literally ("cover here or delegate
to both children") and exists only to check htilde against an independent
route; it keeps AlgebraicWeight arithmetic throughout.  Since a cover's
weight depends only on the multiset of its string lengths, the enumeration
weighs and compares each distinct length histogram once; it still visits
every cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import BudgetExceeded, CgmtError
from .trees import (
    BlockMarking,
    StateQuotient,
    TreeSource,
    prefix_closure,
    quotient_of_source,
)
from .weights import AlgebraicWeight, ScaledRing, cylinder_weight

CASE2_WITNESS_CAP = 12
BRUTEFORCE_MAX_BLOCK = 7
DEFAULT_ENUM_BUDGET = 500_000


class DepthTooLarge(CgmtError):
    """Brute-force enumeration refused: the block is too deep."""


class NotACover(CgmtError):
    def __init__(self, witness: str):
        super().__init__(f"string {witness!r} has no prefix in the cover")
        self.witness = witness


class LengthViolation(CgmtError):
    def __init__(self, witness: str):
        super().__init__(f"cover string {witness!r} is shorter than the granularity")
        self.witness = witness


class PreconditionMeasure(CgmtError):
    """A measure-side precondition (certified lower bound) failed."""


@dataclass(frozen=True)
class CoverSet:
    """Finite set of covering strings with lengths in [n, m]."""

    strings: frozenset[str]
    n: int
    m: int

    def __post_init__(self) -> None:
        for s in self.strings:
            if not self.n <= len(s) <= self.m:
                raise CgmtError(f"cover string {s!r} outside lengths [{self.n}, {self.m}]")


@dataclass(frozen=True)
class MeasureValue:
    value: AlgebraicWeight
    witness: Optional[CoverSet]
    at_block: int


@dataclass(frozen=True)
class MeasureBracket:
    """Two-sided verdict: lower certified at lower_block, upper witnessed at upper_block."""

    lower: AlgebraicWeight
    upper: AlgebraicWeight
    lower_block: int
    upper_block: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise CgmtError("bracket is empty: lower > upper")


def _exponent(s) -> Fraction:
    s = Fraction(s)
    if s < 0:
        raise CgmtError(f"dimension must be nonnegative, got {s}")
    return s


def _check_granularity(n: int) -> None:
    if n < 0:
        raise CgmtError(f"granularity must be nonnegative, got {n}")


def cover_weight(strings: Iterable[str], s) -> AlgebraicWeight:
    """Total s-weight sum of 2^(-s*|sigma|) over the given strings."""
    s = _exponent(s)
    by_length: dict[int, int] = {}
    for sigma in strings:
        by_length[len(sigma)] = by_length.get(len(sigma), 0) + 1
    total = AlgebraicWeight.zero()
    for length, count in sorted(by_length.items()):
        total = total + cylinder_weight(s, length) * count
    return total


def _case2(s: Fraction, n: int, at_block: int) -> MeasureValue:
    value = AlgebraicWeight.two_power((1 - s) * n)
    witness = None
    if n <= CASE2_WITNESS_CAP:
        level = frozenset(format(v, f"0{n}b") if n else "" for v in range(1 << n))
        witness = CoverSet(level, n, n)
    return MeasureValue(value, witness, at_block)


def _empty(n: int, m: int) -> MeasureValue:
    return MeasureValue(AlgebraicWeight.zero(), CoverSet(frozenset(), n, m), m)


class ShapeTable:
    """Hash-consed subtree shapes at fixed s and n, each weighed once.

    A shape is interned under (length, left id, right id), -1 standing for
    a child with nothing at the block; the leaf of block b is (b, -1, -1),
    which no inner node shares because an inner node has a live child.  Nodes
    with equal ids have equal subtrees, hence equal values and the same
    choice between covering here and delegating.  A new shape is weighed
    once, as an int vector of one ScaledRing at the deepest block the table
    serves, by the min/sum rule: a node covers itself iff its length is at
    least n and its cylinder weighs no more than its children's total, ties
    taken here; a leaf always covers itself.  The take-here flags and child
    ids are kept for the witness walk.
    """

    __slots__ = ("ring", "n", "_ids", "values", "take", "kids")

    def __init__(self, s: Fraction, n: int, deep: int):
        self.ring = ScaledRing(s, deep)
        self.n = n
        self._ids: dict[tuple[int, int, int], int] = {}
        self.values: list[tuple[int, ...]] = []
        self.take: list[bool] = []
        self.kids: list[tuple[int, int]] = []

    def shape(self, length: int, left: int, right: int) -> int:
        """The id of the node at length with the given child ids, weighed if new."""
        key = (length, left, right)
        got = self._ids.get(key)
        if got is not None:
            return got
        ring, values = self.ring, self.values
        here = ring.cylinder(length)
        if left < 0 and right < 0:
            take, total = True, here
        else:
            if left >= 0 and right >= 0:
                total = ring.add(values[left], values[right])
            else:
                total = values[max(left, right)]
            take = length >= self.n and ring.le(here, total)
        got = self._ids[key] = len(values)
        values.append(here if take else total)
        self.take.append(take)
        self.kids.append((left, right))
        return got

    def leaf(self, block: int) -> int:
        return self.shape(block, -1, -1)

    def climb(self, ids: dict[str, int], length: int) -> int:
        """Shape id of the root above ids' strings, all of the given length; -1 if there are none.

        Only prefixes of the given strings appear: a climb from the top
        level of a marking is its prefix closure, one level at a time.
        """
        # most nodes of a sweep step are already interned: their ids are
        # read straight from the dict, saving a method call per node
        known, shape = self._ids, self.shape
        for parent_length in range(length - 1, -1, -1):
            zeros: dict[str, int] = {}
            ones: dict[str, int] = {}
            for sigma, k in ids.items():
                if sigma[-1] == "0":
                    zeros[sigma[:-1]] = k
                else:
                    ones[sigma[:-1]] = k
            ids = {}
            for sigma, zero in zeros.items():
                key = (parent_length, zero, ones.pop(sigma, -1))
                got = known.get(key)
                ids[sigma] = shape(*key) if got is None else got
            for sigma, one in ones.items():
                key = (parent_length, -1, one)
                got = known.get(key)
                ids[sigma] = shape(*key) if got is None else got
        return ids.get("", -1)

    def class_shapes(self, quotient: StateQuotient, block: int) -> list[list[int]]:
        """Shape ids of the quotient's classes at each length from its start through block.

        Entry [i][k] is class k of length start + i, -1 for a class with no
        descendant at the block.  Each class is interned once per length on
        the way up from the block; block is at least the quotient's start
        and at most its depth.
        """
        start = quotient.start
        shape = [self.leaf(block)] * len(quotient.multiplicity[block - start])
        shapes = [shape]
        for i in range(block - start - 1, -1, -1):
            level_shape = []
            for zero, one in quotient.kids[i]:
                left = shape[zero] if zero >= 0 else -1
                right = shape[one] if one >= 0 else -1
                level_shape.append(
                    -1 if left < 0 and right < 0 else self.shape(start + i, left, right)
                )
            shape = level_shape
            shapes.append(shape)
        shapes.reverse()
        return shapes

    def vector(self, root: int) -> tuple[int, ...]:
        """The value of a shape id as the ring's int vector; -1 (nothing at the block) is 0."""
        return self.values[root] if root >= 0 else (0,) * self.ring.q

    def weight(self, root: int) -> AlgebraicWeight:
        return self.ring.weight(self.vector(root))

    def cover(self, root: int) -> list[str]:
        """The strings the rule covers with, walked from the root of shape id root."""
        chosen: list[str] = []
        stack = [("", root)]
        while stack:
            sigma, k = stack.pop()
            if self.take[k]:
                chosen.append(sigma)
            else:
                for bit, child in zip("01", self.kids[k]):
                    if child >= 0:
                        stack.append((sigma + bit, child))
        return chosen


def _value(table: ShapeTable, root: int, n: int, m: int, want_witness: bool) -> MeasureValue:
    witness = CoverSet(frozenset(table.cover(root)), n, m) if want_witness else None
    return MeasureValue(table.weight(root), witness, m)


def htilde(marking: BlockMarking, s, n: int, want_witness: bool = True) -> MeasureValue:
    """Exact min-weight cover value of the marking at dimension s, granularity n.

    The top level's strings climb to the root through one ShapeTable, so
    the exact sum and comparison run once per distinct subtree shape, not
    once per string.  The value and the witness are the same as a
    per-string evaluation's.
    """
    s = _exponent(s)
    _check_granularity(n)
    m = marking.block
    if m < n:
        return _case2(s, n, m)
    top = marking.marked_at(m)
    if not top:
        return _empty(n, m)
    table = ShapeTable(s, n, m)
    root = table.climb(dict.fromkeys(top, table.leaf(m)), m)
    return _value(table, root, n, m, want_witness)


def quotient_htilde(
    quotient: StateQuotient, s, n: int, m: int, want_witness: bool = True
) -> MeasureValue:
    """htilde through block m of a tree given by its state quotient.

    The tree is the quotient's start-level members, their prefixes, and
    the members below them that the quotient stands for.  Its classes get
    shape ids as htilde's strings do, and the start level climbs to the
    root as htilde's top level does, so the value and the witness are
    htilde's on the grown marking.
    """
    s = _exponent(s)
    _check_granularity(n)
    if m < n:
        return _case2(s, n, m)
    table = ShapeTable(s, n, m)
    shapes = table.class_shapes(quotient, m)[0]
    ids = {t: shapes[k] for t, k in quotient.classes.items() if shapes[k] >= 0}
    root = table.climb(ids, quotient.start)
    if root < 0:
        return _empty(n, m)
    return _value(table, root, n, m, want_witness)


# -- independent brute-force oracle ---------------------------------------------


def count_covers(marking: BlockMarking, n: int) -> int:
    """Number of covers the literal enumeration would visit."""
    m = marking.block
    if m < n or not marking.marked_at(m):
        return 1
    live = prefix_closure(marking.marked_at(m), m)

    def count(sigma: str) -> int:
        if len(sigma) == m:
            return 1
        total = 1
        for child in (sigma + "0", sigma + "1"):
            if child in live[len(sigma) + 1]:
                total *= count(child)
        return total + (1 if len(sigma) >= n else 0)

    return count("")


def htilde_bruteforce(
    marking: BlockMarking, s, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> MeasureValue:
    """Literal minimum over every cover; independent of the dynamic program.

    The enumeration visits every cover, and the budget counts covers.  Each
    distinct length histogram is weighed and compared once, at its first
    cover; the witness is the first cover in enumeration order of least
    weight.
    """
    s = _exponent(s)
    m = marking.block
    if m > BRUTEFORCE_MAX_BLOCK:
        raise DepthTooLarge(f"brute force limited to block {BRUTEFORCE_MAX_BLOCK}, got {m}")
    if m < n:
        if n > CASE2_WITNESS_CAP:
            raise DepthTooLarge(f"short-prefix enumeration limited to n <= {CASE2_WITNESS_CAP}")
        level = [format(v, f"0{n}b") if n else "" for v in range(1 << n)]
        total = AlgebraicWeight.zero()
        for _ in level:
            total = total + cylinder_weight(s, n)
        return MeasureValue(total, CoverSet(frozenset(level), n, n), m)
    top = marking.marked_at(m)
    if not top:
        return MeasureValue(AlgebraicWeight.zero(), CoverSet(frozenset(), n, m), m)
    if count_covers(marking, n) > budget:
        raise BudgetExceeded(f"more than {budget} covers to enumerate")
    live = prefix_closure(marking.marked_at(m), m)

    def covers(sigma: str):
        if len(sigma) == m:
            yield (sigma,)
            return
        if len(sigma) >= n:
            yield (sigma,)
        kids = [c for c in (sigma + "0", sigma + "1") if c in live[len(sigma) + 1]]
        if len(kids) == 1:
            yield from covers(kids[0])
        else:
            for a in covers(kids[0]):
                for b in covers(kids[1]):
                    yield a + b

    best = None
    best_weight = None
    seen: set[tuple[int, ...]] = set()
    for cover in covers(""):
        # a cover's weight depends only on its length histogram; a repeated
        # histogram weighs the same as a cover already compared, so it can
        # never be strictly lighter than the best so far
        histogram = tuple(sorted(map(len, cover)))
        if histogram in seen:
            continue
        seen.add(histogram)
        w = cover_weight(cover, s)
        if best_weight is None or w < best_weight:
            best, best_weight = cover, w
    return MeasureValue(best_weight, CoverSet(frozenset(best), n, m), m)


# -- cover checking ---------------------------------------------------------------


def verify_marking_cover(cover: CoverSet, marking: BlockMarking, n: int, s) -> AlgebraicWeight:
    """Check the cover is a 2^{-n}-cover of the marking's deepest level."""
    for sigma in sorted(cover.strings):
        if len(sigma) < n:
            raise LengthViolation(sigma)
    strings = cover.strings
    for deep in sorted(marking.marked_at(marking.block)):
        if not any(deep[:length] in strings for length in range(n, len(deep) + 1)):
            raise NotACover(deep)
    return cover_weight(strings, s)


# -- sequences -----------------------------------------------------------------------


def measure_sequence(
    src: TreeSource, s, n: int, blocks: list[int], budget: Optional[int] = None
) -> list[MeasureValue]:
    """htilde of the tree's own code at each requested block (blocks increasing).

    The tree is weighed on its state quotient, one representative per
    (state, length) class; a source without states has one class per
    member.  budget bounds the strings held through the deepest block, root
    included: the sum of the classes' multiplicities.
    """
    # checked before the quotient is built, which can pass the budget first
    _exponent(s)
    _check_granularity(n)
    if list(blocks) != sorted(set(blocks)):
        raise CgmtError("blocks must be strictly increasing")
    if not blocks:
        return []
    quotient = quotient_of_source(src, max(blocks), budget)
    return [quotient_htilde(quotient, s, n, b) for b in blocks]
