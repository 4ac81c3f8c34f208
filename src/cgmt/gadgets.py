"""Finite-horizon encodings of an injection's range into trees and weights.

Each builder takes a finite injection table (values f(0..H-1), pairwise
distinct) and materializes a structure, truncated at a stated depth, whose
membership or value behavior reveals exactly the table's range at that
horizon.  check_gadget replays the decoding side of the construction for
every n < H and compares it with direct range lookup; any mismatch is a
hard failure in the report.

Kinds:

  marker-tree    tree whose depth-D survivors above the marker 0^n 1
                 exist iff n is never enumerated
  point-sequence sequence X_k = the single-1 path for f(k); n is in the
                 range iff the n-th single-1 path stays in the closure
  column-tree    tree on interleaved columns: column n may contain a 0
                 only while n is unenumerated; decoded through a generic
                 path meeting the per-column open sets
  deficit-min    monotone weight 1 - sum of 2^{-n-1} over positions that
                 are 0 or enumerated; membership shows up as exact
                 equality under single-bit flips
  first-one-inf  weight 2^{-k} at the first 1 (1 on all-zero strings):
                 infimum 0 over the full tree, never attained

Every equivalence here is horizon-relative on both sides: "in range"
always means "in {f(k): k < H}".  Fidelity to the untruncated statement
grows with depth; that gap is inherent to finite tables.

Cost of each replay, at horizon H and check depth D (D >= required_depth):

  marker-tree    H probes of length D, each an O(D) membership: O(H D)
  point-sequence H probes of length D, each an O(D) closed-form
                 membership (no scan of the stems): O(H D)
  column-tree    one O(D) check of the generic path, then column n's
                 positions for each n; the columns are disjoint: O(H + D)
  deficit-min    one O(H + D) deficit mask, one weighing of the all-ones
                 string and H weighings of its flips, each O(D): O(H D)
  first-one-inf  at most 12 evaluations on strings of at most 12 bits

Character and big-integer operations count as O(D) each; every lookup in
the table is one read of its index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .core import CgmtError, check_bits, column, pair
from .trees import TreeSource
from .weights import AlgebraicWeight
from .construct import baire_intersect

GADGET_KINDS = (
    "marker-tree",
    "point-sequence",
    "column-tree",
    "deficit-min",
    "first-one-inf",
)

MAX_GADGET_DEPTH = 1 << 14

_FLIP_BITS = str.maketrans("01", "10")


@dataclass(frozen=True)
class InjectionTable:
    """Finite table of an injection: values[k] = f(k) for k < horizon.

    Lookups read one value -> index map, built with the distinctness check,
    so a query costs the same at every horizon.  The deficit masks are kept
    per string length in a memo the table owns.
    """

    values: tuple[int, ...]
    _index: dict[int, int] = field(init=False, repr=False, compare=False)
    _deficit_masks: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for v in self.values:
            if not isinstance(v, int) or v < 0:
                raise CgmtError(f"table values must be nonnegative integers, got {v!r}")
        index = {v: k for k, v in enumerate(self.values)}
        if len(index) != len(self.values):
            raise CgmtError("table values must be pairwise distinct")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_deficit_masks", {})

    @property
    def horizon(self) -> int:
        return len(self.values)

    def range_at_horizon(self) -> frozenset[int]:
        return frozenset(self.values)

    def witness(self, n: int) -> Optional[int]:
        """Least k with f(k) = n, or None if n is outside the range."""
        return self._index.get(n)

    def enumerated_before(self, n: int, bound: int) -> bool:
        """Whether some k < bound has f(k) = n."""
        k = self._index.get(n)
        return k is not None and k < bound

    def deficit_mask(self, length: int) -> int:
        """The positions n < length enumerated by some k < length, as bits.

        Position n is bit length-1-n, most significant first, as in a bit
        string of that length read as a binary number.  Built once per
        length from the index, in O(horizon + length).
        """
        mask = self._deficit_masks.get(length)
        if mask is None:
            bits = bytearray(b"0" * length)
            for n, k in self._index.items():
                if n < length and k < length:
                    bits[n] = ord("1")
            mask = int(bits or b"0", 2)
            self._deficit_masks[length] = mask
        return mask


def marker(n: int) -> str:
    """The string of n zeros followed by a single 1."""
    if n < 0:
        raise CgmtError("marker index must be nonnegative")
    return "0" * n + "1"


def single_one_path(n: int, depth: int) -> str:
    """Length-depth prefix of the path with its only 1 at position n."""
    if depth <= n:
        return "0" * depth
    return "0" * n + "1" + "0" * (depth - n - 1)


@dataclass(frozen=True)
class GadgetInstance:
    """One materialized encoding, reproducible from (kind, table, depth).

    source is the encoded tree for the tree-shaped kinds, and for
    point-sequence the tree of its stems' prefixes; opens are the
    per-column upward-closed codes for column-tree; evaluator is the
    weight functional for the two weight kinds.  stand_in names any exact
    closed form used in place of a search the construction's ambient
    theory would perform.
    """

    kind: str
    table: InjectionTable
    depth: int
    source: Optional[TreeSource] = None
    opens: tuple[Callable[[str], bool], ...] = ()
    evaluator: Optional[Callable[[str], AlgebraicWeight]] = None
    generic_path: str = ""
    stand_in: Optional[str] = None


@dataclass(frozen=True)
class GadgetReport:
    """Per-index decoding comparison: gadget verdict vs direct lookup."""

    kind: str
    horizon: int
    depth: int
    rows: tuple[tuple[int, bool, bool], ...]
    ok: bool
    stand_in: Optional[str] = None

    def mismatches(self) -> tuple[int, ...]:
        return tuple(n for n, g, d in self.rows if g != d)


def required_depth(kind: str, table: InjectionTable) -> int:
    """Least depth at which every n < horizon is decodable."""
    h = table.horizon
    if kind == "marker-tree":
        return max(h, 1)
    if kind == "point-sequence":
        return max([h] + [v + 1 for v in table.values])
    if kind == "column-tree":
        # column n first appears at string length pair(n, 0) + 1
        return pair(h - 1, 0) + 1 if h else 1
    if kind == "deficit-min":
        return max(h, 1)
    if kind == "first-one-inf":
        return 1
    raise CgmtError(f"unknown gadget kind {kind!r}")


def _marker_tree(table: InjectionTable, depth: int) -> TreeSource:
    def member(sigma: str) -> bool:
        check_bits(sigma)
        first = sigma.find("1")
        return first < 0 or not table.enumerated_before(first, len(sigma))

    def extendible(sigma: str) -> bool:
        check_bits(sigma)
        first = sigma.find("1")
        return first < 0 or table.witness(first) is None

    def count(tau: str, m: int) -> int:
        if m < len(tau) or not member(tau):
            return 0
        first = tau.find("1")
        if first >= 0:
            # inside a marked subtree: full fanout while the witness
            # bound min(length, horizon) keeps clearing
            alive = not table.enumerated_before(first, m)
            return (1 << (m - len(tau))) if alive else 0
        total = 1  # the all-zero string of length m
        for n in range(len(tau), m):
            if not table.enumerated_before(n, m):
                total += 1 << (m - n - 1)
        return total

    return TreeSource(member=member, extendible=extendible, extension_count=count, name="marker-tree")


def _point_sequence(table: InjectionTable, depth: int) -> TreeSource:
    bad = [v for v in table.values if v >= depth]
    if bad:
        raise CgmtError(
            f"point-sequence depth {depth} hides value {max(bad)}; need depth > every table value"
        )
    longest_zeros = max(table.values, default=0)

    def member(sigma: str) -> bool:
        # sigma is a prefix of the stem 0^v 1 0^(depth-v-1) iff it is 0^j with
        # j <= v, or has its only 1 at position v
        check_bits(sigma)
        if len(sigma) > depth:
            return False
        if not table.values:
            return sigma == ""
        first = sigma.find("1")
        if first < 0:
            return len(sigma) <= longest_zeros
        return sigma.count("1") == 1 and table.witness(first) is not None

    return TreeSource(member=member, extendible=member, name="point-sequence")


def _column_tree(table: InjectionTable, depth: int) -> tuple[TreeSource, tuple[Callable[[str], bool], ...]]:
    h = table.horizon
    in_range = table.range_at_horizon()

    def columns_in_view(length: int):
        n = 0
        while pair(n, 0) < length:
            yield n
            n += 1

    def member(sigma: str) -> bool:
        check_bits(sigma)
        for n in columns_in_view(len(sigma)):
            if "0" in column(sigma, n) and table.enumerated_before(n, len(sigma)):
                return False
        return True

    def extendible(sigma: str) -> bool:
        # closed form: witnesses only accumulate, so a 0 in column n is
        # consistent with some infinite path iff n never gets enumerated
        check_bits(sigma)
        for n in columns_in_view(len(sigma)):
            if "0" in column(sigma, n) and n in in_range:
                return False
        return True

    def make_open(n: int) -> Callable[[str], bool]:
        def hit(sigma: str) -> bool:
            return table.enumerated_before(n, len(sigma)) or "0" in column(sigma, n)

        return hit

    opens = tuple(make_open(n) for n in range(h))
    return (
        TreeSource(member=member, extendible=extendible, name="column-tree"),
        opens,
    )


def _column_generic_path(table: InjectionTable, depth: int) -> str:
    """All ones except a 0 at pair(n, 0) for each unenumerated n < horizon.

    Lies in the tree (its zeros sit in never-enumerated columns), is
    extendible, and meets every per-column open set that fits inside
    depth, so it serves as an explicit generic path for decoding.
    """
    bits = ["1"] * depth
    in_range = table.range_at_horizon()
    for n in range(table.horizon):
        if n in in_range:
            continue
        pos = pair(n, 0)
        if pos < depth:
            bits[pos] = "0"
    return "".join(bits)


def decode_column_path(g: "GadgetInstance", z: str, n: int) -> Optional[bool]:
    """Scan initial segments of a generic path for the first decision on n.

    Returns True (in range) when a witness k with f(k) = n enters view
    before any 0 shows up in column n, False when a column 0 shows first,
    None when the path is too short to decide.  For paths inside the tree
    the two conditions are mutually exclusive.
    """
    if g.kind != "column-tree":
        raise CgmtError(f"decode_column_path needs a column-tree, got {g.kind}")
    check_bits(z)
    return _decode_column(g.table, z, n)


def _decode_column(table: InjectionTable, z: str, n: int) -> Optional[bool]:
    """decode_column_path on a path already checked to be binary.

    Reads only column n of z, so decoding every column reads each bit at most once.
    """
    witness = table.witness(n)
    first_zero: Optional[int] = None
    m = 0
    while True:
        pos = pair(n, m)
        if pos >= len(z):
            break
        if z[pos] == "0":
            first_zero = pos
            break
        m += 1
    # the decision happens at whichever initial segment qualifies first:
    # length witness+1 shows the witness, length first_zero+1 shows the 0
    if witness is not None and witness < len(z):
        if first_zero is None or witness < first_zero:
            return True
    if first_zero is not None:
        if witness is None or first_zero < witness:
            return False
    return None


def smmin_weight(table: InjectionTable, sigma: str) -> AlgebraicWeight:
    """1 minus the dyadic deficit over positions that are 0 or enumerated.

    A position n < |sigma| contributes 2^{-n-1} when sigma(n) = 0, or when
    sigma(n) = 1 and some k < min(|sigma|, horizon) has f(k) = n.  Values
    are monotone decreasing along extensions: both triggers only grow.  The
    deficit is built as one integer over 2^|sigma| whose bits are the
    triggering positions, most significant first: the zeros of sigma ORed
    with the table's deficit mask for |sigma|.
    """
    check_bits(sigma)
    length = len(sigma)
    triggers = int(sigma.translate(_FLIP_BITS) or "0", 2) | table.deficit_mask(length)
    return AlgebraicWeight.from_rational(Fraction((1 << length) - triggers, 1 << length))


def eval_counterexample(sigma: str) -> AlgebraicWeight:
    """2^{-k} at the first 1 of sigma; 1 when sigma has no 1 at all.

    Over the full binary tree the infimum of these values is 0 but no
    path attains it: along any fixed path the value is eventually the
    constant 2^{-k} of its first 1, or constantly 1 on the all-zero path.
    """
    check_bits(sigma)
    k = sigma.find("1")
    if k < 0:
        return AlgebraicWeight.from_rational(1)
    return AlgebraicWeight.from_rational(Fraction(1, 1 << k))


def build_gadget(kind: str, table: InjectionTable, depth: int) -> GadgetInstance:
    """Materialize one encoding of the table, truncated at depth.

    The instance is a pure function of (kind, table, depth).  depth must
    cover the decoding of every n < horizon (see required_depth) and stay
    under MAX_GADGET_DEPTH.
    """
    if kind not in GADGET_KINDS:
        raise CgmtError(f"unknown gadget kind {kind!r}; known: {', '.join(GADGET_KINDS)}")
    if depth <= 0 or depth > MAX_GADGET_DEPTH:
        raise CgmtError(f"depth must be in 1..{MAX_GADGET_DEPTH}, got {depth}")
    need = required_depth(kind, table)
    if depth < need:
        raise CgmtError(f"{kind} at horizon {table.horizon} needs depth >= {need}, got {depth}")

    if kind == "marker-tree":
        return GadgetInstance(kind=kind, table=table, depth=depth, source=_marker_tree(table, depth))
    if kind == "point-sequence":
        return GadgetInstance(kind=kind, table=table, depth=depth, source=_point_sequence(table, depth))
    if kind == "column-tree":
        source, opens = _column_tree(table, depth)
        return GadgetInstance(
            kind=kind,
            table=table,
            depth=depth,
            source=source,
            opens=opens,
            generic_path=_column_generic_path(table, depth),
            stand_in="closed-form column extendibility (0 in column n consistent iff n outside range-at-horizon)",
        )
    if kind == "deficit-min":
        return GadgetInstance(
            kind=kind,
            table=table,
            depth=depth,
            evaluator=lambda sigma: smmin_weight(table, sigma),
        )
    return GadgetInstance(kind=kind, table=table, depth=depth, evaluator=eval_counterexample)


def _check_marker_tree(g: GadgetInstance, depth: int) -> tuple[tuple[int, bool, bool], ...]:
    # n is out of range iff some depth-length member extends the marker;
    # while the marker subtree is alive it is full, so the all-zero tail
    # probes it without enumeration
    rows = []
    member = g.source.member
    for n in range(g.table.horizon):
        probe = marker(n) + "0" * (depth - n - 1)
        survivor = member(probe)
        rows.append((n, not survivor, g.table.witness(n) is not None))
    return tuple(rows)


def _check_point_sequence(g: GadgetInstance, depth: int) -> tuple[tuple[int, bool, bool], ...]:
    rows = []
    member = g.source.member
    for n in range(g.table.horizon):
        stays = member(single_one_path(n, depth))
        rows.append((n, stays, g.table.witness(n) is not None))
    return tuple(rows)


def _check_column_tree(g: GadgetInstance, depth: int) -> tuple[tuple[int, bool, bool], ...]:
    rows = []
    z = g.generic_path[:depth]
    check_bits(z)
    for n in range(g.table.horizon):
        verdict = _decode_column(g.table, z, n)
        direct = g.table.witness(n) is not None
        if verdict is None:
            verdict = not direct  # undecided scans count as mismatches
        rows.append((n, verdict, direct))
    return tuple(rows)


def _check_deficit_min(g: GadgetInstance, depth: int) -> tuple[tuple[int, bool, bool], ...]:
    # flipping position n of an all-ones string moves the weight iff n
    # was not already in the deficit set, i.e. iff n is unenumerated; depth
    # >= required_depth = max(horizon, 1), so one all-ones string holds every n
    rows = []
    ones = "1" * depth
    unflipped = g.evaluator(ones)
    for n in range(g.table.horizon):
        flipped = ones[:n] + "0" + ones[n + 1 :]
        # weights are canonical: equal iff their coefficients are, with no arithmetic
        same = g.evaluator(flipped) == unflipped
        rows.append((n, same, g.table.witness(n) is not None))
    return tuple(rows)


def _check_first_one_inf(g: GadgetInstance, depth: int) -> tuple[tuple[int, bool, bool], ...]:
    # value-side check: at each probed depth d the minimum over leaves is
    # exactly 2^{-(d-1)} (attained by the last marker) yet positive
    rows = []
    for d in range(1, min(depth, 12) + 1):
        attained = g.evaluator(marker(d - 1))
        expected = AlgebraicWeight.from_rational(Fraction(1, 1 << (d - 1)))
        floor_ok = (attained - expected).is_zero() and attained.sign() > 0
        # every other leaf is >= that: first 1 at k <= d-1 or no 1 at all
        rows.append((d, floor_ok, True))
    return tuple(rows)


def check_gadget(g: GadgetInstance, table: InjectionTable, depth: Optional[int] = None) -> GadgetReport:
    """Replay the decoding for every n < horizon against direct lookup.

    Each row is (n, gadget verdict, direct range membership); ok means the
    columns agree everywhere.  depth defaults to the build depth and may
    not exceed it (the instance holds nothing deeper).
    """
    if g.table.values != table.values:
        raise CgmtError("check_gadget: instance was built from a different table")
    if depth is None:
        depth = g.depth
    if depth <= 0 or depth > g.depth:
        raise CgmtError(f"check depth must be in 1..{g.depth}, got {depth}")
    if depth < required_depth(g.kind, table):
        raise CgmtError(f"{g.kind} at horizon {table.horizon} not decodable at depth {depth}")

    if g.kind == "marker-tree":
        rows = _check_marker_tree(g, depth)
    elif g.kind == "point-sequence":
        rows = _check_point_sequence(g, depth)
    elif g.kind == "column-tree":
        rows = _check_column_tree(g, depth)
    elif g.kind == "deficit-min":
        rows = _check_deficit_min(g, depth)
    else:
        rows = _check_first_one_inf(g, depth)

    ok = all(gv == dv for _, gv, dv in rows)
    return GadgetReport(
        kind=g.kind,
        horizon=g.table.horizon,
        depth=depth,
        rows=rows,
        ok=ok,
        stand_in=g.stand_in,
    )


def decode_range_via_baire(g: GadgetInstance, cap: int = 200_000) -> frozenset[int]:
    """Decode a column-tree's range by building a generic path by search.

    Runs baire_intersect over the tree against the per-column open codes
    and scans the resulting path.  Exponential in the column positions, so
    only feasible at small horizons; the structural generic_path covers
    large ones.
    """
    if g.kind != "column-tree":
        raise CgmtError(f"decode_range_via_baire needs a column-tree, got {g.kind}")
    z = baire_intersect(g.source, list(g.opens), "", g.depth, cap=cap)
    found = set()
    for n in range(g.table.horizon):
        verdict = decode_column_path(g, z, n)
        if verdict is None:
            raise CgmtError(f"generic path of length {len(z)} does not decide column {n}")
        if verdict:
            found.add(n)
    return frozenset(found)
